"""Partition arithmetic and dimension formulas for symmetric-group (Specht)
and general-linear (Schur) modules.

Partitions are plain tuples of weakly decreasing positive integers, stored
without trailing zeros.  All counts are exact Python integers.
"""

from math import factorial, prod


def check_partition(parts):
    """Validate a partition; returns it as a normalized tuple."""
    parts = tuple(parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return tuple(p for p in parts if p > 0)


def weight(parts):
    return sum(parts)


def conjugate(parts):
    """Transpose of the Young diagram."""
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def hook_partition(arm, legs):
    """The hook (arm, 1^legs); arm >= 1, legs >= 0."""
    if arm < 1 or legs < 0:
        raise ValueError(f"invalid hook ({arm}, 1^{legs})")
    return (arm,) + (1,) * legs


def hook_lengths(parts):
    """Hook length of every cell, row by row."""
    parts = check_partition(parts)
    conj = conjugate(parts)
    return [
        (parts[i] - j) + (conj[j] - i) - 1
        for i in range(len(parts))
        for j in range(parts[i])
    ]


def specht_dim(parts):
    """Dimension of the irreducible S_m-module indexed by a partition of m,
    via the hook length formula."""
    parts = check_partition(parts)
    if not parts:
        raise ValueError("empty partition has no Specht module")
    num = factorial(weight(parts))
    for h in hook_lengths(parts):
        num //= h
    return num


def schur_dim(parts, m):
    """Dimension of the Schur module S_parts applied to an m-dimensional
    space (hook content formula); 0 when the partition is longer than m."""
    parts = check_partition(parts)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if len(parts) > m:
        return 0
    num = 1
    for i in range(len(parts)):
        for j in range(parts[i]):
            num *= m + j - i
    return num // prod(hook_lengths(parts))


def partitions(total, max_length=None, max_part=None):
    """Yield all partitions of `total`, largest part first, optionally with
    bounded length and bounded largest part."""
    if max_length is None:
        max_length = total
    if max_part is None:
        max_part = total

    def rec(rem, mx, slots):
        if rem == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rem, mx), 0, -1):
            for rest in rec(rem - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(total, max_part, max_length)
