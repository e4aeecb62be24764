"""Exact linear algebra over random word-sized prime fields.

Rank over F_p lower-bounds rank over Q and equals it unless p divides one of
finitely many minors; agreement over two independently chosen 31-bit primes
is the acceptance gate (silent error probability below 2^-30 per entry).

Rank has one kernel, `rank_of_rows`: sparse Markowitz-style pivots in pure
Python with no dense finish.  It keeps a count of each column's rows for
the column rule and an append-only list of them, checked when read, for
the rows to clear, and takes the next pivot row from one heap of (row
length, input position) entries, each a lower bound on its row's length.
It ranks every matrix whose dimension alone is needed: the Koszul
differentials, and for a Hilbert value each ideal block's spanning rows.
All eliminations, and so the pivot sequence of every rank, are deterministic
for a fixed modulus.

The fully reduced echelon form, `rref_of_rows`, is one Gauss-Jordan pass
over the rows in input order that keeps every pivot row fully reduced, with
its pivots at the leading columns.  It builds the quotient pieces of the
Koszul windows only, whose bases need those pivots; no dimension is read
off it.

Both primes are checked in one pass.  By the Chinese remainder theorem
Z/(p1 p2) is F_p1 x F_p2, so an elimination modulo M = p1 p2 whose every
pivot is a unit is the elimination over both fields at once, with one pivot
sequence; the kernels pay per dict operation, not per bit, so the second
prime costs about nothing.  The kernels check every pivot: one divisible by
p1 or p2 raises `NonUnitPivotError`, and `agree_over_primes` then runs the
cell over each prime alone.
"""

import heapq
import random
from collections import namedtuple

# Deterministic Miller-Rabin witnesses for every modulus below 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIME_LOW = 1 << 30
PRIME_HIGH = 1 << 31


class PrimeDisagreementError(RuntimeError):
    """Three primes gave three different values for the same quantity."""


class NonUnitPivotError(ArithmeticError):
    """A pivot modulo a product of primes is divisible by one of them, so
    the elimination is no longer the same over each prime."""


def _inverse(x, m):
    """x^-1 mod m; `NonUnitPivotError` when x shares a factor with m."""
    try:
        return pow(x, -1, m)
    except ValueError:
        raise NonUnitPivotError(f"pivot {x} is not a unit mod {m}") from None


def is_prime(m):
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class PrimeField(namedtuple("PrimeField", "modulus")):
    """A prime field with a 31-bit modulus, drawn at random so that its
    chance of dividing one of a matrix's minors is small.  An immutable
    named tuple, checked when made."""

    __slots__ = ()

    def __new__(cls, modulus):
        if not (PRIME_LOW < modulus < PRIME_HIGH):
            raise ValueError(f"modulus {modulus} not in (2^30, 2^31)")
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        return super().__new__(cls, modulus)


class PrimePair(namedtuple("PrimePair", "first second")):
    """Two prime fields at once: the ring Z/(p1 p2), which is F_p1 x F_p2.
    Its `modulus` stands in for a prime in the kernels and the oracles as
    long as every pivot is a unit.  It is no `PrimeField`, whose modulus
    must be prime.  An immutable named tuple of two `PrimeField`s."""

    __slots__ = ()

    @property
    def modulus(self):
        return self.first.modulus * self.second.modulus


def random_prime_field(rng):
    """Draw a uniform random 31-bit prime field from an rng."""
    while True:
        candidate = rng.randrange(PRIME_LOW + 1, PRIME_HIGH) | 1
        if is_prime(candidate):
            return PrimeField(candidate)


def prime_fields(seed, count=2):
    """`count` distinct prime fields derived deterministically from a seed."""
    rng = random.Random(f"permres-primes-{seed}")
    fields = []
    seen = set()
    while len(fields) < count:
        f = random_prime_field(rng)
        if f.modulus not in seen:
            seen.add(f.modulus)
            fields.append(f)
    return fields


def rank_of_rows(rows, p, *, pivot_rows=None):
    """Rank over F_p of a matrix given as sparse rows ({col: coeff}), or
    over both fields of a `PrimePair` when p is its modulus: every pivot is
    then a unit, or `NonUnitPivotError` is raised.

    One sparse kernel for every shape: Markowitz-style elimination that
    pivots in the active row with the fewest entries (lowest row index among
    equals), at the column of that row with the fewest occupants (lowest
    column among equals), so the pivot sequence is deterministic for a fixed
    modulus.  The rows are read once, into a reduced copy mod p, and the
    input is neither changed nor held past that: a list that only the call
    refers to is freed before the elimination starts.

    The column rule reads an exact count of each column's active rows.  Its
    occupants are read only when it becomes a pivot column, off an
    append-only list of the positions that took an entry in it, each
    checked when read: a listed row that is gone, or no longer holds the
    column, is skipped.  The row comes off one heap of (row length, input
    position) entries, each a lower bound on its row's length: a row that
    shrinks is pushed at its new length, one that grows keeps its entry,
    and a popped entry shorter than its row is pushed again at the row's
    length, so the first entry popped at its row's own length is the
    smallest (row length, input position).

    `pivot_rows`, if given, is a list that the kernel extends with the input
    positions (0-based, counting zero rows) of its pivot rows: `rank`
    distinct positions whose rows are linearly independent over F_p (over
    both fields, for a pair).  Each pivot is its input row minus a
    combination of earlier pivots, so the input rows at those positions span
    the same space as the pivots.
    """
    active = {}      # input position -> {col: nonzero coeff mod p}
    listed = {}      # occupied col -> positions that took an entry in it
    for i, row in enumerate(rows):
        r = {c: v % p for c, v in row.items() if v % p}
        if r:
            active[i] = r
            for c in r:
                if c in listed:
                    listed[c].append(i)
                else:
                    listed[c] = [i]
    # the reduced copy is all the elimination reads: drop the input, so a
    # caller that passed a temporary frees it now rather than on return
    del rows
    # occupied col -> number of active rows holding it
    count = {c: len(users) for c, users in listed.items()}
    queue = [(len(r), i) for i, r in active.items()]
    heapq.heapify(queue)
    rank = 0
    while active:
        n, i = heapq.heappop(queue)
        row = active.get(i)
        if row is None:
            continue
        # the smallest entry of an active row is at most its length, so
        # an entry popped for one is never longer than it
        if len(row) > n:
            heapq.heappush(queue, (len(row), i))
            continue
        del active[i]
        rank += 1
        if pivot_rows is not None:
            pivot_rows.append(i)
        c = min(row, key=lambda cc: (count[cc], cc))
        for cc in row:
            if count[cc] == 1:
                del count[cc], listed[cc]
            else:
                count[cc] -= 1
        # every pivot is inverted, also one with no rows to clear: modulo a
        # product of primes that is the check that it is a unit
        inv = _inverse(row[c], p)
        if c not in count:
            continue
        del count[c]
        # every other column of the pivot row has at least as many other
        # active rows as c has occupants, so it stays counted whenever an
        # occupant gains an entry in it below
        pivot = [(cc, vv * inv % p) for cc, vv in row.items() if cc != c]
        for j in listed.pop(c):
            other = active.get(j)
            if other is None:
                continue
            before = len(other)
            f = other.pop(c, None)
            if f is None:
                continue
            for cc, vv in pivot:
                old = other.get(cc)
                if old is None:
                    other[cc] = -f * vv % p
                    count[cc] += 1
                    listed[cc].append(j)
                else:
                    new = (old - f * vv) % p
                    if new:
                        other[cc] = new
                    elif count[cc] == 1:
                        del other[cc], count[cc], listed[cc]
                    else:
                        del other[cc]
                        count[cc] -= 1
            after = len(other)
            if not after:
                del active[j]
            elif after < before:
                heapq.heappush(queue, (after, j))
    return rank


def _subtract(row, f, pivot, c, p):
    """row -= f * pivot mod p in place, over every column of `pivot` but c,
    which the caller has popped from `row`; entries that reach 0 are
    deleted."""
    for cc, vv in pivot.items():
        if cc != c:
            new = (row.get(cc, 0) - f * vv) % p
            if new:
                row[cc] = new
            elif cc in row:
                del row[cc]


def rref_of_rows(rows, p):
    """Fully reduced row echelon form mod p, a prime or the modulus of a
    `PrimePair`; in the latter case a leading entry that is not a unit
    raises `NonUnitPivotError`.

    Returns {pivot_col: row_dict} where each row has coefficient 1 at its
    pivot and support only on non-pivot columns otherwise.  Pivot columns are
    the leading columns under the natural column order, so the non-pivot set
    is deterministic for a fixed row order and modulus.

    One Gauss-Jordan pass: the pivot rows are kept fully reduced, so an
    incoming row is cleared of each pivot column it holds by one
    subtraction, and what is left, if anything, is scaled to a new pivot at
    its leading column, which is then cleared from the earlier pivot rows.
    A pivot row's support never reaches left of its pivot, so the pivots
    stay at leading columns and the result is the unique reduced form.
    """
    pivots = {}
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        for c in [c for c in r if c in pivots]:
            _subtract(r, r.pop(c), pivots[c], c, p)
        if r:
            c = min(r)
            inv = _inverse(r[c], p)
            r = {cc: vv * inv % p for cc, vv in r.items()}
            for other in pivots.values():
                if c in other:
                    _subtract(other, other.pop(c), r, c, p)
            pivots[c] = r
    return pivots


def agree_over_primes(compute, seed=0):
    """Run `compute(field)` once over the pair of the seed's first two
    primes.  If a pivot there is not a unit, run it over each prime alone,
    and on disagreement let a third prime break the tie (the event is
    logged).  Returns (value, moduli used)."""
    f1, f2 = prime_fields(seed, 2)
    try:
        return compute(PrimePair(f1, f2)), [f1.modulus, f2.modulus]
    except NonUnitPivotError as exc:
        # only a fallback logs (a tie-break comes after one), so only it
        # loads logging
        import logging
        log = logging.getLogger(__name__)
        log.info("one pass over both primes failed (%s); "
                 "one prime at a time", exc)
    v1 = compute(f1)
    v2 = compute(f2)
    if v1 == v2:
        return v1, [f1.modulus, f2.modulus]
    f3 = prime_fields(seed, 3)[2]
    v3 = compute(f3)
    log.warning(
        "prime disagreement: %s (p=%d) vs %s (p=%d); tie-break %s (p=%d)",
        v1, f1.modulus, v2, f2.modulus, v3, f3.modulus,
    )
    if v3 == v1 or v3 == v2:
        return v3, [f1.modulus, f2.modulus, f3.modulus]
    raise PrimeDisagreementError(
        f"three primes disagree: {v1}, {v2}, {v3} - arithmetic bug"
    )
