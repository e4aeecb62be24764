from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from enumeration import (
    count_semistandard_tableaux,
    count_standard_tableaux,
    induced_dim,
)
from permres.partitions import (
    check_partition,
    conjugate,
    hook_partition,
    partitions,
    schur_dim,
    specht_dim,
)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                         min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_check_partition_rejects_increasing():
    with pytest.raises(ValueError):
        check_partition((1, 2))


def test_check_partition_strips_zeros():
    assert check_partition((3, 1, 0, 0)) == (3, 1)


def test_conjugate_known():
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)


@given(partition_strategy())
def test_conjugate_involution(parts):
    assert conjugate(conjugate(parts)) == parts


def test_hook_conjugation():
    # (a, 1^b) and (b+1, 1^(a-1)) are transposes of one another
    for a in range(1, 6):
        for b in range(0, 5):
            assert conjugate(hook_partition(a, b)) == hook_partition(b + 1, a - 1)


def test_specht_dim_known_values():
    assert specht_dim((1,)) == 1
    assert specht_dim((2, 1)) == 2
    assert specht_dim((3, 2)) == 5
    assert specht_dim((2, 2, 1)) == 5


def test_specht_dim_trivial_representation():
    for kappa in range(1, 7):
        assert specht_dim((kappa,)) == 1


def test_specht_dim_hooks():
    # (kappa, 1^(j-1)) has dimension C(kappa+j-2, j-1)
    for kappa in range(1, 6):
        for j in range(1, 6):
            parts = hook_partition(kappa, j - 1)
            assert specht_dim(parts) == comb(kappa + j - 2, j - 1)


def test_specht_dim_matches_tableau_enumeration():
    for m in range(1, 9):
        for parts in partitions(m):
            assert specht_dim(parts) == count_standard_tableaux(parts)


def test_specht_dims_square_to_group_order():
    for m in range(1, 8):
        assert sum(specht_dim(p) ** 2 for p in partitions(m)) == factorial(m)


def test_schur_dim_known_values():
    assert schur_dim((1, 1, 1), 3) == 1
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((1, 1, 1, 1), 3) == 0


def test_schur_dim_zero_iff_too_long():
    for m in range(1, 5):
        for w in range(1, 7):
            for parts in partitions(w):
                assert (schur_dim(parts, m) == 0) == (len(parts) > m)


def test_schur_dim_matches_ssyt_enumeration():
    for m in range(1, 5):
        for w in range(1, 7):
            for parts in partitions(w, max_length=m):
                assert schur_dim(parts, m) == count_semistandard_tableaux(
                    parts, m
                )


def test_induced_dim_examples():
    # trivial module of S_kappa x S_(n-kappa) induces to dimension C(n, kappa)
    for n in range(2, 8):
        for kappa in range(1, n + 1):
            order_h = factorial(kappa) * factorial(n - kappa)
            assert induced_dim(1, order_h, factorial(n)) == comb(n, kappa)
    assert induced_dim(7, 24, 24) == 7


def test_induced_dim_hook_modules():
    # dim [kappa,1^(j-1)] * C(n, kappa+j-1): the square-free resolution terms
    for n in range(3, 7):
        for kappa in range(1, n):
            for j in range(1, n - kappa + 2):
                m = kappa + j - 1
                order_h = factorial(m) * factorial(n - m)
                got = induced_dim(
                    count_standard_tableaux(hook_partition(kappa, j - 1)),
                    order_h, factorial(n))
                assert got == comb(kappa + j - 2, j - 1) * comb(n, m)


def test_induced_dim_rejects_non_divisible():
    with pytest.raises(ValueError):
        induced_dim(1, 7, 24)


def test_generator_module_sum_rule():
    # two-row decomposition of the induced trivial module: the multiplicity
    # space dimensions add up to C(n, kappa), so the full generator module
    # of the sub-permanent span has dimension C(n, kappa)^2
    for n in range(2, 7):
        for kappa in range(1, n + 1):
            two_row = sum(
                specht_dim(check_partition((n - j, j)))
                for j in range(0, min(kappa, n - kappa) + 1)
            )
            assert two_row == comb(n, kappa)
            order_h = factorial(kappa) * factorial(n - kappa)
            lhs = induced_dim(1, order_h ** 2, factorial(n) ** 2)
            assert lhs == comb(n, kappa) ** 2


@given(partition_strategy(max_n=7))
def test_specht_positive(parts):
    assert specht_dim(parts) >= 1
