import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from enumeration import is_regular_weight
from permres.ideals import IdealSpec, expand_generators
from permres.tensorspace import (
    ResourceCapError,
    TensorElement,
    grid_index,
    koszul_transpose,
    mono_degree,
    mono_mul,
    mono_times_var,
    mono_weight,
    monomial_count,
    monomials,
    monomials_with_weight,
    multiply_map_rank,
    normalize_wedge,
)


def test_grid_index_round_trip():
    n = 4
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = grid_index(n, i, j)
            assert divmod(v, n) == (i - 1, j - 1)
            seen.add(v)
    assert seen == set(range(n * n))
    with pytest.raises(ValueError):
        grid_index(3, 4, 1)


def test_graded_basis_counts():
    assert len(monomials(2 * 2, 1)) == 4
    assert len(monomials(3 * 3, 3)) == comb(11, 3) == 165
    assert monomials(1 * 1, 5) == [((0, 5),)]
    assert monomials(3, 0) == [()]


def test_graded_basis_deterministic_lex_order():
    basis = monomials(3, 2)
    def dense(m):
        vec = [0, 0, 0]
        for v, e in m:
            vec[v] = e
        return tuple(vec)
    dense_vectors = [dense(m) for m in basis]
    assert dense_vectors == sorted(dense_vectors, reverse=True)
    assert len(set(basis)) == len(basis) == monomial_count(3, 2)


def test_graded_basis_resource_cap():
    with pytest.raises(ResourceCapError):
        monomials(10 * 10, 12, cap=10**6)


def test_monomials_with_weight_partitions_degree():
    n, d = 3, 4
    by_weight = {}
    for m in monomials(n * n, d):
        by_weight.setdefault(mono_weight(m, n), []).append(m)
    for w, monos in by_weight.items():
        assert sorted(monomials_with_weight(n, w[0], w[1])) == sorted(monos)
    total = sum(len(v) for v in by_weight.values())
    assert total == monomial_count(n * n, d)


def test_mono_ops():
    m = mono_times_var(mono_times_var((), 3), 1)
    assert m == ((1, 1), (3, 1))
    assert mono_degree(m) == 2
    assert mono_mul(m, m) == ((1, 2), (3, 2))


def test_mono_times_var_matches_mono_mul_randomized():
    # mono_times_var inserts into the sorted tuple in place of re-sorting;
    # check it against the general product, counting where var lands
    rng = random.Random(3)
    seen = {"first": 0, "last": 0, "middle": 0, "repeated": 0}
    for _ in range(2000):
        nvars = rng.randint(1, 9)
        support = sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
        m = tuple((v, rng.randint(1, 3)) for v in support)
        var = rng.randrange(nvars)
        got = mono_times_var(m, var)
        assert got == mono_mul(m, ((var, 1),)), (m, var)
        if var in support:
            seen["repeated"] += 1
        elif not support or var < support[0]:
            seen["first"] += 1
        elif var > support[-1]:
            seen["last"] += 1
        else:
            seen["middle"] += 1
    assert min(seen.values()) > 100, seen


def test_weight_and_regularity():
    n = 3
    m = mono_mul(
        ((grid_index(n, 1, 2), 1),), ((grid_index(n, 2, 3), 1),)
    )
    w = mono_weight(m, n)
    assert w == ((1, 1, 0), (0, 1, 1))
    assert is_regular_weight(w)
    assert not is_regular_weight(mono_weight(((grid_index(n, 1, 1), 2),), n))


def test_normalize_wedge():
    assert normalize_wedge((2, 1)) == ((1, 2), -1)
    assert normalize_wedge((1, 2, 3)) == ((1, 2, 3), 1)
    assert normalize_wedge((2, 2)) == (None, 0)
    assert normalize_wedge(()) == ((), 1)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=7))
def test_normalize_wedge_sign_is_permutation_parity(values):
    wedge, sign = normalize_wedge(tuple(values))
    if len(set(values)) < len(values):
        assert wedge is None and sign == 0
        return
    assert wedge == tuple(sorted(values))
    inversions = sum(
        1
        for a in range(len(values))
        for b in range(a + 1, len(values))
        if values[a] > values[b]
    )
    assert sign == (-1) ** inversions


def test_tensor_element_normalization():
    x = TensorElement(1, 2)
    x.add_term(((0, 1),), (5, 3), 1)
    x.add_term(((0, 1),), (3, 5), 1)
    assert x.is_zero()
    x.add_term(((0, 1),), (3, 5), 2)
    assert x.terms == {(((0, 1),), (3, 5)): 2}
    with pytest.raises(ValueError):
        x.add_term(((0, 2),), (3, 5), 1)  # wrong degree


def test_koszul_square_is_zero_randomized():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 3)
        nvars = n * n
        degree = rng.randint(0, 3)
        rank = rng.randint(2, min(3, nvars) + 2)
        if rank > nvars:
            rank = nvars
        if rank < 2:
            continue
        x = TensorElement(degree, rank)
        for _ in range(rng.randint(1, 5)):
            mono = ()
            for _ in range(degree):
                mono = mono_times_var(mono, rng.randrange(nvars))
            wedge = tuple(rng.sample(range(nvars), rank))
            x.add_term(mono, wedge, rng.randint(-3, 3))
        assert koszul_transpose(koszul_transpose(x)).is_zero()


def test_koszul_transpose_rank_one_is_multiplication():
    x = TensorElement(1, 1, [(((0, 1),), (3,), 1), (((1, 1),), (0,), -1)])
    y = koszul_transpose(x)
    assert y.degree == 2 and y.rank == 0
    assert y.terms == {(((0, 1), (3, 1)), ()): 1, (((0, 1), (1, 1)), ()): -1}


def test_koszul_transpose_needs_rank():
    with pytest.raises(ValueError):
        koszul_transpose(TensorElement(2, 0))


def test_multiply_map_rank_single_generator(field):
    gens = expand_generators(IdealSpec("subpermanents", 2, 2))
    assert len(gens) == 1
    assert multiply_map_rank(gens, 4, 2, 2, field) == 1
    # principal ideal: degree t piece is S^(t-2) of 4 variables
    for t in (3, 4, 5):
        assert multiply_map_rank(gens, 4, 2, t, field) == comb(t + 1, 3)


def test_multiply_map_rank_perm2_values(field):
    gens = expand_generators(IdealSpec("subpermanents", 3, 2))
    assert multiply_map_rank(gens, 9, 2, 2, field) == 9
    assert multiply_map_rank(gens, 9, 2, 3, field) == 77


def test_multiply_map_rank_full_basis_spans_everything(field):
    for n, d, t in ((2, 1, 3), (2, 2, 3), (3, 1, 2)):
        nvars = n * n
        gens = [
            TensorElement(d, 0, [(m, (), 1)]) for m in monomials(nvars, d)
        ]
        assert multiply_map_rank(gens, nvars, d, t, field) == monomial_count(
            nvars, t
        )


def test_multiply_map_rank_order_invariance(field):
    gens = expand_generators(IdealSpec("minors", 3, 2))
    baseline = multiply_map_rank(gens, 9, 2, 3, field)
    rng = random.Random(5)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert multiply_map_rank(shuffled, 9, 2, 3, field) == baseline


def test_multiply_map_rank_two_primes_agree(field_pair):
    gens = expand_generators(IdealSpec("subpermanents", 3, 2))
    values = {
        multiply_map_rank(gens, 9, 2, 4, f) for f in field_pair
    }
    assert len(values) == 1


def test_multiply_map_rank_resource_cap(field):
    gens = expand_generators(IdealSpec("subpermanents", 3, 2))
    with pytest.raises(ResourceCapError):
        multiply_map_rank(gens, 9, 2, 6, field, cap=10)

