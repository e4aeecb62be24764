import gc
import itertools
import math
import operator
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import (
    count_monomials_with_support,
    monomials_dense,
    naive_betti,
    term_differential,
    term_layout,
)
from permres import cli, oracle
from permres.ideals import FAMILIES, IdealSpec, expand_generators
from permres.modular import prime_fields, rank_of_rows
from permres.oracle import (
    _betti_block,
    _differential,
    _Grid,
    _GridQuotient,
    _graded_quotient,
    _layout,
    _monomial_coordinates,
    _relabelling,
    _span,
    betti_oracle,
    dominant_weights,
    hilbert_oracle,
    orbit_size,
    quotient_basis,
)
from permres.tensorspace import (
    DEFAULT_NNZ_CAP,
    ResourceCapError,
    TensorElement,
    check_cap,
    mono_mul,
    mono_times_var,
    monomial_count,
    monomials_with_weight,
    multiply_map_rank,
)


def test_weight_helpers():
    assert list(dominant_weights(3, 2)) == [(3, 0), (2, 1)]
    assert orbit_size((2, 1, 1, 0)) == 12
    # orbits partition the weights, the exponent vectors of a degree
    for total, parts in ((4, 3), (5, 4)):
        assert sum(orbit_size(w) for w in dominant_weights(total, parts)) == \
            len(monomials_dense(parts, total))


def test_hilbert_below_generator_degree(field):
    assert hilbert_oracle(IdealSpec("subpermanents", 3, 2), 1, field) == 0
    assert hilbert_oracle(IdealSpec("squarefree", 4, 3), 2, field) == 0


def test_hilbert_examples(field):
    assert hilbert_oracle(IdealSpec("subpermanents", 3, 2), 2, field) == 9
    assert hilbert_oracle(IdealSpec("subpermanents", 3, 2), 3, field) == 77
    assert hilbert_oracle(IdealSpec("squarefree", 3, 2), 3, field) == 7
    # principal ideal: the 2x2 determinant of a 2x2 matrix
    assert hilbert_oracle(IdealSpec("minors", 2, 2), 5, field) == comb(6, 3)


def test_hilbert_squarefree_matches_enumeration(field):
    for n in (3, 4, 5):
        for kappa in range(1, n + 1):
            spec = IdealSpec("squarefree", n, kappa)
            for d in range(kappa, 7):
                assert hilbert_oracle(spec, d, field) == \
                    count_monomials_with_support(n, d, kappa)


def test_hilbert_matches_multiply_map_rank(field):
    # the weight-blocked oracle against the rank of the whole multiplication
    # map span{g} (x) S^(t-kappa) -> S^t, built without weights or symmetry
    for family in ("subpermanents", "minors"):
        for n in (2, 3):
            for kappa in range(1, n + 1):
                spec = IdealSpec(family, n, kappa)
                gens = expand_generators(spec)
                for t in range(kappa, kappa + 3):
                    want = multiply_map_rank(gens, spec.nvars, kappa, t,
                                             field)
                    assert hilbert_oracle(spec, t, field) == want, \
                        (family, n, kappa, t)


def test_grid_quotient_checks_generator_first_terms(monkeypatch):
    # the ideal's rows are found through each generator's first term, so it
    # must be kappa distinct variables that no other generator starts with
    spec = IdealSpec("subpermanents", 3, 2)
    gens = expand_generators(spec)
    square = TensorElement(2, 0, [(((0, 2),), (), 1)])
    for bad in (gens + gens[:1], gens[1:] + [square]):
        monkeypatch.setattr(oracle, "expand_generators", lambda _: bad)
        with pytest.raises(RuntimeError):
            _GridQuotient(spec)


def test_blocks_built_once_per_ideal(capsys, monkeypatch):
    # one graded quotient holds an ideal's state across cells, steps and
    # commands: the generators are expanded once, and the one modulus, the
    # product of both primes, reduces each representative block a window
    # needs once; a Hilbert value only ranks a block's rows.
    # The grid of its n, which the next ideal of that n shares, enumerates
    # each orbit representative's basis and each representative wedge
    # weight's 0/1 matrices once; every other weight is relabelled.
    # The quotient keeps no rows, so each build of a block's spanning rows
    # is named by its weight here, and kept alive so that no other list
    # takes its id
    calls = {"mww": [], "expand": 0, "rref": [], "rank": []}
    listings = {}
    mww, expand, rref, rank, spanning = (
        oracle.monomials_with_weight, oracle.expand_generators,
        oracle.rref_of_rows, oracle.rank_of_rows, _GridQuotient._spanning_rows)
    named = {}

    def counted_mww(n, wE, wF, bound=math.inf):
        calls["mww"].append(((wE, wF), bound))
        listings[(wE, wF), bound] = mww(n, wE, wF, bound)
        return listings[(wE, wF), bound]

    def counted_expand(spec_):
        calls["expand"] += 1
        return expand(spec_)

    def counted_rref(rows, p):
        calls["rref"].append((named[id(rows)][0], p))
        return rref(rows, p)

    def counted_rank(rows, p, **kwargs):
        calls["rank"].append((named.get(id(rows), (None,))[0], p))
        return rank(rows, p, **kwargs)

    def named_rows(self, monos, *args):
        rows, nnz = spanning(self, monos, *args)
        (w,) = [w for w, m in self.grid._blocks.items() if m is monos]
        named[id(rows)] = w, rows
        return rows, nnz

    monkeypatch.setattr(oracle, "monomials_with_weight", counted_mww)
    monkeypatch.setattr(oracle, "expand_generators", counted_expand)
    monkeypatch.setattr(oracle, "rref_of_rows", counted_rref)
    monkeypatch.setattr(oracle, "rank_of_rows", counted_rank)
    monkeypatch.setattr(_GridQuotient, "_spanning_rows", named_rows)
    ideal = ["--family", "minors", "-n", "3", "-k", "2", "--mode", "oracle",
             "--cache-dir", "none"]
    assert cli.main(["betti", "--steps", "0..3", *ideal]) == 0
    assert cli.main(["hilbert", "--t", "2..5", *ideal]) == 0
    capsys.readouterr()
    quot = _graded_quotient(IdealSpec("minors", 3, 2))
    grid = quot.grid
    # the rows a call reduces are the block's own, so they name its weight
    reduced = calls["rref"]
    moduli = {p for _, p in reduced}
    assert moduli == {math.prod(f.modulus for f in prime_fields(0, 2))}
    # only the windows' pieces reduce a block, each representative once per
    # modulus, and the pieces of the other weights are relabelled
    own = [(w, p) for w, p in quot._pieces if _relabelling(3, w)[0] == w]
    assert sorted(reduced) == sorted(own)
    assert {rep for rep, _ in reduced} < set(grid._blocks)
    # the grid keeps each block as listed, and nothing else per n
    assert all(m is listings[rep, math.inf] for rep, m in grid._blocks.items())
    assert set(vars(grid)) == {"n", "_blocks", "_wedges"}
    listed = [(w, math.inf) for w in grid._blocks] + [
        (t, 1) for t in grid._wedges if _relabelling(3, t)[0] == t]
    assert Counter(calls["mww"]) == Counter(listed)
    # and some wedge weights were relabelled rather than listed
    assert len(grid._wedges) > len(listed) - len(grid._blocks)
    assert any(grid._wedges.values())
    assert calls["expand"] == 1
    # the blocks are exactly the representatives of the weights used, by a
    # window's piece or a Hilbert value's rows, and the windows use weights
    # off them, so some pieces are transported
    ranked = {w for w, _ in calls["rank"] if w is not None}
    assert set(grid._blocks) == ranked | {
        _relabelling(3, w)[0] for w, _ in quot._pieces}
    assert len(quot._pieces) > len(own)
    # the sub-permanents of the same n share the grid: listing only weights
    # the minors did not, and, Hilbert values only, building no piece and
    # reducing nothing: each degree ranks each dominant block's rows once
    ideal[1] = "subpermanents"
    calls["rref"].clear()
    calls["rank"].clear()
    assert cli.main(["hilbert", "--t", "2..7", *ideal]) == 0
    capsys.readouterr()
    quot = _graded_quotient(IdealSpec("subpermanents", 3, 2))
    assert quot.grid is grid and calls["expand"] == 2
    assert not calls["rref"]
    dominant = [w for t in range(2, 8) for w, _ in quot.weights(t)]
    assert Counter(calls["rank"]) == Counter(
        (w, p) for w in dominant for p in moduli)
    assert calls["mww"][len(listed):]
    assert not set(calls["mww"][len(listed):]) & set(listed)
    assert not quot._pieces
    # one ideal's state at a time
    assert _graded_quotient.cache_info().currsize == 1


def test_quotient_keeps_counts_not_rows(capsys, monkeypatch):
    # the integer rows spanning a block are built for each use and dropped
    # after it: once the commands are done, nothing but this test refers
    # to any list of rows the quotient built, and each piece carries one
    # int, its representative's rows' nonzero count
    built = []
    spanning = _GridQuotient._spanning_rows

    def kept(self, *args):
        rows, nnz = spanning(self, *args)
        built.append(rows)
        return rows, nnz

    monkeypatch.setattr(_GridQuotient, "_spanning_rows", kept)
    ideal = ["--family", "minors", "-n", "3", "-k", "2", "--mode", "oracle",
             "--cache-dir", "none"]
    assert cli.main(["betti", "--steps", "0..3", *ideal]) == 0
    assert cli.main(["hilbert", "--t", "2..5", *ideal]) == 0
    capsys.readouterr()
    assert built
    assert gc.get_referrers(*built) == [built]
    quot = _graded_quotient(IdealSpec("minors", 3, 2))
    assert quot._pieces
    for (w, p), (_, _, nnz) in quot._pieces.items():
        assert type(nnz) is int
        assert nnz == quot._pieces[_relabelling(3, w)[0], p][2]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(n=st.integers(1, 4), data=st.data())
def test_packed_monomials_match_tuple_arithmetic(n, data):
    # the oracle's packed ints against tensorspace's tuple monomials: each
    # exponent below 2^16 reads back from its own field, a product is a
    # sum, x_v adds the int of x_v, and packing through a relabelling by row
    # and column permutations, transposed or not, packs the relabelled tuple
    pack, bits = oracle._pack, oracle._BITS
    monomial = st.dictionaries(
        st.integers(0, n * n - 1), st.integers(1, (1 << bits) - 1),
        max_size=4).map(lambda exps: tuple(sorted(exps.items())))
    a, b = data.draw(monomial), data.draw(monomial)
    assert [pack(a) >> bits * v & (1 << bits) - 1 for v in range(n * n)] == \
        [dict(a).get(v, 0) for v in range(n * n)]
    assert pack(mono_mul(a, b)) == pack(a) + pack(b)
    v = data.draw(st.integers(0, n * n - 1))
    assert pack(mono_times_var(a, v)) == pack(a) + pack(((v, 1),))
    rows, cols = (data.draw(st.permutations(range(n))) for _ in range(2))
    transpose = data.draw(st.booleans())
    image = [rows[c] * n + cols[r] if transpose else rows[r] * n + cols[c]
             for r in range(n) for c in range(n)]
    assert pack(a, image) == pack(tuple(sorted((image[v], e) for v, e in a)))


def test_wedges_match_brute_force():
    # the (w - t, wedges) pairs a graded quotient lists for a block weight w,
    # against every r-subset of the variables grouped by its weight t and
    # kept when t is at most w, that is when w - t is a weight; every weight
    # of each degree is taken, not only the dominant ones, so permuted and
    # transposed weights are covered
    cases = [(family, n, 4) for family in FAMILIES for n in (1, 2, 3)]
    cases += [(family, 4, 3) for family in ("subpermanents", "minors")]
    for family, n, top in cases:
        spec = IdealSpec(family, n, 1)
        quot = _graded_quotient(spec)

        def weights(total):
            if family == "squarefree":
                return [(w, ()) for w in monomials_dense(n, total)]
            return list(itertools.product(monomials_dense(n, total),
                                          repeat=2))

        small = {k: monomials_dense(n, k) for k in (0, 1, 2)}
        for r in range(top + 1):
            by_weight = {}
            met = {}    # when the listing first meets a row weight, a weight
            for T in itertools.combinations(range(spec.nvars), r):
                t = quot.weight(n, tuple((v, 1) for v in T))
                by_weight.setdefault(t, set()).add(T)
                met.setdefault(t[0], len(met))
                met.setdefault(t, len(met))
            for extra in (0, 1, 2):
                for w in weights(r + extra):
                    # the weights m = w - t: each part of degree `extra` and
                    # at most w's (the square-free inner part is empty)
                    fits = [[m for m in small[extra]
                             if all(map(operator.le, m, part))]
                            if part else [()] for part in w]
                    want = set()
                    for m in itertools.product(*fits):
                        t = tuple(tuple(map(operator.sub, a, b))
                                  for a, b in zip(w, m))
                        if t in by_weight:
                            want.add((m, frozenset(by_weight[t])))
                    listed = list(quot.wedges(r, w))
                    where = (family, n, r, w)
                    assert {(m, frozenset(group))
                            for m, group in listed} == want, where
                    # and no weight or wedge is listed twice
                    assert len(listed) == len(want), where
                    assert sum(len(group) for _, group in listed) == \
                        sum(len(Ts) for _, Ts in want), where
                    # the layout order, which steers the rank kernel: by row
                    # weight, then weight, as the listing meets them, and
                    # each weight's wedges in the listing's order
                    order = []
                    for m, group in listed:
                        t = tuple(tuple(map(operator.sub, a, b))
                                  for a, b in zip(w, m))
                        order.append((met[t[0]], met[t]))
                        assert group == sorted(group), where
                    assert order == sorted(order), where


def _assert_orbit_listed(grid, t):
    assert grid.wedge_list(t) == [
        tuple(v for v, _ in m)
        for m in monomials_with_weight(grid.n, *t, bound=1)], t


def test_orbit_listed_wedges():
    # a grid lists the wedges of each orbit's representative and relabels
    # them onto every weight of the orbit; sorted, that is the listing of
    # the weight's own 0/1 matrices, in its order, which steers the rank
    # kernel's pivots.  Every wedge weight for n <= 3, entries past n too
    relabelled = 0
    for n in (1, 2, 3):
        grid = _Grid(n)
        parts = list(itertools.product(range(n + 2), repeat=n))
        for tE, tF in itertools.product(parts, repeat=2):
            if sum(tE) == sum(tF):
                _assert_orbit_listed(grid, (tE, tF))
                relabelled += _relabelling(n, (tE, tF))[0] != (tE, tF)
    assert relabelled > 1000, relabelled


@settings(deadline=None, derandomize=True, max_examples=40)
@given(r=st.integers(0, 16), data=st.data())
def test_orbit_listed_wedges_n4(r, data):
    parts = [x for x in itertools.product(range(5), repeat=4) if sum(x) == r]
    t = data.draw(st.sampled_from(parts)), data.draw(st.sampled_from(parts))
    _assert_orbit_listed(_Grid(4), t)


def test_grid_lives_while_a_quotient_holds_it(field):
    # the grid of an n is shared while some quotient of that n holds it and
    # freed with the last one, so a later ideal of another n or family does
    # not keep its blocks and wedges alive
    assert not oracle._grids
    hilbert_oracle(IdealSpec("minors", 4, 2), 4, field)
    grid = _graded_quotient(IdealSpec("minors", 4, 2)).grid
    hilbert_oracle(IdealSpec("subpermanents", 4, 2), 4, field)
    assert _graded_quotient(IdealSpec("subpermanents", 4, 2)).grid is grid
    del grid
    assert list(oracle._grids) == [4]
    hilbert_oracle(IdealSpec("squarefree", 4, 2), 4, field)
    assert not oracle._grids
    hilbert_oracle(IdealSpec("minors", 3, 2), 3, field)
    assert list(oracle._grids) == [3]
    _graded_quotient.cache_clear()
    assert not oracle._grids


def test_transported_pieces_are_quotient_pieces(field):
    # every block's piece is its orbit representative's, relabelled; check
    # it against the block's own spanning rows, built at the block's weight
    # without any relabelling: each rewriting u - sum c * b of the
    # reduction map lies in the ideal's block (adding them all keeps the
    # rank), and the basis is a complement (it raises the rank by its size)
    p, cap = field.modulus, DEFAULT_NNZ_CAP
    transposed = 0
    for family in ("subpermanents", "minors"):
        for n in (1, 2, 3):
            for kappa in range(1, n + 1):
                quot = _graded_quotient(IdealSpec(family, n, kappa))
                for t in range(kappa + 3):
                    for w in itertools.product(monomials_dense(n, t),
                                               repeat=2):
                        tuples = monomials_with_weight(n, *w)
                        monos = [oracle._pack(m) for m in tuples]
                        rows, _ = quot._spanning_rows(tuples, monos)
                        index = {m: j for j, m in enumerate(monos)}
                        qbasis, reduce_map = quot.quotient(w, p, cap)
                        where = (family, n, kappa, w)
                        assert sorted(reduce_map) == sorted(monos), where
                        relations = []
                        for u, coeffs in reduce_map.items():
                            rel = {index[u]: 1}
                            for k, c in coeffs.items():
                                j = index[qbasis[k]]
                                rel[j] = (rel.get(j, 0) - c) % p
                            relations.append(rel)
                        rank = rank_of_rows(rows, p)
                        assert rank_of_rows(rows + relations, p) == rank, \
                            where
                        units = [{index[b]: 1} for b in qbasis]
                        assert rank_of_rows(rows + units, p) == \
                            rank + len(qbasis) == len(monos), where
                        dominant = [tuple(sorted(x, reverse=True)) for x in w]
                        transposed += bool(qbasis and
                                           dominant[1] > dominant[0])
    # the transpose branch of the relabelling is exercised
    assert transposed > 100, transposed


def test_cap_binds_a_shared_block(field):
    # blocks built without a cap are shared with later callers that pass
    # one, so the cap is checked on every use, not only when a block is
    # built; this cell's largest ideal block holds 26 nonzeros, and each of
    # its Koszul differentials at most 25
    spec = IdealSpec("subpermanents", 3, 2)
    assert betti_oracle(spec, 0, 4, field, cap=None) == 0
    assert hilbert_oracle(spec, 4, field, cap=None) == 333
    with pytest.raises(ResourceCapError, match="ideal block"):
        betti_oracle(spec, 0, 4, field, cap=25)
    with pytest.raises(ResourceCapError, match="ideal block"):
        hilbert_oracle(spec, 4, field, cap=25)


def test_cap_stops_the_build_it_bounds(field, monkeypatch):
    # a block or a Koszul differential past the cap raises once its running
    # count of nonzeros passes the cap, before it is built in full, and a
    # block's piece, with its count, is stored only once its rows are
    # complete
    counts = []

    def counted(amount, cap, what):
        counts.append(amount)
        check_cap(amount, cap, what)

    monkeypatch.setattr(oracle, "check_cap", counted)
    p = field.modulus
    quot = _graded_quotient(IdealSpec("subpermanents", 3, 2))
    w = ((2, 1, 1), (2, 1, 1))
    rows, total = quot._spanning_rows(*quot.grid.block(w))
    assert total == 26 == sum(map(len, rows))
    for build in (quot.ideal_dim, quot.quotient):
        with pytest.raises(ResourceCapError, match="ideal block"):
            build(w, p, total // 2)
        assert counts[-1] < total
    assert not quot._pieces
    assert quot.ideal_dim(w, p, total) == rank_of_rows(rows, p)
    quot.quotient(w, p, total)
    assert quot._pieces[w, p][2] == total
    # the ideal side's middle map of the same block at step 1
    _, middle = _layout(_span(quot, p, None, 1, w)[0], True)
    full = _differential(p, None, middle, _monomial_coordinates())
    total = counts[-1]
    assert total == 30 == sum(map(len, full))
    with pytest.raises(ResourceCapError, match="Koszul window"):
        _differential(p, total // 2, middle, _monomial_coordinates())
    assert counts[-1] < total


def test_hilbert_two_primes_agree(field_pair):
    spec = IdealSpec("subpermanents", 4, 2)
    f1, f2 = field_pair
    assert hilbert_oracle(spec, 4, f1) == hilbert_oracle(spec, 4, f2)


def test_quotient_basis_below_degree(field):
    spec = IdealSpec("subpermanents", 2, 2)
    basis, dim = quotient_basis(spec, 1, field)
    assert dim == 4 and len(basis) == 4


def test_quotient_basis_squarefree(field):
    basis, dim = quotient_basis(IdealSpec("squarefree", 3, 2), 2, field)
    assert dim == 3
    assert basis == [((0, 2),), ((1, 2),), ((2, 2),)]


def test_quotient_basis_perm2(field):
    spec = IdealSpec("subpermanents", 2, 2)
    basis, dim = quotient_basis(spec, 2, field)
    assert dim == 9 == monomial_count(4, 2) - 1
    assert len(basis) == 9


def test_quotient_complements_ideal(field):
    for family, n, kappa, ts in (
        ("subpermanents", 3, 2, (2, 3, 4)),
        ("minors", 3, 2, (2, 3)),
        ("squarefree", 4, 2, (2, 3, 4, 5)),
    ):
        spec = IdealSpec(family, n, kappa)
        for t in ts:
            _, qdim = quotient_basis(spec, t, field)
            assert qdim + hilbert_oracle(spec, t, field) == monomial_count(
                spec.nvars, t
            )


def test_betti_step0_counts_generators(field):
    for family, n, kappa in (
        ("subpermanents", 3, 2),
        ("minors", 3, 2),
        ("squarefree", 5, 3),
        ("squarefree", 4, 2),
    ):
        spec = IdealSpec(family, n, kappa)
        assert betti_oracle(spec, 0, kappa, field) == \
            len(expand_generators(spec))


def test_betti_examples(field):
    sq = IdealSpec("squarefree", 5, 3)
    assert betti_oracle(sq, 0, 3, field) == 10
    assert betti_oracle(sq, 1, 4, field) == 15
    assert betti_oracle(sq, 2, 5, field) == 6
    assert betti_oracle(IdealSpec("subpermanents", 3, 2), 1, 3, field) == 4
    assert betti_oracle(IdealSpec("minors", 3, 2), 1, 3, field) == 16


def test_betti_squarefree_resolution_is_linear(field):
    # off-diagonal entries vanish
    for n in range(2, 7):
        for kappa in range(1, n + 1):
            spec = IdealSpec("squarefree", n, kappa)
            for i in range(0, n - kappa + 2):
                for d in range(kappa, kappa + i + 3):
                    value = betti_oracle(spec, i, d, field)
                    if d != kappa + i:
                        assert value == 0, (n, kappa, i, d, value)


def test_grid_blocks_transpose_symmetry(field):
    # x_ij -> x_ji preserves both matrix-family ideals and swaps row and
    # column weight, so a block and its transpose agree; the oracle counts
    # each off-diagonal dominant pair twice on the strength of this
    p, cap = field.modulus, DEFAULT_NNZ_CAP
    for family in ("subpermanents", "minors"):
        nonzero = 0
        for n, kappa, cells in (
            (2, 2, ((0, 2), (1, 4))),
            (3, 2, ((0, 2), (1, 3), (1, 4), (2, 4))),
            (3, 3, ((0, 3), (1, 4))),
        ):
            spec = IdealSpec(family, n, kappa)
            quot = _graded_quotient(spec)
            for i, d in cells:
                for wE, wF in itertools.combinations(
                        dominant_weights(d, n), 2):
                    h = _betti_block(quot, p, cap, i, (wE, wF))
                    assert h == _betti_block(
                        quot, p, cap, i, (wF, wE)
                    ), (family, n, kappa, i, d, wE, wF)
                    nonzero += h != 0
        # the comparison is not vacuous: some off-diagonal block has homology
        assert nonzero, family


@settings(deadline=None, derandomize=True, max_examples=30)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 3),
       data=st.data())
def test_oracles_match_references_property(field, family, n, data):
    # both oracles against references built without weights or symmetry:
    # Koszul homology over the whole graded pieces, and the rank of the
    # whole multiplication map
    kappa = data.draw(st.integers(1, n), label="kappa")
    i = data.draw(st.integers(0, 2), label="step")
    d = data.draw(st.integers(kappa + i, kappa + i + 1), label="degree")
    spec = IdealSpec(family, n, kappa)
    assert betti_oracle(spec, i, d, field) == naive_betti(spec, i, d, field)
    assert hilbert_oracle(spec, d, field) == multiply_map_rank(
        expand_generators(spec), spec.nvars, kappa, d, field)


def test_betti_matches_naive_whole_space_computation(field):
    # the weight-split, orbit-collapsed oracle against a reference that
    # works over the full graded pieces
    cases = [
        ("subpermanents", 2, 2, 0, 2),
        ("subpermanents", 2, 2, 1, 4),
        ("subpermanents", 3, 2, 0, 2),
        ("subpermanents", 3, 2, 1, 3),
        ("subpermanents", 3, 2, 1, 4),
        ("subpermanents", 3, 3, 1, 4),
        ("minors", 3, 2, 1, 3),
        ("minors", 3, 2, 2, 4),
        ("squarefree", 4, 2, 1, 3),
        ("squarefree", 5, 3, 2, 5),
    ]
    for family, n, kappa, i, d in cases:
        spec = IdealSpec(family, n, kappa)
        assert betti_oracle(spec, i, d, field) == naive_betti(
            spec, i, d, field
        ), (family, n, kappa, i, d)


@pytest.mark.parametrize("n", [3, 4])
def test_squarefree_betti_vanishes_above_n(field, n):
    # the whole-space reference agrees that a square-free monomial ideal has
    # no Betti number in degree above n, which the oracle returns at once
    for kappa in range(1, n + 1):
        spec = IdealSpec("squarefree", n, kappa)
        for i in range(n):
            for d in (n + 1, n + 2):
                assert betti_oracle(spec, i, d, field) == naive_betti(
                    spec, i, d, field) == 0, (n, kappa, i, d)


def test_betti_two_primes_agree(field_pair):
    spec = IdealSpec("subpermanents", 3, 2)
    f1, f2 = field_pair
    for (i, d) in ((1, 3), (1, 4), (2, 4)):
        assert betti_oracle(spec, i, d, f1) == betti_oracle(spec, i, d, f2)


def test_euler_characteristic_squarefree(field):
    # dim I_t = sum_i (-1)^i sum_d b_{i,d} * dim S^(t-d)  for linear tables
    for n in range(2, 7):
        for kappa in range(1, n + 1):
            spec = IdealSpec("squarefree", n, kappa)
            table = {}
            for i in range(0, n - kappa + 1):
                d = kappa + i
                table[(i, d)] = betti_oracle(spec, i, d, field)
            for t in range(kappa, 8):
                euler = sum(
                    (-1) ** i * b * comb(n + t - d - 1, n - 1)
                    for (i, d), b in table.items()
                    if t >= d
                )
                assert euler == hilbert_oracle(spec, t, field), (n, kappa, t)


def test_betti_resource_cap(field):
    spec = IdealSpec("subpermanents", 3, 2)
    with pytest.raises(ResourceCapError):
        betti_oracle(spec, 1, 5, field, cap=3)


def test_betti_rejects_negative_step(field):
    with pytest.raises(ValueError):
        betti_oracle(IdealSpec("squarefree", 3, 2), -1, 3, field)


def test_betti_window_cap(field):
    # the cap bounds each Koszul differential, not only the ideal blocks:
    # the square-free window has no ideal block at all, and every ideal
    # block of the sub-permanent window stays within 2 nonzeros while the
    # largest differential of the side its blocks take holds 48
    with pytest.raises(ResourceCapError):
        betti_oracle(IdealSpec("squarefree", 5, 3), 2, 5, field, cap=1)
    with pytest.raises(ResourceCapError, match="Koszul window"):
        betti_oracle(IdealSpec("subpermanents", 3, 2), 2, 4, field, cap=47)
    assert betti_oracle(IdealSpec("subpermanents", 3, 2), 2, 4, field,
                        cap=48) == 0


def _window_maps(quot, p, cap, i, w, ideal):
    """The middle dimension, middle map and unrestricted top map of the
    weight-w block at step i on one side of 0 -> I -> S -> S/I."""
    lower = _span(quot, p, cap, i, w)[0]
    upper = _span(quot, p, cap, i + 1, w)[0]
    if ideal:
        bottom = _monomial_coordinates()
        middle_dim, middle = _layout(lower, True)
        _, top = _layout(upper, True)
    else:
        bottom = _layout(lower, False)[1].get
        middle_dim, middle = _layout(upper, False)
        _, top = _layout(_span(quot, p, cap, i + 2, w)[0], False)
    return (middle_dim, _differential(p, cap, middle, bottom),
            _differential(p, cap, top, middle.get))


def test_differential_shares_column_ints_and_small_residues(field):
    # every entry of one column of a Koszul differential is keyed by one
    # int object, also past CPython's cached ints (-5..256), and an entry
    # that is +-1 mod p is the cached 1 or -1, not p - 1.  The quotient
    # side's maps of this block at step 1 have 426 and 1856 columns
    p = field.modulus
    quot = _graded_quotient(IdealSpec("subpermanents", 5, 3))
    w = ((2, 1, 1, 1, 1), (2, 1, 1, 1, 1))
    bottom = _layout(_span(quot, p, None, 1, w)[0], False)[1].get
    _, middle = _layout(_span(quot, p, None, 2, w)[0], False)
    _, top = _layout(_span(quot, p, None, 3, w)[0], False)
    rows = _differential(p, None, middle, bottom)
    pivots = []
    rank_of_rows(rows, p, pivot_rows=pivots)
    top_rows = _differential(p, None, top, middle.get, set(pivots))
    for matrix in (rows, top_rows):
        keys = {}
        for row in matrix:
            for k in row:
                keys.setdefault(k, set()).add(id(k))
        assert max(keys) > 256
        assert all(len(ids) == 1 for ids in keys.values())
        unit = [row for row in matrix
                if all(v % p in (1, p - 1) for v in row.values())]
        assert len(unit) > len(matrix) // 2
        assert all(-(1 << 30) < v < 1 << 30 for row in unit
                   for v in row.values())
        assert any(-1 in row.values() for row in unit)
    assert not set(pivots) & {k for row in top_rows for k in row}


def _both_layouts(quot, p, i, w, ideal):
    """The bottom target and the [middle, top] layouts of the weight-w
    block's window at step i on one side, once as `_layout` lays them out
    and once as `term_layout` does.  The ideal side's bottom is one
    numbering of monomial columns, shared by both, so that either may meet
    a column first."""
    spans = [_span(quot, p, None, r, w)[0] for r in (i, i + 1, i + 2)]
    if ideal:
        bottom = _monomial_coordinates()
        return [(bottom, [lay(s, True)[1] for s in spans[:2]])
                for lay in (_layout, term_layout)]
    both = []
    for lay in (_layout, term_layout):
        lower, middle, top = (lay(s, False)[1] for s in spans)
        both.append((lower.get, [middle, top]))
    return both


def test_differential_matches_term_layouts(field):
    # the layouts hand out the pieces' own lists and monomials, and
    # `_differential` lists each element's terms as it writes its row: the
    # rows, row by row, must be those of the layouts that copy every b_P out
    # as its terms and read P through a fresh {P's position: 1}; on both
    # sides, for the middle map and the top map off the middle's pivot rows,
    # at every block of degree kappa + i and kappa + i + 1 at steps i <= 2
    # for n <= 3, and at one 5x5 block whose maps hold hundreds of rows
    p = field.modulus
    blocks = [(IdealSpec("subpermanents", 5, 3), 1,
               ((2, 1, 1, 1, 1), (2, 1, 1, 1, 1)))]
    for family, n in itertools.product(FAMILIES, (1, 2, 3)):
        for kappa, i in itertools.product(range(1, n + 1), (0, 1, 2)):
            spec = IdealSpec(family, n, kappa)
            blocks += [(spec, i, w) for d in (kappa + i, kappa + i + 1)
                       for w, _ in _graded_quotient(spec).weights(d)]
    compared = Counter()
    for spec, i, w in blocks:
        quot = _graded_quotient(spec)
        for ideal in (False, True):
            (bottom, (middle, top)), (old_bottom, (old_middle, old_top)) = \
                _both_layouts(quot, p, i, w, ideal)
            rows = _differential(p, None, middle, bottom)
            want = term_differential(p, old_middle, old_bottom, oracle._BITS)
            where = (spec, i, w, ideal)
            assert [{k: v % p for k, v in row.items()} for row in rows] == \
                want, where
            pivots = []
            rank_of_rows(rows, p, pivot_rows=pivots)
            rows = _differential(p, None, top, middle.get, set(pivots))
            want = term_differential(p, old_top, old_middle.get,
                                     oracle._BITS, set(pivots))
            assert [{k: v % p for k, v in row.items()} for row in rows] == \
                want, where
            compared[ideal] += bool(rows)
    # both sides write top maps, and no layout wrote to a shared read row
    assert min(compared.values()) > 100, compared
    assert all(row == {j: 1} for j, row in enumerate(oracle._UNIT_READS))


def test_layouts_hold_the_pieces_by_reference(field):
    # a layout copies no piece: the quotient side's basis and read are the
    # piece's quotient basis list and reduction map, the ideal side's basis
    # lists the piece's own monomial ints, and the ideal side reads the
    # monomial at position j through one dict {j: 1}, the same in every
    # piece and every layout
    p = field.modulus
    quot = _graded_quotient(IdealSpec("subpermanents", 5, 3))
    w = ((2, 1, 1, 1, 1), (2, 1, 1, 1, 1))
    reads = {}
    for r in (1, 2):
        pieces = _span(quot, p, None, r, w)[0]
        for ideal in (False, True):
            for _ in range(2):
                _, layout = _layout(pieces, ideal)
                for group, qbasis, reduce_map in pieces:
                    for T in group:
                        if T not in layout:
                            continue
                        _, read, (basis, _) = layout[T]
                        if not ideal:
                            assert basis is qbasis and read is reduce_map
                            continue
                        own = {id(M) for M in reduce_map}
                        assert basis == [M for M in reduce_map
                                         if M not in set(qbasis)]
                        assert all(id(P) in own for P in basis)
                        for j, P in enumerate(basis):
                            assert read[P] == {j: 1}
                            reads.setdefault(j, set()).add(id(read[P]))
    assert len(reads) > 1
    assert all(len(ids) == 1 for ids in reads.values())


def test_betti_block_restricted_top_map(field):
    # `_betti_block` takes one side of 0 -> I -> S -> S/I per block and
    # ranks the top map only on the middle coordinates off the middle map's
    # pivot rows, which is exact when the top map's image lies in the middle
    # map's kernel: check that precondition on both sides, and that both
    # sides' nullity minus the rank of the unrestricted top map agree with
    # each other and with the block
    p, cap = field.modulus, DEFAULT_NNZ_CAP
    restricted = Counter()
    for family, n, i in itertools.product(FAMILIES, (1, 2, 3), (0, 1, 2)):
        for kappa in range(1, n + 1):
            quot = _graded_quotient(IdealSpec(family, n, kappa))
            blocks = [(d, w) for d in (kappa + i, kappa + i + 1)
                      for w, _ in quot.weights(d)]
            for d, w in blocks:
                homology = []
                for ideal in (False, True):
                    middle_dim, mid, top_rows = _window_maps(
                        quot, p, cap, i, w, ideal)
                    where = (family, n, kappa, i, d, w, ideal)
                    for row in top_rows:
                        image = {}
                        for j, v in row.items():
                            for k, c in mid[j].items():
                                image[k] = (image.get(k, 0) + v * c) % p
                        assert not any(image.values()), where
                    nullity = middle_dim - rank_of_rows(mid, p)
                    rank_top = rank_of_rows(top_rows, p)
                    homology.append(nullity - rank_top)
                    restricted[ideal] += bool(nullity and rank_top)
                assert _betti_block(quot, p, cap, i, w) == homology[0] == \
                    homology[1], (family, n, kappa, i, d, w)
    # the restriction is exercised on both sides, not only the early returns
    assert min(restricted.values()) > 100, restricted


@pytest.mark.parametrize("i, d", [(1, 4), (3, 6)])
def test_betti_block_takes_smaller_middle(field, monkeypatch, i, d):
    # each block ranks its middle map first, on the side whose middle is
    # smaller, Lambda^(i+1) (x) S/I or Lambda^i (x) I; a block whose smaller
    # middle is 0 ranks nothing.  These cells' blocks split between the
    # sides.
    p, cap = field.modulus, DEFAULT_NNZ_CAP
    calls = []

    def counted_rank(rows, p_, **kwargs):
        calls.append(len(rows))
        return rank_of_rows(rows, p_, **kwargs)

    monkeypatch.setattr(oracle, "rank_of_rows", counted_rank)
    quot = _graded_quotient(IdealSpec("subpermanents", 4, 2))
    sides = Counter()
    for w, _ in quot.weights(d):
        quotient_middle = _span(quot, p, cap, i + 1, w)[1]
        ideal_middle = _span(quot, p, cap, i, w)[2]
        calls.clear()
        _betti_block(quot, p, cap, i, w)
        smaller = min(quotient_middle, ideal_middle)
        assert calls[:1] == ([smaller] if smaller else []), w
        if smaller:
            sides[(quotient_middle > ideal_middle) -
                  (quotient_middle < ideal_middle)] += 1
    assert sides[1] and sides[-1], sides


def test_chain_groups_match_quotient_dims(field):
    # summed over the (weight, multiplicity) list of a degree, the window's
    # blocks of Lambda^r (x) (S/I)_b and Lambda^r (x) I_b make up the whole
    # chain groups, of dimensions C(N, r) * dim (S/I)_b and C(N, r) * dim I_b
    p, cap = field.modulus, DEFAULT_NNZ_CAP
    for family in FAMILIES:
        for n in (2, 3):
            for kappa in range(1, n + 1):
                spec = IdealSpec(family, n, kappa)
                quot = _graded_quotient(spec)
                for r in (1, 2, 3):
                    for b in (kappa - 1, kappa, kappa + 1):
                        _, qdim = quotient_basis(spec, b, field)
                        want = (comb(spec.nvars, r) * qdim,
                                comb(spec.nvars, r) *
                                hilbert_oracle(spec, b, field))
                        got = [0, 0]
                        for w, size in quot.weights(r + b):
                            _, q, ideal = _span(quot, p, cap, r, w)
                            got[0] += q * size
                            got[1] += ideal * size
                        assert tuple(got) == want, (family, n, kappa, r, b)
