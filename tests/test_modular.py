import itertools
import math
import random

import pytest
from enumeration import dense_rank, dense_rref, markowitz_pivots
from hypothesis import given, settings
from hypothesis import strategies as st

from permres.modular import (
    NonUnitPivotError,
    PrimeDisagreementError,
    PrimeField,
    PrimePair,
    agree_over_primes,
    is_prime,
    prime_fields,
    random_prime_field,
    rank_of_rows,
    rref_of_rows,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for m in range(-3, 42):
        assert is_prime(m) == (m in primes)


def test_is_prime_carmichael():
    assert not is_prime(561)
    assert not is_prime(1105)
    assert not is_prime((1 << 31) - 2)
    assert is_prime((1 << 31) - 1)


def test_prime_field_validation():
    PrimeField((1 << 31) - 1)
    with pytest.raises(ValueError):
        PrimeField(101)  # too small
    with pytest.raises(ValueError):
        PrimeField((1 << 30) + 1)  # in range but composite


def test_random_prime_field_deterministic():
    assert random_prime_field(random.Random(7)) == \
        random_prime_field(random.Random(7))
    f1, f2 = prime_fields(0, 2)
    assert f1.modulus != f2.modulus


def _random_rows(rng, nrows, ncols, density, p):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = rng.randrange(1, p)
        rows.append(row)
    return rows


def test_rank_engines_agree():
    p = prime_fields(0, 1)[0].modulus
    rng = random.Random(42)
    for _ in range(25):
        rows = _random_rows(rng, rng.randint(1, 12), rng.randint(1, 12),
                            rng.choice([0.2, 0.5, 0.9]), p)
        ncols = max((max(r) + 1 for r in rows if r), default=1)
        assert rank_of_rows(rows, p) == dense_rank(rows, ncols, p)


def test_rank_invariant_under_row_and_column_permutations():
    p = prime_fields(0, 1)[0].modulus
    rng = random.Random(9)
    rows = _random_rows(rng, 10, 8, 0.4, p)
    baseline = rank_of_rows(rows, p)
    for _ in range(5):
        perm = list(range(8))
        rng.shuffle(perm)
        shuffled = [{perm[c]: v for c, v in row.items()} for row in rows]
        rng.shuffle(shuffled)
        assert rank_of_rows(shuffled, p) == baseline


def test_rank_known_values():
    p = prime_fields(0, 1)[0].modulus
    assert rank_of_rows([], p) == 0
    assert rank_of_rows([{0: 1}, {0: 2}], p) == 1
    assert rank_of_rows([{0: 1, 1: 1}, {1: 1}, {0: 1}], p) == 2
    # 3x3 singular integer matrix
    rows = [{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 9}]
    assert rank_of_rows(rows, p) == 2


def _dense_rank_of_used_columns(rows, p):
    """`dense_rank` on the matrix with its unused columns dropped."""
    used = sorted({c for row in rows for c, v in row.items() if v % p})
    index = {c: k for k, c in enumerate(used)}
    compact = [{index[c]: v for c, v in row.items() if v % p} for row in rows]
    return dense_rank(compact, len(used), p)


def _sparse_factor(rng, nrows, ncols, per_row, p):
    """Random sparse rows; row t < ncols also uses column t, so that the
    factor has full rank for generic coefficients."""
    rows = []
    for t in range(nrows):
        cols = set(rng.sample(range(ncols), per_row))
        if t < ncols:
            cols.add(t)
        rows.append({c: rng.randrange(1, p) for c in cols})
    return rows


def _product(left, right, p):
    """left . right over F_p, both as sparse rows."""
    out = []
    for row in left:
        acc = {}
        for t, a in row.items():
            for c, b in right[t].items():
                acc[c] = (acc.get(c, 0) + a * b) % p
        out.append({c: v for c, v in acc.items() if v})
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rank", [185, 195])
def test_planted_rank(seed, rank):
    # B (300 x rank) has full column rank and C (rank x 200) full row rank,
    # so B.C has rank exactly `rank`; about 6 entries per row, which fill in
    # as the elimination goes on
    p = prime_fields(0, 1)[0].modulus
    rng = random.Random(seed)
    left = _sparse_factor(rng, 300, rank, 1, p)
    right = _sparse_factor(rng, rank, 200, 3, p)
    assert dense_rank(left, rank, p) == rank
    assert dense_rank(right, 200, p) == rank
    rows = _product(left, right, p)
    got = rank_of_rows(rows, p)
    assert got == rank == _dense_rank_of_used_columns(rows, p)


def _simplex_boundary(m, k):
    """Boundary map from k-faces to (k-1)-faces of the simplex on m
    vertices, as +-1 rows; its rank is C(m-1, k)."""
    faces = {f: i for i, f in
             enumerate(itertools.combinations(range(m), k))}
    return [{faces[s[:j] + s[j + 1:]]: (-1) ** j for j in range(k + 1)}
            for s in itertools.combinations(range(m), k + 1)]


@pytest.mark.parametrize("m,k", [(10, 3), (10, 4), (11, 3)])
def test_koszul_like_rank_deficient_finish_sparse(m, k):
    p = prime_fields(0, 1)[0].modulus
    rows = _simplex_boundary(m, k)
    got = rank_of_rows(rows, p)
    assert got == math.comb(m - 1, k) == _dense_rank_of_used_columns(rows, p)


def test_rank_degenerate_inputs():
    p = prime_fields(0, 1)[0].modulus
    assert rank_of_rows([], p) == 0
    assert rank_of_rows([{}, {}], p) == 0
    assert rank_of_rows(iter([{0: 1}, {1: 1}]), p) == 2
    # entries that are multiples of p are zeros
    assert rank_of_rows([{0: p, 3: -2 * p}, {1: 3 * p}], p) == 0
    assert rank_of_rows([{0: p, 1: 1}, {0: 1, 1: p + 1}, {2: p}], p) == 2
    # unused columns change nothing, also on rows that fill in
    rng = random.Random(5)
    rows = [{c: rng.randrange(1, p) for c in rng.sample(range(150), 6)}
            for _ in range(260)]
    got = rank_of_rows(rows, p)
    assert got == _dense_rank_of_used_columns(rows, p)


def _rank_and_pivot_rows(rows, p):
    """The kernel's rank and pivot rows, checked: `rank` distinct input
    positions whose rows have that rank, and the same rank as without
    `pivot_rows`."""
    out = []
    rank = rank_of_rows(rows, p, pivot_rows=out)
    assert rank == rank_of_rows(rows, p)
    assert len(out) == len(set(out)) == rank
    assert all(0 <= k < len(rows) for k in out)
    assert _dense_rank_of_used_columns([rows[k] for k in out], p) == rank
    return rank, out


def test_pivot_rows_keyword_only():
    # a third positional argument would read as a column count to callers
    # that wrap the kernel, so `pivot_rows` is passed by keyword only
    p = prime_fields(0, 1)[0].modulus
    with pytest.raises(TypeError):
        rank_of_rows([{0: 1}], p, [])


def test_pivot_rows_skip_zero_rows():
    # zero rows and rows that vanish mod p come first and are never pivots,
    # but still count in the input positions
    p = prime_fields(0, 1)[0].modulus
    zeros = [{}, {0: p, 3: -2 * p}, {1: 3 * p}]
    rows = zeros + [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1, 2: 5}, {2: p + 1}]
    rank, out = _rank_and_pivot_rows(rows, p)
    assert rank == 3
    assert min(out) >= len(zeros)


@pytest.mark.parametrize("m,k", [(10, 3), (11, 3)])
def test_pivot_rows_sparse_phase(m, k):
    p = prime_fields(0, 1)[0].modulus
    rows = _simplex_boundary(m, k)
    assert _rank_and_pivot_rows(rows, p)[0] == math.comb(m - 1, k)


@pytest.mark.parametrize("seed", range(2))
def test_pivot_rows_on_filled_rows(seed):
    # a planted rank whose rows fill in, behind a zero row: the pivot rows
    # are input positions, counting the zero row
    p = prime_fields(0, 1)[0].modulus
    rng = random.Random(seed)
    left = _sparse_factor(rng, 300, 185, 1, p)
    right = _sparse_factor(rng, 185, 200, 3, p)
    rows = [{}] + _product(left, right, p)
    assert _rank_and_pivot_rows(rows, p)[0] == 185


@settings(deadline=None, derandomize=True, max_examples=25)
@given(nrows=st.integers(140, 180), per_row=st.integers(10, 12),
       data=st.data())
def test_rank_kernel_property(nrows, per_row, data):
    # about square with ten or more entries per row, so the rows fill in
    # fast, and independent, so a row lost on the way changes the rank
    p = prime_fields(0, 1)[0].modulus
    ncols = nrows + data.draw(st.integers(0, 4), label="extra columns")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    rows = [{c: rng.randrange(1, p) for c in rng.sample(range(ncols), per_row)}
            for _ in range(nrows)]
    got = rank_of_rows(rows, p)
    assert got == dense_rank(rows, ncols, p)
    # modulo p * q the kernel either raises or gives the rank mod p and mod q
    pair = PrimePair(*prime_fields(0, 2))
    try:
        at_pair = rank_of_rows(rows, pair.modulus)
    except NonUnitPivotError:
        pass
    else:
        assert at_pair == got == rank_of_rows(rows, pair.second.modulus)
    # permute rows and columns, scale each row by a nonzero constant
    perm = list(range(ncols))
    rng.shuffle(perm)
    moved = [{perm[c]: v * s % p for c, v in row.items()}
             for row, s in zip(rows, (rng.randrange(1, p) for _ in rows))]
    rng.shuffle(moved)
    assert rank_of_rows(moved, p) == got


def test_rref_is_fully_reduced():
    p = prime_fields(0, 1)[0].modulus
    rows = [{0: 2, 1: 4, 2: 2}, {0: 1, 1: 3, 3: 5}, {1: 1, 2: 7, 3: 1}]
    pivots = rref_of_rows(rows, p)
    assert len(pivots) == rank_of_rows(rows, p)
    for c, row in pivots.items():
        assert row[c] == 1
        for other in pivots:
            if other != c:
                assert other not in row


def test_rref_reduction_identity():
    # every original row reduces to zero against the rref
    p = prime_fields(0, 1)[0].modulus
    rng = random.Random(3)
    rows = _random_rows(rng, 8, 6, 0.6, p)
    pivots = rref_of_rows(rows, p)
    for row in rows:
        r = dict(row)
        for c in sorted(pivots):
            f = r.get(c, 0)
            if not f:
                continue
            for cc, vv in pivots[c].items():
                r[cc] = (r.get(cc, 0) - f * vv) % p
        assert not any(v % p for v in r.values())


@st.composite
def _rref_inputs(draw):
    """(rows, ncols): sparse rows over at most 8 columns, with entries that
    vanish mod one prime of the seed-0 pair or both, small ones and generic
    residues mod their product, and with zero rows and repeated rows."""
    p, q = (f.modulus for f in prime_fields(0, 2))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-2, 2), st.integers(1, p * q - 1),
                      st.sampled_from([p, -p, 2 * q, p * q]))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry,
                                         max_size=4), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows)), ncols


@settings(deadline=None, derandomize=True, max_examples=90)
@given(_rref_inputs())
def test_rref_matches_dense_reference(example):
    rows, ncols = example
    p, q = (f.modulus for f in prime_fields(0, 2))
    for m in (p, q):
        assert rref_of_rows(rows, m) == dense_rref(rows, ncols, m)
    # modulo p * q a leading entry is a non-unit exactly when some prefix of
    # the rows has different pivot columns mod p and mod q; otherwise the
    # form reduces to each prime's form
    split = any(rref_of_rows(rows[:k], p).keys() !=
                rref_of_rows(rows[:k], q).keys()
                for k in range(1, len(rows) + 1))
    if split:
        with pytest.raises(NonUnitPivotError):
            rref_of_rows(rows, p * q)
        return
    at_pair = rref_of_rows(rows, p * q)
    for m in (p, q):
        reduced = {c: {cc: v % m for cc, v in row.items() if v % m}
                   for c, row in at_pair.items()}
        assert reduced == rref_of_rows(rows, m)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(_rref_inputs())
def test_pivot_order_matches_markowitz_reference(example):
    # the kernel takes its pivot rows in the order of the naive reference:
    # smallest (row length, input position) first; modulo p * q both stop
    # at the same non-unit pivot, or neither does
    rows, _ = example
    pair = PrimePair(*prime_fields(0, 2))
    for m in (pair.first.modulus, pair.modulus):
        positions, unit = markowitz_pivots(rows, m)
        out = []
        if unit:
            assert rank_of_rows(rows, m, pivot_rows=out) == len(positions)
        else:
            with pytest.raises(NonUnitPivotError):
                rank_of_rows(rows, m, pivot_rows=out)
        assert out == positions


def test_pivot_order_through_lazy_entries():
    # explicit inputs for the kernel's lower-bound heap entries and its
    # checked-on-read column lists, against the naive reference.  In the
    # first, row 2 shrinks, grows and shrinks again before it is pivoted, so
    # its shorter entry pops while it is longer and is pushed again at its
    # length.  In the second, row 4 cancels column 2 and regains it, so the
    # list of that column holds it twice.  Each also runs with its last
    # pivot row scaled by p1, which stops the elimination modulo p1 * p2
    # at that step, after those events
    pair = PrimePair(*prime_fields(0, 2))
    p1 = pair.first.modulus
    examples = [
        ([{2: 1}, {0: 1, 3: 2, 4: 1}, {0: -1, 1: -1, 2: 2, 5: 2},
          {1: 1, 3: 1, 4: 1}], 2),
        ([{0: -1, 2: 1}, {}, {0: 2, 1: 1}, {2: 2, 3: 2},
          {0: -1, 1: 1, 2: 1, 3: 2, 4: -1}], 4),
    ]
    for rows, last in examples:
        scaled = [{c: v * p1 for c, v in row.items()} if i == last else row
                  for i, row in enumerate(rows)]
        for m, matrix, unit in ((p1, rows, True), (pair.modulus, rows, True),
                                (p1, scaled, True),
                                (pair.modulus, scaled, False)):
            positions, found = markowitz_pivots(matrix, m)
            assert found == unit
            out = []
            if unit:
                assert rank_of_rows(matrix, m, pivot_rows=out) == \
                    len(positions)
            else:
                with pytest.raises(NonUnitPivotError):
                    rank_of_rows(matrix, m, pivot_rows=out)
                assert positions[-1] == last
            assert out == positions


def test_agree_over_primes_happy_path():
    seen = []

    def compute(field_):
        seen.append(field_)
        return 42

    value, primes = agree_over_primes(compute, seed=1)
    f1, f2 = prime_fields(1, 2)
    assert value == 42
    assert primes == [f1.modulus, f2.modulus] and primes[0] != primes[1]
    # one pass over both primes at once
    assert seen == [PrimePair(f1, f2)]
    assert seen[0].modulus == f1.modulus * f2.modulus


def _per_prime(values):
    """A compute that raises `NonUnitPivotError` on the pair of primes, as
    an elimination with a non-unit pivot does, then gives `values` in turn
    over single primes; `seen` records every field it was called with."""
    values = iter(values)
    seen = []

    def compute(field_):
        seen.append(field_)
        if isinstance(field_, PrimePair):
            raise NonUnitPivotError("planted non-unit pivot")
        return next(values)

    return compute, seen


def test_agree_over_primes_falls_back_per_prime(caplog):
    compute, seen = _per_prime([5, 5])
    with caplog.at_level("INFO", logger="permres.modular"):
        value, primes = agree_over_primes(compute, seed=1)
    assert [(r.name, r.levelname) for r in caplog.records] == \
        [("permres.modular", "INFO")]
    assert "one prime at a time" in caplog.records[0].message
    f1, f2 = prime_fields(1, 2)
    assert value == 5
    assert primes == [f1.modulus, f2.modulus]
    assert seen == [PrimePair(f1, f2), f1, f2]


def test_agree_over_primes_tie_break(caplog):
    compute, seen = _per_prime([7, 8, 8])
    with caplog.at_level("WARNING", logger="permres.modular"):
        value, primes = agree_over_primes(compute, seed=1)
    assert value == 8
    assert len(primes) == 3
    assert any("disagreement" in r.message for r in caplog.records)
    # the fallback ran: the pair first, then each prime, in the order listed
    assert isinstance(seen[0], PrimePair)
    assert [f.modulus for f in seen[1:]] == primes == \
        [f.modulus for f in prime_fields(1, 3)]


def test_agree_over_primes_triple_disagreement():
    compute, seen = _per_prime([1, 2, 3])
    with pytest.raises(PrimeDisagreementError):
        agree_over_primes(compute, seed=1)
    assert isinstance(seen[0], PrimePair) and len(seen) == 4


def _crt(a, b, p, q):
    """The residue mod p * q that is a mod p and b mod q."""
    return a + p * ((b - a) * pow(p, -1, q) % q)


def test_non_unit_single_entry_raises():
    # a row that is zero mod p only, with no other row in its column: the
    # kernel must still check its pivot, or it would count rank 1 mod p
    f1, f2 = prime_fields(0, 2)
    p, q = f1.modulus, f2.modulus
    rows = [{0: p}]
    assert rank_of_rows(rows, p) == 0
    assert rank_of_rows(rows, q) == 1
    with pytest.raises(NonUnitPivotError):
        rank_of_rows(rows, p * q)
    with pytest.raises(NonUnitPivotError):
        rank_of_rows(rows, p * q, pivot_rows=[])
    with pytest.raises(NonUnitPivotError):
        rref_of_rows(rows, p * q)
    assert rref_of_rows(rows, p) == {}
    assert rref_of_rows(rows, q) == {0: {0: 1}}


@pytest.mark.parametrize("seed", range(2))
def test_rank_drop_mod_one_prime_raises(seed):
    # a matrix built by the Chinese remainder theorem from a planted rank
    # 105 mod p and generic rows mod q: the rank drops mod p only, so the
    # elimination modulo p * q meets a non-unit pivot in both kernels
    f1, f2 = prime_fields(0, 2)
    p, q = f1.modulus, f2.modulus
    rng = random.Random(seed)
    low = _product(_sparse_factor(rng, 120, 105, 1, p),
                   _sparse_factor(rng, 105, 120, 3, p), p)
    high = [{c: rng.randrange(1, q) for c in row} for row in low]
    rows = [{c: _crt(v, high[k][c], p, q) for c, v in row.items()}
            for k, row in enumerate(low)]
    assert rank_of_rows(rows, p) == 105 == _dense_rank_of_used_columns(rows, p)
    full = rank_of_rows(rows, q)
    assert full == _dense_rank_of_used_columns(rows, q) > 105
    with pytest.raises(NonUnitPivotError):
        rank_of_rows(rows, p * q)
    with pytest.raises(NonUnitPivotError):
        rref_of_rows(rows, p * q)
    assert len(rref_of_rows(rows, p)) == 105
    assert len(rref_of_rows(rows, q)) == full


def test_pair_elimination_reduces_to_each_prime():
    # with unit pivots, the elimination modulo p * q is both eliminations:
    # its rank is both ranks, and its echelon form reduces to each prime's
    f1, f2 = prime_fields(0, 2)
    p, q = f1.modulus, f2.modulus
    rows = _simplex_boundary(9, 3)
    assert rank_of_rows(rows, p * q) == rank_of_rows(rows, p) == \
        rank_of_rows(rows, q) == math.comb(8, 3)
    at_pair = rref_of_rows(rows, p * q)
    for m in (p, q):
        reduced = {c: {cc: v % m for cc, v in row.items() if v % m}
                   for c, row in at_pair.items()}
        assert reduced == rref_of_rows(rows, m)
