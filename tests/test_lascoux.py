from math import comb

import pytest

from permres import lascoux
from permres.formulas import betti_formula, det_linear_strand_dim
from permres.ideals import IdealSpec
from permres.lascoux import (
    BottOutcome,
    bott_reduce,
    det_ideal_hilbert,
    lascoux_terms,
    perm_ambient_linear_strand,
    regular_weight_dim,
    resolution_length,
    resolution_via_bott,
)
from permres.partitions import partitions, specht_dim
from permres.tensorspace import monomial_count


def _pairs(terms):
    return sorted((t.lam_e, t.lam_f, t.dim) for t in terms)


def test_first_step_is_the_minors():
    for n in (2, 3, 4):
        for r in range(1, n):
            terms = lascoux_terms(n, r, 1)
            assert len(terms) == 1
            t = terms[0]
            assert t.lam_e == t.lam_f == (1,) * (r + 1)
            assert t.dim == comb(n, r + 1) ** 2
            assert t.degree == r + 1


def test_second_step_matches_linear_strand_formula():
    for n in (3, 4, 5):
        for r in (1, 2):
            terms = [t for t in lascoux_terms(n, r, 2) if t.strand == 1]
            assert sum(t.dim for t in terms) == det_linear_strand_dim(n, r, 2)
    # shape check at n=3, r=1
    assert _pairs(lascoux_terms(3, 1, 2)) == [
        ((1, 1, 1), (2, 1), 8),
        ((2, 1), (1, 1, 1), 8),
    ]


def test_step_four_contains_second_strand():
    terms = lascoux_terms(3, 1, 4)
    assert any(t.strand == 2 and t.lam_e == t.lam_f == (2, 2, 2)
               for t in terms)
    # degree of an s=2 term is 2r + j
    for t in terms:
        if t.strand == 2:
            assert t.degree == 2 * 1 + 4


def test_bott_reduce_examples():
    assert bott_reduce((0, 2)) == BottOutcome(False, 1, (1, 1))
    assert bott_reduce((0, 1)) == BottOutcome(True)
    assert bott_reduce((0, 2, 1)) == BottOutcome(False, 1, (1, 1, 1))
    # already a partition: zero reflections
    assert bott_reduce((3, 1, 0)) == BottOutcome(False, 0, (3, 1))


def test_bott_reduce_wall_detected_later():
    # the repeat is not adjacent at the start
    outcome = bott_reduce((0, 2, 2))
    assert outcome.wall


def test_bott_strategy_independence(verify_ok):
    verify_ok("lascoux", "bott-strategy-independence")


def test_engines_agree_on_grid(verify_ok):
    verify_ok("lascoux", "direct-vs-bott")


def test_multiplicity_free():
    for n in range(2, 6):
        for r in range(1, n):
            for j in range(1, min(6, (n - r) ** 2) + 1):
                pairs = [(t.lam_e, t.lam_f) for t in lascoux_terms(n, r, j)]
                assert len(pairs) == len(set(pairs))


def test_resolution_length_and_socle():
    for n in (2, 3, 4):
        for r in range(1, n):
            top = resolution_length(n, r)
            socle = lascoux_terms(n, r, top)
            assert len(socle) == 1
            assert socle[0].lam_e == socle[0].lam_f == ((n - r),) * n
            assert socle[0].dim == 1
            assert lascoux_terms(n, r, top + 1) == []
            assert resolution_via_bott(n, r, top + 1) == []


def test_far_past_the_length_stays_short(monkeypatch):
    # only strands and parts that fit in n rows are enumerated, so a step
    # far beyond (n-r)^2 is empty after a short walk, not after every
    # partition of j - s^2 for every s <= sqrt(j)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 10_000:
            raise AssertionError("lascoux_terms enumerated past n rows")
        return partitions(*args, **kwargs)

    monkeypatch.setattr(lascoux, "partitions", counted)
    assert lascoux_terms(3, 1, 99) == []


def test_gorenstein_dimension_symmetry(verify_ok):
    verify_ok("lascoux", "length-and-symmetry")


def test_full_betti_table_matches_resolution(field):
    # every graded Betti number of the 2x2 minors of a 3x3 matrix, including
    # the non-linear socle entry, agrees with the term enumeration, and the
    # closed form the CLI and verify report is that enumeration; the 1x1
    # minors have none
    from permres.oracle import betti_oracle

    spec = IdealSpec("minors", 3, 2)
    for i in range(0, 4):
        for d in range(2, 8):
            want = sum(t.dim for t in lascoux_terms(3, 1, i + 1)
                       if t.degree == d)
            assert betti_oracle(spec, i, d, field) == want, (i, d)
            assert betti_formula(spec, i, d) == want, (i, d)
            assert betti_formula(IdealSpec("minors", 3, 1), i, d) is None


def test_euler_characteristic_reproduces_rank_oracle(verify_ok):
    verify_ok("lascoux", "euler-vs-rank-oracle")
    assert det_ideal_hilbert(3, 2, 1) == 0


def test_det_ideal_hilbert_principal_case():
    # single n x n determinant: ideal is principal
    for t in range(2, 7):
        assert det_ideal_hilbert(2, 2, t) == monomial_count(4, t - 2)


def test_det_ideal_hilbert_walks_only_steps_of_low_degree(monkeypatch):
    # a term at step j has degree s r + j >= r + j, so degree t needs steps
    # j <= t - r only: the 2 x 2 minors of a 12 x 12 matrix in degree 3
    # walk two of the 121 steps.  The quotient is the Segre ring, whose
    # degree-t piece is S^t(C^12) (x) S^t(C^12)
    calls = []

    def counted(n, r, j):
        calls.append(j)
        return lascoux_terms(n, r, j)

    monkeypatch.setattr(lascoux, "lascoux_terms", counted)
    assert det_ideal_hilbert(12, 2, 3) == comb(146, 3) - comb(14, 3) ** 2 \
        == 375584
    assert calls == [1, 2]


def test_perm_ambient_strand_first_step():
    for n in (2, 3, 4):
        for kappa in range(1, n + 1):
            terms = perm_ambient_linear_strand(n, kappa, 1)
            assert len(terms) == 1
            assert terms[0].lam_e == terms[0].lam_f == (kappa,)


def test_perm_ambient_strand_second_step():
    terms = perm_ambient_linear_strand(4, 2, 2)
    assert sorted((t.lam_e, t.lam_f) for t in terms) == [
        ((2, 1), (3,)),
        ((3,), (2, 1)),
    ]


def test_perm_ambient_strand_drops_long_hooks():
    # legs longer than n-1 cannot fit
    terms = perm_ambient_linear_strand(2, 1, 3)
    for t in terms:
        assert len(t.lam_e) <= 2 and len(t.lam_f) <= 2


def test_regular_weight_bridge(verify_ok):
    # regular-weight subspaces of the ambient strand assemble the
    # sub-permanent linear strand dimension
    verify_ok("lascoux", "regular-weight-bridge")


def test_regular_weight_dim_values():
    assert regular_weight_dim((2, 1), (3,), 5) == \
        specht_dim((2, 1)) * specht_dim((3,)) * comb(5, 3) ** 2
    assert regular_weight_dim((2, 1), (3,), 2) == 0
    with pytest.raises(ValueError):
        regular_weight_dim((2,), (1,), 3)


def test_input_validation():
    with pytest.raises(ValueError):
        lascoux_terms(3, 3, 1)
    with pytest.raises(ValueError):
        resolution_via_bott(3, 0, 1)
    with pytest.raises(ValueError):
        perm_ambient_linear_strand(3, 2, 0)
