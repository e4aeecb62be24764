from math import comb

import pytest

from enumeration import count_monomials_with_support
from permres.formulas import (
    det_linear_strand_dim,
    perm2_f_vector,
    perm2_hilbert_polynomial,
    perm2_ideal_hilbert,
    perm2_quotient_hilbert,
    perm_linear_strand_dim,
    sqfree_betti,
    sqfree_ideal_hilbert,
    sqfree_quotient_hilbert,
)
from permres.ideals import IdealSpec
from permres.oracle import betti_oracle, hilbert_oracle, quotient_basis
from permres.tensorspace import monomial_count


def test_perm_linear_strand_examples():
    assert perm_linear_strand_dim(5, 3, 1) == 100
    assert perm_linear_strand_dim(3, 2, 2) == 4
    # generators: j=1 gives C(n,kappa)^2
    for n in range(2, 7):
        for kappa in range(1, n + 1):
            assert perm_linear_strand_dim(n, kappa, 1) == comb(n, kappa) ** 2
    # j=2 closed form: 2*kappa*C(n,kappa+1)^2
    for n in range(2, 8):
        for kappa in range(1, n):
            assert perm_linear_strand_dim(n, kappa, 2) == \
                2 * kappa * comb(n, kappa + 1) ** 2
    assert perm_linear_strand_dim(5, 3, 2) == 150


def test_perm_linear_strand_vanishes_off_range():
    assert perm_linear_strand_dim(3, 2, 3) == 0
    assert perm_linear_strand_dim(2, 2, 2) == 0


def test_perm2_f_vector_values():
    assert perm2_f_vector(2) == [4, 5, 2]
    assert perm2_f_vector(3)[2] == 24
    assert perm2_f_vector(5)[0] == 25
    for n in range(2, 7):
        vec = perm2_f_vector(n)
        assert len(vec) == n + 1
        assert vec[0] == n * n
        assert vec[1] == comb(n * n, 2) - comb(n, 2) ** 2


def test_perm2_hilbert_polynomial_small():
    for t in range(1, 9):
        assert perm2_hilbert_polynomial(2, t) == (t + 1) ** 2


def test_perm2_hilbert_values(verify_ok):
    # frozen values computed by the rank oracle
    assert perm2_ideal_hilbert(3, 2) == 9
    assert perm2_ideal_hilbert(3, 3) == 77
    assert perm2_ideal_hilbert(2, 3) == 4
    assert perm2_quotient_hilbert(3, 3) == 88
    assert perm2_quotient_hilbert(5, 0) == 1
    for n in (2, 3, 4):
        verify_ok("formulas", f"perm2-hilbert-n{n}")


def test_perm2_complement_identity():
    for n in (2, 3, 4, 5):
        for t in range(0, 8):
            total = monomial_count(n * n, t)
            assert perm2_ideal_hilbert(n, t) + perm2_quotient_hilbert(n, t) \
                == total


def test_perm2_polynomial_exact_beyond_n():
    for n in (2, 3, 4, 5):
        for t in range(n + 1, n + 4):
            assert perm2_quotient_hilbert(n, t) == \
                perm2_hilbert_polynomial(n, t)
            assert perm2_ideal_hilbert(n, t) == monomial_count(n * n, t) - \
                perm2_hilbert_polynomial(n, t)


def test_perm2_quotient_matches_oracle_large_degree(field):
    spec = IdealSpec("subpermanents", 3, 2)
    for t in (4, 5, 6):
        _, qdim = quotient_basis(spec, t, field)
        assert perm2_quotient_hilbert(3, t) == qdim


def test_perm2_polynomial_matches_quotient_oracle_n5(field):
    spec = IdealSpec("subpermanents", 5, 2)
    quotient = monomial_count(25, 6) - hilbert_oracle(spec, 6, field)
    assert perm2_hilbert_polynomial(5, 6) == quotient == 4575


def test_sqfree_hilbert_examples():
    assert sqfree_ideal_hilbert(3, 2, 3) == 7
    assert sqfree_ideal_hilbert(5, 3, 4) == 35
    assert sqfree_quotient_hilbert(3, 2, 1) == 3
    assert sqfree_quotient_hilbert(5, 3, 4) == 35
    for n in range(1, 7):
        for kappa in range(1, n + 1):
            assert sqfree_ideal_hilbert(n, kappa, kappa) == comb(n, kappa)


def test_sqfree_formulas_match_enumeration():
    for n in range(1, 7):
        for kappa in range(1, n + 1):
            for d in range(0, 9):
                want = count_monomials_with_support(n, d, kappa)
                assert sqfree_ideal_hilbert(n, kappa, d) == want
                assert sqfree_quotient_hilbert(n, kappa, d) == \
                    comb(n + d - 1, d) - want


def test_sqfree_quotient_stabilizes_to_polynomial():
    # for large d the quotient is a polynomial in d of degree kappa-2
    n, kappa = 6, 4
    values = [sqfree_quotient_hilbert(n, kappa, d) for d in range(8, 16)]
    diffs = values
    for _ in range(kappa - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert all(x == 0 for x in diffs)


def test_sqfree_uncorrected_variants_disagree_where_documented():
    # two alternative binomial forms of the square-free Hilbert functions,
    # kept here only to pin where they disagree with the enumeration oracle
    def comb0(a, b):
        return comb(a, b) if 0 <= b <= a else 0

    def uncorrected_ideal_hilbert(n, kappa, d):
        # binomials C(n, kappa-j) instead of C(n, kappa+j)
        return sum(comb0(n, kappa - j) * comb0(d - 1, kappa + j - 1)
                   for j in range(0, n - kappa + 1))

    def uncorrected_quotient_hilbert(n, kappa, d):
        # the summation stops at n-kappa-2 instead of kappa-2
        if d < n - kappa - 1:
            return comb(n + d - 1, n - 1)
        return sum(comb(n, j + 1) * comb(d - 1, j)
                   for j in range(0, n - kappa - 1))

    # the alternative forms fail exactly where the corrected ones match the
    # enumeration oracle
    assert sqfree_ideal_hilbert(3, 2, 3) == 7
    assert uncorrected_ideal_hilbert(3, 2, 3) == 9
    assert sqfree_quotient_hilbert(3, 2, 1) == 3
    assert uncorrected_quotient_hilbert(3, 2, 1) == 0
    # and agree in the self-conjugate situation n = 2*kappa
    for d in range(1, 7):
        assert uncorrected_quotient_hilbert(4, 2, d) == \
            sqfree_quotient_hilbert(4, 2, d)


def test_sqfree_betti_values(field):
    assert [sqfree_betti(5, 3, i) for i in range(3)] == [10, 15, 6]
    assert sqfree_betti(6, 2, 3) == comb(6, 5) * comb(4, 3) == 24
    # linear strand: step 3 lives in degree kappa + 3 = 5
    assert betti_oracle(IdealSpec("squarefree", 6, 2), 3, 5, field) == 24
    for n in range(1, 7):
        assert sqfree_betti(n, n, 0) == 1
        assert sqfree_betti(n, n, 1) == 0


def test_sqfree_betti_grid_vs_oracle(verify_ok):
    verify_ok("formulas", "squarefree-betti-grid")


def test_det_linear_strand_examples():
    # j=1: the minors themselves
    for n in range(2, 7):
        for r in range(1, n):
            assert det_linear_strand_dim(n, r, 1) == comb(n, r + 1) ** 2
    assert det_linear_strand_dim(3, 1, 2) == 16


def test_det_linear_strand_ratio_formula():
    # j=2 closed form: 2*kappa*(n+1)/(n-kappa) * C(n,kappa+1)^2, kappa = r+1
    for n in range(3, 8):
        for r in range(1, n - 1):
            kappa = r + 1
            num = 2 * kappa * (n + 1) * comb(n, kappa + 1) ** 2
            assert num % (n - kappa) == 0
            assert det_linear_strand_dim(n, r, 2) == num // (n - kappa)


def test_det_strand_vs_koszul_oracle(verify_ok):
    verify_ok("formulas", "det-strand-step2-vs-koszul")


def test_input_validation():
    with pytest.raises(ValueError):
        perm_linear_strand_dim(3, 4, 1)
    with pytest.raises(ValueError):
        perm2_ideal_hilbert(1, 3)
    with pytest.raises(ValueError):
        sqfree_betti(3, 2, -1)
    with pytest.raises(ValueError):
        det_linear_strand_dim(3, 0, 1)
