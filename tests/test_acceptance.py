"""Acceptance criteria.  Each test prints one pass/fail line with its
runtime; every expected value is exact (no tolerances anywhere)."""

import time
from math import comb, factorial

import pytest

from enumeration import (
    count_monomials_with_support,
    count_standard_tableaux,
    induced_dim,
)
from permres import verify
from permres.formulas import (
    perm2_hilbert_polynomial,
    perm2_ideal_hilbert,
    perm_linear_strand_dim,
    sqfree_betti,
    sqfree_ideal_hilbert,
    sqfree_quotient_hilbert,
)
from permres.ideals import IdealSpec
from permres.lascoux import resolution_length
from permres.modular import prime_fields
from permres.oracle import betti_oracle
from permres.partitions import hook_partition
from permres.tensorspace import monomial_count

FIELD = prime_fields(0, 1)[0]


class _criterion:
    """Times a criterion and prints its pass/fail line."""

    def __init__(self, number, budget_seconds, description):
        self.number = number
        self.budget = budget_seconds
        self.description = description

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} - {self.description} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def _assert_suite_ok(suite):
    """Runs a `permres verify` suite (seed 0, not expensive); every row must
    be ok."""
    rows = verify.run_suite(suite)
    failed = [row for row in rows if not row["ok"]]
    assert rows and not failed, failed


def test_criterion_1_squarefree_betti_table():
    with _criterion(1, 10, "Betti table of the (5,3) square-free ideal "
                           "is exactly (10, 15, 6)"):
        spec = IdealSpec("squarefree", 5, 3)
        expected = {(0, 3): 10, (1, 4): 15, (2, 5): 6}
        for i in range(0, 5):
            for d in range(3, 8):
                value = betti_oracle(spec, i, d, FIELD)
                assert value == expected.get((i, d), 0), (i, d, value)
        for (i, d), want in expected.items():
            assert sqfree_betti(5, 3, i) == want


def test_criterion_2_subpermanent_generators_and_linear_syzygies():
    with _criterion(2, 60, "n=5, kappa=3 sub-permanents: 100 generators, "
                           "150 linear syzygies, confirmed by the Koszul "
                           "oracle"):
        assert perm_linear_strand_dim(5, 3, 1) == 100
        assert perm_linear_strand_dim(5, 3, 2) == 150
        assert 2 * 3 * comb(5, 4) ** 2 == 150
        spec = IdealSpec("subpermanents", 5, 3)
        assert betti_oracle(spec, 0, 3, FIELD) == 100
        assert betti_oracle(spec, 1, 4, FIELD) == 150
        # the strand continues with 28 at step 2 and ends there
        assert perm_linear_strand_dim(5, 3, 3) == 28
        assert betti_oracle(spec, 2, 5, FIELD) == 28


@pytest.mark.expensive
def test_criterion_3_degree_six_first_syzygies():
    with _criterion(3, 3600, "n=5, kappa=3: 5200 minimal first syzygies "
                             "of degree six"):
        spec = IdealSpec("subpermanents", 5, 3)
        assert betti_oracle(spec, 1, 5, FIELD) == 0
        assert betti_oracle(spec, 1, 6, FIELD) == 5200
        # the linear strand ends at step 2, as the formula says
        assert betti_oracle(spec, 3, 6, FIELD) == 0


def test_criterion_3_downgrade_full_table_n4():
    with _criterion(3, 600, "downgrade table: n=4, kappa=2 linear strand "
                            "formula/oracle agreement"):
        spec = IdealSpec("subpermanents", 4, 2)
        for j in (1, 2, 3):
            want = perm_linear_strand_dim(4, 2, j)
            assert betti_oracle(spec, j - 1, j + 1, FIELD) == want
        # no generators outside degree 2
        assert betti_oracle(spec, 0, 3, FIELD) == 0
        assert betti_oracle(spec, 0, 4, FIELD) == 0


def test_criterion_4_perm2_hilbert_function():
    with _criterion(4, 300, "kappa=2 Hilbert formula equals the rank oracle "
                            "for n in {2,3,4}, t in {2..6}"):
        _assert_suite_ok("formulas")
        for n in (2, 3, 4):
            for t in range(n + 1, n + 5):
                assert perm2_ideal_hilbert(n, t) == monomial_count(
                    n * n, t
                ) - perm2_hilbert_polynomial(n, t)


def test_criterion_5_squarefree_formulas():
    with _criterion(5, 30, "square-free Hilbert formulas equal the "
                           "enumeration oracle for n <= 6, d <= 8"):
        for n in range(1, 7):
            for kappa in range(1, n + 1):
                for d in range(0, 9):
                    ideal = sqfree_ideal_hilbert(n, kappa, d)
                    quotient = sqfree_quotient_hilbert(n, kappa, d)
                    assert ideal == count_monomials_with_support(n, d, kappa)
                    assert ideal + quotient == comb(n + d - 1, d)


def test_criterion_6_lascoux_resolution():
    with _criterion(6, 120, "determinantal resolution: direct enumeration "
                            "equals the Bott engine; length, symmetry, and "
                            "the alternating-sum identity hold"):
        _assert_suite_ok("lascoux")
        for n in (2, 3, 4):
            for r in (1, 2):
                if r < n:
                    assert resolution_length(n, r) == (n - r) ** 2


def test_criterion_7_syzygy_vectors():
    with _criterion(7, 120, "all explicit syzygy vectors lie in the kernel "
                            "of the differential; Laplace expansions "
                            "multiply back to their minor/permanent"):
        _assert_suite_ok("syzygies")


def test_criterion_8_simplicial():
    with _criterion(8, 300, "face counts of the kappa=2 radical complex "
                            "match the f-vector formula for n in {2..5}; "
                            "skeleton h-vectors carry the square-free "
                            "Betti numerators for n <= 6"):
        _assert_suite_ok("simplicial")


def _hook_dim(arm, legs):
    """Specht dimension of the hook (arm, 1^legs), by counting tableaux."""
    return count_standard_tableaux(hook_partition(arm, legs))


def test_criterion_9_induced_module_decomposition():
    with _criterion(9, 1, "induced-module decomposition sums to the linear "
                          "strand dimension for n <= 6, kappa <= 4, j <= 4"):
        for n in range(2, 7):
            for kappa in range(1, min(4, n) + 1):
                for j in range(1, 5):
                    m = kappa + j - 1
                    if m > n:
                        assert perm_linear_strand_dim(n, kappa, j) == 0
                        continue
                    order_h = (factorial(m) * factorial(n - m)) ** 2
                    order_g = factorial(n) ** 2
                    total = sum(
                        induced_dim(
                            _hook_dim(kappa + b, a) * _hook_dim(kappa + a, b),
                            order_h,
                            order_g,
                        )
                        for a in range(j)
                        for b in (j - 1 - a,)
                    )
                    assert total == perm_linear_strand_dim(n, kappa, j), \
                        (n, kappa, j)
