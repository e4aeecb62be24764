import pytest

from permres import formulas, lascoux, oracle, simplicial, verify
from permres.ideals import IdealSpec
from permres.modular import (
    NonUnitPivotError,
    PrimeDisagreementError,
    PrimePair,
    prime_fields,
)
from permres.tensorspace import TensorElement


def test_rows_fall_back_per_prime(monkeypatch):
    # a verify row whose rank kernel meets a non-unit pivot over the pair of
    # primes reruns over each prime alone, as a CLI cell does, with the same
    # rows as the one pass
    want = verify.run_suite("all", seed=0)
    rank = oracle.rank_of_rows
    pair = PrimePair(*prime_fields(0, 2))
    raised = []

    def non_unit_at_pair(rows, p, **kwargs):
        if p == pair.modulus:
            raised.append(p)
            raise NonUnitPivotError("planted non-unit pivot")
        return rank(rows, p, **kwargs)

    monkeypatch.setattr(oracle, "rank_of_rows", non_unit_at_pair)
    oracle._graded_quotient.cache_clear()
    assert verify.run_suite("all", seed=0) == want
    assert raised


def test_row_agrees_over_primes_as_a_whole():
    # the primes agree on a row's whole list of values: one bad prime is
    # outvoted by the third, but two primes that each go wrong at a
    # different cell leave the third agreeing with neither
    p1, p2 = prime_fields(0, 2)
    spec = IdealSpec("squarefree", 3, 2)
    cells = [(spec, 0), (spec, 1)]

    def row_with_bad_cells(bad):
        def oracle_(spec, key, field):
            if field.modulus == p1.modulus * p2.modulus:
                raise NonUnitPivotError("planted non-unit pivot")
            return key + (bad.get(field.modulus) == key)

        return verify._oracle_row("formulas", "planted", cells,
                                  lambda spec, key: key, oracle_, 0)

    assert row_with_bad_cells({p1.modulus: 0})["ok"]
    with pytest.raises(PrimeDisagreementError):
        row_with_bad_cells({p1.modulus: 0, p2.modulus: 1})


# (module, closed form, the arguments it is off by one at, suite, row, the
# row's cell (n, kappa, *keys))
MUTANTS = [
    (formulas, "perm2_ideal_hilbert", (3, 4), "formulas", "perm2-hilbert-n3",
     (3, 2, 4)),
    (formulas, "sqfree_ideal_hilbert", (4, 2, 5), "formulas",
     "squarefree-hilbert-n4", (4, 2, 5)),
    (formulas, "sqfree_betti", (5, 2, 1), "formulas", "squarefree-betti-grid",
     (5, 2, 1, 3)),
    (formulas, "perm_linear_strand_dim", (4, 2, 2), "formulas",
     "perm-linear-strand-vs-koszul", (4, 2, 1, 3)),
    (formulas, "det_linear_strand_dim", (4, 1, 2), "formulas",
     "det-strand-step2-vs-koszul", (4, 2, 1, 3)),
    (lascoux, "det_ideal_hilbert", (3, 2, 4), "lascoux",
     "euler-vs-rank-oracle", (3, 2, 4)),
]


@pytest.mark.parametrize("module, name, at, suite, check, cell", MUTANTS,
                         ids=[m[1] for m in MUTANTS])
def test_row_catches_closed_form_off_by_one(monkeypatch, module, name, at,
                                            suite, check, cell):
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: original(*args) + (args == at))
    row = next(r for r in verify.run_suite(suite) if r["check"] == check)
    assert not row["ok"]
    # the one mismatching cell, named by its keys
    assert row["detail"].startswith(f"[{cell}"[:-1] + ", "), row["detail"]
    assert row["detail"].count("(") == 1, row["detail"]


def _first_term_bumped(original):
    """`original` with one more of the first term of the element it
    returns: off the kernel of the Koszul differential, and off any product
    it should equal."""
    def mutant(*args):
        element = original(*args)
        (mono, wedge), _ = next(iter(element.terms.items()))
        return element + TensorElement(element.degree, element.rank,
                                       [(mono, wedge, 1)])
    return mutant


def _off_strategy(original):
    """`bott_reduce` whose random strategy ends one degree higher."""
    def mutant(seq, rng=None):
        outcome = original(seq, rng)
        if rng is None or outcome.wall:
            return outcome
        return outcome._replace(degree=outcome.degree + 1)
    return mutant


# (module, callee, its mutant from the original, suite, row): a planted
# fault in one callee of each row that checks no oracle
ROW_FAULTS = [
    (verify, "det_hw_syzygy", _first_term_bumped, "syzygies",
     "det-hw-kernel"),
    (verify, "tensor_laplace", _first_term_bumped, "syzygies",
     "perm-laplace-differences"),
    (verify, "submatrix_polynomial", _first_term_bumped, "syzygies",
     "det-laplace-products"),
    (verify, "monomial_syzygy", _first_term_bumped, "syzygies",
     "monomial-syzygy-kernel"),
    (lascoux, "resolution_via_bott", lambda f: lambda *a: f(*a)[:-1],
     "lascoux", "direct-vs-bott"),
    (lascoux, "step_dimension",
     lambda f: lambda n, r, j: f(n, r, j) + (j == 0), "lascoux",
     "length-and-symmetry"),
    (lascoux, "bott_reduce", _off_strategy, "lascoux",
     "bott-strategy-independence"),
    (lascoux, "regular_weight_dim", lambda f: lambda *a: f(*a) + 1, "lascoux",
     "regular-weight-bridge"),
    (formulas, "perm2_f_vector", lambda f: lambda n: f(n)[:-1] + [0],
     "simplicial", "perm2-face-counts"),
    (formulas, "sqfree_betti", lambda f: lambda *a: f(*a) + 1, "simplicial",
     "h-vector-betti-numerator"),
    (simplicial, "alexander_dual_ideal", lambda f: lambda c: f(c)[:-1],
     "simplicial", "alexander-duality"),
]


@pytest.mark.parametrize("module, name, mutant, suite, check", ROW_FAULTS,
                         ids=[fault[4] for fault in ROW_FAULTS])
def test_row_catches_planted_fault(monkeypatch, module, name, mutant, suite,
                                   check):
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    row = next(r for r in verify.run_suite(suite) if r["check"] == check)
    assert not row["ok"], row
