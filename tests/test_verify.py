import pytest

from permres import formulas, lascoux, oracle, verify
from permres.ideals import IdealSpec
from permres.modular import (
    NonUnitPivotError,
    PrimeDisagreementError,
    PrimePair,
    prime_fields,
)


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
