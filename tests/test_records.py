"""The six value records: how they are made, compared, printed and checked."""

import pytest

from permres.ideals import IdealSpec, SubmatrixSelector
from permres.lascoux import BottOutcome, ResolutionTerm
from permres.modular import PrimeField, PrimePair

P, Q = 2147483647, 2147483629  # 2^31 - 1 and 2^31 - 19, both prime

# record, its fields in order, its properties, its repr, and invalid
# positional arguments with the message each raises
RECORDS = [
    (IdealSpec, {"family": "minors", "n": 3, "kappa": 2}, {"nvars": 9},
     "IdealSpec(family='minors', n=3, kappa=2)",
     [(("cubes", 3, 2), "unknown family 'cubes'"),
      (("minors", 3, 4), "need 1 <= kappa <= n, got kappa=4, n=3"),
      (("squarefree", 3, 0), "need 1 <= kappa <= n, got kappa=0, n=3")]),
    (SubmatrixSelector, {"rows": (1, 1), "cols": (2, 3)}, {"size": 2},
     "SubmatrixSelector(rows=(1, 1), cols=(2, 3))",
     [(((1, 2), (1,)), "selector must be square"),
      (((1, 2), (3, 2)), "selector labels must be sorted: (3, 2)"),
      (((0, 1), (1, 2)), "labels are 1-based")]),
    (PrimeField, {"modulus": P}, {},
     f"PrimeField(modulus={P})",
     [((7,), "modulus 7 not in (2^30, 2^31)"),
      ((1 << 31,), "modulus 2147483648 not in (2^30, 2^31)"),
      ((P - 2,), f"modulus {P - 2} is not prime")]),
    (PrimePair, {"first": PrimeField(P), "second": PrimeField(Q)},
     {"modulus": P * Q},
     f"PrimePair(first=PrimeField(modulus={P}), "
     f"second=PrimeField(modulus={Q}))",
     []),
    (ResolutionTerm, {"step": 2, "strand": 1, "degree": 4, "lam_e": (2, 1),
                      "lam_f": (3,), "dim": 8}, {},
     "ResolutionTerm(step=2, strand=1, degree=4, lam_e=(2, 1), lam_f=(3,), "
     "dim=8)",
     []),
    (BottOutcome, {"wall": False, "degree": 1, "partition": (1, 1)}, {},
     "BottOutcome(wall=False, degree=1, partition=(1, 1))",
     []),
]


@pytest.mark.parametrize("cls, fields, props, text, invalid", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, props, text, invalid):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert {k: getattr(by_keyword, k) for k in fields} == fields
    assert {k: getattr(by_keyword, k) for k in props} == props
    assert repr(by_keyword) == text
    for args, message in invalid:
        with pytest.raises(ValueError) as exc:
            cls(*args)
        assert str(exc.value) == message
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(by_keyword, name, fields[name])
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    if cls is BottOutcome:
        wall = BottOutcome(True)
        assert wall.degree is None and wall.partition is None

