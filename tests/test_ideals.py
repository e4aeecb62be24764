from math import comb, factorial

import pytest

from enumeration import is_regular_weight
from permres.ideals import (
    DETERMINANT,
    PERMANENT,
    IdealSpec,
    SubmatrixSelector,
    det_hw_syzygy,
    expand_generators,
    monomial_syzygy,
    submatrix_polynomial,
    tensor_laplace,
)
from permres.tensorspace import (
    TensorElement,
    grid_index,
    koszul_transpose,
    mono_weight,
    multiply_map_rank,
)


def test_ideal_spec_validation():
    IdealSpec("minors", 3, 2)
    with pytest.raises(ValueError):
        IdealSpec("minors", 3, 4)
    with pytest.raises(ValueError):
        IdealSpec("permanents", 3, 2)


def test_selector_validation():
    SubmatrixSelector((1, 1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        SubmatrixSelector((2, 1), (1, 2))
    with pytest.raises(ValueError):
        SubmatrixSelector((1, 2), (1, 2, 3))


def test_expand_generators_counts_and_degrees():
    for family, n, kappa, want in (
        ("subpermanents", 2, 2, 1),
        ("subpermanents", 3, 2, 9),
        ("minors", 3, 2, 9),
        ("squarefree", 5, 3, 10),
    ):
        spec = IdealSpec(family, n, kappa)
        gens = expand_generators(spec)
        assert len(gens) == want
        for g in gens:
            assert g.degree == kappa and g.rank == 0


def test_expand_generators_2x2_permanent():
    (g,) = expand_generators(IdealSpec("subpermanents", 2, 2))
    x = lambda i, j: grid_index(2, i, j)
    want = TensorElement(2, 0, [
        (((x(1, 1), 1), (x(2, 2), 1)), (), 1),
        (((x(1, 2), 1), (x(2, 1), 1)), (), 1),
    ])
    assert g == want


def test_expand_generators_minor_signs():
    gens = expand_generators(IdealSpec("minors", 3, 2))
    for g in gens:
        coeffs = sorted(g.terms.values())
        assert coeffs == [-1, 1]


def test_subpermanent_term_counts():
    gens = expand_generators(IdealSpec("subpermanents", 4, 3))
    for g in gens:
        assert len(g.terms) == factorial(3)
        assert set(g.terms.values()) == {1}


def test_generators_have_regular_weight():
    for family in ("subpermanents", "minors"):
        for n, kappa in ((3, 2), (4, 2), (4, 3)):
            for g in expand_generators(IdealSpec(family, n, kappa)):
                for (m, _) in g.terms:
                    assert is_regular_weight(mono_weight(m, n))


def test_generators_linearly_independent(field):
    for family in ("subpermanents", "minors"):
        for n in range(2, 6):
            for kappa in range(2, n + 1):
                spec = IdealSpec(family, n, kappa)
                gens = expand_generators(spec)
                rank = multiply_map_rank(gens, spec.nvars, kappa, kappa, field)
                assert rank == comb(n, kappa) ** 2
    for n in range(2, 6):
        for kappa in range(1, n + 1):
            spec = IdealSpec("squarefree", n, kappa)
            gens = expand_generators(spec)
            rank = multiply_map_rank(gens, spec.nvars, kappa, kappa, field)
            assert rank == comb(n, kappa)


def test_submatrix_polynomial_repeated_row_determinant_vanishes():
    elem = submatrix_polynomial(3, (1, 1, 2), (1, 2, 3), DETERMINANT)
    assert elem.is_zero()
    perm = submatrix_polynomial(3, (1, 1, 2), (1, 2, 3), PERMANENT)
    assert not perm.is_zero()


def test_minor_times_variable_is_nonzero():
    # x^1_1 is a nonzerodivisor, so the differential cannot kill M (x) x^1_1
    minor = submatrix_polynomial(3, (1, 2), (1, 2), DETERMINANT)
    elem = TensorElement(2, 1, [
        (m, (grid_index(3, 1, 1),), c) for (m, _), c in minor.terms.items()
    ])
    image = koszul_transpose(elem)
    assert not image.is_zero()
    assert len(image.terms) == 2


def test_tensor_laplace_two_by_two():
    sel = SubmatrixSelector((1, 2), (1, 2))
    elem = tensor_laplace(2, sel, "row", 1, DETERMINANT)
    assert len(elem.terms) == 2
    assert koszul_transpose(elem) == submatrix_polynomial(
        2, (1, 2), (1, 2), DETERMINANT
    )


def test_tensor_laplace_products_small_grid():
    for n, rows, cols in ((3, (1, 2), (1, 3)), (3, (1, 2, 3), (1, 2, 3)),
                          (4, (1, 2, 4), (2, 3, 4))):
        sel = SubmatrixSelector(rows, cols)
        for mode in (DETERMINANT, PERMANENT):
            target = submatrix_polynomial(n, rows, cols, mode)
            for i in rows:
                e = tensor_laplace(n, sel, "row", i, mode)
                assert koszul_transpose(e) == target
            for j in cols:
                e = tensor_laplace(n, sel, "column", j, mode)
                assert koszul_transpose(e) == target


def test_tensor_laplace_repeated_row_is_syzygy():
    # expanding a repeated-row determinant about the repeated row gives the
    # three-term linear syzygy of the 2x2 minors
    sel = SubmatrixSelector((1, 1, 2), (1, 2, 3))
    elem = tensor_laplace(3, sel, "row", 1, DETERMINANT)
    x = lambda i, j: grid_index(3, i, j)
    minor = lambda rows, cols: submatrix_polynomial(3, rows, cols, DETERMINANT)
    want = TensorElement(2, 1)
    for (m, _), c in minor((1, 2), (2, 3)).terms.items():
        want.add_term(m, (x(1, 1),), c)
    for (m, _), c in minor((1, 2), (1, 3)).terms.items():
        want.add_term(m, (x(1, 2),), -c)
    for (m, _), c in minor((1, 2), (1, 2)).terms.items():
        want.add_term(m, (x(1, 3),), c)
    assert elem == want
    assert koszul_transpose(elem).is_zero()


def test_tensor_laplace_permanent_difference_in_kernel(verify_ok):
    verify_ok("syzygies", "perm-laplace-differences")


def test_tensor_laplace_index_validation():
    sel = SubmatrixSelector((1, 2), (1, 2))
    with pytest.raises(ValueError):
        tensor_laplace(3, sel, "row", 3, DETERMINANT)
    with pytest.raises(ValueError):
        tensor_laplace(3, sel, "diagonal", 1, DETERMINANT)


def test_det_hw_syzygy_no_wedge_is_minor():
    elem = det_hw_syzygy(3, 1, 0, 0)
    assert elem == submatrix_polynomial(3, (1, 2), (1, 2), DETERMINANT)
    elem = det_hw_syzygy(4, 2, 0, 0)
    assert elem == submatrix_polynomial(4, (1, 2, 3), (1, 2, 3), DETERMINANT)


def test_det_hw_syzygy_matches_repeated_row_expansion():
    # (r,p,q) = (1,1,0) is the tensor Laplace expansion of the repeated-row
    # 3x3 determinant, up to a global sign
    elem = det_hw_syzygy(3, 1, 1, 0)
    sel = SubmatrixSelector((1, 1, 2), (1, 2, 3))
    reference = tensor_laplace(3, sel, "row", 1, DETERMINANT)
    assert elem == reference.scale(-1) or elem == reference


def test_det_hw_syzygy_kernel_grid():
    for n in (2, 3, 4):
        for r in (1, 2):
            for p in range(0, 4):
                for q in range(0, 4 - p):
                    if p + q < 1 or r + q + 1 > n or r + p + 1 > n:
                        continue
                    elem = det_hw_syzygy(n, r, p, q)
                    assert not elem.is_zero()
                    assert elem.degree == r + 1 and elem.rank == p + q
                    assert koszul_transpose(elem).is_zero(), (n, r, p, q)


def test_det_hw_syzygy_bounds():
    with pytest.raises(ValueError):
        det_hw_syzygy(3, 1, 2, 0)  # needs r+p+1 = 4 columns


def test_monomial_syzygy_single_tail_is_generator():
    elem = monomial_syzygy((0, 2), (4,))
    assert elem.degree == 3 and elem.rank == 0
    assert elem.terms == {(((0, 1), (2, 1), (4, 1)), ()): 1}


def test_monomial_syzygy_pair_form():
    elem = monomial_syzygy((0,), (1, 2))
    assert elem.terms == {
        (((0, 1), (1, 1)), (2,)): 1,
        (((0, 1), (2, 1)), (1,)): -1,
    }
    assert koszul_transpose(elem).is_zero()


def test_monomial_syzygy_kernel_grid(verify_ok):
    verify_ok("syzygies", "monomial-syzygy-kernel")


def test_monomial_syzygy_rejects_overlap():
    with pytest.raises(ValueError):
        monomial_syzygy((0, 1), (1, 2))
    with pytest.raises(ValueError):
        monomial_syzygy((0,), ())
