"""Explicit generator sets and syzygy vectors: sub-permanents, minors,
square-free monomials, tensor Laplace expansions, and highest-weight syzygies
of determinantal ideals."""

import itertools
from collections import namedtuple

from .tensorspace import TensorElement, grid_index, mono_one, mono_times_var

FAMILIES = ("subpermanents", "minors", "squarefree")

DETERMINANT = "determinant"
PERMANENT = "permanent"


class IdealSpec(namedtuple("IdealSpec", "family n kappa")):
    """Symbolic descriptor of an ideal family: kappa x kappa sub-permanents
    or minors of an n x n matrix of variables, or the square-free degree-kappa
    monomials in n variables.  An immutable named tuple, checked when made."""

    __slots__ = ()

    def __new__(cls, family, n, kappa):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if not (1 <= kappa <= n):
            raise ValueError(f"need 1 <= kappa <= n, got kappa={kappa}, "
                             f"n={n}")
        return super().__new__(cls, family, n, kappa)

    @property
    def nvars(self):
        return self.n if self.family == "squarefree" else self.n * self.n


class SubmatrixSelector(namedtuple("SubmatrixSelector", "rows cols")):
    """Row and column labels (1-based, sorted) of a square submatrix.  Rows
    or columns may repeat, which is how the repeated-index Laplace
    expansions are built.  An immutable named tuple, checked when made."""

    __slots__ = ()

    def __new__(cls, rows, cols):
        if len(rows) != len(cols):
            raise ValueError("selector must be square")
        for seq in (rows, cols):
            if any(a > b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"selector labels must be sorted: {seq}")
            if min(seq, default=1) < 1:
                raise ValueError("labels are 1-based")
        return super().__new__(cls, rows, cols)

    @property
    def size(self):
        return len(self.rows)


def _perm_sign(sigma):
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def submatrix_polynomial(n, rows, cols, sign_mode):
    """Determinant or permanent of the submatrix with the given (possibly
    repeated) row/column labels, as a rank-0 element.  A determinant with a
    repeated label cancels to zero."""
    k = len(rows)
    elem = TensorElement(k, 0)
    for sigma in itertools.permutations(range(k)):
        coeff = _perm_sign(sigma) if sign_mode == DETERMINANT else 1
        m = mono_one()
        for a in range(k):
            m = mono_times_var(m, grid_index(n, rows[a], cols[sigma[a]]))
        elem.add_term(m, (), coeff)
    return elem


def expand_generators(spec):
    """Explicit generators of the ideal, in a deterministic order over
    selectors.  Sub-permanents expand with all coefficients +1, minors with
    permutation signs, square-free monomials as single terms."""
    n, k = spec.n, spec.kappa
    if spec.family == "squarefree":
        gens = []
        for support in itertools.combinations(range(n), k):
            m = mono_one()
            for v in support:
                m = mono_times_var(m, v)
            gens.append(TensorElement(k, 0, [(m, (), 1)]))
        return gens
    mode = DETERMINANT if spec.family == "minors" else PERMANENT
    return [
        submatrix_polynomial(n, rows, cols, mode)
        for rows in itertools.combinations(range(1, n + 1), k)
        for cols in itertools.combinations(range(1, n + 1), k)
    ]


def tensor_laplace(n, selector, axis, index, sign_mode):
    """Tensor Laplace expansion of the selector's determinant or permanent
    about one row or column: the sum is left unexpanded in the second tensor
    factor, giving an element of S^(k-1) V (x) V.

    Multiplying the two factors back together (koszul_transpose) recovers
    submatrix_polynomial(selector); for a selector with a repeated row or
    column the determinant expansion is therefore a linear syzygy.
    """
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    if sign_mode not in (DETERMINANT, PERMANENT):
        raise ValueError(f"unknown sign mode {sign_mode!r}")
    along_rows = axis == "row"
    labels = selector.rows if along_rows else selector.cols
    others = selector.cols if along_rows else selector.rows
    if index not in labels:
        raise ValueError(f"{axis} {index} not in selector {labels}")
    pos = labels.index(index)
    kept = labels[:pos] + labels[pos + 1:]
    elem = TensorElement(selector.size - 1, 1)
    for b, other in enumerate(others):
        sub_others = others[:b] + others[b + 1:]
        outer = (-1) ** (pos + b) if sign_mode == DETERMINANT else 1
        if along_rows:
            tensor_var = grid_index(n, index, other)
            sub_rows, sub_cols = kept, sub_others
        else:
            tensor_var = grid_index(n, other, index)
            sub_rows, sub_cols = sub_others, kept
        minor = submatrix_polynomial(n, sub_rows, sub_cols, sign_mode)
        for (m, _), c in minor.terms.items():
            elem.add_term(m, (tensor_var,), outer * c)
    return elem


def det_hw_syzygy(n, r, p, q):
    """Highest-weight syzygy vector of the ideal of (r+1)-minors at
    homological step p+q+1 of the linear strand: a signed double sum of
    (r+1)-minors against a wedge of first-row and first-column variables.

    Element of S^(r+1) V (x) Lambda^(p+q) V; koszul_transpose kills it.
    """
    if r < 1 or p < 0 or q < 0:
        raise ValueError("need r >= 1, p >= 0, q >= 0")
    if r + q + 1 > n or r + p + 1 > n:
        raise ValueError(
            f"selector needs {r + q + 1} rows and {r + p + 1} columns "
            f"inside an {n} x {n} grid"
        )
    elem = TensorElement(r + 1, p + q)
    for dropped_rows in itertools.combinations(range(1, r + q + 2), q):
        for dropped_cols in itertools.combinations(range(1, r + p + 2), p):
            rows = tuple(i for i in range(1, r + q + 2)
                         if i not in dropped_rows)
            cols = tuple(j for j in range(1, r + p + 2)
                         if j not in dropped_cols)
            sign = (-1) ** (sum(dropped_rows) + sum(dropped_cols))
            wedge = tuple(grid_index(n, 1, j) for j in dropped_cols) + tuple(
                grid_index(n, i, 1) for i in dropped_rows
            )
            minor = submatrix_polynomial(n, rows, cols, DETERMINANT)
            for (m, _), c in minor.terms.items():
                elem.add_term(m, wedge, sign * c)
    return elem


def monomial_syzygy(base, tail):
    """Spanning syzygy vector of the square-free monomial ideal: for a base
    index set I of size kappa-1 and distinct extra indices u_1..u_j,

        sum_a (-1)^(a+1) x_I x_{u_a} (x) x_{u_1} ^ ... ^ (omit u_a) ^ ... ^ x_{u_j}

    an element of S^kappa (x) Lambda^(j-1); koszul_transpose kills it.
    """
    base = tuple(base)
    tail = tuple(tail)
    if len(set(base)) != len(base) or len(set(tail)) != len(tail):
        raise ValueError("index sets must not repeat")
    if set(base) & set(tail):
        raise ValueError(f"base {base} and tail {tail} overlap")
    if not tail:
        raise ValueError("tail must be nonempty")
    elem = TensorElement(len(base) + 1, len(tail) - 1)
    for a, u in enumerate(tail):
        m = mono_one()
        for v in base:
            m = mono_times_var(m, v)
        m = mono_times_var(m, u)
        elem.add_term(m, tail[:a] + tail[a + 1:], (-1) ** a)
    return elem
