"""Graded pieces of a polynomial ring, sparse tensors with an exterior
factor, and the transpose-Koszul differential.

Monomials are canonical sparse tuples ``((var, exp), ...)`` sorted by
variable index.  For the n x n matrix families, variable ids are row-major:
``x^i_j`` (1-based) has id ``(i-1)*n + (j-1)``.  Square-free families use
plain variable ids ``0..n-1``.

Enumeration order of a graded piece is lexicographic on the dense row-major
exponent vector, largest first, so matrices assembled from these bases are
reproducible.

The oracle lists its blocks and wedges with `monomials_with_weight` and
packs each monomial into an int (see `permres.oracle`).  The tuple
arithmetic here (`mono_mul`, `mono_times_var`, `TensorElement`,
`koszul_transpose`, `multiply_map_rank`) builds the generators of
`permres.ideals` and serves the independent references: the whole-space
checks of `permres.verify` and the tests.
"""

from math import comb, inf

from .modular import rank_of_rows

Monomial = tuple

DEFAULT_BASIS_CAP = 10**7
DEFAULT_NNZ_CAP = 2 * 10**7


class ResourceCapError(RuntimeError):
    """Raised when a computation would exceed a configured resource cap."""


def check_cap(amount, cap, what):
    if cap is not None and amount > cap:
        raise ResourceCapError(
            f"{what} needs {amount} > cap {cap}; rerun with a higher cap "
            "or the expensive flag"
        )


def grid_index(n, i, j):
    """Variable id of x^i_j (1-based row and column) on the n x n grid."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"grid position ({i},{j}) outside [1,{n}]^2")
    return (i - 1) * n + (j - 1)


def mono_one():
    return ()


def mono_degree(m):
    return sum(e for _, e in m)


def mono_times_var(m, var):
    """m * x_var: var's exponent goes up by one, or (var, 1) is inserted at
    its sorted position."""
    for k, (v, e) in enumerate(m):
        if v >= var:
            if v == var:
                return m[:k] + ((var, e + 1),) + m[k + 1:]
            return m[:k] + ((var, 1),) + m[k:]
    return m + ((var, 1),)


def mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_weight(m, n):
    """(row weights, column weights) of a grid monomial: entry s of the row
    weight counts the total exponent in row s."""
    w_rows = [0] * n
    w_cols = [0] * n
    for var, e in m:
        w_rows[var // n] += e
        w_cols[var % n] += e
    return tuple(w_rows), tuple(w_cols)


def monomial_count(nvars, d):
    return comb(nvars + d - 1, d) if d >= 0 else 0


def monomials(nvars, d, cap=DEFAULT_BASIS_CAP):
    """All degree-d monomials in nvars variables, in the canonical order."""
    if d < 0:
        return []
    check_cap(monomial_count(nvars, d), cap, f"degree-{d} basis")
    out = []

    def rec(start, rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        if start == nvars:
            return
        for e in range(rem, 0, -1):
            acc.append((start, e))
            rec(start + 1, rem - e, acc)
            acc.pop()
        rec(start + 1, rem, acc)

    rec(0, d, [])
    return out


def monomials_with_weight(n, w_rows, w_cols, bound=inf):
    """Grid monomials with prescribed row and column weights (nonnegative
    integer matrices with given margins, each entry at most `bound`), in a
    deterministic order."""
    if sum(w_rows) != sum(w_cols):
        return []
    if any(x < 0 for x in w_rows) or any(x < 0 for x in w_cols):
        return []
    out = []
    cols = list(w_cols)

    def fill_row(i, acc):
        if i == n:
            out.append(tuple(acc))
            return
        target = w_rows[i]

        def place(j, rem):
            # a row whose weight is placed has zeros in its later columns
            if rem == 0 or j == n:
                if rem == 0:
                    fill_row(i + 1, acc)
                return
            tail_capacity = sum(cols[j + 1:])
            for e in range(min(rem, cols[j], bound), -1, -1):
                if rem - e > tail_capacity:
                    continue
                cols[j] -= e
                if e:
                    acc.append((i * n + j, e))
                place(j + 1, rem - e)
                if e:
                    acc.pop()
                cols[j] += e

        place(0, target)

    fill_row(0, [])
    return out


def normalize_wedge(wedge):
    """Sort an index tuple, tracking the permutation sign; a repeated index
    returns (None, 0)."""
    w = list(wedge)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            w[j - 1], w[j] = w[j], w[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(w, w[1:]):
        if a == b:
            return None, 0
    return tuple(w), sign


class TensorElement:
    """Sparse element of S^d V (x) Lambda^p V with integer coefficients.

    Terms map (monomial, sorted wedge tuple) to a nonzero coefficient; signs
    from sorting the wedge are applied on construction.
    """

    __slots__ = ("degree", "rank", "terms")

    def __init__(self, degree, rank, terms=()):
        """`terms` is an iterable of (monomial, wedge, coeff) triples."""
        self.degree = degree
        self.rank = rank
        self.terms = {}
        for mono, wedge, coeff in terms:
            self.add_term(mono, wedge, coeff)

    def add_term(self, mono, wedge, coeff):
        if coeff == 0:
            return
        if mono_degree(mono) != self.degree or len(wedge) != self.rank:
            raise ValueError(
                f"term of degree {mono_degree(mono)}, rank {len(wedge)} in an "
                f"element of degree {self.degree}, rank {self.rank}"
            )
        wedge, sign = normalize_wedge(wedge)
        if wedge is None:
            return
        key = (mono, wedge)
        new = self.terms.get(key, 0) + sign * coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.degree == other.degree
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __add__(self, other):
        if (self.degree, self.rank) != (other.degree, other.rank):
            raise ValueError("degree/rank mismatch")
        out = TensorElement(self.degree, self.rank)
        out.terms = dict(self.terms)
        for (m, w), c in other.terms.items():
            new = out.terms.get((m, w), 0) + c
            if new:
                out.terms[(m, w)] = new
            else:
                out.terms.pop((m, w), None)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = TensorElement(self.degree, self.rank)
        if c:
            out.terms = {k: c * v for k, v in self.terms.items()}
        return out

    def __repr__(self):
        return (
            f"TensorElement(degree={self.degree}, rank={self.rank}, "
            f"{len(self.terms)} terms)"
        )


def koszul_transpose(x):
    """The differential S^(q-1) V (x) Lambda^(k) V -> S^q V (x) Lambda^(k-1) V:
    polarize one exterior slot into the symmetric factor with alternating
    sign.  Applying it twice gives zero."""
    if x.rank < 1:
        raise ValueError("koszul_transpose needs exterior rank >= 1")
    out = TensorElement(x.degree + 1, x.rank - 1)
    for (m, w), c in x.terms.items():
        for a, var in enumerate(w):
            out.add_term(
                mono_times_var(m, var), w[:a] + w[a + 1:], (-1) ** a * c
            )
    return out


def multiply_map_rank(generators, nvars, from_degree, to_degree, field,
                      cap=DEFAULT_NNZ_CAP):
    """Rank over the field of the multiplication map span{g_i} (x)
    S^(t-d) -> S^t, i.e. the dimension of the ideal's degree-t piece.

    The rank is independent of generator order and of the monomial
    enumeration order.
    """
    if to_degree < from_degree:
        raise ValueError("to_degree must be at least from_degree")
    for g in generators:
        if g.rank != 0 or g.degree != from_degree:
            raise ValueError("generators must be rank 0 of the stated degree")
    shift = to_degree - from_degree
    nterms = sum(len(g.terms) for g in generators)
    check_cap(nterms * monomial_count(nvars, shift), cap,
              "multiplication matrix nonzeros")
    cols = {m: i for i, m in enumerate(monomials(nvars, to_degree))}
    rows = []
    for g in generators:
        for mult in monomials(nvars, shift):
            rows.append({
                cols[mono_mul(m, mult)]: c for (m, _), c in g.terms.items()
            })
    return rank_of_rows(rows, field.modulus)
