"""Independent brute-force enumerations used as test oracles.  These stay
deliberately naive: counting objects one by one, never through the closed
forms they are checking.  Small helpers that only tests use as independent
references live here too: the regular-weight predicate, the dimension of an
induced module, and a dense rank and reduced echelon form over F_p by
row reduction with numpy."""

import itertools
from functools import cache

import numpy as np


@cache
def count_standard_tableaux(shape):
    """Number of standard Young tableaux, by recursive corner removal."""
    shape = tuple(p for p in shape if p)
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        # cell (i, shape[i]-1) is removable iff the next row is shorter
        if i + 1 < len(shape) and shape[i + 1] == shape[i]:
            continue
        smaller = shape[:i] + (shape[i] - 1,) + shape[i + 1:]
        total += count_standard_tableaux(tuple(p for p in smaller if p))
    return total


def count_semistandard_tableaux(shape, m):
    """Number of semistandard Young tableaux with entries in 1..m, by
    exhaustive row-by-row filling."""
    shape = tuple(p for p in shape if p)
    if not shape:
        return 1

    def rows_weakly_increasing(length, lo_row):
        """Yield weakly increasing rows of given length with entries
        strictly larger than the row above, columnwise."""
        def rec(j, prev):
            if j == length:
                yield ()
                return
            lo = max(prev, lo_row[j] + 1 if j < len(lo_row) else 1)
            for v in range(lo, m + 1):
                for rest in rec(j + 1, v):
                    yield (v,) + rest

        yield from rec(0, 1)

    def fill(i, above):
        if i == len(shape):
            return 1
        total = 0
        for row in rows_weakly_increasing(shape[i], above):
            total += fill(i + 1, row)
        return total

    return fill(0, (0,) * shape[0])


def is_regular_weight(w):
    """True when every entry of both weight vectors is 0 or 1."""
    w_rows, w_cols = w
    return all(x in (0, 1) for x in w_rows) and all(x in (0, 1) for x in w_cols)


def induced_dim(dim_w, order_h, order_g):
    """Dimension of a module induced from a subgroup of index
    order_g/order_h: dim_w * order_g / order_h.

    Non-divisibility signals a caller bug (wrong subgroup order).
    """
    if dim_w < 1 or order_h < 1 or order_g < 1:
        raise ValueError("dimensions and group orders must be positive")
    num = dim_w * order_g
    if num % order_h:
        raise ValueError(
            f"induced dimension {dim_w}*{order_g}/{order_h} is not an integer"
        )
    return num // order_h


def dense_rank(rows, ncols, p):
    """Rank over F_p of sparse rows ({col: coeff}, columns below `ncols`) by
    dense Gaussian elimination in int64: the reference the sparse kernel
    `rank_of_rows` is checked against."""
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            a[i, c] = v % p
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        below = rank + 1 + np.nonzero(a[rank + 1:, col])[0]
        if below.size:
            a[below] = (a[below] - a[below, col][:, None] * a[rank]) % p
        rank += 1
    return rank


def dense_rref(rows, ncols, p):
    """Fully reduced row echelon form over F_p of sparse rows ({col:
    coeff}, columns below `ncols`) by dense Gauss-Jordan elimination in
    int64, column by column, as {pivot column: {col: nonzero coeff}}: the
    reference the sparse kernel `rref_of_rows` is checked against."""
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            a[i, c] = v % p
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != rank]
        a[others] = (a[others] - a[others, col][:, None] * a[rank]) % p
        pivots.append(col)
    return {col: {int(c): int(a[k, c]) for c in np.nonzero(a[k])[0]}
            for k, col in enumerate(pivots)}


def monomials_dense(nvars, degree):
    """Exponent vectors of all degree-d monomials."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_dense(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def count_monomials_with_support(nvars, degree, min_support):
    """Degree-d monomials using at least min_support distinct variables."""
    return sum(
        1
        for m in monomials_dense(nvars, degree)
        if sum(1 for e in m if e) >= min_support
    )


def naive_betti(spec, i, d, field_):
    """Koszul-homology Betti number over the full graded pieces, with no
    weight splitting or symmetry collapsing: the slow reference the fast
    oracle must reproduce."""
    from permres.ideals import expand_generators
    from permres.modular import rank_of_rows, rref_of_rows
    from permres.tensorspace import mono_mul, mono_times_var, monomials

    nvars = spec.nvars
    p = field_.modulus

    def quotient(b):
        if b < 0:
            return [], {}
        monos = monomials(nvars, b)
        if b < spec.kappa:
            return monos, {m: {m: 1} for m in monos}
        index = {m: j for j, m in enumerate(monos)}
        rows = []
        for g in expand_generators(spec):
            for mult in monomials(nvars, b - spec.kappa):
                rows.append({
                    index[mono_mul(m, mult)]: c for (m, _), c in g.terms.items()
                })
        pivots = rref_of_rows(rows, p)
        qbasis = [m for m in monos if index[m] not in pivots]
        reduce_map = {}
        for m in monos:
            j = index[m]
            if j not in pivots:
                reduce_map[m] = {m: 1}
            else:
                reduce_map[m] = {monos[c]: -v % p
                                 for c, v in pivots[j].items() if c != j}
        return qbasis, reduce_map

    spaces = {}
    for r, b in ((i + 2, d - i - 2), (i + 1, d - i - 1), (i, d - i)):
        qbasis, reduce_map = quotient(b)
        basis = [(T, u) for T in itertools.combinations(range(nvars), r)
                 for u in qbasis]
        spaces[r] = (basis, {x: j for j, x in enumerate(basis)}, reduce_map)

    def rows_of(r_from, b_next):
        basis, _, _ = spaces[r_from]
        _, target_index, reduce_map = spaces[r_from - 1]
        rows = []
        for (T, u) in basis:
            col = {}
            for a, v in enumerate(T):
                T2 = T[:a] + T[a + 1:]
                for m2, c2 in reduce_map[mono_times_var(u, v)].items():
                    j = target_index.get((T2, m2))
                    if j is not None:
                        col[j] = (col.get(j, 0) + (-1) ** a * c2) % p
            rows.append({k: v for k, v in col.items() if v})
        return rows

    middle = spaces[i + 1][0]
    if not middle:
        return 0
    nullity = len(middle) - rank_of_rows(rows_of(i + 1, d - i), p)
    rank_top = 0
    if spaces[i + 2][0]:
        rank_top = rank_of_rows(rows_of(i + 2, d - i - 1), p)
    return nullity - rank_top


def brute_force_faces(n_vertices, nonfaces, max_dim):
    """Face counts by testing every subset against every forbidden set."""
    nonfaces = [frozenset(nf) for nf in nonfaces]
    counts = [0] * (max_dim + 2)
    for size in range(0, max_dim + 2):
        for cand in itertools.combinations(range(n_vertices), size):
            s = set(cand)
            if not any(nf <= s for nf in nonfaces):
                counts[size] += 1
    return counts
