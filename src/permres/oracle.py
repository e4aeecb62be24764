"""Brute-force ground truth: Hilbert functions by sparse rank over a prime
field, and graded Betti numbers by Koszul homology, independent of every
closed-form formula in this package.

Step convention: step 0 of a Betti table is the space of minimal generators
of the ideal, so step i in degree d is Tor_{i+1}(S/I, C)_d.

Both oracles exploit the torus grading: the matrix-family ideals are spanned
by weight vectors for the two-sided torus action on the n x n grid, and the
square-free ideals are multigraded, so every Koszul window splits into
independent blocks indexed by weights.  The symmetric-group action permuting
rows and columns (or variables) preserves the ideals, so block dimensions
only depend on the sorted weight.  The matrix-family ideals are also
preserved by the transpose x_ij -> x_ji, which swaps row and column weight,
so the block (wE, wF) has the same dimensions as (wF, wE).  By default
(`use_symmetry=True`) each orbit is computed once, at its dominant pair with
wF <= wE, and scaled by its size; `use_symmetry=False` visits every weight
pair and is the unreduced reference.

Within a matrix-family block, the Koszul window only involves wedges (subsets
of the grid variables) whose row and column weights both fit under the
block's.  The wedges are indexed by row weight, then column weight, so a
block skips whole groups that cannot fit and looks up each quotient piece
once per group.
"""

import itertools
import time
from dataclasses import dataclass, field
from math import factorial

from .ideals import IdealSpec, expand_generators
from .modular import prime_fields, rank_of_rows, rref_of_rows
from .tensorspace import (
    DEFAULT_NNZ_CAP,
    check_cap,
    mono_times_var,
    mono_weight,
    monomials,
    monomials_with_weight,
)


def default_field(seed=0):
    return prime_fields(seed, 1)[0]


@dataclass
class GradedDims:
    """Hilbert-function values with provenance metadata."""

    spec: IdealSpec
    dims: dict
    primes: list
    seconds: float


@dataclass
class BettiTable:
    """Graded Betti numbers (step, degree) -> value; step 0 = generators."""

    spec: IdealSpec
    entries: dict
    source: str
    primes: list = field(default_factory=list)
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# weight bookkeeping


def compositions(total, parts):
    """All length-`parts` tuples of nonnegative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def dominant_weights(total, parts):
    """Weakly decreasing compositions: partitions padded to fixed length."""
    def rec(rem, mx, slots):
        if slots == 0:
            if rem == 0:
                yield ()
            return
        for first in range(min(rem, mx), -1, -1):
            if first * slots < rem:
                return
            for rest in rec(rem - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(total, total, parts)


def orbit_size(w):
    """Number of distinct rearrangements of a weight tuple."""
    count = factorial(len(w))
    for value in set(w):
        count //= factorial(w.count(value))
    return count


def _sub(w, v):
    return tuple(a - b for a, b in zip(w, v))


def _nonneg(w):
    return all(x >= 0 for x in w)


# ---------------------------------------------------------------------------
# matrix families: blocks graded by (row weight, column weight)


def _grid_orbits(total, n):
    """One (row weight, column weight, orbit size) per orbit of weight pairs
    of the given total under permuting rows, permuting columns and
    transposing: the dominant pairs with wF <= wE.  Transposition swaps the
    two weights, so an off-diagonal pair also stands for its transpose."""
    # dominant_weights yields in decreasing order, so each pair has wF <= wE
    weights = list(dominant_weights(total, n))
    for wE, wF in itertools.combinations_with_replacement(weights, 2):
        size = orbit_size(wE) * orbit_size(wF)
        yield wE, wF, size if wE == wF else 2 * size


class _GridBlocks:
    """Cached per-(degree, weight) elimination data for a matrix-family
    ideal: monomial bases, ideal ranks, and reduced quotient representatives."""

    def __init__(self, spec, field_, cap=DEFAULT_NNZ_CAP):
        self.n = spec.n
        self.kappa = spec.kappa
        self.p = field_.modulus
        self.cap = cap
        self.gens_by_weight = {}
        for g in expand_generators(spec):
            mono = next(iter(g.terms))[0]
            w = mono_weight(mono, self.n)
            self.gens_by_weight.setdefault(w, []).append(g)
        self._monos = {}
        self._rank = {}
        self._quotient = {}

    def monos(self, b, w):
        key = (b, w)
        if key not in self._monos:
            if b < 0:
                self._monos[key] = []
            else:
                self._monos[key] = monomials_with_weight(self.n, w[0], w[1])
        return self._monos[key]

    def _spanning_rows(self, b, w, index):
        rows = []
        nnz = 0
        for (gwE, gwF), gens in self.gens_by_weight.items():
            mw = (_sub(w[0], gwE), _sub(w[1], gwF))
            if not (_nonneg(mw[0]) and _nonneg(mw[1])):
                continue
            for mult in monomials_with_weight(self.n, mw[0], mw[1]):
                for g in gens:
                    row = {}
                    for (m, _), c in g.terms.items():
                        mm = dict(m)
                        for v, e in mult:
                            mm[v] = mm.get(v, 0) + e
                        row[index[tuple(sorted(mm.items()))]] = c
                    nnz += len(row)
                    rows.append(row)
        check_cap(nnz, self.cap, "ideal block nonzeros")
        return rows

    def ideal_rank(self, b, w):
        """dim of the ideal's piece of degree b and weight w."""
        key = (b, w)
        if key not in self._rank:
            if b < self.kappa:
                self._rank[key] = 0
            else:
                monos = self.monos(b, w)
                index = {m: i for i, m in enumerate(monos)}
                rows = self._spanning_rows(b, w, index)
                self._rank[key] = rank_of_rows(rows, self.p, ncols=len(monos))
        return self._rank[key]

    def quotient(self, b, w):
        """(quotient basis monomials, reduction map) for degree b, weight w.

        The quotient basis is the complement of the pivot monomials of the
        fully reduced echelon form of the ideal's block; the reduction map
        rewrites any monomial as a combination of basis monomials mod I.
        """
        key = (b, w)
        if key in self._quotient:
            return self._quotient[key]
        monos = self.monos(b, w)
        if b < self.kappa:
            result = (monos, {m: {m: 1} for m in monos})
        else:
            index = {m: i for i, m in enumerate(monos)}
            rows = self._spanning_rows(b, w, index)
            pivots = rref_of_rows(rows, self.p)
            qbasis = [m for m in monos if index[m] not in pivots]
            reduce_map = {}
            for m in monos:
                i = index[m]
                if i not in pivots:
                    reduce_map[m] = {m: 1}
                else:
                    reduce_map[m] = {
                        monos[c]: -v % self.p
                        for c, v in pivots[i].items()
                        if c != i
                    }
            result = (qbasis, reduce_map)
        self._quotient[key] = result
        return result


def _grid_wedges(nvars, n, r):
    """All r-subsets of the grid variables, indexed as
    {row weight: {column weight: [subsets]}}."""
    index = {}
    for T in itertools.combinations(range(nvars), r):
        wE = [0] * n
        wF = [0] * n
        for v in T:
            wE[v // n] += 1
            wF[v % n] += 1
        index.setdefault(tuple(wE), {}).setdefault(tuple(wF), []).append(T)
    return index


def _grid_betti_block(blocks, wedges, i, d, w):
    """Homology dimension of the weight-w block of the Koszul window
    Lambda^(i+2) (x) (S/I)_(d-i-2) -> Lambda^(i+1) (x) (S/I)_(d-i-1)
    -> Lambda^i (x) (S/I)_(d-i)."""
    p = blocks.p

    def span(r, b):
        items = []
        if b < 0:
            return items
        for tE, by_column in wedges[r].items():
            mE = _sub(w[0], tE)
            if not _nonneg(mE):
                continue
            for tF, group in by_column.items():
                mF = _sub(w[1], tF)
                if not _nonneg(mF):
                    continue
                qbasis, _ = blocks.quotient(b, (mE, mF))
                items.extend((T, u) for T in group for u in qbasis)
        return items

    middle = span(i + 1, d - i - 1)
    if not middle:
        return 0
    top = span(i + 2, d - i - 2)
    bottom_index = {x: j for j, x in enumerate(span(i, d - i))}
    middle_index = {x: j for j, x in enumerate(middle)}
    n = blocks.n

    def differential(T, u, b_next, target_index):
        col = {}
        for a, v in enumerate(T):
            T2 = T[:a] + T[a + 1:]
            wE = list(w[0])
            wF = list(w[1])
            for vv in T2:
                wE[vv // n] -= 1
                wF[vv % n] -= 1
            mw = (tuple(wE), tuple(wF))
            _, reduce_map = blocks.quotient(b_next, mw)
            for m2, c2 in reduce_map[mono_times_var(u, v)].items():
                j = target_index.get((T2, m2))
                if j is not None:
                    col[j] = (col.get(j, 0) + (-1) ** a * c2) % p
        return {k: v for k, v in col.items() if v}

    rows_mid = [differential(T, u, d - i, bottom_index) for (T, u) in middle]
    nullity = len(middle) - rank_of_rows(rows_mid, p, ncols=len(bottom_index))
    rank_top = 0
    if top:
        rows_top = [differential(T, u, d - i - 1, middle_index)
                    for (T, u) in top]
        rank_top = rank_of_rows(rows_top, p, ncols=len(middle))
    return nullity - rank_top


# ---------------------------------------------------------------------------
# square-free family: blocks graded by multidegree


def _sq_quotient_mono(mdeg, kappa):
    """A monomial lies outside the square-free ideal iff it involves fewer
    than kappa distinct variables."""
    return sum(1 for e in mdeg if e) < kappa


def _sq_betti_block(n, kappa, i, d, mdeg, p):
    support = [v for v in range(n) if mdeg[v]]

    def span(r, b):
        if b < 0 or r > len(support):
            return []
        items = []
        for T in itertools.combinations(support, r):
            rest = list(mdeg)
            for v in T:
                rest[v] -= 1
            if _sq_quotient_mono(rest, kappa):
                items.append((T, tuple(rest)))
        return items

    middle = span(i + 1, d - i - 1)
    if not middle:
        return 0
    top = span(i + 2, d - i - 2)
    bottom_index = {x: j for j, x in enumerate(span(i, d - i))}
    middle_index = {x: j for j, x in enumerate(middle)}

    def differential(T, rest, target_index):
        col = {}
        for a, v in enumerate(T):
            T2 = T[:a] + T[a + 1:]
            m2 = list(rest)
            m2[v] += 1
            j = target_index.get((T2, tuple(m2)))
            if j is not None:
                col[j] = (col.get(j, 0) + (-1) ** a) % p
        return {k: v for k, v in col.items() if v}

    rows_mid = [differential(T, u, bottom_index) for (T, u) in middle]
    nullity = len(middle) - rank_of_rows(rows_mid, p, ncols=len(bottom_index))
    rank_top = 0
    if top:
        rows_top = [differential(T, u, middle_index) for (T, u) in top]
        rank_top = rank_of_rows(rows_top, p, ncols=len(middle))
    return nullity - rank_top


# ---------------------------------------------------------------------------
# public oracles


def hilbert_oracle(spec, t, field_=None, *, use_symmetry=True,
                   cap=DEFAULT_NNZ_CAP):
    """dim I_t computed by brute force: rank of the multiplication matrix
    {generator * monomial} for the matrix families, and an exhaustive
    divisibility count for the square-free family.  Returns 0 for t below
    the generator degree.  `use_symmetry` sums over the orbits of weight
    pairs under row and column permutations and the transpose; False sums
    every weight pair."""
    if t < spec.kappa:
        return 0
    if spec.family == "squarefree":
        # sparse monomials list one pair per distinct variable
        return sum(1 for m in monomials(spec.n, t, cap=cap)
                   if len(m) >= spec.kappa)
    if field_ is None:
        field_ = default_field()
    blocks = _GridBlocks(spec, field_, cap=cap)
    total = 0
    if use_symmetry:
        for wE, wF, size in _grid_orbits(t, spec.n):
            total += blocks.ideal_rank(t, (wE, wF)) * size
    else:
        for wE in compositions(t, spec.n):
            for wF in compositions(t, spec.n):
                total += blocks.ideal_rank(t, (wE, wF))
    return total


def quotient_basis(spec, t, field_=None, cap=DEFAULT_NNZ_CAP):
    """Monomials spanning (S/I)_t (complement of the pivot monomials under
    the canonical order), together with the dimension."""
    if field_ is None:
        field_ = default_field()
    if spec.family == "squarefree":
        basis = [m for m in monomials(spec.n, t, cap=cap)
                 if len(m) < spec.kappa]
        return basis, len(basis)
    blocks = _GridBlocks(spec, field_, cap=cap)
    keep = set()
    if t >= spec.kappa:
        for wE in compositions(t, spec.n):
            for wF in compositions(t, spec.n):
                qbasis, _ = blocks.quotient(t, (wE, wF))
                keep.update(qbasis)
        basis = [m for m in monomials(spec.nvars, t, cap=cap) if m in keep]
    else:
        basis = monomials(spec.nvars, t, cap=cap)
    return basis, len(basis)


def betti_oracle(spec, i, d, field_=None, *, use_symmetry=True,
                 cap=DEFAULT_NNZ_CAP):
    """Graded Betti number b_{i,d} of the ideal, as the Koszul homology of
    Lambda^(i+2) (x) (S/I)_(d-i-2) -> Lambda^(i+1) (x) (S/I)_(d-i-1)
    -> Lambda^i (x) (S/I)_(d-i): nullity of the second map minus rank of the
    first.  `use_symmetry` computes one block per orbit of weights (per
    orbit of weight pairs under row and column permutations and the
    transpose for the matrix families) and scales it by the orbit size;
    False computes every block."""
    if i < 0:
        raise ValueError("step must be nonnegative")
    if field_ is None:
        field_ = default_field()
    p = field_.modulus
    total = 0
    if spec.family == "squarefree":
        n, kappa = spec.n, spec.kappa
        if use_symmetry:
            for mdeg in dominant_weights(d, n):
                h = _sq_betti_block(n, kappa, i, d, mdeg, p)
                if h:
                    total += h * orbit_size(mdeg)
        else:
            for mdeg in compositions(d, n):
                total += _sq_betti_block(n, kappa, i, d, mdeg, p)
        return total
    blocks = _GridBlocks(spec, field_, cap=cap)
    wedges = {r: _grid_wedges(spec.nvars, spec.n, r)
              for r in (i, i + 1, i + 2)}
    if use_symmetry:
        for wE, wF, size in _grid_orbits(d, spec.n):
            total += _grid_betti_block(blocks, wedges, i, d, (wE, wF)) * size
    else:
        for wE in compositions(d, spec.n):
            for wF in compositions(d, spec.n):
                total += _grid_betti_block(blocks, wedges, i, d, (wE, wF))
    return total


def hilbert_range(spec, degrees, seed=0, cap=DEFAULT_NNZ_CAP):
    """Two-prime verified Hilbert values over a degree range."""
    from .modular import agree_over_primes

    start = time.perf_counter()
    dims = {}
    primes = []
    for t in degrees:
        value, primes = agree_over_primes(
            lambda f: hilbert_oracle(spec, t, f, cap=cap), seed
        )
        dims[t] = value
    return GradedDims(spec, dims, primes, time.perf_counter() - start)


def betti_cells(spec, cells, seed=0, cap=DEFAULT_NNZ_CAP):
    """Two-prime verified Betti numbers for an iterable of (step, degree)."""
    from .modular import agree_over_primes

    start = time.perf_counter()
    entries = {}
    primes = []
    for (i, d) in cells:
        value, primes = agree_over_primes(
            lambda f: betti_oracle(spec, i, d, f, cap=cap), seed
        )
        entries[(i, d)] = value
    return BettiTable(spec, entries, "oracle", primes,
                      time.perf_counter() - start)
