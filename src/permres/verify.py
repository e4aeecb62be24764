"""Verification suites: every closed form against its independent oracle,
every explicit syzygy vector against the differential, and both resolution
engines against each other.  Each check yields a row {suite, check, ok,
detail} so the results serialize directly into the CLI envelope.

The oracle rows (`_oracle_row`) check the closed forms the CLI reports,
through the same dispatch (`formulas.hilbert_formula` and `betti_formula`),
and agree each row's oracle values over two primes as the CLI agrees a cell
(`agree_over_primes`): one pass modulo p1 p2 per row, and one prime at a
time only when a pivot of that pass is not a unit."""

import itertools
import random
from math import comb, isqrt

from . import formulas, lascoux, oracle, simplicial
from .ideals import (
    DETERMINANT,
    PERMANENT,
    IdealSpec,
    SubmatrixSelector,
    det_hw_syzygy,
    monomial_syzygy,
    submatrix_polynomial,
    tensor_laplace,
)
from .modular import agree_over_primes
from .partitions import partitions, schur_dim
from .tensorspace import koszul_transpose


def _row(suite, check, ok, detail=""):
    return {"suite": suite, "check": check, "ok": bool(ok), "detail": detail}


def _oracle_row(suite, check, cells, formula, oracle_, seed):
    """The row `check` of `suite` over the cells (spec, *keys): each cell's
    closed form formula(spec, *keys) against its oracle value
    oracle_(spec, *keys, field).  The row's oracle values are computed in
    one `agree_over_primes` call, so the primes agree on the whole list: one
    pass modulo p1 p2, and each prime alone (a third to break a tie) when a
    pivot of that pass is not a unit.  So if the two primes disagree at two
    different cells of one row, a third prime agrees with neither list and
    `PrimeDisagreementError` is raised; that takes two independent bad
    primes, and the CLI maps it to exit 2.  The detail lists the cells that
    mismatch, each as (n, kappa, *keys, oracle, formula)."""
    values, _ = agree_over_primes(
        lambda field: [oracle_(spec, *keys, field) for spec, *keys in cells],
        seed)
    bad = [(spec.n, spec.kappa, *keys, got, want)
           for (spec, *keys), got in zip(cells, values)
           if got != (want := formula(spec, *keys))]
    return _row(suite, check, not bad, str(bad))


def _sqfree_hilbert(spec, d):
    """`hilbert_formula` of a square-free ideal, or None (a mismatch) when
    it and the quotient's closed form do not add up to every degree-d
    monomial."""
    want = formulas.hilbert_formula(spec, d)
    quot = formulas.sqfree_quotient_hilbert(spec.n, spec.kappa, d)
    return want if want + quot == comb(spec.n + d - 1, d) else None


def _det_strand(spec, i, d):
    """The linear strand of the minors at step i from its hook-pair sum,
    independent of Lascoux's terms."""
    return formulas.det_linear_strand_dim(spec.n, spec.kappa - 1, i + 1)


def _quotient_dim(spec, t, field):
    return oracle.quotient_basis(spec, t, field)[1]


def _unbounded_strand_pairs(n, r, j):
    """The partition pairs of `lascoux_terms`' closed form at step j that
    are nonzero in n rows, enumerated over every strand s <= sqrt(j) and
    every split of j - s^2, with none of its bounds on strands or parts."""
    pairs = set()
    for s in range(1, isqrt(j) + 1):
        rest = j - s * s
        for wa in range(rest + 1):
            for alpha in partitions(wa, max_length=s):
                for beta in partitions(rest - wa, max_length=s):
                    lam_e, lam_f = lascoux.strand_pair(s, r, alpha, beta)
                    if schur_dim(lam_e, n) and schur_dim(lam_f, n):
                        pairs.add((lam_e, lam_f))
    return pairs


def verify_formulas(expensive=False, seed=0):
    """Closed forms vs oracles: sub-permanent Hilbert grid, square-free
    Hilbert/Betti grids, determinantal strand, linear-strand dims."""
    hilbert = formulas.hilbert_formula, oracle.hilbert_oracle
    betti = formulas.betti_formula, oracle.betti_oracle
    squarefree = {n: [IdealSpec("squarefree", n, kappa)
                      for kappa in range(1, n + 1)] for n in range(2, 7)}
    table = [
        *((f"perm2-hilbert-n{n}",
           [(IdealSpec("subpermanents", n, 2), t) for t in range(2, 7)],
           *hilbert) for n in (2, 3, 4)),
        *((f"squarefree-hilbert-n{n}",
           [(spec, d) for spec in specs for d in range(0, 9)],
           _sqfree_hilbert, oracle.hilbert_oracle)
          for n, specs in squarefree.items()),
        ("squarefree-betti-grid",
         [(spec, i, spec.kappa + i) for specs in squarefree.values()
          for spec in specs
          for i in range(0, spec.n - spec.kappa + 2)], *betti),
        ("perm-linear-strand-vs-koszul",
         [(IdealSpec("subpermanents", n, kappa), i, kappa + i)
          for n in (3, 4) for kappa in (2, 3) if kappa <= n - 1
          for i in range(0, 3)], *betti),
        ("det-strand-step2-vs-koszul",
         [(IdealSpec("minors", n, r + 1), 1, r + 2)
          for n in (3, 4) for r in (1, 2) if r < n],
         _det_strand, oracle.betti_oracle),
    ]
    rows = [_oracle_row("formulas", *entry, seed) for entry in table]

    if expensive:
        spec = IdealSpec("subpermanents", 5, 3)
        got, _ = agree_over_primes(
            lambda field: oracle.betti_oracle(spec, 1, 6, field), seed)
        rows.append(_row("formulas", "perm-5-3-first-syzygies-degree-6",
                         got == 5200, f"got {got}, expected 5200"))
    return rows


def verify_syzygies(expensive=False, seed=0):
    """Kernel membership of every explicit syzygy family, and the
    multiplication contracts of the tensor Laplace expansions."""
    rows = []

    bad = []
    for n in (2, 3, 4):
        for r in (1, 2):
            for p in range(0, 4):
                for q in range(0, 4 - p):
                    if p + q < 1 or r + q + 1 > n or r + p + 1 > n:
                        continue
                    elem = det_hw_syzygy(n, r, p, q)
                    if not koszul_transpose(elem).is_zero():
                        bad.append((n, r, p, q))
    rows.append(_row("syzygies", "det-hw-kernel", not bad, str(bad)))

    perm_bad, det_bad = [], []
    for n in (2, 3, 4):
        for kappa in range(1, min(3, n - 1) + 1):
            for rows_ in itertools.combinations(range(1, n + 1), kappa + 1):
                for cols_ in itertools.combinations(range(1, n + 1), kappa + 1):
                    sel = SubmatrixSelector(rows_, cols_)
                    expansions = [
                        tensor_laplace(n, sel, "row", i, PERMANENT)
                        for i in rows_
                    ] + [
                        tensor_laplace(n, sel, "column", j, PERMANENT)
                        for j in cols_
                    ]
                    target = submatrix_polynomial(n, rows_, cols_, PERMANENT)
                    for e in expansions:
                        if koszul_transpose(e) != target:
                            perm_bad.append((n, rows_, cols_, "product"))
                    first = expansions[0]
                    for e in expansions[1:]:
                        if not koszul_transpose(first - e).is_zero():
                            perm_bad.append((n, rows_, cols_, "difference"))
                    target = submatrix_polynomial(n, rows_, cols_, DETERMINANT)
                    for i in rows_:
                        e = tensor_laplace(n, sel, "row", i, DETERMINANT)
                        if koszul_transpose(e) != target:
                            det_bad.append((n, rows_, cols_, i))
    rows.append(_row("syzygies", "perm-laplace-differences", not perm_bad,
                     str(perm_bad)))
    rows.append(_row("syzygies", "det-laplace-products", not det_bad,
                     str(det_bad)))

    bad = []
    for n in (4, 5):
        for kappa in (2, 3):
            for j in (2, 3):
                if kappa - 1 + j > n:
                    continue
                for base in itertools.combinations(range(n), kappa - 1):
                    rest = [v for v in range(n) if v not in base]
                    for tail in itertools.combinations(rest, j):
                        elem = monomial_syzygy(base, tail)
                        if not koszul_transpose(elem).is_zero():
                            bad.append((n, kappa, base, tail))
    rows.append(_row("syzygies", "monomial-syzygy-kernel", not bad, str(bad)))
    return rows


def verify_lascoux(expensive=False, seed=0):
    """Both resolution engines agree; length, socle, Gorenstein symmetry,
    Euler characteristic, and the regular-weight bridge to the
    sub-permanent strand."""
    rows = []

    bad = []
    for n in range(2, 6):
        for r in range(1, min(4, n)):
            for j in range(1, min(6, (n - r) ** 2) + 1):
                direct = lascoux.comparison_key(lascoux.lascoux_terms(n, r, j))
                via_bott = lascoux.comparison_key(
                    lascoux.resolution_via_bott(n, r, j))
                if direct != via_bott:
                    bad.append((n, r, j))
                if len({(e, f) for (e, f, _) in direct}) != len(direct):
                    bad.append((n, r, j, "multiplicity"))
    rows.append(_row("lascoux", "direct-vs-bott", not bad, str(bad)))

    bad = []
    for n in (2, 3, 4):
        for r in (1, 2):
            if r >= n:
                continue
            length = lascoux.resolution_length(n, r)
            if not lascoux.lascoux_terms(n, r, length):
                bad.append((n, r, "empty top"))
            if lascoux.lascoux_terms(n, r, length + 1):
                bad.append((n, r, "terms beyond top"))
            # the pairs lascoux_terms skips vanish in n rows, up to and
            # including the first step past the top
            for j in range(1, length + 2):
                got = {(t.lam_e, t.lam_f)
                       for t in lascoux.lascoux_terms(n, r, j)}
                if got != _unbounded_strand_pairs(n, r, j):
                    bad.append((n, r, j, "bound"))
            for j in range(0, length + 1):
                if lascoux.step_dimension(n, r, j) != lascoux.step_dimension(
                    n, r, length - j
                ):
                    bad.append((n, r, j, "symmetry"))
    rows.append(_row("lascoux", "length-and-symmetry", not bad, str(bad)))

    spec = IdealSpec("minors", 3, 2)
    rows.append(_oracle_row("lascoux", "euler-vs-rank-oracle",
                            [(spec, t) for t in range(2, 7)],
                            formulas.hilbert_formula, oracle.hilbert_oracle,
                            seed))

    bad = []
    rng = random.Random(seed)
    for _ in range(1000):
        length = rng.randint(2, 7)
        seq = tuple(rng.randint(0, 6) for _ in range(length))
        if not lascoux.random_strategy_agrees(seq, seed=rng.randrange(10**6),
                                              trials=3):
            bad.append(seq)
    rows.append(_row("lascoux", "bott-strategy-independence", not bad,
                     str(bad)))

    bad = []
    for n in range(2, 7):
        for kappa in range(1, min(4, n) + 1):
            for j in range(1, 5):
                total = sum(
                    lascoux.regular_weight_dim(t.lam_e, t.lam_f, n)
                    for t in lascoux.perm_ambient_linear_strand(n, kappa, j)
                )
                want = formulas.perm_linear_strand_dim(n, kappa, j)
                if total != want:
                    bad.append((n, kappa, j, total, want))
    rows.append(_row("lascoux", "regular-weight-bridge", not bad, str(bad)))
    return rows


def verify_simplicial(expensive=False, seed=0):
    """Face counts against the f-vector formula, h-vectors against Betti
    numerators, duality involution, and the Stanley-Reisner Hilbert count."""
    rows = []

    bad = []
    for n in (2, 3, 4, 5):
        complex_ = simplicial.perm2_complex(n)
        counted = complex_.count_faces(max_dim=n)[1:]
        want = formulas.perm2_f_vector(n)
        want = want + [0] * (len(counted) - len(want))
        if counted != want:
            bad.append((n, counted, want))
    rows.append(_row("simplicial", "perm2-face-counts", not bad, str(bad)))

    bad = []
    for n in range(2, 7):
        for kappa in range(1, n + 1):
            skel = simplicial.skeleton_complex(n, kappa - 2)
            h = skel.h_vector()
            # numerator of the Hilbert series over (1-t)^n:
            # h(t) * (1-t)^(n-kappa+1) = 1 - sum_i (-1)^i b_i t^(kappa+i)
            poly = list(h)
            for _ in range(n - kappa + 1):
                poly = [a - b for a, b in
                        zip(poly + [0], [0] + poly)]
            want = [0] * max(len(poly), n + 2)
            want[0] = 1
            for i in range(0, n - kappa + 1):
                want[kappa + i] = -(-1) ** i * formulas.sqfree_betti(n, kappa, i)
            padded = poly + [0] * (len(want) - len(poly))
            if padded != want[: len(padded)]:
                bad.append((n, kappa, padded, want))
    rows.append(_row("simplicial", "h-vector-betti-numerator", not bad,
                     str(bad)))

    bad = []
    for n in range(2, 7):
        for m in range(1, n + 1):
            skel = simplicial.skeleton_complex(n, m - 2)
            gens = simplicial.alexander_dual_ideal(skel)
            want = sorted(
                tuple(c) for c in itertools.combinations(range(n), n - m + 1)
            )
            if gens != want:
                bad.append((n, m, "dual"))
                continue
            double = simplicial.alexander_dual_ideal(
                simplicial.SimplicialComplex(n, [set(g) for g in gens])
            )
            back = sorted(tuple(sorted(nf)) for nf in skel.nonfaces)
            if sorted(double) != back:
                bad.append((n, m, "involution"))
    rows.append(_row("simplicial", "alexander-duality", not bad, str(bad)))

    # dim (S/I)_t of a square-free ideal from the f-vector of its
    # Stanley-Reisner complex, the (kappa-2)-skeleton
    f_vectors = {
        (n, kappa): simplicial.skeleton_complex(n, kappa - 2).f_vector()
        for n in (3, 4, 5) for kappa in range(2, n + 1)
    }

    def stanley_reisner(spec, t):
        f = f_vectors[spec.n, spec.kappa]
        return sum(f[i] * comb(t - 1, i - 1) for i in range(1, len(f)))

    cells = [(IdealSpec("squarefree", n, kappa), t)
             for n, kappa in f_vectors for t in range(1, 7)]
    rows.append(_oracle_row("simplicial", "stanley-reisner-hilbert", cells,
                            stanley_reisner, _quotient_dim, seed))
    return rows


SUITES = {
    "formulas": verify_formulas,
    "syzygies": verify_syzygies,
    "lascoux": verify_lascoux,
    "simplicial": verify_simplicial,
}


def run_suite(name, expensive=False, seed=0):
    if name == "all":
        rows = []
        for fn in SUITES.values():
            rows.extend(fn(expensive=expensive, seed=seed))
        return rows
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](expensive=expensive, seed=seed)
