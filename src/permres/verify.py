"""Verification suites: every closed form against its independent oracle,
every explicit syzygy vector against the differential, and both resolution
engines against each other.  Each check yields a row {suite, check, ok,
detail} so the results serialize directly into the CLI envelope."""

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
from .modular import prime_fields
from .partitions import partitions, schur_dim
from .tensorspace import koszul_transpose


def _row(suite, check, ok, detail=""):
    return {"suite": suite, "check": check, "ok": bool(ok), "detail": detail}


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
    rows = []
    field = prime_fields(seed, 1)[0]

    for n in (2, 3, 4):
        spec = IdealSpec("subpermanents", n, 2)
        bad = []
        for t in range(2, 7):
            got = oracle.hilbert_oracle(spec, t, field)
            want = formulas.perm2_ideal_hilbert(n, t)
            if got != want:
                bad.append((t, got, want))
        rows.append(_row("formulas", f"perm2-hilbert-n{n}", not bad, str(bad)))

    for n in range(2, 7):
        bad = []
        for kappa in range(1, n + 1):
            spec = IdealSpec("squarefree", n, kappa)
            for d in range(0, 9):
                got = oracle.hilbert_oracle(spec, d, field)
                want = formulas.sqfree_ideal_hilbert(n, kappa, d)
                quot = formulas.sqfree_quotient_hilbert(n, kappa, d)
                if got != want or want + quot != comb(n + d - 1, d):
                    bad.append((kappa, d, got, want, quot))
        rows.append(_row("formulas", f"squarefree-hilbert-n{n}", not bad,
                         str(bad)))

    bad = []
    for n in range(2, 7):
        for kappa in range(1, n + 1):
            spec = IdealSpec("squarefree", n, kappa)
            for i in range(0, n - kappa + 2):
                got = oracle.betti_oracle(spec, i, kappa + i, field)
                want = formulas.sqfree_betti(n, kappa, i)
                if got != want:
                    bad.append((n, kappa, i, got, want))
    rows.append(_row("formulas", "squarefree-betti-grid", not bad, str(bad)))

    bad = []
    for n in (3, 4):
        for kappa in (2, 3):
            if kappa > n - 1:
                continue
            spec = IdealSpec("subpermanents", n, kappa)
            for j in (1, 2, 3):
                got = oracle.betti_oracle(spec, j - 1, kappa + j - 1, field)
                want = formulas.perm_linear_strand_dim(n, kappa, j)
                if got != want:
                    bad.append((n, kappa, j, got, want))
    rows.append(_row("formulas", "perm-linear-strand-vs-koszul", not bad,
                     str(bad)))

    bad = []
    for n in (3, 4):
        for r in (1, 2):
            if r >= n:
                continue
            spec = IdealSpec("minors", n, r + 1)
            got = oracle.betti_oracle(spec, 1, r + 2, field)
            want = formulas.det_linear_strand_dim(n, r, 2)
            if got != want:
                bad.append((n, r, got, want))
    rows.append(_row("formulas", "det-strand-step2-vs-koszul", not bad,
                     str(bad)))

    if expensive:
        spec = IdealSpec("subpermanents", 5, 3)
        got = oracle.betti_oracle(spec, 1, 6, field)
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

    bad = []
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
                            bad.append((n, rows_, cols_, "product"))
                    first = expansions[0]
                    for e in expansions[1:]:
                        if not koszul_transpose(first - e).is_zero():
                            bad.append((n, rows_, cols_, "difference"))
    rows.append(_row("syzygies", "perm-laplace-differences", not bad,
                     str(bad)))

    bad = []
    for n in (2, 3, 4):
        for kappa in range(1, min(3, n - 1) + 1):
            for rows_ in itertools.combinations(range(1, n + 1), kappa + 1):
                for cols_ in itertools.combinations(range(1, n + 1), kappa + 1):
                    sel = SubmatrixSelector(rows_, cols_)
                    target = submatrix_polynomial(n, rows_, cols_, DETERMINANT)
                    for i in rows_:
                        e = tensor_laplace(n, sel, "row", i, DETERMINANT)
                        if koszul_transpose(e) != target:
                            bad.append((n, rows_, cols_, i))
    rows.append(_row("syzygies", "det-laplace-products", not bad, str(bad)))

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

    field = prime_fields(seed, 1)[0]
    spec = IdealSpec("minors", 3, 2)
    bad = []
    for t in range(2, 7):
        via_euler = lascoux.det_ideal_hilbert(3, 2, t)
        via_rank = oracle.hilbert_oracle(spec, t, field)
        if via_euler != via_rank:
            bad.append((t, via_euler, via_rank))
    rows.append(_row("lascoux", "euler-vs-rank-oracle", not bad, str(bad)))

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
    field = prime_fields(seed, 1)[0]

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

    bad = []
    for n in (3, 4, 5):
        for kappa in range(2, n + 1):
            skel = simplicial.skeleton_complex(n, kappa - 2)
            f = skel.f_vector()
            spec = IdealSpec("squarefree", n, kappa)
            for t in range(1, 7):
                stanley = sum(
                    f[i] * comb(t - 1, i - 1) for i in range(1, len(f))
                )
                _, qdim = oracle.quotient_basis(spec, t, field)
                if stanley != qdim:
                    bad.append((n, kappa, t, stanley, qdim))
    rows.append(_row("simplicial", "stanley-reisner-hilbert", not bad,
                     str(bad)))
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
