"""Generating modules of the minimal free resolution of determinantal
ideals, enumerated two independent ways: directly from the closed-form
partition-pair description, and through the Borel-Weil-Bott reflection
algorithm on the Grassmannian desingularization.  The transpose involution
on symmetric functions converts the determinantal linear strand into the
linear strand of the ambient ideal containing the sub-permanents.
"""

import random
from collections import namedtuple
from math import comb, isqrt

from .partitions import conjugate, partitions, schur_dim, specht_dim
from .tensorspace import monomial_count


class ResolutionTerm(namedtuple(
        "ResolutionTerm", "step strand degree lam_e lam_f dim")):
    """One irreducible generating module at a resolution step: a pair of
    partitions and its dimension at the given matrix size.  An immutable
    named tuple."""

    __slots__ = ()


class BottOutcome(namedtuple("BottOutcome", "wall degree partition",
                             defaults=(None, None))):
    """Result of the dotted Weyl walk: either a cohomology degree (the
    number of dotted reflections applied) with the resulting partition, or a
    wall (no cohomology).  An immutable named tuple."""

    __slots__ = ()


def _strip(parts):
    return tuple(p for p in parts if p)


def lascoux_terms(n, r, j):
    """Degree sr+j generating modules of the j-th resolution term of the
    ideal of (r+1)-minors of an n x n matrix, 1 <= j <= (n-r)^2.

    For each strand s <= sqrt(j) and each pair (alpha, beta) of partitions
    of total weight j - s^2 with at most s parts, the pair

        (s)^(r+s) + (alpha, 0^r, beta'),   (s)^(r+s) + (beta, 0^r, alpha')

    contributes; pairs with a partition longer than n drop out (dimension 0).
    The partitions have lengths s + r + beta_1 and s + r + alpha_1, so only
    strands s <= n - r and parts at most n - r - s are enumerated: the pairs
    that fit in n rows, in the same order.  Then alpha and beta each weigh
    at most s(n - r - s), so only those splits of j - s^2 are walked; beyond
    step (n-r)^2 there are none, and the enumeration is empty at once.  The
    result is multiplicity free.
    """
    if not (1 <= r < n):
        raise ValueError("need 1 <= r < n")
    terms = []
    if j < 1:
        return terms
    for s in range(1, min(isqrt(j), n - r) + 1):
        rest = j - s * s
        most = s * (n - r - s)
        for wa in range(max(0, rest - most), min(rest, most) + 1):
            for alpha in partitions(wa, max_length=s, max_part=n - r - s):
                for beta in partitions(rest - wa, max_length=s,
                                       max_part=n - r - s):
                    lam_e, lam_f = strand_pair(s, r, alpha, beta)
                    dim = schur_dim(lam_e, n) * schur_dim(lam_f, n)
                    if dim:
                        terms.append(
                            ResolutionTerm(j, s, s * r + j, lam_e, lam_f, dim)
                        )
    return terms


def strand_pair(s, r, alpha, beta):
    """The pair (s)^(r+s) + (alpha, 0^r, beta'), (s)^(r+s) + (beta, 0^r,
    alpha') of strand s, for partitions alpha and beta with at most s
    parts."""
    pad_a = alpha + (0,) * (s - len(alpha))
    pad_b = beta + (0,) * (s - len(beta))
    lam_e = _strip(tuple(s + x for x in pad_a) + (s,) * r + conjugate(beta))
    lam_f = _strip(tuple(s + x for x in pad_b) + (s,) * r + conjugate(alpha))
    return lam_e, lam_f


def bott_reduce(seq, rng=None):
    """Dotted Weyl walk on a full-length weight sequence.

    Repeatedly apply the dotted reflection
    sigma_i . a = (..., a_{i+1} - 1, a_i + 1, ...) at an ascent until the
    sequence is weakly decreasing (cohomology in degree u = number of
    reflections) or an ascent with gap exactly one appears (a wall: the
    rho-shifted sequence has a repeat, which no reflection can fix).

    The deterministic strategy reflects at the smallest offending index; an
    rng picks random reflectable ascents instead, and the outcome is
    strategy independent.  Each reflection removes one inversion of the
    shifted sequence, so the walk ends within len(seq)^2 steps.
    """
    b = list(seq)
    u = 0
    for _ in range(len(b) * len(b) + 1):
        ascents = [i for i in range(len(b) - 1) if b[i + 1] > b[i]]
        if not ascents:
            return BottOutcome(False, u, _strip(tuple(b)))
        if rng is None:
            i = ascents[0]
            if b[i + 1] == b[i] + 1:
                return BottOutcome(True)
        else:
            reflectable = [i for i in ascents if b[i + 1] > b[i] + 1]
            if not reflectable:
                return BottOutcome(True)
            i = rng.choice(reflectable)
        b[i], b[i + 1] = b[i + 1] - 1, b[i] + 1
        u += 1
    raise RuntimeError(f"dotted Weyl walk did not terminate on {seq!r}")


def resolution_via_bott(n, r, j):
    """Resolution terms recomputed through sheaf cohomology on the
    Grassmannian of corank-r quotients.

    A twist S_pi of the tautological quotient bundle (rank n-r) becomes the
    weight sequence (0^r, pi); its cohomology sits in the degree computed by
    the dotted Weyl walk.  Step j collects H^u against wedge powers of total
    weight j+u, and u never exceeds r(n-r), the dimension of the
    Grassmannian.  Agrees with lascoux_terms as a set of partition pairs.
    """
    if not (1 <= r < n):
        raise ValueError("need 1 <= r < n")
    terms = []
    if j < 1:
        return terms
    for u in range(1, r * (n - r) + 1):
        for pi in partitions(j + u, max_length=n - r, max_part=n):
            seq = (0,) * r + pi + (0,) * (n - r - len(pi))
            outcome = bott_reduce(seq)
            if outcome.wall or outcome.degree != u:
                continue
            lam_e = outcome.partition
            lam_f = conjugate(pi)
            dim = schur_dim(lam_e, n) * schur_dim(lam_f, n)
            if dim:
                if u % r:
                    raise RuntimeError(
                        f"cohomology degree {u} not a multiple of {r}"
                    )
                terms.append(
                    ResolutionTerm(j, u // r, r * (u // r) + j, lam_e, lam_f,
                                   dim)
                )
    return terms


def comparison_key(terms):
    """The sorted (lam_e, lam_f, dim) of a step's terms: what the two
    engines, `lascoux_terms` and `resolution_via_bott`, must agree on."""
    return sorted((t.lam_e, t.lam_f, t.dim) for t in terms)


def resolution_length(n, r):
    """Largest step with nonzero terms: (n-r)^2 (the quotient by the minors
    is arithmetically Cohen-Macaulay, and Gorenstein at the top)."""
    return (n - r) ** 2


def step_dimension(n, r, j):
    """Total generator dimension at step j, with step 0 the free cover of
    the coordinate ring (dimension 1)."""
    if j == 0:
        return 1
    return sum(t.dim for t in lascoux_terms(n, r, j))


def det_ideal_hilbert(n, kappa, t):
    """Hilbert function of the ideal of kappa x kappa minors via the
    alternating sum over the resolution: quotient dimension
    sum_j (-1)^j sum_terms dim * dim S^(t-deg), subtracted from the full
    graded piece."""
    r = kappa - 1
    if t < kappa:
        return 0
    nvars = n * n
    quotient = monomial_count(nvars, t)
    # a term at step j has degree s r + j >= r + j, so only j <= t - r count
    for j in range(1, min(resolution_length(n, r), t - r) + 1):
        for term in lascoux_terms(n, r, j):
            if term.degree <= t:
                quotient += (-1) ** j * term.dim * monomial_count(
                    nvars, t - term.degree
                )
    return monomial_count(nvars, t) - quotient


def perm_ambient_linear_strand(n, kappa, j):
    """Linear strand terms of the ideal generated by the full degree-kappa
    slice S^kappa E (x) S^kappa F, the ambient ideal of the sub-permanents:
    the transpose involution applied to the determinantal strand gives hook
    pairs ((kappa+b, 1^a), (kappa+a, 1^b)) over a+b = j-1, dropping pairs
    longer than n."""
    if not (1 <= kappa <= n) or j < 1:
        raise ValueError("need 1 <= kappa <= n and j >= 1")
    terms = []
    for a in range(j):
        b = j - 1 - a
        lam_e = (kappa + b,) + (1,) * a
        lam_f = (kappa + a,) + (1,) * b
        dim = schur_dim(lam_e, n) * schur_dim(lam_f, n)
        if dim:
            terms.append(
                ResolutionTerm(j, 1, kappa + j - 1, lam_e, lam_f, dim)
            )
    return terms


def regular_weight_dim(lam_e, lam_f, n):
    """Dimension of the span of the regular-weight vectors (all row and
    column weights 0 or 1) inside S_lam_e E (x) S_lam_f F: the product of
    the Specht dimensions times C(n, m)^2 for partitions of weight m."""
    m = sum(lam_e)
    if sum(lam_f) != m:
        raise ValueError("partitions must have equal weight")
    if m > n:
        return 0
    return specht_dim(lam_e) * specht_dim(lam_f) * comb(n, m) ** 2


def random_strategy_agrees(seq, seed=0, trials=10):
    """Check that random reflection orders reproduce the deterministic Bott
    outcome for one sequence."""
    rng = random.Random(seed)
    reference = bott_reduce(seq)
    for _ in range(trials):
        if bott_reduce(seq, rng=rng) != reference:
            return False
    return True
