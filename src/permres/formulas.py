"""Closed-form dimension formulas, each paired with an independent oracle
check in the test suite, and the dispatch that says which closed form
answers a cell: `hilbert_formula(spec, t)` and `betti_formula(spec, i, d)`,
None where there is none.  The CLI's `formula` column and the oracle rows of
`permres verify` both read it.

Conventions: Betti-table steps are 0-based with step 0 the minimal
generators, and `j` counts resolution terms 1-based (j = step + 1), so the
linear strand of an ideal generated in degree kappa sits in degrees
kappa + j - 1.
"""

from math import comb

from . import lascoux
from .partitions import hook_partition, schur_dim


def perm_linear_strand_dim(n, kappa, j):
    """Dimension of the degree kappa+j-1 generators of the j-th term of the
    linear strand for the kappa x kappa sub-permanent ideal:
    C(n, kappa+j-1)^2 * C(2(kappa+j-2), j-1).  Vanishes once kappa+j-1 > n."""
    if not (1 <= kappa <= n) or j < 1:
        raise ValueError("need 1 <= kappa <= n and j >= 1")
    m = kappa + j - 1
    if m > n:
        return 0
    return comb(n, m) ** 2 * comb(2 * (m - 1), j - 1)


def perm2_f_vector(n):
    """Face counts (f_0..f_n) of the simplicial complex attached to the
    radical of the 2x2 sub-permanent ideal: vertices n^2, edges
    C(n^2,2) - C(n,2)^2, triangles 2C(n,2)^2 + 2nC(n,3), then thin simplices
    2nC(n,i+1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    f = [
        n * n,
        comb(n * n, 2) - comb(n, 2) ** 2,
        2 * comb(n, 2) ** 2 + 2 * n * comb(n, 3),
    ]
    for i in range(3, n + 1):
        f.append(2 * n * comb(n, i + 1))
    return f


def perm2_hilbert_polynomial(n, t):
    """Hilbert polynomial of the quotient by the 2x2 sub-permanent ideal,
    evaluated at t >= 1: sum_i f_i * C(t-1, i)."""
    if t < 1:
        raise ValueError("need t >= 1")
    return sum(fi * comb(t - 1, i) for i, fi in enumerate(perm2_f_vector(n)))


def perm2_quotient_hilbert(n, t):
    """Hilbert function of the quotient by the 2x2 sub-permanent ideal.

    Low degrees are the full polynomial ring; for 3 <= t <= n the quotient
    exceeds its Hilbert polynomial by C(n,t)^2 (the finite-length part
    supported on the radical), and for t > n the polynomial is exact.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    if t == 0:
        return 1
    if t == 1:
        return n * n
    if t == 2:
        return comb(n * n + 1, 2) - comb(n, 2) ** 2
    hp = perm2_hilbert_polynomial(n, t)
    if t <= n:
        return comb(n, t) ** 2 + hp
    return hp


def perm2_ideal_hilbert(n, t):
    """Hilbert function of the 2x2 sub-permanent ideal; 0 below degree 2,
    C(n,2)^2 in degree 2, and the binomial complement of the quotient
    beyond."""
    if n < 2:
        raise ValueError("need n >= 2")
    if t < 2:
        return 0
    if t == 2:
        return comb(n, 2) ** 2
    return comb(n * n + t - 1, t) - perm2_quotient_hilbert(n, t)


def sqfree_ideal_hilbert(n, kappa, d):
    """Hilbert function of the ideal of degree-kappa square-free monomials:
    the number of degree-d monomials in n variables involving at least kappa
    distinct variables, sum_{s>=kappa} C(n,s) C(d-1,s-1)."""
    if d < 0:
        raise ValueError("need d >= 0")
    return sum(
        comb(n, s) * comb(d - 1, s - 1) for s in range(kappa, min(d, n) + 1)
    )


def sqfree_quotient_hilbert(n, kappa, d):
    """Hilbert function of the quotient by the square-free ideal: monomials
    with at most kappa-1 distinct variables, sum_{j<=kappa-2} C(n,j+1) C(d-1,j)
    for d >= 1."""
    if d < 0:
        raise ValueError("need d >= 0")
    if d == 0:
        return 1
    return sum(comb(n, j + 1) * comb(d - 1, j) for j in range(0, kappa - 1))


def sqfree_betti(n, kappa, i):
    """Graded Betti number of the square-free ideal at step i (degree
    kappa+i): C(n, kappa+i) * C(kappa-1+i, i); the resolution is linear, so
    every other degree vanishes."""
    if i < 0:
        raise ValueError("need i >= 0")
    if kappa + i > n:
        return 0
    return comb(n, kappa + i) * comb(kappa - 1 + i, i)


def det_linear_strand_dim(n, r, j):
    """Dimension of the j-th linear-strand term for the ideal of
    (r+1)-minors: sum over a+b=j-1 of
    dim S_(a+1,1^(r+b)) C^n * dim S_(b+1,1^(r+a)) C^n."""
    if r < 1 or j < 1:
        raise ValueError("need r >= 1 and j >= 1")
    total = 0
    for a in range(j):
        b = j - 1 - a
        total += schur_dim(hook_partition(a + 1, r + b), n) * schur_dim(
            hook_partition(b + 1, r + a), n
        )
    return total


def hilbert_formula(spec, t):
    """dim I_t of the ideal `spec` in closed form: the square-free count,
    the minors' Euler characteristic over Lascoux's terms, or the 2x2
    sub-permanents; None for sub-permanents of size 3 or more, and for
    minors of size 1, which have no term enumeration."""
    n, kappa = spec.n, spec.kappa
    if spec.family == "squarefree":
        return sqfree_ideal_hilbert(n, kappa, t)
    if spec.family == "minors":
        return None if kappa == 1 else lascoux.det_ideal_hilbert(n, kappa, t)
    return perm2_ideal_hilbert(n, t) if kappa == 2 else None


def betti_formula(spec, i, d):
    """b_{i,d} of the ideal `spec` in closed form: the square-free
    resolution, which is linear; the minors' Lascoux terms of degree d at
    step i + 1 (None for minors of size 1); the sub-permanents' linear
    strand, and None off it."""
    n, kappa = spec.n, spec.kappa
    if spec.family == "squarefree":
        return sqfree_betti(n, kappa, i) if d == kappa + i else 0
    if spec.family == "minors":
        if kappa == 1:
            return None
        return sum(t.dim for t in lascoux.lascoux_terms(n, kappa - 1, i + 1)
                   if t.degree == d)
    return perm_linear_strand_dim(n, kappa, i + 1) if d == kappa + i else None
