"""Simplicial-complex combinatorics: skeleta, f- and h-vectors, Alexander
duality, Stanley-Reisner ideals, and the complex attached to the radical of
the 2x2 sub-permanent ideal.

Complexes are co-presented by their minimal non-faces (forbidden subsets): a
set is a face iff it contains no forbidden subset.  Face enumeration is a
DFS over vertices in increasing order with first-violation pruning.
"""

import itertools
from math import comb

from .tensorspace import ResourceCapError

DEFAULT_FACE_CAP = 10**8


class SimplicialComplex:
    """A complex on vertices 0..n_vertices-1 given by minimal non-faces."""

    def __init__(self, n_vertices, nonfaces=()):
        self.n_vertices = n_vertices
        cleaned = sorted(
            {frozenset(nf) for nf in nonfaces}, key=lambda s: (len(s), sorted(s))
        )
        minimal = []
        for nf in cleaned:
            if any(v < 0 or v >= n_vertices for v in nf):
                raise ValueError(f"non-face {sorted(nf)} outside vertex range")
            if not any(prev <= nf for prev in minimal):
                minimal.append(nf)
        self.nonfaces = tuple(minimal)
        # index minimal non-faces by their largest vertex for DFS pruning
        self._by_max = {}
        for nf in self.nonfaces:
            self._by_max.setdefault(max(nf), []).append(nf)

    def is_face(self, subset):
        s = frozenset(subset)
        return not any(nf <= s for nf in self.nonfaces)

    def _walk(self, max_dim, visit):
        """Call visit(face) on every nonempty face of dimension <= max_dim:
        a DFS over vertices in increasing order, pruned at the first
        violated non-face, that raises ResourceCapError after
        DEFAULT_FACE_CAP visited nodes."""
        cap = DEFAULT_FACE_CAP
        budget = [cap]

        def extend(face, last):
            if len(face) > max_dim:
                return
            for v in range(last + 1, self.n_vertices):
                budget[0] -= 1
                if budget[0] < 0:
                    raise ResourceCapError(
                        f"face enumeration exceeded {cap} visited nodes"
                    )
                grown = face | {v}
                if any(nf <= grown for nf in self._by_max.get(v, ())):
                    continue
                visit(grown)
                extend(grown, v)

        extend(frozenset(), -1)

    def count_faces(self, max_dim=None):
        """Face counts [f_-1, f_0, ..., f_max_dim]; f_-1 = 1 for the empty
        face.  Exhaustive DFS, pruned at the first violated non-face."""
        if max_dim is None:
            max_dim = self.n_vertices - 1
        counts = [1] + [0] * (max_dim + 1)

        def tally(face):
            counts[len(face)] += 1

        self._walk(max_dim, tally)
        return counts

    def f_vector(self):
        """(1, f_0, ..., f_dim) with trailing zero levels trimmed."""
        counts = self.count_faces()
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        return tuple(counts)

    def h_vector(self):
        """Binomial transform of the f-vector: the coefficients of
        f(t-1) where f(t) = sum_i f_{i-1} t^(d-i), d = dim + 1."""
        return h_from_f(self.f_vector())

    def facets(self):
        """All maximal faces, by exhaustive enumeration."""
        faces = [frozenset()]
        self._walk(self.n_vertices - 1, faces.append)
        return [f for f in faces if not any(f < g for g in faces)]

    def __repr__(self):
        return (
            f"SimplicialComplex({self.n_vertices} vertices, "
            f"{len(self.nonfaces)} minimal non-faces)"
        )


def h_from_f(fvec):
    """h-vector from [f_-1, f_0, ..., f_{d-1}]."""
    d = len(fvec) - 1
    return tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * fvec[i] for i in range(j + 1))
        for j in range(d + 1)
    )


def skeleton_complex(n, dim):
    """The dim-skeleton of the (n-1)-simplex: all subsets of size <= dim+1;
    minimal non-faces are the (dim+2)-subsets."""
    if not (-1 <= dim <= n - 1):
        raise ValueError(f"need -1 <= dim <= n-1, got {dim}")
    if dim == n - 1:
        return SimplicialComplex(n)
    nonfaces = itertools.combinations(range(n), dim + 2)
    return SimplicialComplex(n, nonfaces)


def perm2_complex(n):
    """The Stanley-Reisner complex of the initial ideal of the radical of
    the 2x2 sub-permanent ideal, on the n x n grid of vertices (i,j) with id
    i*n + j (0-based).

    Minimal non-faces: the northeast-sloping pairs {(i,j),(k,l)} with i<k,
    j<l (leading terms of the quadrics), and five families of triples (the
    cubic leading terms), which forbid all non-degenerate triangles except
    right triangles with northwest-southeast hypotenuse and leave only thin
    higher faces.
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def vid(i, j):
        return i * n + j

    nonfaces = []
    for i, k in itertools.combinations(range(n), 2):
        for j, l in itertools.combinations(range(n), 2):
            nonfaces.append({vid(i, j), vid(k, l)})
    for i2, i1 in itertools.combinations(range(n), 2):  # i1 > i2
        for j1, j2, j3 in itertools.combinations(range(n), 3):
            nonfaces.append({vid(i1, j1), vid(i1, j2), vid(i2, j3)})
            nonfaces.append({vid(i1, j1), vid(i2, j2), vid(i2, j3)})
    for i1, i2, i3 in itertools.combinations(range(n), 3):
        for j2, j1 in itertools.combinations(range(n), 2):  # j1 > j2
            nonfaces.append({vid(i1, j1), vid(i2, j1), vid(i3, j2)})
            nonfaces.append({vid(i1, j1), vid(i2, j2), vid(i3, j2)})
    for i1, i2, i3 in itertools.combinations(range(n), 3):
        for j3, j2, j1 in itertools.combinations(range(n), 3):  # j1 > j2 > j3
            nonfaces.append({vid(i1, j1), vid(i2, j2), vid(i3, j3)})
    return SimplicialComplex(n * n, nonfaces)


def alexander_dual_ideal(complex_):
    """Minimal generators of the Stanley-Reisner ideal of the Alexander dual
    {tau : complement(tau) not in complex}: the complements of the facets.

    Returns sorted vertex tuples; the full simplex dualizes to the empty
    generator list.
    """
    everything = frozenset(range(complex_.n_vertices))
    gens = sorted(
        tuple(sorted(everything - facet)) for facet in complex_.facets()
    )
    return [g for g in gens if g]

