import itertools
from math import comb

import pytest

from enumeration import brute_force_faces
from permres import simplicial
from permres.simplicial import (
    SimplicialComplex,
    alexander_dual_ideal,
    h_from_f,
    perm2_complex,
    skeleton_complex,
)
from permres.tensorspace import ResourceCapError


def test_minimal_nonfaces_deduplicated():
    c = SimplicialComplex(4, [{0, 1}, {0, 1, 2}, {1, 0}, {2, 3}])
    assert c.nonfaces == (frozenset({0, 1}), frozenset({2, 3}))


def test_is_face():
    c = SimplicialComplex(4, [{0, 1}])
    assert c.is_face({0, 2, 3})
    assert not c.is_face({0, 1, 2})


def test_skeleton_f_vectors():
    assert skeleton_complex(4, 1).f_vector() == (1, 4, 6)
    assert skeleton_complex(4, 1).h_vector() == (1, 2, 3)
    assert skeleton_complex(6, 2).count_faces(2) == [1, 6, 15, 20]
    # full simplex
    assert skeleton_complex(3, 2).f_vector() == (1, 3, 3, 1)
    # empty complex: only the empty face
    assert skeleton_complex(5, -1).f_vector() == (1,)


def test_skeleton_counts_are_binomials():
    for n in range(1, 7):
        for dim in range(-1, n):
            vec = skeleton_complex(n, dim).f_vector()
            assert vec == tuple(comb(n, k) for k in range(0, dim + 2))


def test_h_from_f():
    assert h_from_f((1, 4, 6)) == (1, 2, 3)
    assert h_from_f((1,)) == (1,)


def test_count_faces_matches_brute_force():
    cases = [
        (5, [{0, 1}, {2, 3, 4}, {1, 4}]),
        (6, [{0, 1, 2}, {3, 4}, {0, 5}, {2, 5}]),
    ]
    for n, nonfaces in cases:
        c = SimplicialComplex(n, nonfaces)
        assert c.count_faces(max_dim=n - 1) == brute_force_faces(
            n, nonfaces, n - 1
        )


def test_count_faces_resource_cap(monkeypatch):
    monkeypatch.setattr(simplicial, "DEFAULT_FACE_CAP", 1000)
    with pytest.raises(ResourceCapError):
        SimplicialComplex(30).count_faces()


def test_perm2_complex_small_cases():
    assert perm2_complex(2).f_vector() == (1, 4, 5, 2)
    # triangle count at n=3: right triangles plus thin ones
    assert perm2_complex(3).count_faces(max_dim=2)[3] == 24
    # thin tetrahedra at n=5
    assert perm2_complex(5).count_faces(max_dim=3)[4] == 2 * 5 * comb(5, 4)


def test_perm2_complex_matches_f_vector_formula(verify_ok):
    verify_ok("simplicial", "perm2-face-counts")


def test_perm2_right_triangles_only():
    # every 2-face of the n=3 complex is either thin (one row or column) or
    # a right triangle with northwest-southeast hypotenuse
    c = perm2_complex(3)
    for verts in itertools.combinations(range(9), 3):
        if not c.is_face(verts):
            continue
        cells = [(v // 3, v % 3) for v in verts]
        rows = {i for i, _ in cells}
        cols = {j for _, j in cells}
        thin = len(rows) == 1 or len(cols) == 1
        right = len(rows) == 2 and len(cols) == 2
        assert thin or right


def test_alexander_dual_of_skeleta(verify_ok):
    # dual of the ideal of degree-m square-free monomials is generated in
    # degree n-m+1, and dualizing again gives back the minimal non-faces
    verify_ok("simplicial", "alexander-duality")


def test_alexander_dual_edge_cases():
    # full simplex has no proper non-face
    assert alexander_dual_ideal(skeleton_complex(4, 3)) == []
    # the 1-skeleton of the 3-simplex dualizes to the four-vertex complex,
    # whose Stanley-Reisner ideal is generated by the pairs
    gens = alexander_dual_ideal(skeleton_complex(4, 1))
    assert gens == sorted(tuple(c) for c in itertools.combinations(range(4), 2))
    dual = SimplicialComplex(4, [set(g) for g in gens])
    assert dual.f_vector() == (1, 4)


def test_h_vector_carries_betti_numerator(verify_ok):
    # h(t) * (1-t)^(n-kappa+1) = 1 - sum_i (-1)^i b_i t^(kappa+i)
    verify_ok("simplicial", "h-vector-betti-numerator")


def test_stanley_reisner_hilbert_identity(verify_ok):
    # sum_i f_(i-1) C(t-1, i-1) counts quotient monomials by support size
    verify_ok("simplicial", "stanley-reisner-hilbert")
