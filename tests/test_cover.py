import pytest

from bringcover.cells import build_complex5
from bringcover.cover import (
    _gluing_sign,
    cover_to_dessin,
    euler_characteristic,
    is_orientable,
    make_surface,
    orientation_cover,
    surface_from_cells,
)
from bringcover.dessins import (
    Dessin,
    acts_freely,
    automorphism_group,
    build_i4,
    isomorphic,
)
from bringcover.perms import cycle_type, identify_closure
from bringcover.verify import Context


def two_triangle_sphere():
    # two triangles glued along all three edges, vertices A=0, B=1, C=2
    face_edges = [(0, 1, 2), (0, 1, 2)]
    face_corners = [(1, 2, 0), (1, 2, 0)]
    return make_surface(face_edges, face_corners)


def hemi_cube():
    """The projective plane as 3 squares: antipodal quotient of the cube.

    Vertices 0..3 (antipodal vertex pairs), edges 0..5 = the pairs
    01, 02, 03, 12, 13, 23 in that order.
    """
    face_edges = [(0, 4, 5, 1), (2, 4, 3, 1), (2, 5, 3, 0)]
    face_corners = [(1, 3, 2, 0), (3, 1, 2, 0), (3, 2, 1, 0)]
    return make_surface(face_edges, face_corners)


def disjoint_union(*parts):
    """The surfaces side by side, with faces, edges and vertices renumbered."""
    face_edges, face_corners, nv, ne = [], [], 0, 0
    for s in parts:
        face_edges += [tuple(e + ne for e in es) for es in s.face_edges]
        face_corners += [tuple(v + nv for v in cs) for cs in s.face_corners]
        nv += s.n_vertices
        ne += s.n_edges
    return make_surface(face_edges, face_corners)


# An independent copy of the earlier cover code: the component count by
# union-find over the oriented faces, and the darts of the cover dessin
# read off every (oriented face, side, end corner) before the rotations.

def reference_components(s):
    parent = list(range(2 * s.n_faces))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e, ((f1, _), (f2, _)) in s.edge_uses.items():
        sign = _gluing_sign(s, e)
        for o1 in (1, -1):
            a = find(2 * f1 + (o1 == -1))
            b = find(2 * f2 + (o1 * sign == -1))
            parent[a] = b
    return len({find(x) for x in range(2 * s.n_faces)})


def reference_dessin(cov, orientation):
    s = cov.base

    def edge_id(f, t, o):
        e = s.face_edges[f][t]
        o1 = o if (f, t) == s.edge_uses[e][0] else o * _gluing_sign(s, e)
        return 2 * e + (o1 == -1)

    vertex_of = {corner: v for v, cyc in enumerate(cov.vertex_corners)
                 for corner in cyc}
    keys = set()
    for f, edges in enumerate(s.face_edges):
        m = len(edges)
        for o in (1, -1):
            for t in range(m):
                for c in ((t - 1) % m, t):
                    keys.add((edge_id(f, t, o), vertex_of[(f, o, c)]))
    dart_id = {key: i for i, key in enumerate(sorted(keys))}
    n = len(dart_id)
    sigma1 = [0] * n
    for (ce, v), i in dart_id.items():
        (j,) = [j for (ce2, v2), j in dart_id.items() if ce2 == ce and j != i]
        sigma1[i] = j
    sigma0 = [0] * n
    for v, cyc in enumerate(cov.vertex_corners):
        walk = cyc if orientation == 1 else cyc[::-1]
        ids = [dart_id[(edge_id(f, (c + 1) % len(s.face_edges[f])
                                if o == 1 else c, o), v)]
               for f, o, c in walk]
        for i, d in enumerate(ids):
            sigma0[d] = ids[(i + 1) % len(ids)]
    return Dessin(sigma0, sigma1)


@pytest.fixture(scope="module")
def surface5():
    return surface_from_cells(build_complex5())


@pytest.fixture(scope="module")
def cover5(surface5):
    return orientation_cover(surface5)


@pytest.fixture(scope="module")
def dessin_d(cover5):
    return cover_to_dessin(cover5)


def test_sphere_euler():
    assert euler_characteristic(two_triangle_sphere()) == 2


def test_sphere_orientable():
    assert is_orientable(two_triangle_sphere())


def test_sphere_cover_two_components():
    cov = orientation_cover(two_triangle_sphere())
    assert cov.components == 2
    assert not cov.is_connected
    with pytest.raises(ValueError):
        cov.genus()
    with pytest.raises(ValueError):
        cover_to_dessin(cov)


def test_hemi_cube_is_projective_plane():
    rp2 = hemi_cube()
    assert euler_characteristic(rp2) == 1
    assert not is_orientable(rp2)


def test_hemi_cube_cover_is_cube():
    cov = orientation_cover(hemi_cube())
    assert cov.is_connected
    assert (cov.n_faces, cov.n_edges, cov.n_vertices) == (6, 12, 8)
    assert cov.genus() == 0
    cube = cover_to_dessin(cov)
    p = cube.passport()
    assert p.black == tuple([3] * 8)
    assert p.white == tuple([2] * 12)
    assert p.face == tuple([4] * 6)
    assert cube.genus() == 0
    assert automorphism_group(cube).order == 24


def test_make_surface_rejects_dangling_edge():
    with pytest.raises(ValueError):
        make_surface([(0, 1, 2)], [(1, 2, 0)])


@pytest.mark.parametrize("corners", [
    [(1, 2, 7), (1, 2, 7)],    # a corner on vertex 7 of 3
    [(1, 2, 4), (1, 2, 4)],    # vertex ids 1, 2, 4: 0 and 3 are missing
])
def test_make_surface_rejects_vertex_ids_outside_the_range(corners):
    with pytest.raises(ValueError, match="corner vertex ids"):
        make_surface([(0, 1, 2), (0, 1, 2)], corners)


def test_base_euler(surface5):
    assert euler_characteristic(surface5) == 15 - 30 + 12 == -3


def test_base_nonorientable(surface5):
    assert not is_orientable(surface5)


def test_cover_summary(cover5):
    assert cover5.summary() == {
        "faces": 24, "edges": 60, "vertices": 30,
        "components": 1, "orientable": True, "genus": 4,
    }


def test_cover_doubles_base(surface5, cover5):
    assert cover5.n_faces == 2 * surface5.n_faces
    assert cover5.n_edges == 2 * surface5.n_edges
    assert cover5.n_vertices == 2 * surface5.n_vertices
    assert cover5.euler_characteristic() == 2 * euler_characteristic(surface5)


def test_cover_vertex_valencies(cover5):
    assert all(len(cyc) == 4 for cyc in cover5.vertex_corners)


def test_dessin_passport(dessin_d):
    p = dessin_d.passport()
    assert dessin_d.n_darts == 120
    assert p.black == tuple([4] * 30)
    assert p.white == tuple([2] * 60)
    assert p.face == tuple([5] * 24)
    assert dessin_d.is_connected
    assert dessin_d.genus() == 4


def test_dessin_faces_are_ten_gons(dessin_d):
    # a face cycle of dart-length 5 alternates 5 black and 5 white corners
    assert cycle_type(dessin_d.sigma_inf) == tuple([5] * 24)


def test_dessin_deterministic(cover5, dessin_d):
    assert cover_to_dessin(cover5) == dessin_d
    assert Context().dessin_d == dessin_d


def test_opposite_orientation_is_mirror(cover5, dessin_d):
    assert cover_to_dessin(cover5, orientation=-1) == dessin_d.mirror()


def test_d_regular(dessin_d):
    grp = automorphism_group(dessin_d)
    assert grp.order == 120
    assert acts_freely(dessin_d, grp)
    assert identify_closure(grp) == "S5"


def test_main_isomorphism(dessin_d):
    j = build_i4().union_with_dual().dual().recolor()
    assert j.passport() == dessin_d.passport()
    m = isomorphic(dessin_d, j)
    mirrored = False
    if m is None:
        m = isomorphic(dessin_d.mirror(), j)
        mirrored = True
    assert m is not None
    # with these conventions no global mirror is needed
    assert not mirrored


def test_orientation_must_be_a_sign(cover5):
    for bad in (0, 2):
        with pytest.raises(ValueError):
            cover_to_dessin(cover5, orientation=bad)


@pytest.mark.parametrize("parts, components", [
    ((two_triangle_sphere, two_triangle_sphere), 4),
    ((two_triangle_sphere, hemi_cube), 3),
    ((hemi_cube, two_triangle_sphere), 3),
    # two components, like a connected orientable base, yet disconnected
    ((hemi_cube, hemi_cube), 2),
], ids=["S2+S2", "S2+RP2", "RP2+S2", "RP2+RP2"])
def test_disjoint_union_covers(parts, components):
    s = disjoint_union(*(part() for part in parts))
    cov = orientation_cover(s)
    assert cov.components == components == reference_components(s)
    assert not cov.is_connected
    with pytest.raises(ValueError):
        is_orientable(s)
    with pytest.raises(ValueError):
        cover_to_dessin(cov)


def test_components_match_reference(surface5):
    for s, components in ((two_triangle_sphere(), 2), (hemi_cube(), 1),
                          (surface5, 1)):
        assert orientation_cover(s).components == components == \
            reference_components(s)


@pytest.mark.parametrize("orientation", [1, -1])
def test_dessins_match_reference(cover5, orientation):
    cube = orientation_cover(hemi_cube())
    for cov in (cover5, cube):
        assert cover_to_dessin(cov, orientation) == \
            reference_dessin(cov, orientation)
