import pytest

from bringcover.dessins import (
    Dessin,
    acts_freely,
    automorphism_group,
    build_i4,
    build_icosahedron,
    isomorphic,
)
from bringcover.perms import cycle_type, from_cycles, identify_closure, identity

SINGLE_EDGE = Dessin((0,), (0,))


def _assert_iso_invariants(a, b, m):
    """Every isomorphism the engine produces must be valid and relate
    dessins with equal invariants."""
    assert m.is_valid(a, b)
    assert a.passport() == b.passport()
    assert a.genus() == b.genus()
    assert a.is_connected == b.is_connected
    assert automorphism_group(a).order == automorphism_group(b).order


def test_new_dessin_examples():
    assert SINGLE_EDGE.is_connected
    path = Dessin(from_cycles(2, [(0, 1)]), identity(2))
    assert path.is_connected
    assert path.passport().black == (2,)
    two_edges = Dessin(identity(2), identity(2))
    assert not two_edges.is_connected


def test_new_dessin_degree_mismatch():
    with pytest.raises(ValueError):
        Dessin(identity(2), identity(3))


def test_single_edge_passport():
    p = SINGLE_EDGE.passport()
    assert (p.black, p.white, p.face) == ((1,), (1,), (1,))
    assert SINGLE_EDGE.genus() == 0


def test_icosahedron_census():
    ico = build_icosahedron()
    p = ico.passport()
    assert p.black == tuple([5] * 12)
    assert p.white == tuple([2] * 30)
    assert p.face == tuple([3] * 20)
    assert ico.genus() == 0
    assert ico.is_connected


def test_icosahedron_automorphisms():
    grp = automorphism_group(build_icosahedron())
    assert grp.order == 60


def test_i4_census():
    i4 = build_i4()
    p = i4.passport()
    assert p.black == tuple([5] * 12)
    assert p.white == tuple([2] * 30)
    assert p.face == tuple([5] * 12)
    assert i4.genus() == 4


def test_i4_automorphisms():
    grp = automorphism_group(build_i4())
    assert grp.order == 60
    assert identify_closure(grp) == "A5"
    assert acts_freely(build_i4(), grp)


def test_genus_disconnected():
    with pytest.raises(ValueError):
        Dessin(identity(2), identity(2)).genus()


def test_recolor():
    i4 = build_i4()
    assert i4.recolor().recolor() == i4
    assert SINGLE_EDGE.recolor() == SINGLE_EDGE
    r = i4.recolor()
    assert r.passport().black == i4.passport().white
    assert r.passport().white == i4.passport().black
    assert r.passport().face == i4.passport().face
    assert r.genus() == i4.genus()


def test_mirror():
    i4 = build_i4()
    assert i4.mirror().mirror() == i4
    assert i4.mirror().passport() == i4.passport()
    assert i4.mirror().genus() == i4.genus()
    m = isomorphic(i4.mirror(), i4)
    assert m is not None
    _assert_iso_invariants(i4.mirror(), i4, m)


def test_subdivide_single_edge():
    sub = SINGLE_EDGE.subdivide()
    assert sub.n_darts == 2
    p = sub.passport()
    assert (p.black, p.white, p.face) == ((1, 1), (2,), (2,))
    assert sub.genus() == 0


def test_subdivide_icosahedron():
    # Euler count: 42 + 60 + 20 - 120 = 2
    sub = build_icosahedron().subdivide()
    assert sub.n_darts == 120
    p = sub.passport()
    assert len(p.black) == 42
    assert p.white == tuple([2] * 60)
    assert len(p.face) == 20
    assert sub.genus() == 0


def test_subdivide_i4():
    i4 = build_i4()
    sub = i4.subdivide()
    assert sub.genus() == 4
    assert sub.passport().white == tuple([2] * 60)
    # black type is the union of the old black and white types
    assert sub.passport().black == tuple(
        sorted(i4.passport().black + i4.passport().white, reverse=True))


def test_dual_exact_involution():
    for d in (SINGLE_EDGE, build_icosahedron(), build_i4()):
        assert d.dual().dual() == d
    assert SINGLE_EDGE.dual() == SINGLE_EDGE


def test_dual_exchanges_black_and_face():
    i4 = build_i4()
    p, q = i4.passport(), i4.dual().passport()
    assert (q.black, q.face) == (p.face, p.black)
    assert q.white == p.white
    assert i4.dual().genus() == i4.genus()


def test_dual_i4_isomorphic():
    i4 = build_i4()
    m = isomorphic(i4.dual(), i4)
    assert m is not None
    _assert_iso_invariants(i4.dual(), i4, m)


def test_union_single_edge():
    u = SINGLE_EDGE.union_with_dual()
    assert u.n_darts == 2
    p = u.passport()
    assert (p.black, p.white, p.face) == ((1, 1), (2,), (2,))
    assert u.genus() == 0


def test_union_i4_census():
    u = build_i4().union_with_dual()
    assert u.n_darts == 120
    p = u.passport()
    assert p.black == tuple([5] * 24)
    assert p.white == tuple([4] * 30)
    assert p.face == tuple([2] * 60)
    assert u.genus() == 4


def test_union_dart_count_doubles():
    for d in (SINGLE_EDGE, build_icosahedron(), build_i4()):
        assert d.union_with_dual().n_darts == 2 * d.n_darts


def test_union_passport_laws():
    for d in (build_icosahedron(), build_i4()):
        u = d.union_with_dual()
        p, q = d.passport(), u.passport()
        assert q.black == tuple(sorted(p.black + p.face, reverse=True))
        assert q.white == tuple(sorted((2 * k for k in p.white), reverse=True))
        assert u.genus() == d.genus()


def test_union_automorphisms():
    u = build_i4().union_with_dual()
    grp = automorphism_group(u)
    assert grp.order == 120
    assert identify_closure(grp) == "S5"
    assert acts_freely(u, grp)


def test_isomorphic_self():
    i4 = build_i4()
    m = isomorphic(i4, i4)
    assert m is not None and m.mapping[0] == 0


def test_isomorphic_invariant_mismatch():
    assert isomorphic(build_i4(), build_icosahedron()) is None


def test_isomorphic_requires_connected():
    with pytest.raises(ValueError):
        isomorphic(Dessin(identity(2), identity(2)), SINGLE_EDGE)


def test_automorphisms_single_edge():
    assert automorphism_group(SINGLE_EDGE).order == 1


def test_euler_consistency():
    from bringcover.perms import num_cycles

    for d in (SINGLE_EDGE, build_icosahedron(), build_i4(),
              build_i4().union_with_dual()):
        chi = (num_cycles(d.sigma0) + num_cycles(d.sigma1)
               + num_cycles(d.sigma_inf) - d.n_darts)
        assert chi % 2 == 0 and chi <= 2


def test_text_round_trip():
    for d in (SINGLE_EDGE, build_i4()):
        assert Dessin.from_text(d.to_text()) == d
    text = build_i4().to_text()
    assert text.splitlines()[0] == "darts: 60"


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        Dessin.from_text("darts: 2\nsigma0: ()\n")
    with pytest.raises(ValueError):
        Dessin.from_text("n: 2\nsigma0: ()\nsigma1: ()\n")


def test_dot_export():
    i4 = build_i4()
    dot = i4.to_dot()
    assert dot == i4.to_dot()  # deterministic
    lines = dot.splitlines()
    assert sum(1 for ln in lines if " -- " in ln) == 60
    assert sum(1 for ln in lines if ln.strip().startswith("b")
               and "shape" in ln) == 12
    assert sum(1 for ln in lines if ln.strip().startswith("w")
               and "shape" in ln) == 30


def test_immutability():
    d = build_i4()
    with pytest.raises(AttributeError):
        d.sigma0 = identity(60)


def test_cycle_type_of_faces_matches_genus():
    # spot check: 10-gon faces of the union's dual have 5-cycles
    j = build_i4().union_with_dual().dual().recolor()
    assert cycle_type(j.sigma_inf) == tuple([5] * 24)
