import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bringcover import dessins, perms, verify
from bringcover.dessins import (
    Dessin,
    acts_freely,
    automorphism_group,
    build_i4,
    build_icosahedron,
    isomorphic,
)
from bringcover.perms import (
    closure,
    compose,
    cycle_type,
    from_cycles,
    identify_closure,
    identity,
    inverse,
    order,
    regular_representation,
)

from oracles import dessin_from_text

SINGLE_EDGE = Dessin((0,), (0,))


def reference_extend(src, dst, target):
    """Anchor extension along sigma0, sigma1 and their inverses, the map
    with dart 0 -> target or None when it collides: the reference for the
    columns that ``dessins._maps`` keeps."""
    d = src.n_darts
    h = [-1] * d
    h[0] = target
    stack = [0]
    pairs = (
        (src.sigma0, dst.sigma0),
        (src.sigma1, dst.sigma1),
        (inverse(src.sigma0), inverse(dst.sigma0)),
        (inverse(src.sigma1), inverse(dst.sigma1)),
    )
    while stack:
        x = stack.pop()
        for ps, pd in pairs:
            y = ps[x]
            img = pd[h[x]]
            if h[y] == -1:
                h[y] = img
                stack.append(y)
            elif h[y] != img:
                return None
    if -1 in h or sorted(h) != list(range(d)):
        return None
    return tuple(h)


def reference_automorphism_group(d):
    """The group as the closure of every accepted anchor map, all of
    them passed as generators."""
    maps = [h for h in (reference_extend(d, d, t) for t in range(d.n_darts))
            if h is not None]
    grp = closure(maps)
    assert grp.order == len(maps)
    return grp


@pytest.fixture(scope="module")
def named_dessins():
    i4 = build_i4()
    return {
        "single_edge": SINGLE_EDGE,
        "icosahedron": build_icosahedron(),
        "i4": i4,
        "union": i4.union_with_dual(),
        "D": verify.Context().dessin_d,
    }


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


def test_new_dessin_rejects_non_permutations():
    with pytest.raises(ValueError, match="sigma1 is not a permutation"):
        Dessin((1, 2, 0), (0, 5, 1))
    with pytest.raises(ValueError, match="sigma0 is not a permutation"):
        Dessin((0, 0), (0, 1))


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
        assert dessin_from_text(d.to_text()) == d
    text = build_i4().to_text()
    assert text.splitlines()[0] == "darts: 60"


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
    for name in ("sigma1", "sigma_inf", "is_connected", "n_darts", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(d, name, None)


def test_dessin_is_the_value_of_its_rotations():
    d = build_i4()
    rotations = (d.sigma0, d.sigma1)
    assert d == rotations and hash(d) == hash(rotations)
    assert d == Dessin(*rotations) and d != d.mirror()
    assert d._replace(sigma1=d.sigma0) == Dessin(d.sigma0, d.sigma0)
    for change in ({"sigma1": (0,) * d.n_darts}, {"sigma0": identity(3)}):
        with pytest.raises(ValueError):
            d._replace(**change)
    with pytest.raises(ValueError, match="sigma0 is not a permutation"):
        Dessin._make([(0, 0), (0, 1)])


def test_derived_rotation_and_connectivity_are_cached():
    d = build_i4()
    assert d.sigma_inf is d.sigma_inf
    assert d.sigma_inf == inverse(compose(d.sigma0, d.sigma1))
    assert vars(d).keys() == {"sigma_inf"}
    assert d.is_connected and vars(d).keys() == {"sigma_inf", "is_connected"}
    # the cache is outside the fields that equality and hashing see
    assert d == build_i4() and hash(d) == hash(build_i4())
    assert not Dessin((), ()).is_connected


def test_cycle_type_of_faces_matches_genus():
    # spot check: 10-gon faces of the union's dual have 5-cycles
    j = build_i4().union_with_dual().dual().recolor()
    assert cycle_type(j.sigma_inf) == tuple([5] * 24)


@pytest.mark.parametrize("name", ["single_edge", "icosahedron", "i4",
                                  "union", "D"])
def test_automorphism_group_matches_reference(named_dessins, name):
    d = named_dessins[name]
    grp = automorphism_group(d)
    ref = reference_automorphism_group(d)
    assert grp.elements == ref.elements
    assert grp.generators == ref.generators
    assert grp.order == ref.order
    assert not grp.cap_exceeded


@pytest.mark.parametrize("name", ["single_edge", "icosahedron", "i4",
                                  "union", "D"])
def test_maps_match_reference(named_dessins, name):
    d = named_dessins[name]
    for src, dst in ((d, d), (d.dual(), d), (d.mirror(), d)):
        ref = [reference_extend(src, dst, t) for t in range(d.n_darts)]
        assert list(dessins._maps(src, dst)) == \
            [h for h in ref if h is not None]


def test_isomorphic_is_first_reference_map():
    i4 = build_i4()
    first = next(h for h in (reference_extend(i4.dual(), i4, t)
                             for t in range(i4.n_darts)) if h is not None)
    assert isomorphic(i4.dual(), i4).mapping == first


def test_automorphism_group_rejects_maps_not_closed(monkeypatch):
    ico = build_icosahedron()
    maps = list(dessins._maps(ico, ico))
    assert maps[0] == identity(ico.n_darts)
    h5 = next(h for h in maps if order(h) == 5)
    # accept only the identity and one automorphism of order 5
    monkeypatch.setattr(dessins, "_maps",
                        lambda a, b: iter([maps[0], h5]))
    with pytest.raises(RuntimeError):
        automorphism_group(ico)


def test_automorphism_group_does_not_reclose_all_maps(monkeypatch):
    union = build_i4().union_with_dual()
    real = perms.compose
    calls = [0]

    def counting_compose(p, q):
        calls[0] += 1
        return real(p, q)

    monkeypatch.setattr(perms, "compose", counting_compose)
    monkeypatch.setattr(dessins, "compose", counting_compose)
    assert automorphism_group(union).order == 120
    assert 0 < calls[0] < 2000


def test_automorphism_group_closes_its_guard_once(monkeypatch):
    union = build_i4().union_with_dual()
    real = dessins.closure
    calls = []

    def counting_closure(gens, cap=perms.DEFAULT_CLOSURE_CAP):
        calls.append(len(gens))
        return real(gens, cap=cap)

    monkeypatch.setattr(dessins, "closure", counting_closure)
    assert automorphism_group(union).order == 120
    assert calls == [3]


@st.composite
def connected_dessins(draw):
    """A connected dessin of degree <= 12: two random permutations, or the
    regular dessin of a group generated by two permutations of 4 points,
    whose automorphism group has as many elements as it has darts."""
    if draw(st.booleans()):
        a, b = (tuple(draw(st.permutations(range(4)))) for _ in range(2))
        grp = closure([a, b])
        assume(grp.order <= 12)
        return Dessin(regular_representation(a, grp),
                      regular_representation(b, grp))
    n = draw(st.integers(min_value=1, max_value=12))
    d = Dessin(draw(st.permutations(range(n))),
               draw(st.permutations(range(n))))
    assume(d.is_connected)
    return d


def test_automorphism_group_matches_reference_on_random_dessins():
    regular = set()

    @settings(max_examples=200, deadline=None)
    @given(connected_dessins())
    def check(d):
        grp = automorphism_group(d)
        ref = reference_automorphism_group(d)
        assert grp.generators == ref.generators
        assert grp.elements == ref.elements
        assert grp.cap_exceeded == ref.cap_exceeded
        assert grp.order == ref.order
        regular.add(grp.order == d.n_darts)

    check()
    # both kinds occur: in the non-regular dessins some columns of the
    # word table fail to commute and are rejected
    assert regular == {True, False}


def test_isomorphic_is_first_reference_map_on_random_relabelings():
    found = set()

    @settings(max_examples=200, deadline=None)
    @given(connected_dessins(), st.data())
    def check(d, data):
        p = tuple(data.draw(st.permutations(range(d.n_darts))))
        p_inv = inverse(p)
        e = Dessin(compose(compose(p, d.sigma0), p_inv),
                   compose(compose(p, d.sigma1), p_inv))
        for src in (d, d.mirror()):
            first = next((h for h in (reference_extend(src, e, t)
                                      for t in range(e.n_darts))
                          if h is not None), None)
            m = isomorphic(src, e)
            assert (m and m.mapping) == first
            found.add(m is not None)

    check()
    # both cases occur: chiral dessins are not isomorphic to their mirror
    assert found == {True, False}


# The pair each dessins row proves its group from: darts that the row's own
# rotations reach from dart 0, and the presentation they must satisfy.
ROW_PAIRS = {
    "icosahedron": lambda d: ("A5", d.sigma0[0], d.sigma1[0]),
    "i4": lambda d: ("A5", d.sigma0[d.sigma0[0]], d.sigma1[0]),
    "union": lambda d: ("S5", d.sigma_inf[0], d.sigma0[0]),
    "J": lambda d: ("S5", d.sigma1[0], d.sigma_inf[0]),
    "D": lambda d: ("S5", d.sigma1[0], d.sigma_inf[0]),
}


@pytest.fixture(scope="module")
def row_dessins(named_dessins):
    return {**named_dessins, "J": verify.Context().dessin_j}


@pytest.mark.parametrize("name", sorted(ROW_PAIRS))
def test_presented_automorphisms_match_the_oracles(row_dessins, name):
    d = row_dessins[name]
    got = dessins.presented_automorphisms(d, *ROW_PAIRS[name](d))
    grp = automorphism_group(d)
    assert got == (grp.order, acts_freely(d, grp), identify_closure(grp))
    assert got.order == d.n_darts


def _relators_hold(a, b):
    """((ab)^4 = e, [a,b]^3 = e), read from the element orders rather than
    from the relator table."""
    comm = compose(compose(inverse(a), inverse(b)), compose(a, b))
    return 4 % order(compose(a, b)) == 0, 3 % order(comm) == 0


def _column(d, t):
    return next(h for h in dessins._maps(d, d) if h[0] == t)


@pytest.mark.parametrize("dessin, pair, relators", [
    # the orders are 5 and 4, not 2 and 5
    ("union", lambda d: ("S5", d.sigma0[0], d.sigma1[0]), None),
    # orders 2 and 5; (ab)^4 fails, [a,b]^3 holds
    ("union", lambda d: ("S5", d.sigma1[d.sigma1[0]], d.sigma0[0]),
     (False, True)),
    # orders 2 and 5; (ab)^4 holds, [a,b]^3 fails
    ("union", lambda d: ("S5", 1, 12), (True, False)),
    # I4's pair on the icosahedron: orders 5 and 2, (xy)^3 fails
    ("icosahedron", lambda d: ("A5", d.sigma0[d.sigma0[0]], d.sigma1[0]),
     None),
], ids=["union-orders", "union-ab4", "union-commutator3", "icosahedron"])
def test_presented_automorphisms_reject_a_pair_outside_the_presentation(
        named_dessins, dessin, pair, relators):
    d = named_dessins[dessin]
    name, x, y = pair(d)
    if relators is not None:
        a, b = _column(d, x), _column(d, y)
        assert (order(a), order(b)) == (2, 5)
        assert _relators_hold(a, b) == relators
    with pytest.raises(ValueError, match=f"not satisfy the {name} "):
        dessins.presented_automorphisms(d, name, x, y)


def test_presented_automorphisms_reject_a_column_that_is_not_one(
        named_dessins):
    sub = named_dessins["union"].subdivide()
    with pytest.raises(ValueError, match="to dart 120$"):
        dessins.presented_automorphisms(sub, "S5", 120, sub.sigma0[0])
    # column 1 of this triangle commutes with sigma0 but not with sigma1
    tri = Dessin((1, 2, 0), (0, 2, 1))
    h = tuple(w[1] for w in dessins._word_table(tri, tri))
    assert compose(h, tri.sigma0) == compose(tri.sigma0, h)
    assert compose(h, tri.sigma1) != compose(tri.sigma1, h)
    with pytest.raises(ValueError, match="to dart 1$"):
        dessins.presented_automorphisms(tri, "A5", 1, 1)


def test_presented_automorphisms_reject_a_short_orbit(named_dessins):
    # the union's own pair, on its subdivision: two automorphisms that
    # satisfy the presentation, but reach only the 120 old darts of 240
    u = named_dessins["union"]
    sub = u.subdivide()
    x, y = u.sigma_inf[0], u.sigma0[0]
    assert perms.presents("S5", _column(sub, x), _column(sub, y))
    with pytest.raises(ValueError, match="reach 120 of 240 darts"):
        dessins.presented_automorphisms(sub, "S5", x, y)
    assert automorphism_group(sub).order == 120


def test_presented_automorphisms_name_only_the_order_reached(
        monkeypatch, named_dessins):
    # a presentation whose stated order the orbit does not reach names no
    # group: the orbit, not the table, makes the bound exact
    ico = named_dessins["icosahedron"]
    pair = ROW_PAIRS["icosahedron"](ico)
    assert dessins.presented_automorphisms(ico, *pair) == (60, True, "A5")
    _, orders, relators = perms._PRESENTATIONS["A5"]
    monkeypatch.setitem(perms._PRESENTATIONS, "A5", (120, orders, relators))
    assert dessins.presented_automorphisms(ico, *pair) == \
        (60, False, "Other(60)")


def test_presented_automorphisms_reject_bad_input(named_dessins):
    ico = named_dessins["icosahedron"]
    with pytest.raises(ValueError, match="connected"):
        dessins.presented_automorphisms(Dessin(identity(2), identity(2)),
                                        "A5", 0, 1)
    with pytest.raises(ValueError, match="not one of 60 darts"):
        dessins.presented_automorphisms(ico, "A5", 60, 1)
    with pytest.raises(ValueError, match="not one of 60 darts"):
        dessins.presented_automorphisms(ico, "A5", 4, -1)
    with pytest.raises(ValueError, match="unknown presentation"):
        dessins.presented_automorphisms(ico, "A6", 4, 1)
