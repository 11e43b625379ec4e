from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bringcover.cells as cellmod
from bringcover.cells import (
    PENTAGON_SIDE_ORDER,
    CellClass,
    LabeledPolygon,
    build_complex5,
    canonical_class,
    enumerate_cells,
    polygon,
    refinements,
)
from bringcover.cover import surface_from_cells

from oracles import twist


# ------------------------------------------------------------ reference
# The raw orbit search: the closure of one polygon under the dihedral
# group and twists, every image built and validated as a LabeledPolygon.
# It knows nothing of normal forms, so the index in cells.py is checked
# against it.

def _rotate(p, k):
    n = p.n
    labels = tuple(p.labels[(i + k) % n] for i in range(n))
    diags = [((a - k) % n, (b - k) % n) for a, b in p.diags]
    return polygon(n, labels, diags)


def reference_twist(p, diag):
    """Twist on polygons: rotate the chord to (0, k), flip sides k..n-1
    with the chords inside them, rotate back."""
    a, b = diag
    n = p.n
    q = _rotate(p, a)
    k = b - a

    def flip_corner(c):
        if c == 0:
            return k
        if c == k:
            return 0
        return k + n - c  # interior of the flipped part: k < c < n

    labels = list(q.labels)
    labels[k:] = labels[k:][::-1]
    new_diags = []
    for c, d in q.diags:
        if (c == 0 or c >= k) and (d == 0 or d >= k):
            c, d = flip_corner(c), flip_corner(d)
        new_diags.append((c, d))
    return _rotate(polygon(n, labels, new_diags), (n - a) % n)


def _reflect(p):
    """Reflection fixing corner 0: corner c -> -c, so side i -> n-1-i."""
    n = p.n
    labels = tuple(reversed(p.labels))
    diags = [((-a) % n, (-b) % n) for a, b in p.diags]
    return polygon(n, labels, diags)


def _key(p):
    return (p.labels, p.diags)


def orbit(p):
    """Closure of {p} under twists and the dihedral group, as a set of
    (labels, diags) keys."""
    seen = {_key(p)}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        images = []
        for k in range(q.n):
            r = _rotate(q, k)
            images.append(r)
            images.append(_reflect(r))
        images.extend(reference_twist(q, d) for d in q.diags)
        for r in images:
            key = _key(r)
            if key not in seen:
                seen.add(key)
                frontier.append(r)
    return seen


def reference_class(p):
    orb = orbit(p)
    return CellClass(rep=LabeledPolygon(p.n, *min(orb)), orbit_size=len(orb))


def _crossing(c1, c2):
    (a, b), (c, d) = c1, c2
    return a < c < b < d or c < a < d < b


def _chords(n):
    return [(a, b) for a, b in combinations(range(n), 2)
            if 2 <= b - a <= n - 2]


@lru_cache(maxsize=None)
def reference_index(n, k):
    """Raw key -> class, for every key of every n-gon class with k
    diagonals."""
    chord_sets = [s for s in combinations(_chords(n), k)
                  if not any(_crossing(c, d) for c, d in combinations(s, 2))]
    index = {}
    for rest in permutations(range(2, n + 1)):
        for diags in chord_sets:
            if ((1,) + rest, diags) not in index:
                orb = orbit(polygon(n, (1,) + rest, diags))
                cls = CellClass(rep=LabeledPolygon(n, *min(orb)),
                                orbit_size=len(orb))
                index.update(dict.fromkeys(orb, cls))
    return index


NK = [(n, k) for n in range(3, 7) for k in range(n - 2)]


@pytest.mark.parametrize("n,k", NK)
def test_enumerate_matches_reference(n, k):
    assert enumerate_cells(n, k) == sorted(set(reference_index(n, k).values()))


@pytest.mark.parametrize("n,k", [(n, k) for n, k in NK if n - 3 - k >= 1])
def test_refinements_match_reference(n, k):
    finer = reference_index(n, k + 1)
    for cls in sorted(set(reference_index(n, k).values())):
        p = cls.rep
        expected = {finer[_key(polygon(n, p.labels, p.diags + (c,)))]
                    for c in _chords(n)
                    if c not in p.diags
                    and not any(_crossing(c, d) for d in p.diags)}
        assert refinements(cls) == sorted(expected)


@st.composite
def labeled_polygons(draw):
    n = draw(st.integers(3, 7))
    labels = draw(st.permutations(range(1, n + 1)))
    chords = _chords(n)
    picks = draw(st.lists(st.sampled_from(chords), max_size=n)) \
        if chords else []
    diags = []
    for c in picks:
        if c not in diags and not any(_crossing(c, d) for d in diags):
            diags.append(c)
    return polygon(n, labels, diags)


@settings(max_examples=60, deadline=None)
@given(labeled_polygons())
def test_canonical_class_matches_reference(p):
    assert canonical_class(p) == reference_class(p)


@given(labeled_polygons())
def test_twist_matches_reference(p):
    for d in p.diags:
        assert twist(p, d) == reference_twist(p, d)


def test_canonical_class_beyond_enumeration_range():
    # enumerate_cells stops at n=8; canonical_class takes any polygon
    p = polygon(9, (4, 9, 1, 7, 2, 8, 3, 6, 5), [(0, 4), (1, 3), (4, 7)])
    assert canonical_class(p) == reference_class(p)
    assert canonical_class(twist(p, (4, 7))) == canonical_class(p)


def test_enumerate_returns_fresh_list():
    cells = enumerate_cells(5, 1)
    cells.clear()
    assert len(enumerate_cells(5, 1)) == 30
    assert enumerate_cells(5, 1) is not enumerate_cells(5, 1)


def test_polygon_validation():
    with pytest.raises(ValueError):
        polygon(5, (1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        polygon(5, (1, 2, 3, 4, 5), [(0, 1)])  # adjacent corners
    with pytest.raises(ValueError):
        polygon(5, (1, 2, 3, 4, 5), [(0, 2), (1, 3)])  # crossing


def test_twist_label_order():
    # chord (0,2) keeps the first two labels and reverses the rest
    p = polygon(5, (1, 2, 3, 4, 5), [(0, 2)])
    t = twist(p, (0, 2))
    assert t.labels == (1, 2, 5, 4, 3)
    assert t.diags == ((0, 2),)


def test_twist_is_involution():
    p = polygon(6, (3, 1, 4, 2, 6, 5), [(1, 4), (1, 3)])
    assert twist(twist(p, (1, 4)), (1, 4)) == p
    assert twist(twist(p, (1, 3)), (1, 3)) == p


def test_twist_preserves_diagonal_count_and_class():
    p = polygon(5, (2, 4, 1, 5, 3), [(1, 3)])
    t = twist(p, (1, 3))
    assert len(t.diags) == len(p.diags)
    assert canonical_class(p) == canonical_class(t)


def test_repeated_diagonal_is_rejected():
    # canonical_class would take it for a 0-dimensional class and write it
    # into the shared n=5, k=2 index, growing the census to 16 vertices
    with pytest.raises(ValueError, match="repeated diagonal"):
        canonical_class(polygon(5, (1, 2, 3, 4, 5), [(0, 2), (0, 2)]))
    assert len(enumerate_cells(5, 2)) == 15


def test_twist_requires_diagonal():
    with pytest.raises(ValueError):
        twist(polygon(5, (1, 2, 3, 4, 5)), (0, 2))


def test_dihedral_images_share_class():
    base = polygon(5, (1, 2, 3, 4, 5))
    cls = canonical_class(base)
    assert cls.orbit_size == 10
    # every rotation of the label cycle lands in the same class
    labels = (1, 2, 3, 4, 5)
    for k in range(5):
        rotated = labels[k:] + labels[:k]
        assert canonical_class(polygon(5, rotated)) == cls
        assert canonical_class(polygon(5, rotated[::-1])) == cls


def test_canonical_representative_stable():
    p = polygon(5, (3, 5, 1, 2, 4), [(2, 4)])
    cls = canonical_class(p)
    assert canonical_class(cls.rep) == cls
    assert canonical_class(twist(p, (2, 4))) == cls


@pytest.mark.parametrize("n,k,count", [
    (5, 0, 12), (5, 1, 30), (5, 2, 15),
    (4, 0, 3), (4, 1, 3),
    (6, 0, 60),
])
def test_cell_counts(n, k, count):
    assert len(enumerate_cells(n, k)) == count


def test_top_cell_formula():
    for n in (4, 5, 6):
        assert len(enumerate_cells(n, 0)) == factorial(n - 1) // 2


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_cells(9, 0)
    with pytest.raises(ValueError):
        enumerate_cells(5, 3)


def test_enumerate_practical_bound():
    # the formula (n-1)!/2 keeps holding at the top of the supported range
    assert len(enumerate_cells(7, 0)) == factorial(6) // 2
    assert len(enumerate_cells(8, 0)) == factorial(7) // 2


def test_enumerate_deterministic():
    assert enumerate_cells(5, 1) == enumerate_cells(5, 1)


def test_degenerate_triangle():
    assert len(enumerate_cells(3, 0)) == 1


def test_refinements_of_pentagons():
    for cls in enumerate_cells(5, 0):
        refs = refinements(cls)
        assert len(refs) == 5
        assert all(r.dimension == cls.dimension - 1 for r in refs)


def test_refinements_of_pentagon_edges():
    for cls in enumerate_cells(5, 1):
        refs = refinements(cls)
        assert len(refs) == 2
        assert all(r.dimension == 0 for r in refs)


def test_refinements_n4_against_enumeration():
    # the 3 one-diagonal classes exist in total; each square class
    # refines to exactly 2 of them
    edge_classes = set(enumerate_cells(4, 1))
    assert len(edge_classes) == 3
    for cls in enumerate_cells(4, 0):
        refs = refinements(cls)
        assert len(refs) == 2
        assert set(refs) <= edge_classes


def test_refinements_rejects_points():
    with pytest.raises(ValueError):
        refinements(enumerate_cells(5, 2)[0])


def test_text_form():
    p = polygon(5, (1, 2, 3, 4, 5), [(0, 2)])
    assert p.to_text() == "n=5; labels=(1,2,3,4,5); diags={(0,2)}"
    assert polygon(5, (1, 2, 3, 4, 5)).to_text() == \
        "n=5; labels=(1,2,3,4,5); diags={}"


def test_side_order_is_noncrossing_cycle():
    from bringcover.cells import _chords_cross

    for t in range(5):
        a = PENTAGON_SIDE_ORDER[t]
        b = PENTAGON_SIDE_ORDER[(t + 1) % 5]
        assert not _chords_cross(a, b)
        assert len(set(a) & set(b)) == 1
    for t in range(5):
        a = PENTAGON_SIDE_ORDER[t]
        b = PENTAGON_SIDE_ORDER[(t + 2) % 5]
        assert _chords_cross(a, b)


@pytest.fixture(scope="module")
def cx():
    return build_complex5()


@pytest.fixture(scope="module")
def surf(cx):
    return surface_from_cells(cx)


class TestComplex5:
    def test_counts(self, cx):
        assert len(cx.faces) == 12
        assert len(cx.edges) == 30
        assert len(cx.vertices) == 15

    def test_face_edge_regularity(self, cx, surf):
        assert all(len(sides) == 5 for sides in cx.face_sides)
        assert all(len(uses) == 2 for uses in surf.edge_uses.values())
        assert sum(len(s) for s in cx.face_sides) == 60

    def test_edge_vertex_regularity(self, cx, surf):
        assert all(len(set(surf.side_endpoints(f, t))) == 2
                   for uses in surf.edge_uses.values() for f, t in uses)
        corner_count = {}
        for corners in cx.face_corners:
            for v in corners:
                corner_count[v] = corner_count.get(v, 0) + 1
        assert all(corner_count[v] == 4 for v in range(15))

    def test_edge_cofaces_are_removal_and_twist_partner(self, cx, surf):
        for e, uses in surf.edge_uses.items():
            rep = cx.edges[e].rep
            (chord,) = rep.diags
            smooth = canonical_class(polygon(5, rep.labels))
            twisted = canonical_class(
                polygon(5, twist(rep, chord).labels))
            expected = {smooth, twisted}
            got = {cx.faces[f] for f, _ in uses}
            assert got == expected

    def test_dimensions(self, cx):
        assert all(c.dimension == 2 for c in cx.faces)
        assert all(c.dimension == 1 for c in cx.edges)
        assert all(c.dimension == 0 for c in cx.vertices)


def test_enumerate_completes_a_partial_index():
    # a lookup walks one class only; enumeration must still find them all
    # (2520 is the count the raw orbit search gives)
    canonical_class(polygon(7, (1, 2, 3, 4, 5, 6, 7), [(0, 2)]))
    assert len(enumerate_cells(7, 1)) == 2520


# ---------------------------------------------------------- subset walk

@pytest.fixture
def fresh_index(monkeypatch):
    """An empty class index for every (n, k), dropped after the test."""
    monkeypatch.setattr(cellmod, "_index", lru_cache(maxsize=None)(
        lambda n, k: {}))


def test_walk_twists_each_subset_once(fresh_index, monkeypatch):
    # a class of k diagonals costs 2^k - 1 twists: 60, 270, 315 and 105
    # classes at n = 6 give 0 / 270 / 945 / 735 (a walk that twists every
    # form along every chord makes 0 / 540 / 2520 / 2520)
    calls = []
    apply_move = cellmod._apply_move

    def counted(*args):
        calls.append(args)
        return apply_move(*args)

    monkeypatch.setattr(cellmod, "_apply_move", counted)
    counts = []
    for k in range(4):
        calls.clear()
        enumerate_cells(6, k)
        counts.append(len(calls))
    assert counts == [0, 270, 945, 735]


@pytest.mark.parametrize("n", range(3, 8))
def test_orbits_are_free_and_split_the_keys(n):
    # each of the 2^k twist subsets gives its own normal form, and the
    # normal forms of all classes are every labeling with 1 on side 0 and
    # labels[1] < labels[-1], times every non-crossing chord set
    for k in range(n - 2):
        classes = enumerate_cells(n, k)
        assert all(c.orbit_size == 2 * n * 2**k for c in classes)
        chord_sets = [s for s in combinations(_chords(n), k)
                      if not any(_crossing(c, d)
                                 for c, d in combinations(s, 2))]
        assert sum(c.orbit_size // (2 * n) for c in classes) == \
            factorial(n - 1) // 2 * len(chord_sets)


def test_walk_rejects_a_subset_that_repeats_a_form(fresh_index, monkeypatch):
    # a twist that changes nothing gives every subset the same form
    monkeypatch.setattr(cellmod, "_apply_move",
                        lambda move, labels, chords: (labels, chords))
    form = ((1, 2, 3, 4, 5, 6), ((0, 2), (0, 4)))
    with pytest.raises(RuntimeError, match="twist subsets"):
        cellmod._class_of(6, form)
    assert cellmod._index(6, 2) == {}


def test_walk_validates_each_normal_form_once(fresh_index, monkeypatch):
    # one LabeledPolygon per normal form: 2^k per class of k diagonals
    built = []

    class Counted(LabeledPolygon):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(args)
            return LabeledPolygon(*args)

    monkeypatch.setattr(cellmod, "LabeledPolygon", Counted)
    counts = []
    for k in range(4):
        built.clear()
        enumerate_cells(6, k)
        counts.append(len(built))
        index = cellmod._index(6, k)
        assert sorted(built) == sorted((6, *key) for key in index)
    assert counts == [60, 540, 1260, 840]


# ---------------------------------------------------------- move table

def _normal_forms(n):
    """Every normal-form key of an n-gon: label 1 on side 0, labels[1] <
    labels[-1], and every non-crossing chord set, sorted."""
    for rest in permutations(range(2, n + 1)):
        if rest[0] < rest[-1]:
            for k in range(n - 2):
                for chords in cellmod._admissible_chord_sets(n, k):
                    yield (1,) + rest, chords


def _check_moves(n, labels, chords):
    moves = cellmod._moves(n)
    for chord in chords:
        assert cellmod._apply_move(moves[chord], labels, chords) == \
            cellmod._normal_form(*cellmod._twist_key(labels, chords, chord))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_moves_are_twist_then_normal_form(n):
    for labels, chords in _normal_forms(n):
        _check_moves(n, labels, chords)
        # the walk carries chords in its starting form's order
        _check_moves(n, labels, chords[::-1])


@st.composite
def normal_forms(draw):
    n = draw(st.integers(7, 8))
    rest = draw(st.permutations(range(2, n + 1)))
    if rest[0] > rest[-1]:
        rest = rest[::-1]
    k = draw(st.integers(0, n - 3))
    chords = draw(st.sampled_from(cellmod._admissible_chord_sets(n, k)))
    return n, (1,) + tuple(rest), draw(st.permutations(chords))


@settings(max_examples=200, deadline=None)
@given(normal_forms())
def test_moves_are_twist_then_normal_form_at_7_and_8(form):
    n, labels, chords = form
    _check_moves(n, labels, tuple(chords))


def test_refinements_normalise_a_hand_made_rep(fresh_index):
    # a rep reflected and rotated off its normal form refines to the
    # classes of its canonical class
    p = polygon(6, (4, 3, 2, 1, 6, 5), [(1, 4)])
    cls = canonical_class(p)
    assert cls.rep != p
    assert refinements(CellClass(rep=p, orbit_size=cls.orbit_size)) == \
        refinements(cls)


def reference_validate(n, labels, diags):
    """LabeledPolygon's checks, one after another, as first written."""
    if n < 3:
        raise ValueError("polygon needs at least 3 sides")
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError(f"labels must be a permutation of 1..{n}")
    if tuple(sorted(diags)) != diags:
        raise ValueError("diags must be stored sorted")
    if len(set(diags)) != len(diags):
        raise ValueError(f"repeated diagonal in {diags}")
    for c in diags:
        a, b = c
        if not (0 <= a < b < n and 2 <= b - a <= n - 2):
            raise ValueError(f"inadmissible chord {c} in an {n}-gon")
    for i, c1 in enumerate(diags):
        for c2 in diags[i + 1:]:
            if _crossing(c1, c2):
                raise ValueError(f"crossing chords {c1} and {c2}")


def _outcome(f, *args):
    try:
        f(*args)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return None


@st.composite
def polygon_inputs(draw):
    """(n, labels, diags), valid or not: mostly a permutation and
    admissible chords, else labels and corner pairs near the range."""
    n = draw(st.integers(2, 8))
    if draw(st.integers(0, 3)):
        labels = draw(st.permutations(range(1, n + 1)))
    else:
        labels = draw(st.lists(st.integers(0, n + 1),
                               min_size=n - 1, max_size=n + 1))
    corner = st.integers(-1, n)
    chord = st.tuples(corner, corner)
    if _chords(n) and draw(st.integers(0, 3)):
        chord = st.sampled_from(_chords(n))
    diags = draw(st.lists(chord, max_size=4, unique=draw(st.booleans())))
    if draw(st.integers(0, 3)):
        diags.sort()
    return n, tuple(labels), tuple(diags)


@settings(max_examples=400)
@given(polygon_inputs())
def test_polygon_checks_match_reference(args):
    assert _outcome(LabeledPolygon, *args) == \
        _outcome(reference_validate, *args)


@settings(max_examples=400)
@given(polygon_inputs())
def test_polygon_checks_repeat_through_the_caches(args):
    # the second call meets the cached success, or recomputes the failure
    first = _outcome(LabeledPolygon, *args)
    assert _outcome(LabeledPolygon, *args) == first == \
        _outcome(reference_validate, *args)


@pytest.mark.parametrize("args", [
    (5, [1, 2, 3, 4, 5], ()),            # would build an unhashable polygon
    (5, (1, 2, 3, 4, 5), ([0, 2],)),     # a list chord
    (5, (1, 2, 3, 4, 5), [(0, 2)]),
    (5, (1, 2, 3, 4, 5), ((0, 2, 4),)),
    (5.0, (1, 2, 3, 4, 5), ()),          # would share 5's cache entries
    (True, (1,), ()),
    (5, (1, 2, 3, 4, "5"), ()),
    (5, (1, 2, 3, 4, 5), ((0.5, 2.5),)),  # within range, but no corners
])
def test_polygon_rejects_bad_types(args):
    with pytest.raises(ValueError):
        LabeledPolygon(*args)


@pytest.mark.parametrize("n, k", [(6.0, 0), (5, 1.0), (5, True)])
def test_enumerate_rejects_non_int_arguments(n, k):
    with pytest.raises(ValueError, match="must be ints"):
        enumerate_cells(n, k)


@pytest.fixture
def counted_checks(monkeypatch):
    """Fresh caches around the two polygon checks, counting the inputs
    each one actually runs on."""
    runs = {"_check_labels": 0, "_check_chords": 0}
    for name in runs:
        check = getattr(cellmod, name).__wrapped__

        def counted(n, key, name=name, check=check):
            runs[name] += 1
            return check(n, key)

        monkeypatch.setattr(cellmod, name, lru_cache(maxsize=4096)(counted))
    return runs


def test_checks_run_once_per_distinct_tuple(fresh_index, counted_checks):
    # 2700 normal forms at n = 6 carry 60 label tuples and 45 chord sets
    for k in range(4):
        enumerate_cells(6, k)
    assert counted_checks == {"_check_labels": 60, "_check_chords": 45}


def test_failed_checks_are_not_cached(counted_checks):
    for _ in range(2):
        with pytest.raises(ValueError, match="crossing chords"):
            LabeledPolygon(5, (1, 2, 3, 4, 5), ((0, 2), (1, 3)))
    assert counted_checks == {"_check_labels": 1, "_check_chords": 2}


@pytest.mark.parametrize("first", [0, 1])
def test_equal_keys_make_the_same_int_polygon(counted_checks, first):
    # 2.0 equals 2 and shares its cache entry: the polygon holds ints
    # whichever key was checked first, so no float reaches a class rep
    keys = [((1.0, 2.0, 3.0, 4.0, 5.0), ((0.0, 2.0),)),
            ((1, 2, 3, 4, 5), ((0, 2),))]
    for labels, diags in keys[first:] + keys[:first]:
        p = LabeledPolygon(5, labels, diags)
        assert p.to_text() == "n=5; labels=(1,2,3,4,5); diags={(0,2)}"
    assert counted_checks == {"_check_labels": 1, "_check_chords": 1}


@pytest.mark.parametrize("n", range(3, 8))
def test_enumerate_dedupes_the_index_by_identity(fresh_index, n):
    for k in range(n - 2):
        first = enumerate_cells(n, k)
        assert first == sorted(set(cellmod._index(n, k).values()))
        assert enumerate_cells(n, k) == first


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_blockers_are_the_chord_and_the_chords_it_crosses(n):
    # two chords cross iff exactly one end of one lies strictly inside the
    # other's arc
    chords = [c for (c,) in cellmod._admissible_chord_sets(n, 1)]
    table = cellmod._blockers(n)
    assert list(table) == chords
    for a, b in chords:
        assert table[a, b] == {(c, d) for c, d in chords
                               if (c, d) == (a, b)
                               or (a < c < b) != (a < d < b)
                               and len({a, b, c, d}) == 4}
