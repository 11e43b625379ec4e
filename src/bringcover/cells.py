"""Cells of the compactified moduli space of n marked real points on a line.

A cell is an equivalence class of a labeled n-gon carrying pairwise
non-crossing diagonals: sides are labeled 1..n, a diagonal joins two
non-adjacent corners, and two polygons mark the same cell when related by
the dihedral group together with twists (cut along a diagonal, flip one
part, reglue).  A polygon with k diagonals marks a cell of dimension
n - 3 - k.

Positions are 0-based: side i runs between corners i and i+1 (mod n) and
carries ``labels[i]``; a diagonal is a corner pair (a, b) with a < b.

Labels are distinct, so the dihedral orbit of a (labels, diags) key has
exactly 2n keys, and exactly two of them put label 1 on side 0; the
smaller of those two is the key's dihedral normal form.  A class is held
as the normal forms of the twist images of one polygon, so ``orbit_size``
is 2n times the number of its normal forms.

Twists along two distinct diagonals commute up to a dihedral move, and a
twist done twice is a dihedral move, so every twist image of a polygon
with k diagonals is, up to the dihedral group, its image under one subset
of them: a class is walked as the 2^k subsets of one normal form's
diagonals, by 2^k - 1 twists.  Each diagonal keeps its place in the
chord list through twists and normalisation, so "the diagonals with
index above max(S)" means the same chords in every image.

The walk twists normal forms only, and on a normal form "twist along a
chord, then normalise" moves labels and chords by maps that depend on
(n, chord) and on one comparison: which of the two labels the twist puts
beside label 1 is smaller.  ``_moves(n)`` tabulates both maps for every
chord, once per n, by running the twist and the normal form on labels
that name their positions, so the geometry is defined once, in
``_twist_key`` and ``_normal_form``.

One index per (n, k) maps each normal form found so far to its class:
``canonical_class`` normalises and looks up, walking the class on a
miss, and ``enumerate_cells`` fills the index with every class.  Each
class is one object shared by all its normal forms, so enumeration
dedupes the index's values by identity.

A walk validates every normal form it reaches as a LabeledPolygon, whose
checks run once per distinct label tuple and once per distinct chord
tuple: n = 6 has 2700 normal forms but only 60 label and 45 chord
tuples.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import itemgetter


def _chords_cross(c1, c2) -> bool:
    a, b = c1
    c, d = c2
    return (a < c < b < d) or (c < a < d < b)


@lru_cache(maxsize=4096)
def _check_labels(n: int, labels: tuple) -> tuple:
    """``labels``, checked to be a permutation of 1..n (else ValueError),
    as ints.  Only a success is cached, and every key equal to it, with
    2.0 for 2 say, gets the same ints back."""
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError(f"labels must be a permutation of 1..{n}")
    return tuple(map(int, labels))


@lru_cache(maxsize=4096)
def _check_chords(n: int, diags: tuple) -> tuple:
    """``diags``, checked to be sorted, distinct, admissible and pairwise
    non-crossing (a, b) chords of an n-gon (else ValueError), as int
    pairs; cached as in :func:`_check_labels`."""
    for c in diags:
        if not (isinstance(c, tuple) and len(c) == 2):
            raise ValueError(f"diagonal {c!r} is not an (a, b) pair")
    if tuple(sorted(diags)) != diags:
        raise ValueError("diags must be stored sorted")
    # a repeated chord would count twice against the dimension
    if len(set(diags)) != len(diags):
        raise ValueError(f"repeated diagonal in {diags}")
    for c in diags:
        a, b = c
        if not (0 <= a < b < n and 2 <= b - a <= n - 2) or \
                a != int(a) or b != int(b):
            raise ValueError(f"inadmissible chord {c} in an {n}-gon")
    # sorted and distinct, (a, b) < (c, d): they cross iff a < c < b < d
    for i, c1 in enumerate(diags):
        a, b = c1
        for c2 in diags[i + 1:]:
            c, d = c2
            if a < c < b < d:
                raise ValueError(f"crossing chords {c1} and {c2}")
    return tuple([(int(a), int(b)) for a, b in diags])


class LabeledPolygon(namedtuple("LabeledPolygon", "n labels diags")):
    """An n-gon with side labels and sorted non-crossing diagonals
    ``diags``, a tuple of (a, b) corner pairs with a < b.  Compared,
    ordered and hashed as the tuple (n, labels, diags).

    The labels and the chords are checked once per distinct (n, labels)
    and (n, diags), by two bounded caches, and stored as the ints the
    caches give back, whichever equal key came first.  Types are checked
    before them: 5.0 equals 5 and would share its entries, and a list
    cannot key a cache, nor make a polygon that hashes."""

    __slots__ = ()

    def __new__(cls, n: int, labels: tuple, diags: tuple):
        if type(n) is not int:  # also turns away a bool
            raise ValueError(f"polygon size must be an int, got {n!r}")
        if n < 3:
            raise ValueError("polygon needs at least 3 sides")
        if type(labels) is not tuple:
            raise ValueError(f"labels must be a tuple, got {labels!r}")
        try:
            labels = _check_labels(n, labels)
        except TypeError:  # a label that cannot be hashed or ordered
            raise ValueError(
                f"labels must be a permutation of 1..{n}") from None
        if type(diags) is not tuple:
            raise ValueError(f"diags must be a tuple, got {diags!r}")
        try:
            diags = _check_chords(n, diags)
        except TypeError:  # a chord that cannot be hashed or ordered
            raise ValueError("diags must hold (a, b) corner pairs, "
                             f"got {diags!r}") from None
        return tuple.__new__(cls, (n, labels, diags))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, behind _replace, would skip __new__
        return cls(*iterable)

    def to_text(self) -> str:
        labels = ",".join(map(str, self.labels))
        diags = ", ".join(f"({a},{b})" for a, b in self.diags)
        return f"n={self.n}; labels=({labels}); diags={{{diags}}}"


def polygon(n: int, labels, diags=()) -> LabeledPolygon:
    return LabeledPolygon(n, tuple(labels),
                          tuple(sorted(tuple(sorted(c)) for c in diags)))


def _twist_key(labels: tuple, diags, chord) -> tuple:
    """The twist of a bare (labels, diags) key along a chord (a, b) with
    a < b: cut along the chord, flip one part, reglue.  The chords of the
    result come back as corner pairs in the order of ``diags``, unsorted.

    The sides a..b-1 stay; the others, read from b round to a-1, reverse.
    A chord with no end strictly between a and b rides in the flipped
    part, where corner c goes to a + b - c."""
    n = len(labels)
    a, b = chord
    flipped = (labels[b:] + labels[:a])[::-1]
    s = a + b
    moved = [(c, d) if a < c < b or a < d < b else ((s - c) % n, (s - d) % n)
             for c, d in diags]
    return flipped[n - b:] + labels[a:b] + flipped[:n - b], moved


def _normal_form(labels, chords) -> tuple:
    """The dihedral normal form of a (labels, chords) key: of the two
    dihedral images that put label 1 on side 0, the smaller one.  The
    chords come back as (a, b) pairs with a < b in the order given, so a
    chord keeps its place through twists and normalisation; sorted, they
    give the index key."""
    labels = tuple(labels)
    n = len(labels)
    j = labels.index(1)
    labels = labels[j:] + labels[:j]
    if labels[1] < labels[-1]:
        moved = [((a - j) % n, (b - j) % n) for a, b in chords]
    else:
        # read the sides backwards from label 1: corner c -> j + 1 - c
        labels = (1,) + labels[:0:-1]
        moved = [((j + 1 - a) % n, (j + 1 - b) % n) for a, b in chords]
    return labels, tuple([(a, b) if a < b else (b, a) for a, b in moved])


class CellClass(namedtuple("CellClass", "rep orbit_size")):
    """A cell, held by its canonical representative ``rep``: the
    lexicographic minimum of (labels, diags) over the whole orbit.

    The minimum puts label 1 on side 0, so it is the least of the class's
    dihedral normal forms; each normal form stands for 2n keys, so
    ``orbit_size`` is 2n times their number.
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return self.rep.n - 3 - len(self.rep.diags)

    def to_text(self) -> str:
        return self.rep.to_text()


@lru_cache(maxsize=None)
def _moves(n: int) -> dict:
    """chord -> (u, v, less, more): the move "twist along the chord, then
    take the dihedral normal form" on a normal form of an n-gon.

    The twist puts the labels of sides u and v next to label 1, after and
    before it; ``less`` is the move when labels[u] < labels[v], ``more``
    the other one.  Each is (take, chord_map): take(labels) gives the
    image's labels, an itemgetter of the positions the image's sides take
    their labels from, and a chord c that does not cross the twisted one
    goes to chord_map[c]."""
    chords = [c for (c,) in _admissible_chord_sets(n, 1)]
    moves = {}
    for chord in chords:
        keep = [c for c in chords if not _chords_cross(c, chord)]
        # label p + 1 names position p
        twisted = _twist_key(tuple(range(1, n + 1)), (), chord)[0]
        j = twisted.index(1)
        u, v = twisted[(j + 1) % n] - 1, twisted[j - 1] - 1
        entries = []
        for x, y in ((u, v), (v, u)):
            labels = list(range(1, n + 1))
            labels[x], labels[y] = sorted((x + 1, y + 1))
            image, moved = _normal_form(*_twist_key(tuple(labels), keep,
                                                    chord))
            entries.append((itemgetter(*map(labels.index, image)),
                            dict(zip(keep, moved))))
        moves[chord] = (u, v, *entries)
    return moves


def _apply_move(move, labels: tuple, chords: tuple) -> tuple:
    """The normal form of a twist of the normal form (labels, chords), by
    the entry of ``_moves`` for the twisted chord; the chords keep their
    order."""
    u, v, less, more = move
    take, chord_map = less if labels[u] < labels[v] else more
    return take(labels), tuple(map(chord_map.__getitem__, chords))


@lru_cache(maxsize=None)
def _index(n: int, k: int) -> dict:
    """Normal form -> CellClass, for the classes of n-gons with k
    diagonals found so far."""
    return {}


def _class_of(n: int, form) -> CellClass:
    """The class of a normal form, from the index or else by a walk."""
    index = _index(n, len(form[1]))
    cls = index.get(form)
    return _walk(n, form, index) if cls is None else cls


def _walk(n: int, form, index: dict) -> CellClass:
    """The class of a normal form that ``index`` lacks, by a walk over the
    subsets of its k chords; its normal forms go into ``index``.

    Twists along distinct chords commute up to a dihedral move, and a
    twist done twice is a dihedral move, so the normal forms of the class
    are the images of the 2^k subsets of ``form``'s chords.  The walk
    carries each image's chords in the order of ``form``'s, and reaches
    the image of a subset S (a bit mask) from that of S less its highest
    chord i, by one move of ``_moves(n)`` along chord i: 2^k - 1 twists in
    all.  A subset whose image was already reached raises RuntimeError,
    since the argument above then fails.  Each normal form is validated
    once, as a LabeledPolygon."""
    polygons = {form: LabeledPolygon(n, *form)}  # normal form -> polygon
    moves = _moves(n)
    images = [form]  # images[S]: (labels, chords in form's order)
    for mask in range(1, 1 << len(form[1])):
        i = mask.bit_length() - 1
        labels, chords = images[mask ^ (1 << i)]
        image = _apply_move(moves[chords[i]], labels, chords)
        key = (image[0], tuple(sorted(image[1])))
        if key in polygons:
            raise RuntimeError(f"two twist subsets of {form} give {key}")
        polygons[key] = LabeledPolygon(n, *key)
        images.append(image)
    cls = CellClass(rep=min(polygons.values()),
                    orbit_size=2 * n * len(polygons))
    index.update(dict.fromkeys(polygons, cls))
    return cls


def canonical_class(p: LabeledPolygon) -> CellClass:
    labels, chords = _normal_form(p.labels, p.diags)
    return _class_of(p.n, (labels, tuple(sorted(chords))))


@lru_cache(maxsize=None)
def _admissible_chord_sets(n: int, k: int) -> tuple:
    """All size-k sets of pairwise non-crossing admissible chords."""
    chords = [(a, b) for a in range(n) for b in range(a + 2, n)
              if b - a <= n - 2]
    out = []

    def backtrack(start, acc):
        if len(acc) == k:
            out.append(tuple(acc))
            return
        for i in range(start, len(chords)):
            c = chords[i]
            if all(not _chords_cross(c, d) for d in acc):
                acc.append(c)
                backtrack(i + 1, acc)
                acc.pop()

    backtrack(0, [])
    return tuple(out)


def _all_labelings(n: int):
    """Labelings with label 1 fixed on side 0 (a rotation section: every
    class has such a representative)."""
    from itertools import permutations

    for rest in permutations(range(2, n + 1)):
        yield (1,) + rest


def enumerate_cells(n: int, k: int) -> list:
    """All distinct cell classes of the n-point space with k diagonals,
    sorted by canonical representative."""
    # 6.0 would key the index apart from 6, and True would pass for 1
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"n and k must be ints, got {n!r} and {k!r}")
    if not 3 <= n <= 8:
        raise ValueError("n out of the supported range 3..8")
    if not 0 <= k <= n - 3:
        raise ValueError(f"diagonal count {k} out of range 0..{n - 3}")
    index = _index(n, k)
    for labels in _all_labelings(n):
        if labels[1] < labels[-1]:  # the normal-form placement
            for diags in _admissible_chord_sets(n, k):
                if (labels, diags) not in index:
                    _walk(n, (labels, diags), index)
    # each class is one object shared by its normal forms
    return sorted({id(cls): cls for cls in index.values()}.values())


def refinements(c: CellClass) -> list:
    """Classes obtained by adding one admissible diagonal, deduplicated."""
    if c.dimension < 1:
        raise ValueError("cannot refine a 0-dimensional cell")
    # the canonical rep is a normal form (c.rep itself, for a class this
    # module built), and a chord added to a normal form leaves one, which
    # the index holds or the walk validates
    n, labels, diags = canonical_class(c.rep).rep
    found = {}  # by identity, as enumerate_cells dedupes
    for new, blocked in _blockers(n).items():
        if not blocked.isdisjoint(diags):
            continue
        cls = _class_of(n, (labels, tuple(sorted(diags + (new,)))))
        found[id(cls)] = cls
    return sorted(found.values())


@lru_cache(maxsize=None)
def _blockers(n: int) -> dict:
    """Admissible chord -> the chords that keep it out of a refinement:
    itself and every chord it crosses, in the order of
    ``_admissible_chord_sets(n, 1)``."""
    chords = [c for (c,) in _admissible_chord_sets(n, 1)]
    return {c: frozenset(d for d in chords if d == c or _chords_cross(c, d))
            for c in chords}


# The boundary 5-cycle of a pentagon cell: the five diagonals listed so
# that consecutive ones share a corner (and so do not cross).  This is
# the cyclic side order of every 2-cell of the n=5 complex.
PENTAGON_SIDE_ORDER = ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3))


class CellComplexData(namedtuple(
        "CellComplexData",
        "faces edges vertices face_sides face_corners")):
    """Incidence structure of the n=5 cell complex.

    ``faces``, ``edges`` and ``vertices`` are the CellClass tuples of
    dimension 2, 1 and 0.  ``face_sides[f][t]`` is the edge class id of
    side t of face f; ``face_corners[f][t]`` the vertex class id of the
    corner between sides t and t+1 (mod 5).  Side t therefore runs from
    corner t-1 to corner t in the face's reference direction.
    """

    __slots__ = ()


def build_complex5() -> CellComplexData:
    faces = enumerate_cells(5, 0)
    edges = enumerate_cells(5, 1)
    vertices = enumerate_cells(5, 2)
    counts = (len(faces), len(edges), len(vertices))
    if counts != (12, 30, 15):
        raise RuntimeError(f"n=5 cell counts {counts}, expected (12, 30, 15)")
    edge_id = {c: i for i, c in enumerate(edges)}
    vert_id = {c: i for i, c in enumerate(vertices)}

    face_sides = []
    face_corners = []
    for f, cls in enumerate(faces):
        p = cls.rep
        sides = []
        corners = []
        for t in range(5):
            d_here = PENTAGON_SIDE_ORDER[t]
            d_next = PENTAGON_SIDE_ORDER[(t + 1) % 5]
            e = edge_id[canonical_class(polygon(5, p.labels, (d_here,)))]
            v = vert_id[canonical_class(
                polygon(5, p.labels, (d_here, d_next)))]
            sides.append(e)
            corners.append(v)
        if len(set(sides)) != 5:
            raise RuntimeError(f"face {f} repeats a side class")
        face_sides.append(tuple(sides))
        face_corners.append(tuple(corners))

    corner_count = {}
    for corners in face_corners:
        for v in corners:
            corner_count[v] = corner_count.get(v, 0) + 1
    if any(corner_count.get(v) != 4 for v in range(15)):
        raise RuntimeError("a vertex class is not a corner of 4 faces")

    return CellComplexData(
        faces=tuple(faces),
        edges=tuple(edges),
        vertices=tuple(vertices),
        face_sides=tuple(face_sides),
        face_corners=tuple(face_corners),
    )
