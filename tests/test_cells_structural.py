"""Independent structural oracle for the n=5 cell classification.

A pentagon chord always cuts off exactly two adjacent sides, so a 1-cell
is determined by (the cut-off label pair, the label opposite the chord in
the quadrilateral part) and a 0-cell by (the label of the middle part,
the two cut-off pairs).  These descriptors are twist- and dihedral-
invariant by construction, so they classify cells without ever touching
the orbit machinery; here they are checked against it, incidences
included.
"""

import itertools

import pytest

from bringcover.cells import (
    PENTAGON_SIDE_ORDER,
    build_complex5,
    enumerate_cells,
    polygon,
)
from bringcover.cover import surface_from_cells

from oracles import twist


def short_block(chord):
    """The two side positions a pentagon chord cuts off."""
    a, b = chord
    if b - a == 2:
        return {a, a + 1}
    assert b - a == 3
    return {b % 5, (b + 1) % 5}


def middle_side(chord):
    """The quadrilateral side opposite the chord, i.e. the middle of the
    3-side arc taken cyclically (it may wrap past position 0)."""
    a, b = chord
    return a + 1 if b - a == 3 else (b + 1) % 5


def edge_descriptor(poly):
    """(cut-off label pair, middle label) of a one-chord pentagon."""
    (chord,) = poly.diags
    pair = frozenset(poly.labels[i] for i in short_block(chord))
    return pair, poly.labels[middle_side(chord)]


def vertex_descriptor(poly):
    """(middle label, both cut-off pairs) of a two-chord pentagon."""
    blocks = [short_block(c) for c in poly.diags]
    assert not blocks[0] & blocks[1]
    (mid_side,) = set(range(5)) - blocks[0] - blocks[1]
    pairs = frozenset(frozenset(poly.labels[i] for i in blk)
                      for blk in blocks)
    return poly.labels[mid_side], pairs


def test_edge_descriptor_opposite_side():
    # chord (0,2) cuts off sides 0,1; the quadrilateral reads
    # chord, side 2, side 3, side 4, so side 3 faces the chord
    p =polygon(5, (1, 2, 3, 4, 5), [(0, 2)])
    assert edge_descriptor(p) == (frozenset({1, 2}), 4)
    q = polygon(5, (1, 2, 3, 4, 5), [(0, 3)])
    assert edge_descriptor(q) == (frozenset({4, 5}), 2)


def test_edge_classes_match_structural_count():
    seen = {}
    for cls in enumerate_cells(5, 1):
        desc = edge_descriptor(cls.rep)
        assert desc not in seen, "two classes share a descriptor"
        seen[desc] = cls
    expected = {(frozenset(pair), mid)
                for pair in itertools.combinations(range(1, 6), 2)
                for mid in range(1, 6) if mid not in pair}
    assert set(seen) == expected
    assert len(expected) == 30


def test_vertex_classes_match_structural_count():
    seen = {}
    for cls in enumerate_cells(5, 2):
        desc = vertex_descriptor(cls.rep)
        assert desc not in seen
        seen[desc] = cls
    expected = set()
    for mid in range(1, 6):
        rest = [x for x in range(1, 6) if x != mid]
        for pair in itertools.combinations(rest, 2):
            other = frozenset(x for x in rest if x not in pair)
            expected.add((mid, frozenset({frozenset(pair), other})))
    assert set(seen) == expected
    assert len(expected) == 15


def test_descriptor_twist_invariance():
    p = polygon(5, (2, 5, 1, 3, 4), [(1, 3)])
    assert edge_descriptor(twist(p, (1, 3))) == edge_descriptor(p)
    q = polygon(5, (2, 5, 1, 3, 4), [(1, 3), (3, 0)])
    for chord in q.diags:
        assert vertex_descriptor(twist(q, chord)) == vertex_descriptor(q)


@pytest.fixture(scope="module")
def cx():
    return build_complex5()


def test_complex_incidences_against_descriptors(cx):
    """Sides and corners of every face must carry exactly the cells the
    structural model predicts from the face labels alone."""
    edge_desc = {e: edge_descriptor(cls.rep) for e, cls in enumerate(cx.edges)}
    vert_desc = {v: vertex_descriptor(cls.rep)
                 for v, cls in enumerate(cx.vertices)}
    for f, cls in enumerate(cx.faces):
        labels = cls.rep.labels
        for t in range(5):
            chord = PENTAGON_SIDE_ORDER[t]
            block = short_block(chord)
            pair = frozenset(labels[i] for i in block)
            want_edge = (pair, labels[middle_side(chord)])
            assert edge_desc[cx.face_sides[f][t]] == want_edge

            next_chord = PENTAGON_SIDE_ORDER[(t + 1) % 5]
            blocks = (block, short_block(next_chord))
            (mid_side,) = set(range(5)) - blocks[0] - blocks[1]
            want_vertex = (labels[mid_side],
                           frozenset(frozenset(labels[i] for i in blk)
                                     for blk in blocks))
            assert vert_desc[cx.face_corners[f][t]] == want_vertex


def test_edge_endpoints_against_descriptors(cx):
    """An edge with pair {i,j} and middle y, with {x,z} the other two
    labels, ends at the vertices (z; {ij},{xy}) and (x; {ij},{yz})."""
    surf = surface_from_cells(cx)
    vert_desc = {v: vertex_descriptor(cls.rep)
                 for v, cls in enumerate(cx.vertices)}
    for e, cls in enumerate(cx.edges):
        pair, y = edge_descriptor(cls.rep)
        x, z = sorted(set(range(1, 6)) - pair - {y})
        expected = {
            (z, frozenset({frozenset(pair), frozenset({x, y})})),
            (x, frozenset({frozenset(pair), frozenset({y, z})})),
        }
        got = {vert_desc[v]
               for v in surf.side_endpoints(*surf.edge_uses[e][0])}
        assert got == expected
