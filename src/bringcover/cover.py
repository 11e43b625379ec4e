"""Closed surfaces from glued polygons, orientation double covers, and the
dessin of the covering cell decomposition.

A :class:`SurfaceComplex` is a list of polygonal faces with a cyclic side
order, every edge used by exactly two face-sides, and a vertex class at
every corner.  The model assumes the two endpoint classes of each edge
are distinct, which holds for the moduli complex and makes the endpoint
correspondence across a gluing unambiguous.

Conventions.  In face f, side t runs from corner t-1 to corner t (mod m)
in the reference direction.  An oriented face (f, +1) walks its boundary
in the reference direction, (f, -1) walks it backwards.  Rotating around
a vertex means: take the side leaving the current corner, cross its
gluing, and land on the corner where the partner face-side arrives.

One labeling of the oriented faces 2f + [o == -1] answers the global
questions: its labels are the cover's components.  A base component lifts
to one of them if non-orientable, to two if orientable, so the base is
connected iff there is 1 label, or 2 that keep face 0's orientations apart
(two disjoint non-orientable pieces also give 2, sharing face 0's).  It is
then orientable iff face 0's orientations carry different labels.

Each corner (f, o, c) of cover vertex v gives the dart (cover edge leaving
it, v).  A cover edge leaves one corner at each of its ends, so there are
2 * n_edges corners; if their keys are pairwise distinct, every cover edge
has two distinct ends and no vertex meets a dart twice.
"""

from __future__ import annotations

from collections import namedtuple

from .cells import CellComplexData
from .dessins import Dessin


class SurfaceComplex(namedtuple(
        "SurfaceComplex", "n_vertices face_edges face_corners edge_uses")):
    """``face_edges``: per face, the cyclic tuple of its edge ids;
    ``face_corners``: per face, the vertex id of corner t (between sides t
    and t+1); ``edge_uses``: edge id -> its two uses ((f, t), (f, t))."""

    __slots__ = ()

    @property
    def n_faces(self) -> int:
        return len(self.face_edges)

    @property
    def n_edges(self) -> int:
        return len(self.edge_uses)

    def side_endpoints(self, f: int, t: int) -> tuple:
        """(start, end) vertex ids of side t of face f, reference direction."""
        m = len(self.face_edges[f])
        return (self.face_corners[f][(t - 1) % m], self.face_corners[f][t])


def make_surface(face_edges, face_corners) -> SurfaceComplex:
    """The surface of the faces' edge ids and corner vertex ids; its
    vertices are the corner ids, which must be exactly 0..V-1."""
    ids = {v for cs in face_corners for v in cs}
    if ids != set(range(len(ids))):
        raise ValueError("corner vertex ids are not exactly "
                         f"0..{len(ids) - 1}")
    edge_uses = {}
    for f, edges in enumerate(face_edges):
        if len(edges) != len(face_corners[f]) or len(edges) < 3:
            raise ValueError(f"face {f} is not a valid polygon")
        for t, e in enumerate(edges):
            edge_uses.setdefault(e, []).append((f, t))
    surf = SurfaceComplex(
        n_vertices=len(ids),
        face_edges=tuple(tuple(edges) for edges in face_edges),
        face_corners=tuple(tuple(cs) for cs in face_corners),
        edge_uses={e: tuple(u) for e, u in edge_uses.items()},
    )
    for e, uses in surf.edge_uses.items():
        if len(uses) != 2:
            raise ValueError(f"edge {e} has {len(uses)} face-sides, needs 2")
        ends = [frozenset(surf.side_endpoints(f, t)) for f, t in uses]
        if len(ends[0]) != 2 or ends[0] != ends[1]:
            raise ValueError(f"edge {e} endpoint classes inconsistent")
    return surf


def surface_from_cells(data: CellComplexData) -> SurfaceComplex:
    return make_surface(data.face_sides, data.face_corners)


def euler_characteristic(s: SurfaceComplex) -> int:
    return s.n_vertices - s.n_edges + s.n_faces


def _gluing_sign(s: SurfaceComplex, e: int) -> int:
    """-1 when the two reference walks traverse edge e in the same
    direction (so coherent orientations must differ), +1 otherwise."""
    (f1, t1), (f2, t2) = s.edge_uses[e]
    d1 = 1 if s.side_endpoints(f1, t1)[0] < s.side_endpoints(f1, t1)[1] else -1
    d2 = 1 if s.side_endpoints(f2, t2)[0] < s.side_endpoints(f2, t2)[1] else -1
    return -d1 * d2


def _oface(f: int, o: int) -> int:
    return 2 * f + (0 if o == 1 else 1)


def _face_labels(s: SurfaceComplex) -> list:
    """Label of each oriented face 2f + [o == -1]: two oriented faces share
    a label iff coherent gluings connect them, i.e. iff they lie in one
    component of the orientation cover."""
    parent = list(range(2 * s.n_faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, ((f1, _), (f2, _)) in s.edge_uses.items():
        sign = _gluing_sign(s, e)
        for o1 in (1, -1):
            a, b = find(_oface(f1, o1)), find(_oface(f2, o1 * sign))
            if a != b:
                parent[a] = b
    return [find(x) for x in range(2 * s.n_faces)]


def is_orientable(s: SurfaceComplex) -> bool:
    """Orientable iff the two orientations of face 0 are not connected by
    coherent gluings."""
    label = _face_labels(s)
    comps = len(set(label))
    if not (comps == 1 or comps == 2 and label[0] != label[1]):
        raise ValueError("orientability needs a connected complex")
    return label[0] != label[1]


class OrientedCover(namedtuple(
        "OrientedCover", "base components vertex_corners")):
    """The orientation double cover of the surface complex ``base``.

    Oriented face 2f + [o == -1] is face f with orientation o; cover edge
    2e + [o1 == -1] is the lift of edge e whose first base use (f1, t1)
    carries orientation o1.  ``vertex_corners`` lists, per cover vertex,
    the rotation cycle of (oriented face, corner) pairs produced by the
    corner walk.
    """

    __slots__ = ()

    @property
    def n_faces(self) -> int:
        return 2 * self.base.n_faces

    @property
    def n_edges(self) -> int:
        return 2 * self.base.n_edges

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_corners)

    @property
    def is_connected(self) -> bool:
        return self.components == 1

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def genus(self) -> int:
        if not self.is_connected:
            raise ValueError("genus of a disconnected cover is ambiguous")
        chi = self.euler_characteristic()
        if chi % 2:
            raise RuntimeError(f"odd Euler characteristic {chi}")
        return (2 - chi) // 2

    def summary(self) -> dict:
        return {
            "faces": self.n_faces,
            "edges": self.n_edges,
            "vertices": self.n_vertices,
            "components": self.components,
            "orientable": True,
            "genus": self.genus() if self.is_connected else None,
        }


def _out_edge(s: SurfaceComplex, f: int, o: int, c: int) -> int:
    """Cover edge leaving corner c of oriented face (f, o)."""
    t = (c + 1) % len(s.face_edges[f]) if o == 1 else c
    e = s.face_edges[f][t]
    o1 = o if (f, t) == s.edge_uses[e][0] else o * _gluing_sign(s, e)
    return 2 * e + (0 if o1 == 1 else 1)


def _corner_step(s: SurfaceComplex, f: int, o: int, c: int):
    """One rotation step around the vertex under corner (f, o, c)."""
    m = len(s.face_edges[f])
    t_out = (c + 1) % m if o == 1 else c
    e = s.face_edges[f][t_out]
    uses = s.edge_uses[e]
    k = 0 if (f, t_out) == uses[0] else 1
    f2, t2 = uses[1 - k]
    o2 = o * _gluing_sign(s, e)
    # arrival corner of side t2 in (f2, o2)
    c2 = t2 if o2 == 1 else (t2 - 1) % len(s.face_edges[f2])
    here = s.face_corners[f][c]
    there = s.face_corners[f2][c2]
    if here != there:
        raise RuntimeError("gluing endpoint correspondence broken")
    return f2, o2, c2


def orientation_cover(s: SurfaceComplex) -> OrientedCover:
    """Double every face with both orientations and reglue coherently.

    Connected iff the base is non-orientable; an orientable base yields
    the two disjoint oriented copies.
    """
    # cover vertices by corner walking
    seen = set()
    vertex_corners = []
    for f in range(s.n_faces):
        for o in (1, -1):
            for c in range(len(s.face_edges[f])):
                if (f, o, c) in seen:
                    continue
                cyc = []
                cur = (f, o, c)
                while cur not in seen:
                    seen.add(cur)
                    cyc.append(cur)
                    cur = _corner_step(s, *cur)
                if cur != cyc[0]:
                    raise RuntimeError("corner walk did not close up")
                vertex_corners.append(tuple(cyc))
    return OrientedCover(base=s, components=len(set(_face_labels(s))),
                         vertex_corners=tuple(vertex_corners))


def cover_to_dessin(cov: OrientedCover, orientation: int = 1) -> Dessin:
    """Clean dessin of the cover's cell decomposition: black vertices are
    cover vertices, white vertices sit in the middles of cover edges.

    ``orientation=-1`` flips the global orientation and yields exactly the
    mirror dessin on the same darts.
    """
    if not cov.is_connected:
        raise ValueError("the cover is disconnected; no single dessin")
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be 1 or -1, not {orientation!r}")
    s = cov.base

    # darts: (cover edge leaving the corner, cover vertex), one per corner
    # of each rotation, numbered in sorted order
    rotations = [[(_out_edge(s, f, o, c), v) for f, o, c in cyc]
                 for v, cyc in enumerate(cov.vertex_corners)]
    keys = [key for rot in rotations for key in rot]
    dart_id = {key: i for i, key in enumerate(sorted(set(keys)))}
    n = len(dart_id)
    if not n == len(keys) == 2 * cov.n_edges:
        raise RuntimeError(f"{len(keys)} corners give {n} distinct darts; "
                           f"the cover needs {2 * cov.n_edges}")

    sigma1 = [0] * n
    by_edge = {}
    for (ce, v), i in dart_id.items():
        by_edge.setdefault(ce, []).append(i)
    for ce, pair in by_edge.items():
        if len(pair) != 2:
            raise RuntimeError(f"cover edge {ce} has {len(pair)} darts")
        sigma1[pair[0]] = pair[1]
        sigma1[pair[1]] = pair[0]

    sigma0 = [0] * n
    for rot in rotations:
        ids = [dart_id[key] for key in rot]
        if orientation == -1:
            ids.reverse()
        for i, d in enumerate(ids):
            sigma0[d] = ids[(i + 1) % len(ids)]

    return Dessin(sigma0, sigma1)
