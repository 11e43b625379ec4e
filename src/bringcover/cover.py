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


def make_surface(face_edges, face_corners, n_vertices: int) -> SurfaceComplex:
    edge_uses = {}
    for f, edges in enumerate(face_edges):
        if len(edges) != len(face_corners[f]) or len(edges) < 3:
            raise ValueError(f"face {f} is not a valid polygon")
        for t, e in enumerate(edges):
            edge_uses.setdefault(e, []).append((f, t))
    surf = SurfaceComplex(
        n_vertices=n_vertices,
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
    return make_surface(data.face_sides, data.face_corners,
                        n_vertices=len(data.vertices))


def euler_characteristic(s: SurfaceComplex) -> int:
    return s.n_vertices - s.n_edges + s.n_faces


def _gluing_sign(s: SurfaceComplex, e: int) -> int:
    """-1 when the two reference walks traverse edge e in the same
    direction (so coherent orientations must differ), +1 otherwise."""
    (f1, t1), (f2, t2) = s.edge_uses[e]
    d1 = 1 if s.side_endpoints(f1, t1)[0] < s.side_endpoints(f1, t1)[1] else -1
    d2 = 1 if s.side_endpoints(f2, t2)[0] < s.side_endpoints(f2, t2)[1] else -1
    return -d1 * d2


def _face_components(s: SurfaceComplex) -> int:
    seen = [False] * s.n_faces
    comps = 0
    for start in range(s.n_faces):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            f = stack.pop()
            for e in s.face_edges[f]:
                for g, _ in s.edge_uses[e]:
                    if not seen[g]:
                        seen[g] = True
                        stack.append(g)
    return comps


def is_orientable(s: SurfaceComplex) -> bool:
    """Propagate face orientations across gluings; orientable iff no
    contradiction arises."""
    if _face_components(s) != 1:
        raise ValueError("orientability needs a connected complex")
    orient = [0] * s.n_faces
    orient[0] = 1
    stack = [0]
    while stack:
        f = stack.pop()
        for e in s.face_edges[f]:
            sign = _gluing_sign(s, e)
            (f1, _), (f2, _) = s.edge_uses[e]
            g = f2 if f == f1 else f1
            want = orient[f] * sign
            if orient[g] == 0:
                orient[g] = want
                stack.append(g)
            elif orient[g] != want:
                return False
    return True


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


def _oface(f: int, o: int) -> int:
    return 2 * f + (0 if o == 1 else 1)


def _cover_edge_id(s: SurfaceComplex, f: int, t: int, o: int) -> int:
    """Cover edge containing side t of oriented face (f, o)."""
    e = s.face_edges[f][t]
    uses = s.edge_uses[e]
    if (f, t) == uses[0]:
        o1 = o
    else:
        o1 = o * _gluing_sign(s, e)
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
    # components of the oriented face graph
    parent = list(range(2 * s.n_faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in s.edge_uses:
        sign = _gluing_sign(s, e)
        (f1, _), (f2, _) = s.edge_uses[e]
        for o1 in (1, -1):
            a, b = find(_oface(f1, o1)), find(_oface(f2, o1 * sign))
            if a != b:
                parent[a] = b
    components = len({find(x) for x in range(2 * s.n_faces)})

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
    return OrientedCover(base=s, components=components,
                         vertex_corners=tuple(vertex_corners))


def cover_to_dessin(cov: OrientedCover, orientation: int = 1) -> Dessin:
    """Clean dessin of the cover's cell decomposition: black vertices are
    cover vertices, white vertices sit in the middles of cover edges.

    ``orientation=-1`` flips the global orientation and yields exactly the
    mirror dessin on the same darts.
    """
    if not cov.is_connected:
        raise ValueError("the cover is disconnected; no single dessin")
    s = cov.base

    vertex_of = {}
    for v, cyc in enumerate(cov.vertex_corners):
        for corner in cyc:
            vertex_of[corner] = v

    # darts: (cover edge, cover vertex endpoint), numbered in sorted order
    dart_keys = set()
    for f in range(s.n_faces):
        m = len(s.face_edges[f])
        for o in (1, -1):
            for t in range(m):
                ce = _cover_edge_id(s, f, t, o)
                for c in ((t - 1) % m, t):
                    dart_keys.add((ce, vertex_of[(f, o, c)]))
    dart_id = {key: i for i, key in enumerate(sorted(dart_keys))}
    n = len(dart_id)
    if n != 2 * cov.n_edges:
        raise RuntimeError("every cover edge must have two distinct ends")

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
    for v, cyc in enumerate(cov.vertex_corners):
        walk = cyc if orientation == 1 else tuple(reversed(cyc))
        ids = []
        for f, o, c in walk:
            t_out = (c + 1) % len(s.face_edges[f]) if o == 1 else c
            ids.append(dart_id[(_cover_edge_id(s, f, t_out, o), v)])
        if len(set(ids)) != len(ids):
            raise RuntimeError(f"vertex {v} meets a dart twice")
        for i, d in enumerate(ids):
            sigma0[d] = ids[(i + 1) % len(ids)]

    return Dessin(sigma0, sigma1)

