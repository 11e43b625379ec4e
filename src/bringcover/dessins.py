"""Dessins d'enfants as pairs of permutations on a common dart set.

A dessin is (sigma0, sigma1): the rotation of darts around black vertices
and around white vertices.  A dart is one edge of the bicolored graph, so
a face of combinatorial valency k (a 2k-gon on the surface) is a length-k
cycle of sigma_inf = (sigma0 . sigma1)^-1.  :class:`Dessin` is the
namedtuple of the two rotations.  Its ``sigma_inf`` and ``is_connected``
are cached properties, kept in the instance ``__dict__`` (no
``__slots__``), outside the fields that equality and hashing see.
:func:`perms.orbit` walks the dart orbits of the connectivity test and of
both automorphism proofs.

The transforms below (recolor, subdivide, dual, union with the dual)
mirror the classical Belyi-function substitutions 1-b, 4b(1-b), 1/b and
4b/(b+1)^2 at the permutation level; each one is pinned down by exact
involution identities and by the census of the 4-icosahedron.

Isomorphisms and automorphisms come from one word table: the words that
reach each dart from dart 0 in the source's rotations, spelled in the
target's.  A map that intertwines the rotations is one column of it.
``isomorphic`` takes the first column kept.  ``presented_automorphisms``
takes two columns, checks that they commute with both rotations and
satisfy a presentation of A5 or S5, and counts their orbit of dart 0:
the relators bound the group they generate by the presentation's order,
automorphisms of a connected dessin act semiregularly, so an orbit of
every dart makes that group all of Aut, of the orbit's order.  That is
how the checks prove each automorphism group.  ``automorphism_group``
reads every column and closes the generators it picks from them once,
to prove that they form a group; it is the whole-group oracle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import eq

from .perms import (
    GroupClosure,
    closure,
    compose,
    cycle_string,
    cycle_type,
    cycles,
    identity,
    inverse,
    is_perm,
    num_cycles,
    orbit,
    presentation_order,
    presents,
)


Passport = namedtuple("Passport", "black white face")


class Dessin(namedtuple("Dessin", "sigma0 sigma1")):
    """Immutable two-permutation constellation, validated on construction
    and by ``_replace``."""

    def __new__(cls, sigma0, sigma1):
        sigma0 = tuple(sigma0)
        sigma1 = tuple(sigma1)
        if len(sigma0) != len(sigma1):
            raise ValueError(
                f"degree mismatch: {len(sigma0)} vs {len(sigma1)}"
            )
        for name, p in (("sigma0", sigma0), ("sigma1", sigma1)):
            if not is_perm(p):
                raise ValueError(
                    f"{name} is not a permutation of {len(p)} darts")
        return tuple.__new__(cls, (sigma0, sigma1))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, behind _replace, would skip __new__
        return cls(*iterable)

    def __setattr__(self, *a):
        raise AttributeError("Dessin is immutable")

    def __repr__(self):
        return (f"Dessin({self.n_darts} darts, "
                f"sigma0={cycle_string(self.sigma0)}, "
                f"sigma1={cycle_string(self.sigma1)})")

    # -- invariants ---------------------------------------------------

    @property
    def n_darts(self) -> int:
        return len(self.sigma0)

    @cached_property
    def sigma_inf(self) -> tuple:
        return inverse(compose(self.sigma0, self.sigma1))

    @cached_property
    def is_connected(self) -> bool:
        return self.n_darts > 0 and len(orbit(0, self)) == self.n_darts

    def passport(self) -> Passport:
        return Passport(
            black=cycle_type(self.sigma0),
            white=cycle_type(self.sigma1),
            face=cycle_type(self.sigma_inf),
        )

    def genus(self) -> int:
        if not self.is_connected:
            raise ValueError("genus is defined for connected dessins only")
        chi = (num_cycles(self.sigma0) + num_cycles(self.sigma1)
               + num_cycles(self.sigma_inf) - self.n_darts)
        if chi % 2 or chi > 2:
            raise RuntimeError(f"Euler characteristic {chi} is not 2 - 2g")
        return (2 - chi) // 2

    # -- Belyi-substitution transforms ---------------------------------

    def recolor(self) -> "Dessin":
        """Swap vertex colors (Belyi function b -> 1-b)."""
        return Dessin(self.sigma1, self.sigma0)

    def mirror(self) -> "Dessin":
        """Reverse the surface orientation: both rotations invert."""
        return Dessin(inverse(self.sigma0), inverse(self.sigma1))

    def subdivide(self) -> "Dessin":
        """Insert a valency-2 white vertex in the middle of every edge
        (b -> 4b(1-b)); old white vertices turn black.

        Darts double: dart e keeps its black end, dart e+d is the half
        beyond the new midpoint.
        """
        d = self.n_darts
        s0 = [0] * (2 * d)
        s1 = [0] * (2 * d)
        for e in range(d):
            s0[e] = self.sigma0[e]
            s0[d + e] = d + self.sigma1[e]
            s1[e] = d + e
            s1[d + e] = e
        return Dessin(s0, s1)

    def dual(self) -> "Dessin":
        """Face centers become black vertices, white vertices persist
        (b -> 1/b).  Realized on the same darts as
        (sigma_inf, sigma0 . sigma1 . sigma0^-1); an exact involution.
        """
        return Dessin(
            self.sigma_inf,
            compose(compose(self.sigma0, self.sigma1), inverse(self.sigma0)),
        )

    def union_with_dual(self) -> "Dessin":
        """Superimpose the dessin and its dual (b -> 4b/(b+1)^2).

        Darts are E + E^ with e^ = e + d.  Around a white vertex the dual
        edges interleave: e -> e^ -> sigma1(e), doubling every white
        valency.  On the dual copy the black rotation is the face
        successor; the direction (sigma_inf rather than its inverse) is
        the one that keeps a planar dessin planar.
        """
        if not self.is_connected:
            raise ValueError("union with dual needs a connected dessin")
        d = self.n_darts
        s0 = [0] * (2 * d)
        s1 = [0] * (2 * d)
        for e in range(d):
            s0[e] = self.sigma0[e]
            s0[d + e] = d + self.sigma_inf[e]
            s1[e] = d + e
            s1[d + e] = self.sigma1[e]
        return Dessin(s0, s1)

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        return (f"darts: {self.n_darts}\n"
                f"sigma0: {cycle_string(self.sigma0)}\n"
                f"sigma1: {cycle_string(self.sigma1)}\n")

    def to_dot(self) -> str:
        """Bipartite multigraph in DOT, deterministic byte-for-byte.

        Black node ``b<i>`` is the i-th sigma0 cycle, white ``w<j>`` the
        j-th sigma1 cycle; every dart is an edge whose ``bo``/``wo``
        attributes give its position in each rotation.
        """
        b_cycles = cycles(self.sigma0)
        w_cycles = cycles(self.sigma1)
        b_at = {}
        for i, cyc in enumerate(b_cycles):
            for pos, dart in enumerate(cyc):
                b_at[dart] = (i, pos)
        w_at = {}
        for j, cyc in enumerate(w_cycles):
            for pos, dart in enumerate(cyc):
                w_at[dart] = (j, pos)
        out = ["graph dessin {"]
        for i in range(len(b_cycles)):
            out.append(f'  b{i} [shape=circle, style=filled, fillcolor=black, label=""];')
        for j in range(len(w_cycles)):
            out.append(f'  w{j} [shape=circle, label=""];')
        for dart in range(self.n_darts):
            (i, bp), (j, wp) = b_at[dart], w_at[dart]
            out.append(f"  b{i} -- w{j} [bo={bp}, wo={wp}];")
        out.append("}")
        return "\n".join(out) + "\n"


class IsoMap(namedtuple("IsoMap", "mapping")):
    """Dart bijection h with h.sigma = sigma'.h for both rotations."""

    __slots__ = ()

    def is_valid(self, src: Dessin, dst: Dessin) -> bool:
        h = self.mapping
        if sorted(h) != list(range(dst.n_darts)) or len(h) != src.n_darts:
            return False
        return all(
            h[src.sigma0[x]] == dst.sigma0[h[x]]
            and h[src.sigma1[x]] == dst.sigma1[h[x]]
            for x in range(src.n_darts)
        )


def _word_table(a: Dessin, b: Dessin) -> list:
    """``words[x]``: a word w_x in a's rotations with w_x(0) = x, spelled
    in b's rotations; a and b are connected, of one degree.

    One breadth-first pass from dart 0 over a's sigma0 and sigma1 finds
    the words.  A map h that intertwines the rotations sends x = w_x(0)
    to w_x(h(0)), so the one with 0 -> t is column t of the table,
    ``words[x][t]`` for every x.
    """
    pairs = ((a.sigma0, b.sigma0), (a.sigma1, b.sigma1))
    words = [None] * a.n_darts
    words[0] = identity(b.n_darts)
    queue = [0]
    for x in queue:
        for ga, gb in pairs:
            y = ga[x]
            if words[y] is None:
                words[y] = compose(gb, words[x])
                queue.append(y)
    return words


def _intertwines(h, a: Dessin, b: Dessin) -> bool:
    """h . sigma = sigma' . h for both rotations of a and b."""
    return (compose(h, a.sigma0) == compose(b.sigma0, h)
            and compose(h, a.sigma1) == compose(b.sigma1, h))


def _maps(a: Dessin, b: Dessin):
    """Every dart bijection a -> b that intertwines both rotations, in the
    order of the image of dart 0; a and b are connected, of one degree.

    The candidates are the columns of :func:`_word_table`.  Column t is
    kept iff it intertwines both rotations; its image is then closed
    under b's rotations, so it is onto and a bijection.  The columns are
    tested lazily: the first one kept costs the table and the columns
    before it.
    """
    for c in zip(*_word_table(a, b)):
        if _intertwines(c, a, b):
            yield c


def isomorphic(a: Dessin, b: Dessin) -> IsoMap | None:
    """Color- and orientation-preserving isomorphism, or None.

    The first kept column of the word table of :func:`_maps`: the
    isomorphism with the smallest image of dart 0.
    """
    if not (a.is_connected and b.is_connected):
        raise ValueError("isomorphism search needs connected dessins")
    if a.n_darts != b.n_darts:
        return None
    if a.passport() != b.passport():
        return None
    h = next(_maps(a, b), None)
    if h is None:
        return None
    m = IsoMap(h)
    if not m.is_valid(a, b):
        raise RuntimeError("word table gave an invalid map")
    return m


def automorphism_group(d: Dessin) -> GroupClosure:
    """All dart bijections commuting with both rotations, as a group of
    permutations of the darts.

    ``maps`` is every kept column of the word table of :func:`_maps`
    for d -> d: an automorphism commutes with the monodromy group of the
    connected dessin, so it is fixed by the image of dart 0 (the
    centralizer of the monodromy group; Jones-Wolfart, *Dessins d'Enfants
    on Riemann Surfaces*, 2016).  ``maps`` therefore holds the whole
    group, and it is not rebuilt by a closure over all the maps.  For the
    same reason the automorphisms act semiregularly, so a map lies in the
    group generated by the maps before it iff its image of dart 0 lies in
    that group's orbit of dart 0; the generators are picked by growing
    that orbit.  Their closure, taken once, proves that ``maps`` is closed
    under composition; otherwise a ``RuntimeError`` is raised.  The result
    equals ``closure(maps)``: every map is a generator and the elements
    are sorted.
    """
    if not d.is_connected:
        raise ValueError("automorphisms need a connected dessin")
    maps = list(_maps(d, d))
    gens = []
    reached = {0}
    for h in maps:
        if h[0] not in reached:
            gens.append(h)
            reached = set(orbit(0, gens))
    grp = closure(gens or [identity(d.n_darts)], cap=len(maps) + 1)
    if grp.order != len(maps) or set(grp.elements) != set(maps):
        raise RuntimeError(f"{len(maps)} automorphisms close to a group "
                           f"of order {grp.order}")
    return GroupClosure(generators=tuple(maps), elements=grp.elements)


def acts_freely(d: Dessin, grp: GroupClosure) -> bool:
    """No nonidentity automorphism fixes a dart."""
    e = identity(d.n_darts)
    return all(g == e or not any(map(eq, g, e)) for g in grp.elements)


class PresentedGroup(namedtuple("PresentedGroup",
                                "order acts_freely group")):
    """The automorphism group of a dessin, proved by a presentation pair.

    ``order`` is the size of the orbit of dart 0 under the pair,
    ``acts_freely`` whether that size is the presentation's order, and
    ``group`` the presentation's name if it is, else ``Other(order)`` as
    in :func:`perms.identify_closure`."""

    __slots__ = ()


def presented_automorphisms(d: Dessin, name: str, x: int,
                            y: int) -> PresentedGroup:
    """Aut(d) from the automorphisms a, b that send dart 0 to x and to y,
    checked against the presentation ``name`` of :mod:`perms`.

    a and b are columns x and y of :func:`_word_table`, and
    each must commute with both rotations.  Then:

    - the automorphisms of the connected dessin d act semiregularly, so
      any group of them has the order of its orbit of dart 0, and Aut(d)
      at most n_darts;
    - a and b satisfy the presentation (:func:`perms.presents`), so the
      group G they generate is a quotient of the presented group, of
      order at most :func:`perms.presentation_order`;
    - the orbit of dart 0 under a and b has n_darts darts, so G has order
      n_darts and is all of Aut(d).

    When that order is the presentation's, G is the presented group, and
    its stabilizer of a dart is trivial.  A column that is not an
    automorphism, a pair that fails the presentation and an orbit short
    of n_darts raise ``ValueError`` with what was found
    (Coxeter-Moser 1957; Jones-Wolfart, *Dessins d'Enfants on Riemann
    Surfaces*, 2016).
    """
    if not d.is_connected:
        raise ValueError("automorphisms need a connected dessin")
    words = _word_table(d, d)
    pair = []
    for t in (x, y):
        if not 0 <= t < d.n_darts:
            raise ValueError(f"dart {t!r} is not one of {d.n_darts} darts")
        h = tuple(w[t] for w in words)
        if not _intertwines(h, d, d):
            raise ValueError(f"no automorphism sends dart 0 to dart {t}")
        pair.append(h)
    if not presents(name, *pair):
        raise ValueError(f"the automorphisms at darts {x} and {y} do not "
                         f"satisfy the {name} presentation")
    order = len(orbit(0, pair))
    if order != d.n_darts:
        raise ValueError(f"the automorphisms at darts {x} and {y} reach "
                         f"{order} of {d.n_darts} darts")
    free = order == presentation_order(name)
    return PresentedGroup(order, free, name if free else f"Other({order})")


# Rotation system of the Platonic icosahedron: vertex -> neighbors in
# counterclockwise order as seen from outside the solid.  Hard-coded so
# the combinatorial core stays float-free; validated by the genus-0 and
# automorphism-order tests rather than re-derived from coordinates.
ICOSAHEDRON_ROTATION = (
    (2, 5, 10, 8, 4),
    (3, 6, 8, 10, 7),
    (0, 4, 9, 11, 5),
    (1, 7, 11, 9, 6),
    (0, 8, 6, 9, 2),
    (0, 2, 11, 7, 10),
    (1, 3, 9, 4, 8),
    (1, 10, 5, 11, 3),
    (0, 10, 1, 6, 4),
    (2, 4, 6, 3, 11),
    (0, 5, 7, 1, 8),
    (2, 9, 3, 7, 5),
)


def _icosahedron_perms():
    edges = sorted({tuple(sorted((v, w)))
                    for v in range(12) for w in ICOSAHEDRON_ROTATION[v]})
    if len(edges) != 30:
        raise RuntimeError(f"icosahedron rotation has {len(edges)} edges")
    eidx = {e: i for i, e in enumerate(edges)}

    def dart(v, w):
        e = tuple(sorted((v, w)))
        return 2 * eidx[e] + (0 if v == e[0] else 1)

    s0 = [0] * 60
    for v in range(12):
        cyc = ICOSAHEDRON_ROTATION[v]
        for i, w in enumerate(cyc):
            s0[dart(v, w)] = dart(v, cyc[(i + 1) % 5])
    s1 = [0] * 60
    for i in range(30):
        s1[2 * i] = 2 * i + 1
        s1[2 * i + 1] = 2 * i
    return tuple(s0), tuple(s1)


def build_icosahedron() -> Dessin:
    """The icosahedron as a clean dessin: black vertices at the 12 solid
    vertices, white vertices at the 30 edge midpoints, 60 darts."""
    s0, s1 = _icosahedron_perms()
    return Dessin(s0, s1)


def build_i4() -> Dessin:
    """The 4-icosahedron: same graph, every black rotation replaced by
    its square, which re-embeds it on a genus-4 surface."""
    s0, s1 = _icosahedron_perms()
    return Dessin(compose(s0, s0), s1)
