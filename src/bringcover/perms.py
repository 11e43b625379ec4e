"""Exact permutation arithmetic and small-group identification.

A permutation of degree n is a tuple of n distinct ints in [0, n): the
image of each point.  Everything here is immutable and pure; the largest
group this package ever needs is the symmetric group on 5 points acting
on itself (order 120), so closure is plain breadth-first multiplication
with a safety cap and no stabilizer-chain machinery.  Closure builds the
small groups given by generators (S_n, presentation witnesses); a whole
automorphism group of a dessin is read off a table of words in
``dessins.automorphism_group``, which closes the few generators it picks
from it once, only to prove that they form a group.

Composition is the inner loop of all of it, so it runs in C:
``itemgetter(*q)(p)`` is the tuple of p's images at q's points, which is
p . q.  Below degree 2 itemgetter would return a bare int or fail, so
those degrees take their own branch.  ``regular_representation`` applies
the same idiom to all the elements of a group at once.

A5 and S5 are presented by ``_PRESENTATIONS``, the one relator table,
and :func:`presents` tests a pair against it: the generators' orders are
the primes 2 and 5, so each is tested by g != e and g^p = e in itemgetter
compositions, without a cycle decomposition, and then every relator.  A
pair that passes generates a quotient of the presented group.  Two ways
name a group by it.  ``dessins.presented_automorphisms`` proves a
dessin's automorphism group from one given pair and an orbit count,
with no closure.  :func:`identify_closure` names a whole listed group by
searching it for a witness, a pair that passes and generates the whole
group; a pair conjugate to a witness is a witness too, so the search
tries one first generator per conjugacy class and skips the others.  The
checks name only the 5-point monodromy group that way.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain
from math import factorial, lcm
from operator import itemgetter

Perm = tuple

DEFAULT_CLOSURE_CAP = 10_000


def is_perm(p) -> bool:
    return sorted(p) == list(range(len(p)))


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p . q)(x) = p(q(x)); q is applied first."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(p)  # degree 0 or 1: itemgetter would give no tuple


def inverse(p: Perm) -> Perm:
    r = [0] * len(p)
    for i, v in enumerate(p):
        r[v] = i
    return tuple(r)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its smallest point, sorted by it.

    Fixed points are included as length-1 cycles.
    """
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def orbit(point: int, gens) -> list[int]:
    """The orbit of ``point`` under the permutations ``gens``, in
    breadth-first order from it."""
    out = [point]
    seen = {point}
    for x in out:
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted descending, fixed points included."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def num_cycles(p: Perm) -> int:
    return len(cycles(p))


def order(p: Perm) -> int:
    return lcm(*(len(c) for c in cycles(p))) if p else 1


def from_cycles(n: int, cycs) -> Perm:
    """Permutation of degree n from an iterable of disjoint cycles (tuples
    of points in [0, n)); a point out of range or repeated is an error."""
    images = list(range(n))
    seen = set()
    for cyc in cycs:
        for i, x in enumerate(cyc):
            if not 0 <= x < n or x in seen:
                raise ValueError(f"point {x!r} is out of range or repeated "
                                 f"in cycles of degree {n}")
            seen.add(x)
            images[x] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def cycle_string(p: Perm) -> str:
    """Text form: disjoint cycles like ``(0 1 4)(2 3)``, fixed points omitted,
    ``()`` for the identity."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


class GroupClosure(namedtuple("GroupClosure",
                              "generators elements cap_exceeded",
                              defaults=(False,))):
    """The group generated by a list of permutations of a common degree.

    ``elements`` is sorted lexicographically, which fixes the canonical
    enumeration used by :func:`regular_representation`.  When the closure
    would exceed ``cap`` the enumeration stops and ``cap_exceeded`` is set;
    ``elements`` is then incomplete and ``order`` meaningless.

    No ``__slots__``: the element index and the getter of
    :func:`regular_representation` are cached in the instance
    ``__dict__``, outside the field tuple that equality and hashing see.
    """

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def _images(self):
        """One itemgetter that maps every element, laid end to end."""
        return itemgetter(*chain.from_iterable(self.elements))

    def index_of(self, g: Perm) -> int:
        try:
            return self._index[tuple(g)]
        except KeyError:
            raise ValueError(f"{cycle_string(g)} is not in the group") from None


def closure(gens, cap: int = DEFAULT_CLOSURE_CAP) -> GroupClosure:
    """All products of the generators, by breadth-first multiplication.

    The empty generating set yields the trivial group of degree 0.
    """
    gens = [tuple(g) for g in gens]
    if cap < 1:
        raise ValueError("cap must be >= 1")
    degrees = {len(g) for g in gens}
    if len(degrees) > 1:
        raise ValueError(f"generators of mixed degree: {sorted(degrees)}")
    n = degrees.pop() if degrees else 0
    for g in gens:
        if not is_perm(g):
            raise ValueError(f"not a permutation: {g}")

    elements = {identity(n)}
    frontier = [identity(n)]
    exceeded = False
    while frontier and not exceeded:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > cap:
                        exceeded = True
        frontier = nxt
    return GroupClosure(
        generators=tuple(gens),
        elements=tuple(sorted(elements)),
        cap_exceeded=exceeded,
    )


def regular_representation(g: Perm, group: GroupClosure) -> Perm:
    """Left multiplication x -> g.x as a permutation of the group's
    canonical element order.

    g maps all the elements, laid end to end, in one itemgetter call, the
    group's cached ``_images``; the images are cut back into elements and
    looked up in the group's index.
    """
    if group.cap_exceeded:
        raise ValueError("group enumeration incomplete (cap exceeded)")
    g = tuple(g)
    group.index_of(g)  # membership check; builds the index
    n = len(g)
    if n < 2:
        return (0,)  # degree 0 or 1: the trivial group
    images = iter(group._images(g))
    return tuple(map(group._index.__getitem__, zip(*[images] * n)))


def _power(p: Perm, k: int) -> Perm:
    out = identity(len(p))
    for _ in range(k):
        out = compose(p, out)
    return out


def _commutator(a: Perm, b: Perm) -> Perm:
    return compose(compose(inverse(a), inverse(b)), compose(a, b))


def _has_prime_order(g: Perm, p: int, e: Perm) -> bool:
    """g != e and g^p = e, which for a prime p says g has order p; the
    powers g^k = g^(k-1) . g are read through one itemgetter of g."""
    if g == e:
        return False
    get = itemgetter(*g)
    h = g
    for _ in range(p - 1):
        h = get(h)
    return h == e


# name -> (group order, generator orders, relators in the generators x, y):
# the one relator table, which presents() reads.  The order is that of the
# presented group (the (2, 3, 5) triangle group is A5; Coxeter-Moser 1957
# for S5); the generator orders are prime, so _has_prime_order tests them
_PRESENTATIONS = {
    # <x, y | x^5, y^2, (xy)^3>
    "A5": (60, (5, 2), (lambda x, y: _power(compose(x, y), 3),)),
    # <a, b | a^2, b^5, (ab)^4, [a,b]^3>  (Coxeter-Moser)
    "S5": (120, (2, 5), (lambda a, b: _power(compose(a, b), 4),
                         lambda a, b: _power(_commutator(a, b), 3))),
}


def presents(name: str, x: Perm, y: Perm) -> bool:
    """Whether x and y satisfy the presentation ``name`` (``"A5"`` or
    ``"S5"``): each has its generator's prime order and every relator is
    trivial.  The group they generate is then a quotient of the presented
    group, so its order is at most :func:`presentation_order`."""
    _, (p, q), relators = _presentation(name)
    e = identity(len(x))
    return (_has_prime_order(x, p, e) and _has_prime_order(y, q, e)
            and all(rel(x, y) == e for rel in relators))


def presentation_order(name: str) -> int:
    """The order of the group the presentation ``name`` defines."""
    return _presentation(name)[0]


def _presentation(name: str) -> tuple:
    try:
        return _PRESENTATIONS[name]
    except KeyError:
        raise ValueError(f"unknown presentation {name!r}; choose from "
                         f"{sorted(_PRESENTATIONS)}") from None


def _witness(group: GroupClosure, name: str) -> bool:
    """Presentation witness: generators x, y that satisfy the presentation
    ``name`` (:func:`presents`) and generate the whole group.

    The group is then a quotient of the presented group; when both have
    the same order they are isomorphic.  Conjugating a witness pair by
    any element gives a witness pair, so an x conjugate to one already
    tried is skipped: one x per conjugacy class is tried.
    """
    e = identity(len(group.elements[0]))
    xs, ys = ([g for g in group.elements if _has_prime_order(g, p, e)]
              for p in _PRESENTATIONS[name][1])
    tried = set()
    for x in xs:
        if x in tried:
            continue
        for y in ys:
            if presents(name, x, y) and \
                    closure([x, y], cap=group.order + 1).order == group.order:
                return True
        tried.update(compose(compose(g, x), inverse(g))
                     for g in group.elements)
    return False


def identify_closure(grp: GroupClosure) -> str:
    if grp.cap_exceeded:
        raise ValueError("closure cap exceeded; cannot classify")
    for name, (size, _, _) in _PRESENTATIONS.items():
        if grp.order == size and _witness(grp, name):
            return name
    return f"Other({grp.order})"


def symmetric_group(n: int) -> GroupClosure:
    """S_n in canonical element order (used for sheet bookkeeping, n <= 5)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return closure([identity(1)])
    gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])]
    grp = closure(gens)
    if grp.order != factorial(n):
        raise RuntimeError(f"generators of S_{n} closed to order {grp.order}")
    return grp
