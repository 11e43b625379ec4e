"""Exact permutation arithmetic and small-group identification.

A permutation of degree n is a tuple of n distinct ints in [0, n): the
image of each point.  Everything here is immutable and pure; the largest
group this package ever needs is the symmetric group on 5 points acting
on itself (order 120), so closure is plain breadth-first multiplication
with a safety cap and no stabilizer-chain machinery.  Closure builds the
small groups given by generators (S_n, presentation witnesses); an
automorphism group of a dessin is read off a table of words in
``dessins.automorphism_group``, which closes the few generators it picks
from it once, only to prove that they form a group.

Composition is the inner loop of all of it, so it runs in C:
``itemgetter(*q)(p)`` is the tuple of p's images at q's points, which is
p . q.  Below degree 2 itemgetter would return a bare int or fail, so
those degrees take their own branch.  ``regular_representation`` applies
the same idiom to all the elements of a group at once.

A5 and S5 are named by presentation witnesses: a pair of generators that
satisfies the presentation's relators and generates the whole group.  A
pair conjugate to a witness is a witness too, so the search tries one
first generator per conjugacy class and skips the others.  The generators'
orders are the primes 2 and 5, so a candidate is tested by g != e and
g^p = e in itemgetter compositions, without a cycle decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted descending, fixed points included."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def num_cycles(p: Perm) -> int:
    return len(cycles(p))


def order(p: Perm) -> int:
    return lcm(*(len(c) for c in cycles(p))) if p else 1


def from_cycles(n: int, cycs) -> Perm:
    """Permutation of degree n from an iterable of cycles (tuples of points)."""
    images = list(range(n))
    for cyc in cycs:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    p = tuple(images)
    if not is_perm(p):
        raise ValueError(f"cycles do not define a permutation of degree {n}")
    return p


def cycle_string(p: Perm) -> str:
    """Text form: disjoint cycles like ``(0 1 4)(2 3)``, fixed points omitted,
    ``()`` for the identity."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


def parse_cycle_string(s: str, degree: int) -> Perm:
    """Inverse of :func:`cycle_string` for a known degree."""
    s = s.strip()
    if s == "()":
        return identity(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not a cycle string: {s!r}")
    cycs = []
    for chunk in s[1:-1].split(")("):
        pts = tuple(int(tok) for tok in chunk.split())
        if len(pts) < 2:
            raise ValueError(f"degenerate cycle in {s!r}")
        cycs.append(pts)
    return from_cycles(degree, cycs)


@dataclass(frozen=True)
class GroupClosure:
    """The group generated by a list of permutations of a common degree.

    ``elements`` is sorted lexicographically, which fixes the canonical
    enumeration used by :func:`regular_representation`.  When the closure
    would exceed ``cap`` the enumeration stops and ``cap_exceeded`` is set;
    ``elements`` is then incomplete and ``order`` meaningless.
    """

    generators: tuple
    elements: tuple
    cap_exceeded: bool = False
    _index: dict = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, g: Perm) -> int:
        if self._index is None:
            object.__setattr__(
                self, "_index", {p: i for i, p in enumerate(self.elements)}
            )
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

    g maps all the elements, laid end to end, in one itemgetter call; the
    images are cut back into elements and looked up in the group's index.
    """
    if group.cap_exceeded:
        raise ValueError("group enumeration incomplete (cap exceeded)")
    g = tuple(g)
    group.index_of(g)  # membership check; builds the index
    n = len(g)
    if n < 2:
        return (0,)  # degree 0 or 1: the trivial group
    images = iter(itemgetter(*chain.from_iterable(group.elements))(g))
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


# name -> (group order, generator orders, relators in the generators x, y);
# the generator orders are prime, so _has_prime_order tests them
_PRESENTATIONS = {
    # <x, y | x^5, y^2, (xy)^3>
    "A5": (60, (5, 2), (lambda x, y: _power(compose(x, y), 3),)),
    # <a, b | a^2, b^5, (ab)^4, [a,b]^3>  (Coxeter-Moser)
    "S5": (120, (2, 5), (lambda a, b: _power(compose(a, b), 4),
                         lambda a, b: _power(_commutator(a, b), 3))),
}


def _witness(group: GroupClosure, orders, relators) -> bool:
    """Presentation witness: generators x, y of the given orders whose
    relators are all trivial and which generate the whole group.

    The group is then a quotient of the presented group; when both have
    the same order they are isomorphic.  Conjugating a witness pair by
    any element gives a witness pair, so an x conjugate to one already
    tried is skipped: one x per conjugacy class is tried.
    """
    e = identity(len(group.elements[0]))
    xs, ys = ([g for g in group.elements if _has_prime_order(g, p, e)]
              for p in orders)
    tried = set()
    for x in xs:
        if x in tried:
            continue
        for y in ys:
            if all(rel(x, y) == e for rel in relators) and \
                    closure([x, y], cap=group.order + 1).order == group.order:
                return True
        tried.update(compose(compose(g, x), inverse(g))
                     for g in group.elements)
    return False


def identify_closure(grp: GroupClosure) -> str:
    if grp.cap_exceeded:
        raise ValueError("closure cap exceeded; cannot classify")
    for name, (size, orders, relators) in _PRESENTATIONS.items():
        if grp.order == size and _witness(grp, orders, relators):
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
