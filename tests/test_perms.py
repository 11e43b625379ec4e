import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bringcover import perms
from bringcover.dessins import automorphism_group, build_i4
from bringcover.perms import (
    GroupClosure,
    closure,
    compose,
    cycle_string,
    cycle_type,
    from_cycles,
    identify_closure,
    identity,
    inverse,
    order,
    parse_cycle_string,
    regular_representation,
    symmetric_group,
)

C5 = from_cycles(5, [(0, 1, 2, 3, 4)])
T5 = from_cycles(5, [(0, 1)])


def random_perm(n, rng):
    """Uniform permutation from a ``random.Random`` instance."""
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def test_compose_identity():
    assert compose(identity(5), C5) == C5
    assert compose(C5, identity(5)) == C5


def test_compose_involution():
    assert compose((1, 0), (1, 0)) == identity(2)


def test_compose_direct_evaluation():
    # (0 1 2 3 4) after (0 1): 0->2, 1->1, 2->3, 3->4, 4->0
    assert compose(C5, T5) == (2, 1, 3, 4, 0)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


# itemgetter with one index returns a scalar, with none it raises
@pytest.mark.parametrize("p,q,expected", [
    ((), (), ()),
    ((0,), (0,), (0,)),
    ([0], [0], (0,)),
    ([1, 0], [1, 0], (0, 1)),
    ([2, 0, 1], (1, 2, 0), (0, 1, 2)),
])
def test_compose_small_degrees_and_lists_give_tuples(p, q, expected):
    pq = compose(p, q)
    assert pq == expected
    assert type(pq) is tuple


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=130))
    p = draw(st.permutations(range(n)))
    q = draw(st.permutations(range(n)))
    return tuple(p), tuple(q)


@settings(max_examples=100, deadline=None)
@given(perm_pairs())
def test_compose_matches_definition(pq):
    p, q = pq
    assert compose(p, q) == tuple(p[q[i]] for i in range(len(p)))


def test_inverse():
    assert inverse(identity(4)) == identity(4)
    assert inverse(from_cycles(3, [(0, 1, 2)])) == from_cycles(3, [(0, 2, 1)])
    invol = from_cycles(4, [(0, 1), (2, 3)])
    assert inverse(invol) == invol
    rng = random.Random(1)
    for _ in range(20):
        p = random_perm(7, rng)
        assert compose(p, inverse(p)) == identity(7)


def test_cycle_type():
    assert cycle_type(C5) == (5,)
    assert cycle_type(identity(5)) == (1, 1, 1, 1, 1)
    assert cycle_type(from_cycles(5, [(0, 1), (2, 3, 4)])) == (3, 2)


def test_cycle_type_conjugation_invariant():
    rng = random.Random(2)
    for _ in range(30):
        p = random_perm(6, rng)
        q = random_perm(6, rng)
        conj = compose(compose(q, p), inverse(q))
        assert cycle_type(conj) == cycle_type(p)


def test_cycle_string_round_trip():
    assert cycle_string(identity(5)) == "()"
    p = from_cycles(5, [(0, 1, 4), (2, 3)])
    assert cycle_string(p) == "(0 1 4)(2 3)"
    rng = random.Random(3)
    for _ in range(20):
        p = random_perm(8, rng)
        assert parse_cycle_string(cycle_string(p), 8) == p


def test_closure_cyclic():
    assert closure([C5]).order == 5


def test_closure_empty():
    grp = closure([])
    assert grp.order == 1 and not grp.cap_exceeded


def test_closure_s5_against_brute_force():
    # oracle: the set of all 120 permutation tuples
    grp = closure([T5, C5])
    assert set(grp.elements) == set(permutations(range(5)))


def test_closure_cap():
    grp = closure([T5, C5], cap=50)
    assert grp.cap_exceeded


def test_closure_idempotent():
    grp = closure([C5, from_cycles(5, [(0, 1, 2)])])
    again = closure(grp.elements)
    assert again.elements == grp.elements


def test_regular_representation_identity():
    s5 = symmetric_group(5)
    assert regular_representation(identity(5), s5) == identity(120)


@pytest.mark.parametrize("g,expected", [
    (T5, tuple([2] * 60)),
    (C5, tuple([5] * 24)),
])
def test_regular_representation_cycle_types(g, expected):
    # |G|/ord(g) cycles, each of length ord(g)
    s5 = symmetric_group(5)
    assert cycle_type(regular_representation(g, s5)) == expected


def test_regular_representation_law_random():
    s5 = symmetric_group(5)
    rng = random.Random(4)
    for _ in range(10):
        g = random_perm(5, rng)
        rep = regular_representation(g, s5)
        k = order(g)
        assert cycle_type(rep) == tuple([k] * (120 // k))


def test_regular_representation_small_degrees():
    assert regular_representation((), closure([])) == (0,)
    assert regular_representation((0,), closure([identity(1)])) == (0,)
    c2 = closure([(1, 0)])
    assert regular_representation((1, 0), c2) == (1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)))
def test_regular_representation_matches_definition(gens):
    grp = closure(gens, cap=200)
    if grp.cap_exceeded:
        with pytest.raises(ValueError):
            regular_representation(gens[0], grp)
        return
    for g in grp.elements[:: max(1, grp.order // 8)]:
        assert regular_representation(g, grp) == tuple(
            grp.index_of(compose(g, x)) for x in grp.elements)


def test_regular_representation_membership():
    a5 = closure([C5, from_cycles(5, [(0, 1, 2)])])
    with pytest.raises(ValueError):
        regular_representation(T5, a5)


def test_identify_a5():
    assert identify_closure(closure([C5, from_cycles(5, [(0, 1, 2)])])) \
        == "A5"
    # oracle: evenness; the closure must be exactly the even permutations
    grp = closure([C5, from_cycles(5, [(0, 1, 2)])])
    even = {p for p in permutations(range(5))
            if sum(1 for c in cycle_type(p) if c % 2 == 0) % 2 == 0}
    assert set(grp.elements) == even


def test_identify_s5():
    assert identify_closure(closure([C5, T5])) == "S5"


def test_identify_other():
    assert identify_closure(closure([C5])) == "Other(5)"
    assert identify_closure(closure([T5])) == "Other(2)"


@pytest.mark.parametrize("gens", [
    # A5 x C2: A5 on 0..4, a transposition on 5, 6
    [from_cycles(7, [(0, 1, 2, 3, 4)]), from_cycles(7, [(0, 1, 2)]),
     from_cycles(7, [(5, 6)])],
    # S4 x C5: S4 on 0..3, a 5-cycle on 4..8
    [from_cycles(9, [(0, 1)]), from_cycles(9, [(0, 1, 2, 3)]),
     from_cycles(9, [(4, 5, 6, 7, 8)])],
], ids=["A5xC2", "S4xC5"])
def test_identify_order_120_not_s5(gens):
    assert closure(gens).order == 120
    assert identify_closure(closure(gens)) == "Other(120)"


def test_identify_invariant_under_generating_set():
    # different generating pairs of the same groups
    assert identify_closure(closure([from_cycles(5, [(0, 1, 2, 3, 4)]),
                                     from_cycles(5, [(2, 3, 4)])])) == "A5"
    assert identify_closure(closure([from_cycles(5, [(1, 2, 3, 4, 0)]),
                                     from_cycles(5, [(3, 4)])])) == "S5"


def test_symmetric_group_sizes():
    for n in (1, 2, 3, 4, 5):
        assert symmetric_group(n).order == factorial(n)


def _relabeled(grp, r):
    """The group conjugated by the point relabeling r: each element g
    becomes r g r^-1, and the elements are sorted anew."""
    ri = inverse(r)
    return GroupClosure(
        generators=grp.generators,
        elements=tuple(sorted(compose(compose(r, g), ri)
                              for g in grp.elements)))


@pytest.fixture(scope="module")
def named_groups():
    i4 = build_i4()
    return {
        "I4": (automorphism_group(i4), "A5"),
        "union": (automorphism_group(i4.union_with_dual()), "S5"),
        "A5xC2": (closure([from_cycles(7, [(0, 1, 2, 3, 4)]),
                           from_cycles(7, [(0, 1, 2)]),
                           from_cycles(7, [(5, 6)])]), "Other(120)"),
        "S4xC5": (closure([from_cycles(9, [(0, 1)]),
                           from_cycles(9, [(0, 1, 2, 3)]),
                           from_cycles(9, [(4, 5, 6, 7, 8)])]), "Other(120)"),
    }


@pytest.mark.parametrize("name", ["I4", "union", "A5xC2", "S4xC5"])
def test_identify_invariant_under_relabeling(named_groups, name):
    # a relabeling reorders the sorted elements, and so which x of each
    # conjugacy class the witness search tries first
    grp, expected = named_groups[name]
    assert identify_closure(grp) == expected
    rng = random.Random(name)
    for _ in range(4):
        r = random_perm(len(grp.elements[0]), rng)
        assert identify_closure(_relabeled(grp, r)) == expected


def test_identify_work_guard(monkeypatch, named_groups):
    # one x per conjugacy class: the union's S5 is named in ~670
    # compositions; trying every involution took ~2,800
    grp = named_groups["union"][0]
    calls = 0
    real = perms.compose

    def counting_compose(p, q):
        nonlocal calls
        calls += 1
        return real(p, q)

    monkeypatch.setattr(perms, "compose", counting_compose)
    assert identify_closure(grp) == "S5"
    assert calls <= 1000, calls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_order_test_matches_order(p):
    s5 = symmetric_group(5)
    e = s5.elements[0]
    for g in s5.elements:
        assert perms._has_prime_order(g, p, e) == (order(g) == p)


def test_identify_takes_no_cycle_decomposition(monkeypatch, named_groups):
    # the generator orders 2 and 5 are tested as g != e and g^p = e; taking
    # every element's order by its cycles was most of naming the union
    calls = 0
    real = perms.cycles

    def counting_cycles(p):
        nonlocal calls
        calls += 1
        return real(p)

    monkeypatch.setattr(perms, "cycles", counting_cycles)
    assert identify_closure(named_groups["union"][0]) == "S5"
    assert calls == 0
