"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its wall time (run with ``pytest tests/test_acceptance.py -v -s``).

Each criterion rebuilds what it measures so the stated time budgets are
honest; they are asserted directly since the slowest criterion runs an
order of magnitude under budget.
"""

import time
from contextlib import contextmanager

from bringcover.cells import build_complex5, enumerate_cells, refinements
from bringcover.cover import (
    euler_characteristic,
    is_orientable,
    orientation_cover,
    surface_from_cells,
)
from bringcover.dessins import (
    acts_freely,
    automorphism_group,
    build_i4,
    build_icosahedron,
    isomorphic,
)
from bringcover.monodromy import monodromy_triple, sheet_constellation
from bringcover.perms import (
    closure,
    cycle_type,
    identify_closure,
    order,
    regular_representation,
    symmetric_group,
)
from bringcover.quintic import verify_identities
from bringcover.tracking import TrackingConfig
from bringcover.verify import Context


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds


def test_criterion_01_cell_census():
    with criterion(1, "cell census", 1.0):
        assert tuple(len(enumerate_cells(5, k)) for k in range(3)) \
            == (12, 30, 15)
        assert tuple(len(enumerate_cells(4, k)) for k in range(2)) == (3, 3)
        assert len(enumerate_cells(6, 0)) == 60


def test_criterion_02_base_surface():
    with criterion(2, "base surface", 1.0):
        surface = surface_from_cells(build_complex5())
        assert euler_characteristic(surface) == -3
        assert is_orientable(surface) is False


def test_criterion_03_orientation_cover():
    with criterion(3, "orientation cover", 1.0):
        cov = orientation_cover(surface_from_cells(build_complex5()))
        assert cov.summary() == {
            "faces": 24, "edges": 60, "vertices": 30,
            "components": 1, "orientable": True, "genus": 4,
        }


def test_criterion_04_cover_dessin_passport():
    with criterion(4, "cover dessin passport", 1.0):
        d = Context().dessin_d
        p = d.passport()
        assert d.n_darts == 120
        assert p.black == tuple([4] * 30)
        assert p.white == tuple([2] * 60)
        assert p.face == tuple([5] * 24)
        assert d.is_connected
        assert d.genus() == 4


def test_criterion_05_four_icosahedron():
    with criterion(5, "4-icosahedron pipeline", 5.0):
        i4 = build_i4()
        p = i4.passport()
        assert p.black == tuple([5] * 12)
        assert p.white == tuple([2] * 30)
        assert p.face == tuple([5] * 12)
        assert i4.genus() == 4
        grp = automorphism_group(i4)
        assert grp.order == 60
        assert identify_closure(grp) == "A5"
        assert isomorphic(i4.dual(), i4) is not None


def test_criterion_06_union_census():
    with criterion(6, "union with dual census", 10.0):
        union = build_i4().union_with_dual()
        p = union.passport()
        assert p.black == tuple([5] * 24)
        assert p.white == tuple([4] * 30)
        assert p.face == tuple([2] * 60)
        assert union.genus() == 4
        grp = automorphism_group(union)
        assert grp.order == 120
        assert identify_closure(grp) == "S5"


def test_criterion_07_main_theorem_isomorphism():
    with criterion(7, "main isomorphism", 10.0):
        d = Context().dessin_d
        j = build_i4().union_with_dual().dual().recolor()
        mirrored = False
        found = isomorphic(d, j)
        if found is None:
            found = isomorphic(d.mirror(), j)
            mirrored = True
        assert found is not None
        print(f"  (mirror needed: {mirrored})", end=" ")


def test_criterion_08_regularity_of_cover_dessin():
    with criterion(8, "cover dessin regularity", 10.0):
        d = Context().dessin_d
        grp = automorphism_group(d)
        assert grp.order == 120
        assert acts_freely(d, grp)


def test_criterion_09_monodromy():
    with criterion(9, "numerical monodromy", 60.0):
        cfg = TrackingConfig()
        triple = monodromy_triple(cfg)
        assert triple.cycle_types() == ((5,), (4, 1), (2, 1, 1, 1))
        assert closure([triple.pi0, triple.pi1]).order == 120
        assert triple.product_is_identity()
        for res in triple.loops.values():
            assert res.max_residual < 1e-9
            assert abs(res.lam**4 - 1) < 1e-8
        doubled = monodromy_triple(cfg.with_steps(2 * cfg.steps))
        assert (doubled.pi0, doubled.pi1, doubled.pi_inf) == \
            (triple.pi0, triple.pi1, triple.pi_inf)


def test_criterion_10_belyi_pair_closure():
    with criterion(10, "sheet dessin vs union", 30.0):
        sheet = sheet_constellation(monodromy_triple(TrackingConfig()))
        union = build_i4().union_with_dual()
        assert isomorphic(sheet, union) is not None


def test_criterion_11_numerical_identities():
    with criterion(11, "root identities", 5.0):
        rep = verify_identities(samples=100, seed=0)
        # proved in Z[a, b]: no residual coefficient is left
        assert rep.max_power_sum == 0
        assert rep.max_identity_error == 0
        assert rep.max_symmetric_error == 0
        # info-level finding: the quartic-power expression is not
        # projectively invariant (weight -9 under root rescaling)
        assert rep.printed_expression_exponent == -9
        print(f"  (printed-expression deviation up to "
              f"{rep.printed_expression_deviation:.3g})", end=" ")


def test_criterion_12_property_suites():
    with criterion(12, "property suites", 10.0):
        # exact involutions and Euler consistency on all built dessins
        built = [build_icosahedron(), build_i4(),
                 build_i4().union_with_dual(), Context().dessin_d]
        for d in built:
            assert d.dual().dual() == d
            assert d.recolor().recolor() == d
            assert d.mirror().mirror() == d
            assert d.genus() >= 0
            assert d.subdivide().genus() == d.genus()
        # regular-representation cycle law, exhaustively over the group
        s5 = symmetric_group(5)
        for g in s5.elements:
            k = order(g)
            assert cycle_type(regular_representation(g, s5)) \
                == tuple([k] * (120 // k))
        # refinement dimension law on every cell of the 5-point complexes
        for k in (0, 1):
            for cls in enumerate_cells(5, k):
                for ref in refinements(cls):
                    assert ref.dimension == cls.dimension - 1
