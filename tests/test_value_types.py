"""The value types and the tracking configs are namedtuple subclasses with
the semantics of the frozen dataclasses they replace: the same fields in
the same order, the same repr, and equality, hashing and (for the cells
types) ordering on the field tuple.  Each case is compared with a frozen
dataclass built from the recorded field list.  A type that validates in
``__new__`` validates in ``_make`` and ``_replace`` too."""

import dataclasses
import operator

import pytest

from bringcover import cells, cover, dessins, monodromy, perms, quintic
from bringcover import tracking, verify
from bringcover.tracking import LoopSpec, TrackingConfig, loop_spec, track_loop

# type -> (its dataclass fields, in declaration order; order=True?)
FIELDS = {
    cells.LabeledPolygon: ("n labels diags", True),
    cells.CellClass: ("rep orbit_size", True),
    cells.CellComplexData: (
        "faces edges vertices face_sides face_corners", False),
    cover.SurfaceComplex: (
        "n_vertices face_edges face_corners edge_uses", False),
    cover.OrientedCover: ("base components vertex_corners", False),
    dessins.Passport: ("black white face", False),
    dessins.IsoMap: ("mapping", False),
    perms.GroupClosure: ("generators elements cap_exceeded", False),
    quintic.IdentityReport: (
        "samples max_power_sum max_identity_error max_symmetric_error "
        "printed_expression_deviation printed_expression_exponent", False),
    tracking.TrackResult: (
        "pi lam lam_power max_residual min_separation steps_used "
        "waypoints max_halving_depth", False),
    monodromy.MonodromyTriple: (
        "pi0 pi1 pi_inf loops", False),
    TrackingConfig: (
        "base_t branch radius0 radius1 radius_inf steps tol_residual "
        "tol_match_ratio tol_lambda seed", False),
    LoopSpec: ("puncture base_t radius steps", False),
}
ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


@pytest.fixture(scope="module")
def samples():
    """Two or more instances of each value type, from the real builders."""
    c5 = cells.build_complex5()
    sphere = cover.make_surface([(0, 1, 2), (0, 1, 2)],
                                [(1, 2, 0), (1, 2, 0)])
    surface = cover.surface_from_cells(c5)
    i4, ico = dessins.build_i4(), dessins.build_icosahedron()
    cfg = TrackingConfig()
    return {
        cells.LabeledPolygon: [
            cells.polygon(5, (1, 2, 3, 4, 5), [(0, 2)]),
            cells.polygon(5, (1, 3, 2, 4, 5), [(0, 2)]),
            cells.polygon(5, (1, 2, 3, 4, 5), [(0, 2), (0, 3)]),
            cells.polygon(6, (1, 2, 3, 4, 5, 6))],
        cells.CellClass: cells.enumerate_cells(5, 1)[:4],
        cells.CellComplexData: [c5, c5._replace(face_sides=c5.face_corners)],
        cover.SurfaceComplex: [surface, sphere],
        cover.OrientedCover: [cover.orientation_cover(surface),
                              cover.orientation_cover(sphere)],
        dessins.Passport: [i4.passport(), ico.passport()],
        dessins.IsoMap: [dessins.isomorphic(i4, i4),
                         dessins.isomorphic(i4.dual(), i4)],
        perms.GroupClosure: [perms.symmetric_group(3),
                             perms.closure([(1, 2, 0)]),
                             perms.closure([(1, 0, 2)], cap=1)],
        quintic.IdentityReport: [quintic.verify_identities(4, seed=0),
                                 quintic.verify_identities(4, seed=1)],
        tracking.TrackResult: [track_loop(loop_spec(cfg, p), cfg)
                               for p in (0, 1)],
        monodromy.MonodromyTriple: [
            monodromy.monodromy_triple(cfg),
            monodromy.monodromy_triple(cfg.with_steps(64))],
        TrackingConfig: [cfg, cfg.with_steps(64),
                         TrackingConfig(base_t=0.4, seed=7)],
        LoopSpec: [loop_spec(cfg, p) for p in (0, 1, "inf")],
    }


def _reference(cls):
    names, order = FIELDS[cls]
    return dataclasses.make_dataclass(cls.__name__, names.split(),
                                      frozen=True, order=order)


def _hash(x):
    try:
        return hash(x)
    except TypeError:  # a dict field: neither kind is hashable
        return "unhashable"


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_matches_the_frozen_dataclass(cls, samples):
    ref = _reference(cls)
    assert cls._fields == tuple(FIELDS[cls][0].split())
    xs = samples[cls]
    assert len(xs) >= 2 and all(type(x) is cls for x in xs)
    refs = [ref(*x) for x in xs]
    for x, r in zip(xs, refs):
        assert repr(x) == repr(r)
        assert _hash(x) == _hash(r)
    for x, rx in zip(xs, refs):
        for y, ry in zip(xs, refs):
            assert (x == y) == (rx == ry)
            assert (x != y) == (rx != ry)
            if FIELDS[cls][1]:
                assert [op(x, y) for op in ORDER] == [
                    op(rx, ry) for op in ORDER]


@pytest.mark.parametrize("labels, diags, message", [
    ((1, 2, 3, 4, 4), (), "labels"),
    ((1, 2, 3, 4, 5), ((0, 3), (0, 2)), "sorted"),
    ((1, 2, 3, 4, 5), ((0, 1),), "inadmissible"),
    ((1, 2, 3, 4, 5), ((0, 2), (1, 3)), "crossing"),
])
def test_polygon_validates_in_new(labels, diags, message):
    with pytest.raises(ValueError, match=message):
        cells.LabeledPolygon(5, labels, diags)
    with pytest.raises(ValueError, match="at least 3"):
        cells.LabeledPolygon(2, (1, 2), ())


@pytest.mark.parametrize("value, change, message", [
    (cells.polygon(5, (1, 2, 3, 4, 5), [(0, 2)]),
     {"diags": ((0, 2), (0, 2))}, "repeated diagonal"),
    (TrackingConfig(), {"steps": 3}, "at least 4 steps"),
    (TrackingConfig(), {"radius_inf": 1.001}, "inradius"),
    (loop_spec(TrackingConfig(), 0), {"radius": -1.0}, "radius"),
], ids=lambda x: type(x).__name__ if isinstance(x, tuple) else None)
def test_replace_and_make_validate_as_new(value, change, message):
    # namedtuple's own _make, behind _replace, bypasses __new__
    with pytest.raises(ValueError, match=message):
        value._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(value)._make({**value._asdict(), **change}.values())


def test_cached_values_stay_outside_equality(samples):
    # the element index and the monodromy group live in the instance
    # __dict__, which equality, hashing and repr never see
    grp = perms.symmetric_group(4)
    fresh = perms.symmetric_group(4)
    assert grp.index_of(grp.elements[5]) == 5
    assert "_index" in vars(grp) and "_index" not in vars(fresh)
    assert grp == fresh and hash(grp) == hash(fresh)
    assert repr(grp) == repr(fresh)

    triple = samples[monodromy.MonodromyTriple][0]
    twin = monodromy.MonodromyTriple(*triple)
    assert triple.group.order == 120
    assert "group" in vars(triple) and "group" not in vars(twin)
    assert triple == twin and repr(triple) == repr(twin)


def _strict(op):
    def compare(self, other):
        # a namedtuple equals a plain tuple of its fields; the dataclass
        # it replaced never did
        if isinstance(other, tuple) and type(other) is not type(self):
            raise AssertionError(
                f"{type(self).__name__} compared with {type(other).__name__}")
        return op(self, other)
    return compare


def test_no_verdict_compares_a_value_type_with_a_tuple(monkeypatch):
    for cls in (*FIELDS, dessins.Dessin):
        monkeypatch.setattr(cls, "__eq__", _strict(tuple.__eq__))
        monkeypatch.setattr(cls, "__ne__", _strict(tuple.__ne__))
    report = verify.run_checks(verify.Context())
    assert report["status"] == "pass", [
        c for c in report["checks"] if c["status"] == "fail"]
