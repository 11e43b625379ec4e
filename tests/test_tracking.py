import cmath
import dataclasses

import pytest

from bringcover.monodromy import monodromy_triple, sheet_constellation
from bringcover.perms import cycle_type, identity, inverse
from bringcover.quintic import b_from_t, roots5
from bringcover.tracking import (
    LoopSpec,
    TrackingConfig,
    TrackingError,
    contour,
    loop_spec,
    track_loop,
    track_path,
)

CFG = TrackingConfig(steps=512)


@pytest.fixture(scope="module")
def triple():
    return monodromy_triple(CFG)


def winding_number(points, center):
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += cmath.phase((b - center) / (a - center))
    return round(total / (2 * cmath.pi))


def test_contour_closes_at_base():
    for p in (0, 1, "inf"):
        ts = contour(loop_spec(CFG, p))
        assert ts[0] == ts[-1] == complex(CFG.base_t)


@pytest.mark.parametrize("puncture,wind0,wind1", [
    (0, 1, 0),
    (1, 0, 1),
    ("inf", 1, 1),  # a large circle winds once around both finite punctures
])
def test_contour_winding(puncture, wind0, wind1):
    ts = contour(loop_spec(CFG, puncture))
    assert winding_number(ts, 0) == wind0
    assert winding_number(ts, 1) == wind1


def test_loop_spec_validation():
    with pytest.raises(ValueError):
        LoopSpec(puncture=2, base_t=0.5, radius=0.1, steps=64)
    with pytest.raises(ValueError):
        LoopSpec(puncture=0, base_t=1, radius=0.1, steps=64)
    with pytest.raises(ValueError):
        LoopSpec(puncture=0, base_t=0.5, radius=0.1, steps=2)
    with pytest.raises(ValueError):
        contour(LoopSpec(puncture=0, base_t=0.5, radius=0.7, steps=64))
    with pytest.raises(ValueError):
        contour(LoopSpec(puncture="inf", base_t=0.5, radius=0.4, steps=64))


def test_loop_around_one_is_4_cycle():
    res = track_loop(loop_spec(CFG, 1), CFG)
    assert cycle_type(res.pi) == (4, 1)
    assert min(abs(res.lam - 1j), abs(res.lam + 1j)) < 1e-10


def test_loop_around_zero_is_5_cycle():
    res = track_loop(loop_spec(CFG, 0), CFG)
    assert cycle_type(res.pi) == (5,)
    assert abs(res.lam**4 - 1) < 1e-10


def test_loop_around_inf_is_transposition():
    res = track_loop(loop_spec(CFG, "inf"), CFG)
    assert cycle_type(res.pi) == (2, 1, 1, 1)
    assert abs(res.lam - 1) < 1e-10


def test_tracking_deterministic():
    spec = loop_spec(CFG, 1)
    r1 = track_loop(spec, CFG)
    r2 = track_loop(spec, CFG)
    assert r1 == r2  # bit-for-bit, diagnostics included


def test_direction_reversal_inverts():
    for p in (0, 1, "inf"):
        spec = loop_spec(CFG, p)
        rev = dataclasses.replace(spec, direction="cw")
        assert track_loop(rev, CFG).pi == inverse(track_loop(spec, CFG).pi)


def test_step_doubling_invariance(triple):
    fine = monodromy_triple(CFG.with_steps(1024))
    assert (fine.pi0, fine.pi1, fine.pi_inf) == \
        (triple.pi0, triple.pi1, triple.pi_inf)


def test_radius_perturbation_invariance(triple):
    for factor in (0.8, 1.2):
        cfg = dataclasses.replace(
            CFG, radius0=CFG.radius0 * factor, radius1=CFG.radius1 * factor,
            radius_inf=CFG.radius_inf * factor)
        t = monodromy_triple(cfg)
        assert (t.pi0, t.pi1, t.pi_inf) == \
            (triple.pi0, triple.pi1, triple.pi_inf)


def test_conjugation_robustness(triple):
    # cycle types independent of base point and branch
    for base_t, branch in ((0.4, 1), (0.6, 2)):
        cfg = dataclasses.replace(CFG, base_t=base_t, branch=branch)
        t = monodromy_triple(cfg)
        assert t.cycle_types() == triple.cycle_types()


def test_too_coarse_fails():
    with pytest.raises(TrackingError):
        monodromy_triple(TrackingConfig(steps=4))


def test_coarse_but_rescuable_uses_halving():
    cfg = TrackingConfig(steps=64)
    t = monodromy_triple(cfg)
    base_steps = len(contour(loop_spec(cfg, "inf"))) - 1
    assert t.loops["inf"].steps_used > base_steps  # halving really ran
    fine = monodromy_triple(CFG)
    assert (t.pi0, t.pi1, t.pi_inf) == (fine.pi0, fine.pi1, fine.pi_inf)


def test_monodromy_triple(triple):
    assert triple.cycle_types() == ((5,), (4, 1), (2, 1, 1, 1))
    assert triple.product_is_identity()
    assert triple.inf_exact
    assert triple.group_order() == 120
    for res in triple.loops.values():
        assert res.max_residual < 1e-9
        assert abs(res.lam**4 - 1) < 1e-8


def test_lambda_values(triple):
    # the coefficient branch turns by -90, +90 and 0 degrees
    assert abs(triple.loops[0].lam + 1j) < 1e-10
    assert abs(triple.loops[1].lam - 1j) < 1e-10
    assert abs(triple.loops["inf"].lam - 1) < 1e-10


def test_sheet_constellation(triple):
    sheet = sheet_constellation(triple)
    assert sheet.n_darts == 120
    p = sheet.passport()
    assert p.black == tuple([5] * 24)
    assert p.white == tuple([4] * 30)
    assert p.face == tuple([2] * 60)
    assert sheet.is_connected
    # Riemann-Hurwitz: 2 - 2g = 2*120 - (24*4 + 30*3 + 60*1)
    rh_genus = (2 - (240 - (24 * 4 + 30 * 3 + 60 * 1))) // 2
    assert sheet.genus() == rh_genus == 4


def test_sheet_requires_full_group():
    from bringcover.monodromy import MonodromyTriple

    c5 = (1, 2, 3, 4, 0)
    bad = MonodromyTriple(pi0=c5, pi1=inverse(c5), pi_inf=identity(5),
                          loops={}, inf_exact=False, order_flipped=False)
    with pytest.raises(ValueError):
        sheet_constellation(bad)


def test_kernel_budget_error_message():
    spec = loop_spec(CFG, 0)
    ts = contour(spec)
    b0 = b_from_t(complex(spec.base_t), 0)
    xs0 = roots5(1.0, b0)
    with pytest.raises(TrackingError, match="budget"):
        track_path(ts, b0, xs0, 1e-10, 3.0, 40, budget=10)


def test_kernel_collision_floor():
    # a segment crossing the branch point t=1 can never be certified
    ts = [0.5, 1.5]
    b0 = b_from_t(0.5, 0)
    xs0 = roots5(1.0, b0)
    with pytest.raises(TrackingError, match="collision floor"):
        track_path(ts, b0, xs0, 1e-10, 3.0, 20, budget=10**9)
