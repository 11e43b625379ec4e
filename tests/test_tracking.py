import cmath
import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bringcover import tracking
from bringcover.monodromy import monodromy_triple, sheet_constellation
from bringcover.perms import cycle_type, identity, inverse
from bringcover.quintic import b_from_t, roots5
from bringcover.tracking import (
    _C,
    _I_POWERS,
    _NEWTON_CAP,
    LoopSpec,
    TrackingConfig,
    TrackingError,
    _try_step,
    contour,
    loop_spec,
    track_loop,
    track_path,
)

CFG = TrackingConfig(steps=512)


# ------------------------------------------------------------ reference
# The kernel as first written: generator expressions for the distances,
# a recursive halving closure, each circle angle computed twice.  The
# unrolled kernel in tracking.py must return the same bits.

def reference_circle(spec):
    t0 = complex(spec.base_t)
    if spec.puncture == "inf":
        center = 0j
        entry = complex(t0.real, math.sqrt(spec.radius**2 - t0.real**2))
    else:
        center = complex(spec.puncture)
        entry = center + spec.radius * (t0 - center) / abs(t0 - center)
    theta0 = math.atan2((entry - center).imag, (entry - center).real)
    sign = 1.0 if spec.direction == "ccw" else -1.0
    return [
        center + abs(entry - center)
        * complex(math.cos(theta0 + sign * 2 * math.pi * k / spec.steps),
                  math.sin(theta0 + sign * 2 * math.pi * k / spec.steps))
        for k in range(1, spec.steps + 1)
    ]


def reference_newton(xs, b, tol):
    out = []
    worst = 0.0
    scale = 1.0 + abs(b)
    for x in xs:
        converged = False
        for _ in range(_NEWTON_CAP):
            x2 = x * x
            x4 = x2 * x2
            f = x4 * x + x + b
            if abs(f) <= tol * scale:
                converged = True
                break
            x = x - f / (5 * x4 + 1)
        if not converged:
            return None, 0.0
        worst = max(worst, abs(x * x * x * x * x + x + b) / scale)
        out.append(x)
    return out, worst


def reference_try_step(t_target, b_cur, xs_cur, tol, ratio):
    w = _C * (1 - t_target) / t_target
    principal = w ** 0.25
    b_new = principal
    best = abs(principal - b_cur)
    for p in _I_POWERS[1:]:
        cand = principal * p
        d = abs(cand - b_cur)
        if d < best:
            best = d
            b_new = cand
    if best > 0.4 * abs(b_new):
        return None
    xs_new, residual = reference_newton(xs_cur, b_new, tol)
    if xs_new is None:
        return None
    separation = min(
        abs(xs_new[i] - xs_new[j]) for i in range(5) for j in range(i + 1, 5)
    )
    for i in range(5):
        d_self = abs(xs_new[i] - xs_cur[i])
        d_other = min(abs(xs_new[j] - xs_cur[i]) for j in range(5) if j != i)
        if d_self * ratio > d_other:
            return None
    return b_new, xs_new, residual, separation


def reference_track_path(ts, b0, xs0, tol_residual, match_ratio, max_depth,
                         budget):
    b_cur = complex(b0)
    xs_cur = [complex(x) for x in xs0]
    t_cur = complex(ts[0])
    max_residual = 0.0
    min_separation = float("inf")
    steps_used = 0

    def advance(t_target, depth):
        nonlocal b_cur, xs_cur, t_cur, max_residual, min_separation, steps_used
        result = reference_try_step(t_target, b_cur, xs_cur, tol_residual,
                                    match_ratio)
        if result is None:
            if depth >= max_depth:
                raise TrackingError(
                    "collision floor breached: segment halved "
                    f"{max_depth} times near t={t_target}")
            t_mid = 0.5 * (t_cur + t_target)
            advance(t_mid, depth + 1)
            advance(t_target, depth + 1)
            return
        steps_used += 1
        if steps_used > budget:
            raise TrackingError(
                f"resolution budget exhausted ({budget} steps): "
                "the loop needs finer sampling, increase steps")
        b_cur, xs_cur, residual, separation = result
        t_cur = t_target
        max_residual = max(max_residual, residual)
        min_separation = min(min_separation, separation)

    for k in range(1, len(ts)):
        advance(complex(ts[k]), 0)
    return b_cur, tuple(xs_cur), max_residual, min_separation, steps_used


def _outcome(fn, *args):
    """The return value, or the message of the TrackingError raised."""
    try:
        return fn(*args)
    except TrackingError as exc:
        return f"TrackingError: {exc}"


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
    for radius in (math.nan, 0.0, -0.25):
        with pytest.raises(ValueError, match="radius"):
            LoopSpec(puncture=0, base_t=0.5, radius=radius, steps=64)
    with pytest.raises(ValueError):
        contour(LoopSpec(puncture=0, base_t=0.5, radius=0.7, steps=64))
    with pytest.raises(ValueError):
        contour(LoopSpec(puncture="inf", base_t=0.5, radius=0.4, steps=64))
    with pytest.raises(ValueError, match="both finite punctures"):
        contour(LoopSpec(puncture="inf", base_t=0.5, radius=0.9, steps=64))


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


# the default contours need no halving even at 8 steps per circle; a
# ratio of 8 rejects enough steps of the infinity loop to halve 7 times
HALVING_CFG = TrackingConfig(tol_match_ratio=8.0)


def test_coarse_but_rescuable_uses_halving():
    cfg = HALVING_CFG
    t = monodromy_triple(cfg)
    base_steps = len(contour(loop_spec(cfg, "inf"))) - 1
    assert t.loops["inf"].steps_used > base_steps  # halving really ran
    fine = monodromy_triple(CFG)
    assert (t.pi0, t.pi1, t.pi_inf) == (fine.pi0, fine.pi1, fine.pi_inf)


def test_monodromy_triple(triple):
    assert triple.cycle_types() == ((5,), (4, 1), (2, 1, 1, 1))
    assert triple.product_is_identity()
    assert triple.inf_exact
    assert triple.group.order == 120
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


def test_budget_floor_holds_from_the_default_resolution():
    # from the default resolution up a loop may halve 64 steps, what
    # budget_factor allowed at the former default of 1024; below it the
    # factor alone holds
    for steps in (TrackingConfig.steps, 64, 256):
        waypoints = steps + 2 * max(8, steps // 8)
        assert TrackingConfig(steps=steps).budget(waypoints) == waypoints + 64
    for steps in (1024, 4096):
        waypoints = steps + 2 * (steps // 8)
        assert TrackingConfig(steps=steps).budget(waypoints) == \
            int(1.05 * waypoints)
    assert TrackingConfig(steps=4).budget(20) == 21


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


@pytest.mark.parametrize("steps", [4, 7, 64, 1000, 1024, 4096])
@pytest.mark.parametrize("direction", ["ccw", "cw"])
@pytest.mark.parametrize("puncture", [0, 1, "inf"])
def test_contour_circle_matches_reference(puncture, direction, steps):
    for base_t in (0.5, 0.37):
        spec = dataclasses.replace(loop_spec(CFG, puncture), steps=steps,
                                   base_t=complex(base_t),
                                   direction=direction)
        ts = contour(spec)
        n_tail = max(8, steps // 8)
        assert ts[n_tail + 1:n_tail + 1 + steps] == reference_circle(spec)


def test_diagnostics_without_halving():
    steps = TrackingConfig().steps
    for res in monodromy_triple(TrackingConfig()).loops.values():
        diag = res.diagnostics()
        assert diag["max_halving_depth"] == 0
        assert diag["steps_used"] == diag["waypoints"]
        assert res.waypoints == steps + 2 * max(8, steps // 8)


def test_diagnostics_report_halving():
    res = monodromy_triple(HALVING_CFG).loops["inf"]
    assert res.max_halving_depth >= 1
    assert res.steps_used > res.waypoints


@settings(max_examples=40, deadline=None)
@given(puncture=st.sampled_from([0, 1, "inf"]),
       direction=st.sampled_from(["ccw", "cw"]),
       base_t=st.floats(0.3, 0.7),
       branch=st.integers(0, 3),
       radius_factor=st.floats(0.7, 1.3),
       ratio=st.floats(2.0, 5.0),
       steps=st.sampled_from([8, 16, 32, 48, 64, 256]),
       max_depth=st.sampled_from([1, 2, 3, 40]))
def test_track_path_matches_reference(puncture, direction, base_t, branch,
                                      radius_factor, ratio, steps, max_depth):
    # coarse steps halve, and exhaust the budget; a shallow max_depth
    # reaches the collision floor
    cfg = TrackingConfig(base_t=base_t, branch=branch, steps=steps,
                         radius0=0.25 * radius_factor,
                         radius1=0.25 * radius_factor,
                         radius_inf=8.0 * radius_factor,
                         tol_match_ratio=ratio)
    spec = dataclasses.replace(loop_spec(cfg, puncture), direction=direction)
    try:
        ts = contour(spec)
    except ValueError:
        assume(False)
    b0 = b_from_t(complex(base_t), branch)
    xs0 = roots5(1.0, b0, tol=cfg.tol_residual)
    budget = int(cfg.budget_factor * (len(ts) - 1))
    args = (ts, b0, xs0, cfg.tol_residual, ratio, max_depth, budget)
    got = _outcome(track_path, *args)
    want = _outcome(reference_track_path, *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert got[:5] == want


@settings(max_examples=200, deadline=None)
@given(t_re=st.floats(-1.5, 2.5), t_im=st.floats(-1.5, 1.5),
       branch=st.integers(0, 3),
       step=st.complex_numbers(max_magnitude=1.5),
       ratio=st.floats(2.0, 5.0),
       tol=st.sampled_from([1e-10, 1e-14, 0.0]))
def test_try_step_matches_reference(t_re, t_im, branch, step, ratio, tol):
    # long steps fail the branch or the match test; tol=0 stalls Newton
    t_cur = complex(t_re, t_im)
    t_target = t_cur + step
    assume(min(abs(t_cur), abs(t_target), abs(t_cur - 1)) > 1e-3)
    b_cur = b_from_t(t_cur, branch)
    xs_cur = list(roots5(1.0, b_cur))
    args = (t_target, b_cur, xs_cur, tol, ratio)
    assert _try_step(*args) == reference_try_step(*args)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, 0.5])
def test_config_rejects_bad_match_ratio(ratio):
    # a nan ratio would switch the test off; below 1 it accepts crossings
    with pytest.raises(ValueError, match="tol_match_ratio"):
        TrackingConfig(tol_match_ratio=ratio)
    with pytest.raises(ValueError, match="tol_match_ratio"):
        dataclasses.replace(CFG, tol_match_ratio=ratio)


@pytest.mark.parametrize("name", ["tol_residual", "tol_lambda"])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_config_rejects_bad_tolerance(name, tol):
    # a nan tolerance would switch its check off
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(CFG, **{name: tol})


@pytest.mark.parametrize("base_t", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_config_rejects_base_point_outside_unit_interval(base_t):
    with pytest.raises(ValueError, match="base_t"):
        TrackingConfig(base_t=base_t)


def _recorded_steps(monkeypatch, cfg):
    """Every _try_step call of the three loops of ``cfg``, with its result."""
    calls = []
    real = tracking._try_step

    def recorder(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(tracking, "_try_step", recorder)
    for p in (0, 1, "inf"):
        track_loop(loop_spec(cfg, p), cfg)
    monkeypatch.undo()
    return calls


def test_try_step_outcomes_match_reference(monkeypatch):
    # with a ratio of 8 at 32 steps per circle the contours take steps the
    # separation bound accepts, steps only the 20-distance test accepts,
    # and steps that are halved
    cfg = HALVING_CFG
    seen = {"bound": 0, "full test": 0, "rejected": 0}
    for args, result in _recorded_steps(monkeypatch, cfg):
        assert result == reference_try_step(*args)
        if result is None:
            seen["rejected"] += 1
            continue
        xs_cur, xs_new, separation = args[2], result[1], result[3]
        d_max = max(abs(y - c) for y, c in zip(xs_new, xs_cur))
        if (cfg.tol_match_ratio + 1) * d_max <= 0.5 * separation:
            seen["bound"] += 1
        else:
            seen["full test"] += 1
    assert all(seen.values()), seen


def test_try_step_rejects_between_bound_and_ratio():
    # one old root moved 0.28 of the way to the root nearest it: Newton
    # still returns it home, so d = 0.28 s, and the match test must reject
    # (0.84 s > 0.72 s) although d * ratio <= s and d <= s / 2
    b = b_from_t(0.5, 0)
    ys = list(roots5(1.0, b))
    s, i, j = min((abs(ys[i] - ys[j]), i, j)
                  for i in range(5) for j in range(5) if i != j)
    xs = list(ys)
    xs[i] = ys[i] + 0.28 * (ys[j] - ys[i])
    polished, _ = reference_newton(xs, b, 1e-10)
    assert abs(polished[i] - ys[i]) < 1e-9 * s
    args = (0.5, b, xs, 1e-10, 3.0)
    assert _try_step(*args) is None
    assert reference_try_step(*args) is None


def _abs_calls_per_step(monkeypatch, steps):
    """abs calls per committed step of the loop around 1."""
    calls = 0

    def counting_abs(z):
        nonlocal calls
        calls += 1
        return abs(z)

    monkeypatch.setattr(tracking, "abs", counting_abs, raising=False)
    cfg = TrackingConfig(steps=steps)
    res = track_loop(loop_spec(cfg, 1), cfg)
    return calls / res.steps_used


def test_step_work_guard(monkeypatch):
    # the separation bound decides every step of the loop around 1, so a
    # committed step computes 15 root distances, not 35; at 1024 steps per
    # circle the rest of a step takes below 30 abs calls
    assert _abs_calls_per_step(monkeypatch, 1024) <= 45


def test_step_work_guard_at_the_default(monkeypatch):
    # the same guard at the default resolution, where Newton needs more
    # iterations per step: about 31 abs calls besides the 15 distances
    assert _abs_calls_per_step(monkeypatch, TrackingConfig.steps) <= 50
