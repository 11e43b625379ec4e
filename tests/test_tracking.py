import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bringcover import certify, monodromy, tracking
from bringcover.monodromy import monodromy_triple, sheet_constellation
from bringcover.perms import (
    compose,
    cycle_string,
    cycle_type,
    identity,
    inverse,
)
from bringcover.quintic import BRANCH_SCALE, b_from_t, roots5
from bringcover.tracking import (
    _I_TURNS,
    _NEWTON_CAP,
    DEFAULT_STEPS,
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
# The kernel's rule written plainly: generator expressions for the
# distances, a recursive halving closure, each circle angle computed
# twice, the residual read off the polynomial as x^5 + x + b.  The
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
    return [
        center + abs(entry - center)
        * complex(math.cos(theta0 + 2 * math.pi * k / spec.steps),
                  math.sin(theta0 + 2 * math.pi * k / spec.steps))
        for k in range(1, spec.steps + 1)
    ]


def reference_newton(starts, b, tol):
    """Newton on x^5 + x + b from each start; the residual is |f| / (1 +
    |b|) at the root, the value that passed the convergence test."""
    out = []
    worst = 0.0
    scale = 1.0 + abs(b)
    for x in starts:
        converged = False
        for _ in range(_NEWTON_CAP):
            f = x * x * x * x * x + x + b
            if abs(f) <= tol * scale:
                converged = True
                break
            x = x - f / (5 * (x * x * x * x) + 1)
        if not converged:
            return None, 0.0
        worst = max(worst, abs(f) / scale)
        out.append(x)
    return out, worst


def reference_try_step(t_target, b_cur, xs_cur, b_prev, xs_prev, tol, ratio):
    w = BRANCH_SCALE * (1 - t_target) / t_target
    principal = w ** 0.25
    b_new = principal
    best = abs(principal - b_cur)
    for p in _I_TURNS:
        cand = principal * p
        d = abs(cand - b_cur)
        if d < best:
            best = d
            b_new = cand
    if best > 0.4 * abs(b_new):
        return None
    # the secant through the last two committed points predicts the roots
    if b_cur == b_prev:
        rho = 0
    else:
        rho = (b_new - b_cur) / (b_cur - b_prev)
    starts = [c + rho * (c - p) for c, p in zip(xs_cur, xs_prev)]
    xs_new, residual = reference_newton(starts, b_new, tol)
    if xs_new is None:
        return None
    separation = min(
        abs(xs_new[i] - xs_new[j]) for i in range(5) for j in range(i + 1, 5)
    )
    # the match test measures from the old roots, not the predictions
    for i in range(5):
        d_self = abs(xs_new[i] - xs_cur[i])
        d_other = min(abs(xs_new[j] - xs_cur[i]) for j in range(5) if j != i)
        if d_self * ratio > d_other:
            return None
    return b_new, xs_new, residual, separation


def reference_track_path(ts, b0, xs0, tol_residual, match_ratio, max_depth,
                         budget, entry=0):
    b_cur = b_prev = complex(b0)
    xs_cur = xs_prev = [complex(x) for x in xs0]
    at_entry = (b_cur, tuple(xs_cur))
    t_cur = complex(ts[0])
    max_residual = 0.0
    min_separation = float("inf")
    steps_used = 0

    def advance(t_target, depth):
        nonlocal b_cur, xs_cur, b_prev, xs_prev, t_cur, max_residual, \
            min_separation, steps_used
        result = reference_try_step(t_target, b_cur, xs_cur, b_prev, xs_prev,
                                    tol_residual, match_ratio)
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
        # only a committed step moves the history
        b_prev, xs_prev = b_cur, xs_cur
        b_cur, xs_cur, residual, separation = result
        t_cur = t_target
        max_residual = max(max_residual, residual)
        min_separation = min(min_separation, separation)

    for k in range(1, len(ts)):
        advance(complex(ts[k]), 0)
        if k == entry:
            at_entry = (b_cur, tuple(xs_cur))
    return (b_cur, tuple(xs_cur), max_residual, min_separation, steps_used,
            *at_entry)


def closed_reference_loop(spec, cfg):
    """The loop walked as a closed contour, tail back to the base point
    included, and matched at the base: (pi, lam_power, halvings), or the
    TrackingError message.  Each loop was tracked so before the lasso; the
    lasso must give the same permutation wherever this succeeds."""
    b0, xs0, ts, n_tail = tracking.loop_start(spec, cfg)
    closed = ts + ts[n_tail - 1::-1]
    waypoints = len(closed) - 1
    try:
        b_end, xs_end, _, _, steps_used, _, _ = reference_track_path(
            closed, b0, xs0, cfg.tol_residual, cfg.tol_match_ratio,
            tracking.MAX_DEPTH, cfg.budget(waypoints))
    except TrackingError as exc:
        return f"TrackingError: {exc}"
    lam = b_end / b0
    k = min(range(4), key=lambda k: abs(lam - 1j**k))
    if abs(lam - 1j**k) > cfg.tol_lambda:
        return "TrackingError: branch drift"
    mu = 1j ** (-k % 4)
    pi = []
    for z in xs_end:
        (d1, i1), (d2, _) = sorted((abs(mu * z - x), i)
                                   for i, x in enumerate(xs0))[:2]
        if d1 * cfg.tol_match_ratio > d2 or i1 in pi:
            return "TrackingError: final root matching ambiguous"
        pi.append(i1)
    return tuple(pi), k, steps_used - waypoints


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
    # a lasso: the tail starts at the base point, and the circle closes bit
    # for bit on the entry point, where the tail ends
    n_tail = max(8, CFG.steps // 8)
    for p in (0, 1, "inf"):
        spec = loop_spec(CFG, p)
        ts = contour(spec)
        entry = tracking.loop_entry(spec)[1]
        assert ts[0] == complex(CFG.base_t)
        assert ts[n_tail] == ts[-1] == entry
        assert len(ts) == n_tail + CFG.steps + 1
        assert ts.index(entry) == n_tail


@pytest.mark.parametrize("puncture,wind0,wind1", [
    (0, 1, 0),
    (1, 0, 1),
    ("inf", 1, 1),  # a large circle winds once around both finite punctures
])
def test_contour_winding(puncture, wind0, wind1):
    # the closed part of the lasso: the circle from its entry point
    ts = contour(loop_spec(CFG, puncture))
    circle = ts[ts.index(ts[-1]):]
    assert winding_number(circle, 0) == wind0
    assert winding_number(circle, 1) == wind1


def test_loop_spec_validation():
    with pytest.raises(ValueError):
        LoopSpec(puncture=2, base_t=0.5, radius=0.1, steps=64)
    with pytest.raises(ValueError):
        LoopSpec(puncture=0, base_t=1, radius=0.1, steps=64)
    # off (0, 1) the tail runs through the other finite puncture, and off
    # the real axis the circle is not its own mirror image: both are
    # refused as TrackingConfig refuses them, not mid-track
    for base_t in (2.0, -0.5, 0, math.nan, 0.5 + 0.1j, 0.5 - 1e-300j):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            LoopSpec(0, base_t, 0.25, 32)
    LoopSpec(0, 0.5 + 0j, 0.25, 32)
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
    # the circle of radius 1.001 holds t = 1, but the 32-gon walked on it
    # has inradius 0.996; at 1024 steps the inradius is 1.000995
    with pytest.raises(ValueError, match="both finite punctures"):
        contour(LoopSpec(puncture="inf", base_t=0.5, radius=1.001, steps=32))
    contour(LoopSpec(puncture="inf", base_t=0.5, radius=1.001, steps=1024))


def test_huge_infinity_radius_is_a_value_error():
    # radius_inf**2 overflows a float: an OverflowError would escape the
    # config's ValueError contract and the CLI's exit code 2
    with pytest.raises(ValueError, match="overflows"):
        TrackingConfig(radius_inf=1e200)
    with pytest.raises(ValueError, match="overflows"):
        contour(LoopSpec(puncture="inf", base_t=0.5, radius=1e200, steps=32))


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


def test_step_doubling_invariance(triple):
    fine = monodromy_triple(CFG.with_steps(1024))
    assert (fine.pi0, fine.pi1, fine.pi_inf) == \
        (triple.pi0, triple.pi1, triple.pi_inf)


def test_radius_perturbation_invariance(triple):
    for factor in (0.8, 1.2):
        cfg = CFG._replace(
            radius0=CFG.radius0 * factor, radius1=CFG.radius1 * factor,
            radius_inf=CFG.radius_inf * factor)
        t = monodromy_triple(cfg)
        assert (t.pi0, t.pi1, t.pi_inf) == \
            (triple.pi0, triple.pi1, triple.pi_inf)


def test_conjugation_robustness(triple):
    # cycle types independent of base point and branch
    for base_t, branch in ((0.4, 1), (0.6, 2)):
        cfg = CFG._replace(base_t=base_t, branch=branch)
        t = monodromy_triple(cfg)
        assert t.cycle_types() == triple.cycle_types()


def test_too_coarse_fails():
    with pytest.raises(TrackingError):
        monodromy_triple(TrackingConfig(steps=4))


# the default contours need no halving even at 8 steps per circle; a
# ratio of 8 rejects enough steps of the infinity loop to halve 3 times
HALVING_CFG = TrackingConfig(tol_match_ratio=8.0)


def test_coarse_but_rescuable_uses_halving():
    cfg = HALVING_CFG
    t = monodromy_triple(cfg)
    res = t.loops["inf"]
    assert res.steps_used > res.waypoints  # halving really ran
    fine = monodromy_triple(CFG)
    assert (t.pi0, t.pi1, t.pi_inf) == (fine.pi0, fine.pi1, fine.pi_inf)


# (pi0, pi1, pi_inf) at base_t 0.5 by branch, recorded from the tracker
# that started Newton at the old roots; the same at 8, 32 and 1024 steps
PINNED_CYCLES = {
    0: ("(0 2 1 4 3)", "(0 3 4 1)", "(0 2)"),
    1: ("(0 2 4 3 1)", "(0 1 3 4)", "(0 2)"),
    2: ("(0 1 4 2 3)", "(0 3 4 1)", "(2 4)"),
    3: ("(0 1 3 4 2)", "(0 4 3 1)", "(2 4)"),
}


@pytest.mark.parametrize("branch", range(4))
@pytest.mark.parametrize("steps", [8, 32, 1024])
def test_pinned_permutations(steps, branch):
    t = monodromy_triple(TrackingConfig(steps=steps, branch=branch))
    assert tuple(map(cycle_string, (t.pi0, t.pi1, t.pi_inf))) == \
        PINNED_CYCLES[branch]


# the halvings of the infinity loop's two walks to the real points, by
# match ratio: 3 and 28, where its closed contour halves 7 and 58 times
LASSO_HALVINGS = {8.0: 3, 19.0: 28}


@pytest.mark.parametrize("ratio, halvings", [(8.0, 7), (19.0, 58)])
def test_pinned_infinity_halvings(ratio, halvings):
    # the closed contour's halvings, recorded from the tracker that started
    # Newton at the old roots: the secant start moves no step across the
    # ratio test
    cfg = TrackingConfig(tol_match_ratio=ratio)
    spec = loop_spec(cfg, "inf")
    res = track_loop(spec, cfg)
    assert closed_reference_loop(spec, cfg) == (res.pi, 0, halvings)
    assert res.steps_used - res.waypoints == LASSO_HALVINGS[ratio]


def test_zero_move_step_has_no_secant():
    # a repeated waypoint commits a step that does not move b, after which
    # b_cur == b_prev: the next step starts Newton at the old roots rather
    # than dividing by zero, and lands on the roots of the path without it
    b0 = b_from_t(0.5, 0)
    xs0 = roots5(1.0, b0)
    got = track_path([0.5, 0.45, 0.45, 0.4], b0, xs0, 1e-10, 3.0, 40, 100)
    want = track_path([0.5, 0.45, 0.4], b0, xs0, 1e-10, 3.0, 40, 100)
    assert got[4:6] == (3, 0)
    assert got[0] == want[0]
    assert max(abs(x - y) for x, y in zip(got[1], want[1])) < 1e-10
    # the entry state defaults to the start; at the repeated waypoint the
    # zero move keeps the state its first copy committed
    assert got[6:] == (b0, tuple(xs0))
    again = track_path([0.5, 0.45, 0.45, 0.4], b0, xs0, 1e-10, 3.0, 40, 100,
                       entry=2)
    assert again[:6] == got[:6]
    assert again[6:] == track_path([0.5, 0.45], b0, xs0, 1e-10, 3.0, 40,
                                   100)[:2]


def test_repeated_waypoints_keep_the_permutation(monkeypatch):
    # every waypoint twice: each loop commits twice its steps, the
    # permutations are those recorded from the tracker that started Newton
    # at the old roots, and the halving count is the lasso's.  A finite
    # loop walks the doubled lasso to its circle's antipode: 15 tail
    # waypoints and 33 of the circle's 65, the antipode included.  The
    # infinity loop walks the 15, then 17 waypoints of the upper arc and
    # -R, and from the entry 15 of the arc the other way and +R
    real = tracking.contour
    monkeypatch.setattr(tracking, "contour",
                        lambda spec: [t for t in real(spec)
                                      for _ in (0, 1)][1:])
    pinned = {0: (2, 4, 1, 0, 3), 1: (3, 0, 2, 4, 1), "inf": (2, 1, 0, 3, 4)}
    for cfg, halvings in ((TrackingConfig(), 0),
                          (HALVING_CFG, LASSO_HALVINGS[8.0])):
        for p, pi in pinned.items():
            res = track_loop(loop_spec(cfg, p), cfg)
            assert res.pi == pi
            assert res.waypoints == (49 if p == "inf" else 48)
            assert res.steps_used - res.waypoints == \
                (halvings if p == "inf" else 0)


@settings(max_examples=60, deadline=None)
@given(puncture=st.sampled_from([0, 1, "inf"]),
       base_t=st.floats(0.3, 0.7),
       branch=st.integers(0, 3),
       radius_factor=st.floats(0.7, 1.3),
       # at an odd count the antipode falls mid-edge
       steps=st.sampled_from([8, 9, 16, 32, 33, 64, 255, 256]),
       ratio=st.floats(2.0, 8.0))
def test_lasso_matches_the_closed_contour(puncture, base_t, branch,
                                          radius_factor, steps, ratio):
    # wherever the closed contour tracks, the lasso (the infinity loop) or
    # the conjugation closure (a finite loop) tracks too and reads the same
    # permutation and power of i; the certificate proves it
    try:
        cfg = TrackingConfig(base_t=base_t, branch=branch, steps=steps,
                             radius0=0.25 * radius_factor,
                             radius1=0.25 * radius_factor,
                             radius_inf=8.0 * radius_factor,
                             tol_match_ratio=ratio)
    except ValueError:
        assume(False)
    spec = loop_spec(cfg, puncture)
    want = closed_reference_loop(spec, cfg)
    try:
        res = track_loop(spec, cfg)
    except TrackingError:
        assert isinstance(want, str)
        return
    assert res.pi == certify.certify(cfg)[puncture].pi
    if not isinstance(want, str):
        assert (res.pi, res.lam_power) == want[:2]


@pytest.mark.parametrize("steps", [4, 9, 32, 33, 1024])
@pytest.mark.parametrize("puncture", [0, 1])
def test_finite_loop_walks_to_the_real_antipode(monkeypatch, puncture,
                                                steps):
    # the path a finite loop walks is the contour's prefix through the
    # first half of the circle, then the antipode 2p - entry, exactly real:
    # built from tracking.contour, so a rebinding of it sees every loop
    contours, paths = [], []
    real_contour, real_track_path = tracking.contour, tracking.track_path

    def recorded_contour(spec):
        contours.append(real_contour(spec))
        return contours[-1]

    def recorded_track_path(ts, *args, **kwargs):
        paths.append(ts)
        return real_track_path(ts, *args, **kwargs)

    monkeypatch.setattr(tracking, "contour", recorded_contour)
    monkeypatch.setattr(tracking, "track_path", recorded_track_path)
    cfg = TrackingConfig(steps=steps)
    track_loop(loop_spec(cfg, puncture), cfg)
    (ts,), (path,) = contours, paths
    entry = ts.index(ts[-1])
    assert path[:-1] == ts[:entry + math.ceil(steps / 2)]
    assert path[-1].imag == 0
    assert path[-1] == 2 * puncture - ts[entry]


@pytest.mark.parametrize("steps", [4, 9, 32, 33, 1024])
def test_infinity_walks_to_the_real_points(monkeypatch, steps):
    # the infinity loop walks the contour's prefix through the circle's
    # upper arc counter-clockwise, then -R exactly; then, from the entry,
    # the upper arc clockwise, then +R exactly.  The two arcs share no
    # waypoint and cover the circle's upper half.  At 4 steps the first
    # walk spends the halving allowance and the second fails its budget
    contours, paths = [], []
    real_contour, real_track_path = tracking.contour, tracking.track_path

    def recorded_contour(spec):
        contours.append(real_contour(spec))
        return contours[-1]

    def recorded_track_path(ts, *args, **kwargs):
        paths.append(ts)
        return real_track_path(ts, *args, **kwargs)

    monkeypatch.setattr(tracking, "contour", recorded_contour)
    monkeypatch.setattr(tracking, "track_path", recorded_track_path)
    cfg = TrackingConfig(steps=steps)
    _outcome(track_loop, loop_spec(cfg, "inf"), cfg)
    (ts,), (h0, h1) = contours, paths
    entry = ts.index(ts[-1])
    n0, n1 = len(h0) - 2 - entry, len(h1) - 2
    assert h0[:-1] == ts[:entry + 1 + n0]
    assert h1[:-1] == ts[:-2 - n1:-1]
    assert h1[0] == ts[entry]
    assert all(t.imag > 0 for t in h0[entry:-1] + h1[:-1])
    assert ts[entry + 1 + n0].imag <= 0 and ts[-2 - n1].imag <= 0
    assert n0 + n1 == sum(t.imag > 0 for t in ts[entry + 1:-1])
    assert h0[-1] == complex(-cfg.radius_inf, 0.0)
    assert h1[-1] == complex(cfg.radius_inf, 0.0)
    assert h0[-1].imag == h1[-1].imag == 0


@pytest.mark.parametrize("branch", range(4))
@pytest.mark.parametrize("base_t", [0.3, 0.5, 0.7])
def test_infinity_half_closures_are_the_finite_loops(monkeypatch, base_t,
                                                     branch):
    # cut along Re t = t0, the walk to -R closes as the loop around 0 and
    # the walk to +R as the inverse of the loop around 1: each closure on
    # its own reads the closed contour's permutation and power of i, and
    # the infinity loop is their composite
    closures = []
    real_close = tracking._close

    def recorded_close(*args):
        closures.append(real_close(*args))
        return closures[-1]

    monkeypatch.setattr(tracking, "_close", recorded_close)
    cfg = TrackingConfig(base_t=base_t, branch=branch)
    res = track_loop(loop_spec(cfg, "inf"), cfg)
    (pi0, m0), (rho, m1) = closures
    assert (pi0, m0) == closed_reference_loop(loop_spec(cfg, 0), cfg)[:2]
    assert (inverse(rho), -m1 % 4) == \
        closed_reference_loop(loop_spec(cfg, 1), cfg)[:2]
    assert (res.pi, res.lam_power) == \
        (compose(inverse(rho), pi0), (m0 - m1) % 4)


def _mirror_of_base_roots(cfg):
    """kappa[j], the index of the base root nearest eps conj(x_j), with
    eps = (-1)^branch."""
    b0, xs0, *_ = tracking.loop_start(loop_spec(cfg, 0), cfg)
    eps = (-1) ** cfg.branch
    assert eps * b0.conjugate() == b0
    return tuple(min(range(5),
                     key=lambda i: abs(eps * x.conjugate() - xs0[i]))
                 for x in xs0)


@pytest.mark.parametrize("branch", range(4))
def test_conjugation_inverts_the_finite_loops(branch):
    # complex conjugation fixes the real tail's branch and permutes the
    # base roots by kappa, a double transposition (one base root lies on
    # the mirror line); each finite loop is its own mirror image run
    # backwards, so kappa pi kappa = pi^-1 for the closed contour's pi, and
    # the conjugation closure reads that pi.  The infinity loop is not its
    # own mirror image: its transposition is not inverted by kappa
    cfg = TrackingConfig(branch=branch)
    kappa = _mirror_of_base_roots(cfg)
    assert cycle_type(kappa) == (2, 2, 1)
    for p in (0, 1, "inf"):
        spec = loop_spec(cfg, p)
        pi = closed_reference_loop(spec, cfg)[0]
        inverted = compose(compose(kappa, pi), kappa) == inverse(pi)
        assert inverted == (p != "inf")
        assert track_loop(spec, cfg).pi == pi


def test_forked_triple_matches_the_closed_contours(triple):
    want = {p: closed_reference_loop(loop_spec(CFG, p), CFG)[:2]
            for p in (0, 1, "inf")}
    assert {p: (r.pi, r.lam_power) for p, r in triple.loops.items()} == want
    assert (triple.pi0, triple.pi1, triple.pi_inf) == \
        (want[0][0], want[1][0], want["inf"][0])


def test_monodromy_triple(triple):
    assert triple.cycle_types() == ((5,), (4, 1), (2, 1, 1, 1))
    assert triple.product_is_identity()
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


@pytest.mark.parametrize("branch", range(4))
@pytest.mark.parametrize("base_t", [0.3, 0.4, 0.5, 0.6, 0.7])
def test_infinity_track_is_the_composite_inverse(base_t, branch):
    # the contours fix the relation: the infinity circle is the loop around
    # 0 followed by the loop around 1, and its transposition is its own
    # inverse, so both forms hold at every base point and branch
    t = monodromy_triple(TrackingConfig(base_t=base_t, branch=branch))
    assert t.pi_inf == inverse(compose(t.pi1, t.pi0))
    assert t.pi_inf == compose(t.pi1, t.pi0)


def test_conjugate_infinity_track_is_rejected(monkeypatch):
    # a direct track only conjugate to the composite is a tracking fault,
    # not another composition order
    c5 = (1, 2, 3, 4, 0)
    real = monodromy.track_loop

    def conjugated(spec, cfg):
        res = real(spec, cfg)
        if spec.puncture != "inf":
            return res
        pi = compose(compose(c5, res.pi), inverse(c5))
        assert pi != res.pi and cycle_type(pi) == cycle_type(res.pi)
        return res._replace(pi=pi)

    monkeypatch.setattr(monodromy, "track_loop", conjugated)
    with pytest.raises(ArithmeticError, match="composite"):
        monodromy_triple(TrackingConfig())


def test_sheet_requires_full_group():
    from bringcover.monodromy import MonodromyTriple

    c5 = (1, 2, 3, 4, 0)
    bad = MonodromyTriple(pi0=c5, pi1=inverse(c5), pi_inf=identity(5),
                          loops={})
    with pytest.raises(ValueError):
        sheet_constellation(bad)


def test_budget_floor_holds_from_the_default_resolution():
    # from the default resolution up a loop may halve 64 steps, what
    # BUDGET_FACTOR allowed at the former default of 1024; below it the
    # factor alone holds
    for steps in (DEFAULT_STEPS, 64, 256):
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
@pytest.mark.parametrize("puncture", [0, 1, "inf"])
def test_contour_circle_matches_reference(puncture, steps):
    for base_t in (0.5, 0.37):
        spec = loop_spec(CFG, puncture)._replace(steps=steps,
                                                 base_t=complex(base_t))
        ts = contour(spec)
        n_tail = max(8, steps // 8)
        # the circle's last waypoint is the entry point itself, not its
        # angle recomputed a full turn on
        assert ts[n_tail + 1:] == reference_circle(spec)[:-1] + [ts[n_tail]]


def test_diagnostics_without_halving():
    steps = TrackingConfig().steps
    n_tail = max(8, steps // 8)
    loops = monodromy_triple(TrackingConfig()).loops
    for res in loops.values():
        diag = res.diagnostics()
        assert diag["max_halving_depth"] == 0
        assert diag["steps_used"] == diag["waypoints"]
    # the infinity loop walks the upper arc each way, to -R and +R
    assert loops["inf"].waypoints == n_tail + steps // 2 + 1
    # a finite loop walks its circle only to the antipode
    assert loops[0].waypoints == loops[1].waypoints == n_tail + steps // 2


def test_diagnostics_report_halving():
    res = monodromy_triple(HALVING_CFG).loops["inf"]
    assert res.max_halving_depth >= 1
    assert res.steps_used > res.waypoints


@settings(max_examples=40, deadline=None)
@given(puncture=st.sampled_from([0, 1, "inf"]),
       base_t=st.floats(0.3, 0.7),
       branch=st.integers(0, 3),
       radius_factor=st.floats(0.7, 1.3),
       ratio=st.floats(2.0, 5.0),
       steps=st.sampled_from([8, 16, 32, 48, 64, 256]),
       max_depth=st.sampled_from([1, 2, 3, 40]))
def test_track_path_matches_reference(puncture, base_t, branch,
                                      radius_factor, ratio, steps, max_depth):
    # coarse steps halve, and exhaust the budget; a shallow max_depth
    # reaches the collision floor
    try:
        cfg = TrackingConfig(base_t=base_t, branch=branch, steps=steps,
                             radius0=0.25 * radius_factor,
                             radius1=0.25 * radius_factor,
                             radius_inf=8.0 * radius_factor,
                             tol_match_ratio=ratio)
    except ValueError:
        assume(False)
    ts = contour(loop_spec(cfg, puncture))
    b0 = b_from_t(complex(base_t), branch)
    xs0 = roots5(1.0, b0, tol=cfg.tol_residual)
    budget = int(tracking.BUDGET_FACTOR * (len(ts) - 1))
    args = (ts, b0, xs0, cfg.tol_residual, ratio, max_depth, budget, None,
            ts.index(ts[-1]))
    got = _outcome(track_path, *args)
    want = _outcome(reference_track_path, *args[:7], args[8])
    if isinstance(want, str):
        assert got == want
    else:
        assert got[:5] + got[6:] == want


def _separation(xs):
    return min(abs(xs[i] - xs[j]) for i in range(5) for j in range(i + 1, 5))


def assert_step_matches_reference(result, want, floor):
    """``result`` of _try_step is ``want`` of the reference, but for a
    separation the carried bound may lower to no less than ``floor``."""
    if result is None or want is None:
        assert result == want
        return
    assert result[:3] == want[:3]
    assert result[3] == want[3] or floor <= result[3] <= want[3]


@settings(max_examples=200, deadline=None)
@given(t_re=st.floats(-1.5, 2.5), t_im=st.floats(-1.5, 1.5),
       branch=st.integers(0, 3),
       step=st.complex_numbers(max_magnitude=1.5),
       back=st.none() | st.complex_numbers(max_magnitude=0.5),
       ratio=st.floats(2.0, 5.0),
       tol=st.sampled_from([1e-10, 1e-14, 0.0]),
       carry=st.none() | st.tuples(st.floats(0, 1), st.floats(0, 1)))
# a step that does not move, with no history and no carried separation:
# the defaults must force the exact separation, where a default floor of 0
# returned the bound 0 - 2 * 0 = 0
@example(t_re=0.5, t_im=0.0, branch=0, step=0j, back=None, ratio=3.0,
         tol=1e-10, carry=None)
def test_try_step_matches_reference(t_re, t_im, branch, step, back, ratio,
                                    tol, carry):
    # long steps fail the branch or the match test; tol=0 stalls Newton; a
    # step with history predicts from an earlier t_cur - back, whose roots
    # are paired with the current ones by nearness (a far or zero back, or
    # another branch, gives a poor or a zero secant); a carry (a, f) passes
    # the old separation scaled by a, a lower bound, and f times that as the
    # running minimum
    t_cur = complex(t_re, t_im)
    t_target = t_cur + step
    assume(min(abs(t_cur), abs(t_target), abs(t_cur - 1)) > 1e-3)
    b_cur = b_from_t(t_cur, branch)
    xs_cur = list(roots5(1.0, b_cur))
    if back is None:
        b_prev, xs_prev = b_cur, xs_cur
    else:
        t_prev = t_cur - back
        assume(min(abs(t_prev), abs(t_prev - 1)) > 1e-3)
        b_prev = b_from_t(t_prev, branch)
        roots_prev = roots5(1.0, b_prev)
        xs_prev = [min(roots_prev, key=lambda p: abs(p - c)) for c in xs_cur]
    args = (t_target, b_cur, xs_cur, b_prev, xs_prev, tol, ratio)
    want = reference_try_step(*args)
    if carry is None:
        assert _try_step(*args) == want
        return
    sep_cur = carry[0] * _separation(xs_cur)
    floor = carry[1] * sep_cur
    assert_step_matches_reference(_try_step(*args, sep_cur, floor), want,
                                  floor)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, 0.5])
def test_config_rejects_bad_match_ratio(ratio):
    # a nan ratio would switch the test off; below 1 it accepts crossings
    with pytest.raises(ValueError, match="tol_match_ratio"):
        TrackingConfig(tol_match_ratio=ratio)
    with pytest.raises(ValueError, match="tol_match_ratio"):
        CFG._replace(tol_match_ratio=ratio)


@pytest.mark.parametrize("value, name", [
    *((tol, name) for name in ("tol_residual", "tol_lambda")
      for tol in (math.nan, math.inf, 0.0, -1e-8)),
    (7, "branch"), (-1, "branch"), (1.0, "branch"),
    # a bool is an int to isinstance; a None seed would fail only when the
    # printed-deviation samples add to it
    (True, "branch"),
    (None, "seed"), (1.0, "seed"), (True, "seed"), ("0", "seed"),
])
def test_config_rejects_bad_tolerance(value, name):
    # a nan tolerance would switch its check off; a bad branch would fail
    # only when a loop starts
    with pytest.raises(ValueError, match=name):
        CFG._replace(**{name: value})


@pytest.mark.parametrize("base_t", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_config_rejects_base_point_outside_unit_interval(base_t):
    with pytest.raises(ValueError, match="base_t"):
        TrackingConfig(base_t=base_t)


def test_steps_bound_leaves_the_doubling_buildable():
    # a loop takes at most 2 * MAX_STEPS steps, the doubling row's
    # resolution at the most a run may ask for; no contour is built here
    top = TrackingConfig(steps=tracking.MAX_STEPS)
    assert top.with_steps(2 * top.steps).steps == 2 * tracking.MAX_STEPS
    for make in (lambda n: TrackingConfig(steps=n),
                 lambda n: top.with_steps(n),
                 lambda n: loop_spec(CFG, 0)._replace(steps=n)):
        with pytest.raises(ValueError, match="at most 2097152,"):
            make(2 * tracking.MAX_STEPS + 1)


def _recorded_steps(monkeypatch, cfg):
    """Every _try_step call of walks of the three full lassos of ``cfg``,
    with the loops' budgets, and its result."""
    calls = []
    real = tracking._try_step

    def recorder(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(tracking, "_try_step", recorder)
    for p in (0, 1, "inf"):
        b0, xs0, ts, entry = tracking.loop_start(loop_spec(cfg, p), cfg)
        track_path(ts, b0, xs0, cfg.tol_residual, cfg.tol_match_ratio,
                   tracking.MAX_DEPTH, cfg.budget(len(ts) - 1 + entry) - entry,
                   entry=entry)
    monkeypatch.undo()
    return calls


def test_try_step_outcomes_match_reference(monkeypatch):
    # with a ratio of 8 at 32 steps per circle the contours take steps the
    # carried bound accepts, steps the separation bound accepts, steps only
    # the 20-distance test accepts, and steps that are halved, all but each
    # loop's first with a secant history; the kernel passes 9 arguments,
    # the old separation and the running minimum after the reference's 7
    cfg = HALVING_CFG
    seen = {"carried": 0, "bound": 0, "full test": 0, "rejected": 0}
    calls = _recorded_steps(monkeypatch, cfg)
    no_history = [args for args, _ in calls if args[1] == args[3]]
    assert len(no_history) == 3
    for args, result in calls:
        want = reference_try_step(*args[:7])
        assert_step_matches_reference(result, want, args[8])
        if result is None:
            seen["rejected"] += 1
        elif result[3] != want[3]:
            seen["carried"] += 1
        elif (cfg.tol_match_ratio + 1) * max(
                abs(y - c) for y, c in zip(result[1], args[2])) \
                <= 0.5 * result[3]:
            seen["bound"] += 1
        else:
            seen["full test"] += 1
    assert all(seen.values()), seen


def test_track_path_matches_reference_at_1024_steps(monkeypatch):
    # at 1024 steps per circle the carried bound decides about half the
    # steps, where at 256 it decides one in three and at 32 one in ten
    cfg = TrackingConfig(steps=1024)
    taken = carried = 0
    real = tracking._try_step

    def recorder(*args):
        nonlocal taken, carried
        result = real(*args)
        if result is not None:
            taken += 1
            carried += result[3] != _separation(result[1])
        return result

    monkeypatch.setattr(tracking, "_try_step", recorder)
    for p in (0, 1, "inf"):
        b0, xs0, ts, entry = tracking.loop_start(loop_spec(cfg, p), cfg)
        args = (ts, b0, xs0, cfg.tol_residual, cfg.tol_match_ratio,
                tracking.MAX_DEPTH, cfg.budget(len(ts) - 1))
        got = track_path(*args, None, entry)
        want = reference_track_path(*args, entry)
        assert got[5] == 0
        assert got[:5] + got[6:] == want
    assert carried >= 0.4 * taken, (carried, taken)


def test_carried_bound_takes_both_roots_motion():
    # the two nearest old roots each lie d = s / 20 beyond their new roots,
    # on the line through them: the old separation is s + 2d and the new
    # one s, so a bound of sep_cur - d_max would return s + d, above it
    t = 0.5 + 0.2j
    b = b_from_t(t, 0)
    ys = list(roots5(1.0, b))
    s, i, j = min((abs(ys[i] - ys[j]), i, j)
                  for i in range(5) for j in range(i + 1, 5))
    u = (ys[j] - ys[i]) / s
    xs = list(ys)
    xs[i] -= s / 20 * u
    xs[j] += s / 20 * u
    sep_cur = _separation(xs)
    assert sep_cur == abs(xs[i] - xs[j])
    result = _try_step(t, b, xs, b, xs, 1e-10, 3.0, sep_cur, 0.0)
    want = reference_try_step(t, b, xs, b, xs, 1e-10, 3.0)
    assert result[:3] == want[:3]
    # the bound decided the step, and lies below the exact separation
    assert 0 < result[3] < want[3] == _separation(want[1])
    assert want[3] - result[3] < 1e-9 * s


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
    args = (0.5, b, xs, b, xs, 1e-10, 3.0)
    assert _try_step(*args) is None
    assert reference_try_step(*args) is None


@pytest.mark.parametrize("nan_at", ["root", "branch", "t"])
def test_try_step_rejects_nan(nan_at):
    # a NaN residual fails every comparison, so a test written as r > lim
    # would skip Newton and keep the NaN root
    nan = complex("nan")
    b = b_from_t(0.5, 0)
    xs = list(roots5(1.0, b))
    if nan_at == "root":
        xs[2] = nan
    t, b_cur = (nan if nan_at == "t" else 0.49,
                nan if nan_at == "branch" else b)
    args = (t, b_cur, xs, b_cur, xs, 1e-10, 3.0)
    assert _try_step(*args) is None
    assert reference_try_step(*args) is None
    if nan_at == "root":
        with pytest.raises(TrackingError, match="collision floor"):
            track_path([0.5, 0.49], b, xs, 1e-10, 3.0, 40, 100)


@pytest.mark.parametrize("i", range(5))
def test_try_step_rejects_when_only_one_root_fails(i):
    # old root i lies 0.15 of the way to the root nearest it and every
    # other old root on its root: at ratio 8 the separation bound does not
    # decide (9 * 0.15 s > s / 2), every other root passes its
    # cross-distance test and only root i fails it (8 * 0.15 > 0.85)
    b = b_from_t(0.5, 0)
    ys = list(roots5(1.0, b))
    j = min((k for k in range(5) if k != i), key=lambda k: abs(ys[k] - ys[i]))
    xs = list(ys)
    xs[i] = ys[i] + 0.15 * (ys[j] - ys[i])
    # at ratio 1 the step is taken: Newton returns root i home
    taken = _try_step(0.5, b, xs, b, xs, 1e-10, 1.0)
    assert max(abs(y - z) for y, z in zip(taken[1], ys)) < 1e-9
    assert _try_step(0.5, b, xs, b, xs, 1e-10, 8.0) is None


def _abs_calls(monkeypatch, steps, puncture):
    """(abs calls, committed steps) of one loop; of the infinity loop, the
    kernel's walk of its full lasso, as :mod:`certify` walks it."""
    calls = 0

    def counting_abs(z):
        nonlocal calls
        calls += 1
        return abs(z)

    monkeypatch.setattr(tracking, "abs", counting_abs, raising=False)
    cfg = TrackingConfig(steps=steps)
    spec = loop_spec(cfg, puncture)
    if puncture == "inf":
        b0, xs0, ts, entry = tracking.loop_start(spec, cfg)
        steps_used = track_path(
            ts, b0, xs0, cfg.tol_residual, cfg.tol_match_ratio,
            tracking.MAX_DEPTH, cfg.budget(len(ts) - 1), entry=entry)[4]
    else:
        steps_used = track_loop(spec, cfg).steps_used
    monkeypatch.undo()
    return calls, steps_used


def test_step_work_guard(monkeypatch):
    # the separation bound decides nearly every step of the infinity lasso,
    # so a committed step computes 15 root distances, not 35, and 2 for the
    # branch, whose quarter turn the quadrant picks; at 1024 steps per
    # circle the secant start leaves each root one Newton update, two abs
    # calls with no separate residual, 10 in all; on about half the steps
    # the carried bound spares the ten pairwise distances, 22 on average
    calls, steps_used = _abs_calls(monkeypatch, 1024, "inf")
    assert calls / steps_used <= 25
    # the loop around 1 walks its circle only to the antipode: about 17,200
    # abs calls, where its whole lasso took about 26,600
    assert _abs_calls(monkeypatch, 1024, 1)[0] <= 18_500


def test_step_work_guard_at_the_default(monkeypatch):
    # the loop around 1 at the default resolution, where Newton needs more
    # iterations per step: about 830 abs calls for its 24 steps and the
    # two closing matches, where its whole lasso took about 1,260
    assert _abs_calls(monkeypatch, DEFAULT_STEPS, 1)[0] <= 900


# ------------------------------------------------------------ base point

def test_loop_start_branch_picks_the_base_roots():
    # the cached base solve is keyed by branch: branch 2 is the opposite
    # fourth root, and each start carries the roots of its own quintic
    spec = loop_spec(CFG, 0)
    b0, xs0, *_ = tracking.loop_start(spec, CFG)
    b2, xs2, *_ = tracking.loop_start(spec, CFG._replace(branch=2))
    assert b0 != b2
    assert abs(b2 + b0) <= 1e-15 * abs(b0)
    for b, xs in ((b0, xs0), (b2, xs2)):
        assert xs == roots5(1.0, b, tol=CFG.tol_residual)



@pytest.mark.parametrize("steps", [DEFAULT_STEPS, 1024])
@pytest.mark.parametrize("radius", [8.8e8, 1e9, 1e30, 1e150])
def test_far_circle_past_the_double_root_floor_is_a_value_error(steps,
                                                                 radius):
    # |b^4 + C| = C/R on the circle, so near t = -R the branch passes the
    # double-root value b* within about C^(1/4) / (4R), where f(x*) is that
    # small: below tol_residual (1 + |b|) Newton accepts x* for either
    # root, from R of about 8.7e8 at the default tolerance
    with pytest.raises(ValueError, match="double root"):
        TrackingConfig(radius_inf=radius, steps=steps)


def test_far_circle_floor_follows_the_derivation():
    c4 = BRANCH_SCALE ** 0.25
    limit = c4 / (4 * 1e-10 * (1 + c4))
    assert 8.7e8 < limit < 8.72e8
    TrackingConfig(radius_inf=0.99 * limit)
    with pytest.raises(ValueError, match="double root"):
        TrackingConfig(radius_inf=1.01 * limit)
    # a finer residual moves the floor out, down to the float resolution
    TrackingConfig(radius_inf=1e12, tol_residual=1e-14)
    with pytest.raises(ValueError, match="double root"):
        TrackingConfig(radius_inf=1e15, tol_residual=1e-20)
    # and a coarse one closes in on the default circle
    with pytest.raises(ValueError, match="tol_residual 0.02"):
        TrackingConfig(tol_residual=0.02)


def test_radius_1e8_tracks_the_default_permutations():
    cfg = TrackingConfig(radius_inf=1e8)
    assert cfg.radius_inf == 1e8
    far, default = monodromy_triple(cfg), monodromy_triple(TrackingConfig())
    assert (far.pi0, far.pi1, far.pi_inf) == \
        (default.pi0, default.pi1, default.pi_inf)
