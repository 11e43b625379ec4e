"""The Rouché certificate: each float bound against an interval or
high-precision reference, and the certificate of the default contours."""

import cmath
import math
import random

import mpmath
import pytest

from bringcover import certify, tracking, verify
from bringcover.certify import (
    certify_loop,
    discs,
    distance_below,
    drift_bound,
    residual_bound,
    taylor_bound,
)
from bringcover.quintic import b_from_t, roots5
from bringcover.tracking import (
    DEFAULT_STEPS,
    TrackingConfig,
    contour,
    loop_spec,
    track_loop,
)

iv = mpmath.iv
mp = mpmath.mp

PRECISION = 200


@pytest.fixture(autouse=True)
def high_precision():
    saved = iv.prec, mp.prec
    iv.prec = mp.prec = PRECISION
    yield
    iv.prec, mp.prec = saved


def _ivc(z):
    return iv.mpc(z.real, z.imag)


def _waypoints(cfg, puncture):
    """(t, beta, roots) at every waypoint the kernel commits on a loop."""
    b0, xs0, ts, _ = tracking.loop_start(loop_spec(cfg, puncture), cfg)
    seen = [(complex(cfg.base_t), b0, xs0)]

    def record(t_cur, t_new, result):
        seen.append((t_new, result[0], tuple(result[1])))
        return True

    tracking.track_path(ts, b0, xs0, cfg.tol_residual, certify.WALK_RATIO,
                        tracking.MAX_DEPTH, math.inf, record)
    return seen


@pytest.fixture(scope="module")
def states():
    """Waypoints of the three default loops, the infinity tail included,
    and of a coarser loop at another base point and branch."""
    out = []
    for cfg in (TrackingConfig(), TrackingConfig(steps=16, base_t=0.37,
                                                 branch=2)):
        for p in (0, 1, "inf"):
            out.extend(_waypoints(cfg, p))
    return out


def _exact_b(t, near):
    """The fourth root of (256/3125)(1 - t)/t nearest ``near``, in mpmath."""
    t = mp.mpc(t.real, t.imag)
    root = ((mp.mpf(256) / 3125) * (1 - t) / t) ** mp.mpf(0.25)
    return min((root * mp.mpc(0, 1) ** k for k in range(4)),
               key=lambda z: abs(z - near))


# ---------------------------------------------------------- waypoint bounds

def test_residual_bound_covers_the_exact_value(states):
    # near a root the float value of y^5 + y + beta is mostly rounding
    rng = random.Random(1)
    for t, beta, ys in states[::7]:
        for y in ys:
            for scale in (0.0, 1e-15, 1e-12):
                z = y + scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                Z = _ivc(z)
                exact = abs(Z ** 5 + Z + _ivc(beta))
                assert residual_bound(z, beta) >= exact.b


def _iv_taylor(y, value, radius):
    """The lower endpoint of the Taylor bound, in interval arithmetic."""
    Y, R = _ivc(y), iv.mpf(radius)
    a = abs(Y)
    low = (abs(5 * Y ** 4 + 1) * R - iv.mpf(value) - 10 * a ** 3 * R ** 2
           - 10 * a ** 2 * R ** 3 - 5 * a * R ** 4 - R ** 5)
    return low.a


def test_taylor_bound_never_exceeds_the_interval_bound(states):
    rng = random.Random(2)
    points = []
    for t, beta, ys in states[::5]:
        d = discs(beta, ys)
        points.extend((y, residual_bound(y, beta), r)
                      for y, r in zip(ys, d.radius))
    # where 5 y^4 + 1 nearly cancels, its rounding is all of the slope
    for _ in range(100):
        y = cmath.rect(0.2 ** 0.25 * (1 + rng.uniform(-1e-9, 1e-9)),
                       math.pi / 4 + rng.randrange(4) * math.pi / 2)
        points.append((y, rng.uniform(0, 1e-16), rng.uniform(1e-8, 1e-6)))
    # where |P(y)| dominates, the rounding of the sum is what counts
    for _ in range(100):
        y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        points.append((y, rng.uniform(0.5, 2), rng.uniform(1e-4, 1e-2)))
    for y, value, radius in points:
        assert taylor_bound(y, value, radius) <= _iv_taylor(y, value, radius)


def test_lower_bound_holds_on_the_rouche_circle(states):
    for t, beta, ys in states[::23]:
        d = discs(beta, ys)
        for y, r, low in zip(ys, d.radius, d.lower):
            circle = (mp.mpc(y.real, y.imag) + r * mp.expjpi(mp.mpf(k) / 64)
                      for k in range(128))
            B = mp.mpc(beta.real, beta.imag)
            # the bound is for every b within delta of beta
            assert low <= min(abs(x ** 5 + x + B) for x in circle) - d.delta


def test_inclusion_discs_hold_exactly_one_root_each():
    # perturbed roots: 5 |W_i| must still hold the root, where |W_i| alone
    # falls short whenever the other roots' errors shrink the correction
    rng = random.Random(3)
    checked = 0
    for _ in range(60):
        t = complex(rng.uniform(-2, 3), rng.uniform(-3, 3))
        if min(abs(t), abs(1 - t)) < 0.05:
            continue
        beta = b_from_t(t, rng.randrange(4))
        exact = mp.polyroots([1, 0, 0, 0, 1, mp.mpc(beta.real, beta.imag)],
                             maxsteps=200, extraprec=300)
        sep = min(abs(x - y) for x in exact for y in exact if x != y)
        size = float(sep) * rng.choice((1e-2, 3e-2, 1e-1))
        ys = [complex(x) + size * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for x in exact]
        d = discs(beta, ys)
        if d is None:
            continue
        checked += 1
        for y, rho in zip(ys, d.rho):
            inside = [x for x in exact if abs(x - mp.mpc(y.real, y.imag)) < rho]
            assert len(inside) == 1
    assert checked >= 40


def test_rouche_bound_stays_positive_near_t_equal_1():
    # there one root tends to 0, where the quartic and quintic Taylor terms
    # would swamp a radius chosen from the first three terms alone
    for t in [0.9 + 0.005 * k for k in range(20)] + [1 + 1e-3j]:
        beta = b_from_t(t, 0)
        d = discs(beta, roots5(1.0, beta))
        assert min(d.lower) > 0


def test_overlapping_inclusion_discs_are_rejected():
    beta = b_from_t(0.5, 0)
    ys = list(roots5(1.0, beta))
    assert discs(beta, ys) is not None
    ys[1] = ys[0] + 1e-3        # far from any root: its disc covers ys[0]
    assert discs(beta, ys) is None


def test_branch_rounding_is_within_delta():
    # beta = (C (1 - t) / t) ** 0.25 times a power of i, as the kernel and
    # b_from_t compute it, is within delta = 64 u |beta| of the exact root
    rng = random.Random(4)
    ts = [complex(0.5, y) for y in (0.0, 0.01, 0.3, 2.0, 7.9)]
    ts += [cmath.rect(r, rng.uniform(-math.pi, math.pi))
           for r in (1e-3, 0.25, 8.0, 1e3) for _ in range(20)]
    ts += [1 + cmath.rect(0.25, rng.uniform(-math.pi, math.pi))
           for _ in range(20)]
    for t in ts:
        for branch in range(4):
            beta = b_from_t(t, branch)
            assert abs(_exact_b(t, beta) - beta) <= \
                certify._DELTA * abs(beta)


# ---------------------------------------------------------- segment bounds

def _segments(rng):
    out = []
    for p in (0, 1, "inf"):        # the default contours, infinity tail first
        ts = contour(loop_spec(TrackingConfig(), p))
        out.extend(zip(ts, ts[1:]))
    for _ in range(40):            # near 0, near 1, long and short
        center = rng.choice((0, 1, 0.5, 4j))
        t0 = center + cmath.rect(rng.uniform(0.03, 0.5),
                                 rng.uniform(-math.pi, math.pi))
        out.append((t0, t0 + cmath.rect(rng.uniform(1e-3, 0.05),
                                         rng.uniform(-math.pi, math.pi))))
    return out


def test_distance_below_never_exceeds_the_distance():
    rng = random.Random(5)
    segments = _segments(rng)
    # segments whose line passes within a few ulps of 0 or 1
    for _ in range(100):
        p = rng.choice((0, 1))
        u = cmath.rect(1, rng.uniform(-math.pi, math.pi))
        nudge = 1j * u * rng.uniform(-1e-15, 1e-15)
        segments.append((p + nudge - rng.uniform(0.1, 2) * u,
                         p + nudge + rng.uniform(0.1, 2) * u))
    for a, b in segments:
        for p in (0, 1):
            A, B = mp.mpc(a.real, a.imag), mp.mpc(b.real, b.imag)
            h = B - A
            s = min(max(mp.re((p - A) * mp.conj(h)) / abs(h) ** 2, 0), 1)
            assert distance_below(p, a, b) <= abs(p - (A + s * h))
    assert distance_below(0, 0.25, 0.5) == pytest.approx(0.25)


def test_drift_bound_covers_the_branch_motion():
    rng = random.Random(6)
    for t0, t1 in _segments(rng)[::3]:
        bound = drift_bound(t0, t1)
        b0 = b = _exact_b(t0, b_from_t(t0))
        worst = 0
        for k in range(1, 101):
            t = t0 + (t1 - t0) * k / 100
            b = _exact_b(t, b)     # continued along the segment
            worst = max(worst, abs(b - b0))
        assert worst <= bound


def test_segment_through_a_puncture_has_no_bound():
    assert drift_bound(0.5, -0.5) == math.inf
    assert drift_bound(0.5, 1.5) == math.inf


# ------------------------------------------------------------- certificate

def test_default_certificate_needs_no_bisection():
    # at the default and at half of it (ROADMAP items 5 and 6)
    steps = DEFAULT_STEPS
    for n in (steps, steps // 2):
        cfg = TrackingConfig(steps=n)
        for p in (0, 1, "inf"):
            spec = loop_spec(cfg, p)
            cert = certify_loop(spec, cfg)
            assert cert.bisections == 0
            assert cert.margin > 0
            assert cert.pi == track_loop(spec, cfg).pi


def test_default_is_the_smallest_such_power_of_two():
    # a quarter of the default needs bisection, so half of it would fail
    # the rule that set the default
    cfg = TrackingConfig(steps=DEFAULT_STEPS // 4)
    certs = {p: certify_loop(loop_spec(cfg, p), cfg) for p in (0, 1, "inf")}
    assert any(c.bisections for c in certs.values())
    # bisection proves the same permutations
    default = certify.certify()
    assert {p: c.pi for p, c in certs.items()} == \
        {p: c.pi for p, c in default.items()}


def test_certificate_keeps_the_geometry_but_not_the_steps():
    certs = certify.certify(TrackingConfig(steps=1024, base_t=0.4))
    steps = DEFAULT_STEPS
    assert {c.waypoints for c in certs.values()} == \
        {steps + max(8, steps // 8)}
    tracked = {p: track_loop(loop_spec(TrackingConfig(base_t=0.4), p),
                             TrackingConfig(base_t=0.4)).pi
               for p in (0, 1, "inf")}
    assert {p: c.pi for p, c in certs.items()} == tracked


def test_certificate_ignores_the_match_ratio():
    # the Rouché tests decide each step; a walk that ran the kernel's ratio
    # test at the config's ratio bisected thousands of segments at 1000
    # (so it fails here first) and did not end at 1e6
    default = certify.certify(TrackingConfig())
    for ratio in (1000, 1e6):
        assert certify.certify(TrackingConfig(tol_match_ratio=ratio)) == \
            default


def test_certificate_of_a_small_loop_near_1():
    cfg = TrackingConfig(base_t=0.95, radius1=0.02)
    certs = certify.certify(cfg)
    assert {p: c.pi for p, c in certs.items()} == \
        {p: track_loop(loop_spec(cfg, p), cfg).pi for p in (0, 1, "inf")}


def test_quality_fails_when_tracking_disagrees_with_the_certificate():
    ctx = verify.Context()
    good = ctx.certificate
    wrong = dict(good)
    wrong[1] = certify.LoopCertificate(pi=(1, 0, 2, 3, 4), margin=1.0,
                                       waypoints=0, bisections=0)
    ctx._cache["certificate"] = wrong
    row = next(r for r in verify.run_checks(ctx, only="monodromy")["checks"]
               if r["name"] == "monodromy.quality")
    assert row["status"] == "fail"
    assert row["observed"]["tracked_equals_certified"] is False


def test_quality_reports_the_certificate():
    row = next(r for r in verify.run_checks(only="monodromy")["checks"]
               if r["name"] == "monodromy.quality")
    got = row["observed"]
    assert row["status"] == "pass"
    assert got["certified_steps"] == DEFAULT_STEPS
    assert set(got["rouche_margin"]) == set(got["bisections"]) == \
        {"0", "1", "inf"}
    assert min(got["rouche_margin"].values()) > 0
    assert got["tracked_equals_certified"] is True


def test_step_budget_guard(monkeypatch):
    # a default run_checks tracks 3 x 40 steps for the triple, 3 x 72 for
    # its doubling and 3 x 40 for the certificate (456); at 1024 steps per
    # circle the triple and its doubling took 11,520
    calls = 0
    real = tracking._try_step

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(tracking, "_try_step", counting)
    assert verify.run_checks()["status"] == "pass"
    assert calls <= 600, calls
