"""Loop contours in the t-plane and the root permutation of one loop.

The value plane has punctures 0, 1 and infinity.  Loops are based at a
real point between 0 and 1: the finite loops walk along the real axis to
a small circle around their puncture, the infinity loop climbs straight
up to a large circle.  Tracking continues the coefficient branch and the
five quintic roots along the polyline; at the end the roots are rescaled
by the exact fourth root of unity that returns the coefficient to its
base value, and matched to the initial roots, which is the loop's
permutation.

The continuation loop (:func:`track_path`) is the package's one tracking
kernel, in plain Python: it continues the fourth-root branch b(t) of
(256/3125)(1-t)/t and the five roots of x^5 + x + b(t) along the
waypoints.  A step is accepted when Newton converges and every new root
is ``tol_match_ratio`` times nearer its own old root than any other old
root (a nearest/next-nearest ratio test, not a certificate); otherwise it
is halved.  :mod:`certify` walks the same contours through the body of
:func:`track_loop`, with a check that fails every step its Rouché tests
do not prove.

The separation s of the new roots, which the diagnostics need anyway,
decides that test whenever every root moved at most s / (2 (ratio + 1)):
the distance from an old root c_i to another new root y_j is at least
s - |y_i - c_i|, which is then at least ratio * |y_i - c_i|.  The 20
cross distances are computed only for a step the bound does not decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .quintic import b_from_t, roots5

_C = 256.0 / 3125.0
_I_POWERS = (1 + 0j, 1j, -1 - 0j, -1j)
_I_TURNS = _I_POWERS[1:]
_NEWTON_CAP = 60
_NEWTON_ITERS = range(_NEWTON_CAP)    # reused: no range() per root
# the halvings a loop may always spend at the default resolution or finer:
# what budget_factor allowed at the former default of 1024 steps
_MIN_HALVINGS = 64


class TrackingError(RuntimeError):
    """A step kept failing the ratio test (or the certificate) past the
    halving depth or the step budget, or the end of the loop could not be
    matched to its start."""


@dataclass(frozen=True)
class TrackingConfig:
    base_t: float = 0.5
    branch: int = 0
    radius0: float = 0.25
    radius1: float = 0.25
    radius_inf: float = 8.0
    steps: int = 32
    tol_residual: float = 1e-10
    tol_match_ratio: float = 3.0
    tol_lambda: float = 1e-8
    # a loop may spend budget_factor * (waypoint count) committed steps
    # (see budget); halvings beyond that mean the requested resolution is
    # too coarse and the loop fails rather than silently degrading
    max_depth: int = 40
    budget_factor: float = 1.05
    seed: int = 0

    def __post_init__(self):
        # a nan ratio makes every comparison of the test false, and a ratio
        # below 1 accepts a root nearer another old root than its own
        if not (math.isfinite(self.tol_match_ratio)
                and self.tol_match_ratio >= 1):
            raise ValueError("tol_match_ratio must be a finite number >= 1, "
                             f"got {self.tol_match_ratio!r}")
        # a nan tolerance switches its check off the same way
        for name in ("tol_residual", "tol_lambda"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be a finite number > 0, "
                                 f"got {tol!r}")
        # outside (0, 1) the tail of a finite loop runs through the other
        # finite puncture
        if not 0 < self.base_t < 1:
            raise ValueError("base_t must lie strictly between 0 and 1, "
                             f"got {self.base_t!r}")

    def with_steps(self, steps: int) -> "TrackingConfig":
        return replace(self, steps=steps)

    def budget(self, waypoints: int) -> int:
        """The committed steps a loop of ``waypoints`` segments may spend:
        budget_factor times them, and at the default resolution or finer
        at least _MIN_HALVINGS more.  Below the default, which only an
        explicit ``steps`` gives, budget_factor alone holds, so a contour
        far too coarse still fails loudly."""
        budget = int(self.budget_factor * waypoints)
        if self.steps >= TrackingConfig.steps:
            budget = max(budget, waypoints + _MIN_HALVINGS)
        return budget


@dataclass(frozen=True)
class LoopSpec:
    puncture: object            # 0, 1 or "inf"
    base_t: complex
    radius: float
    steps: int
    direction: str = "ccw"

    def __post_init__(self):
        if self.puncture not in (0, 1, "inf"):
            raise ValueError(f"unknown puncture {self.puncture!r}")
        if self.base_t in (0, 1):
            raise ValueError("base point must avoid the punctures")
        if self.direction not in ("ccw", "cw"):
            raise ValueError("direction must be 'ccw' or 'cw'")
        if self.steps < 4:
            raise ValueError("need at least 4 steps on the circle")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("loop radius must be a finite number > 0, "
                             f"got {self.radius!r}")


def loop_spec(cfg: TrackingConfig, puncture) -> LoopSpec:
    radius = {0: cfg.radius0, 1: cfg.radius1, "inf": cfg.radius_inf}[puncture]
    return LoopSpec(puncture=puncture, base_t=complex(cfg.base_t),
                    radius=radius, steps=cfg.steps)


def loop_entry(spec: LoopSpec) -> tuple:
    """(center, entry): the centre of the loop's circle and the point where
    its tail meets the circle.  Raises ValueError for a loop that cannot be
    built, which is every check :func:`contour` makes."""
    t0 = complex(spec.base_t)
    if spec.puncture == "inf":
        if abs(t0) >= spec.radius:
            raise ValueError("infinity loop must enclose the base point")
        if spec.radius <= 1:
            raise ValueError("infinity loop must enclose both finite punctures")
        center = 0j
        entry = complex(t0.real,
                        math.sqrt(spec.radius**2 - t0.real**2))
    else:
        center = complex(spec.puncture)
        if abs(t0 - center) <= spec.radius:
            raise ValueError("finite loop must not swallow the base point")
        entry = center + spec.radius * (t0 - center) / abs(t0 - center)
    return center, entry


def contour(spec: LoopSpec) -> list:
    """Waypoints of the loop: tail out, full circle, tail back.

    A finite loop's tail is evenly spaced.  The infinity loop's tail runs
    from the base point out to |t| = radius_inf, and b(t) changes on the
    scale of the distance to the finite punctures, which grows along it:
    its waypoints are spaced in geometric progression of c + s, with s the
    distance from the base point and c = min(|t0|, |1 - t0|).
    """
    t0 = complex(spec.base_t)
    center, entry = loop_entry(spec)
    n_tail = max(8, spec.steps // 8)
    if spec.puncture == "inf":
        q = abs(entry - t0) / min(abs(t0), abs(1 - t0))
        tail = [t0 + (entry - t0) * (((1 + q) ** (k / n_tail) - 1) / q)
                for k in range(n_tail + 1)]
    else:
        tail = [t0 + (entry - t0) * k / n_tail for k in range(n_tail + 1)]

    theta0 = math.atan2((entry - center).imag, (entry - center).real)
    sign = 1.0 if spec.direction == "ccw" else -1.0
    angles = (theta0 + sign * 2 * math.pi * k / spec.steps
              for k in range(1, spec.steps + 1))
    circle = [center + abs(entry - center) * complex(math.cos(a), math.sin(a))
              for a in angles]
    return tail + circle + tail[-2::-1]


@dataclass(frozen=True)
class TrackResult:
    pi: tuple                 # degree-5 permutation: root j lands on pi[j]
    lam: complex              # raw ratio b_end / b_start
    lam_power: int            # lam is the lam_power-th power of i
    max_residual: float
    min_separation: float
    steps_used: int
    waypoints: int            # len(contour) - 1: steps_used without halving
    max_halving_depth: int    # deepest halving level that committed a step

    def diagnostics(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "lambda_power_of_i": self.lam_power,
            "max_residual": self.max_residual,
            "min_separation": self.min_separation,
            "steps_used": self.steps_used,
            "waypoints": self.waypoints,
            "max_halving_depth": self.max_halving_depth,
        }


def _try_step(t_target, b_cur, xs_cur, tol, ratio):
    """One step of the ratio test; returns (b_new, xs_new, residual,
    separation) or None when the step must be halved.

    The branch b moves to the fourth root of w(t) nearest its old value,
    Newton polishes the old roots c_i against it, and each new root y_i
    must be ``ratio`` times nearer its own old root than any other old
    root: d_i * ratio <= |y_j - c_i| for j != i, with d_i = |y_i - c_i|.

    The separation s = min |y_i - y_j| decides that test whenever
    (ratio + 1) * max d_i <= s / 2.  Proof: |y_j - c_i| >= |y_j - y_i| -
    d_i >= s - d_i >= ratio * d_i.  The factor 1/2 leaves a margin of s/2
    over the few-ulp rounding of the computed distances, so the step is
    accepted exactly when the 20-distance test, run only when the bound
    fails, would accept it.
    """
    w = _C * (1 - t_target) / t_target
    principal = w ** 0.25
    b_new = principal
    best = abs(principal - b_cur)
    for p in _I_TURNS:
        cand = principal * p
        d = abs(cand - b_cur)
        if d < best:
            best = d
            b_new = cand
    b_abs = abs(b_new)
    if best > 0.4 * b_abs:
        return None

    # Newton on x^5 + x + b_new from each old root; a stalled root halves
    scale = 1.0 + b_abs
    lim = tol * scale
    xs_new = []
    residual = 0.0
    for x in xs_cur:
        for _ in _NEWTON_ITERS:
            x2 = x * x
            x4 = x2 * x2
            f = x4 * x + x + b_new
            if abs(f) <= lim:
                break
            x = x - f / (5 * x4 + 1)
        else:
            return None
        # evaluated afresh, not abs(f): these bits are the reported residual
        r = abs(x * x * x * x * x + x + b_new) / scale
        if r > residual:
            residual = r
        xs_new.append(x)

    y0, y1, y2, y3, y4 = xs_new
    c0, c1, c2, c3, c4 = xs_cur
    d0 = abs(y0 - c0)
    d1 = abs(y1 - c1)
    d2 = abs(y2 - c2)
    d3 = abs(y3 - c3)
    d4 = abs(y4 - c4)
    separation = min(abs(y0 - y1), abs(y0 - y2), abs(y0 - y3), abs(y0 - y4),
                     abs(y1 - y2), abs(y1 - y3), abs(y1 - y4),
                     abs(y2 - y3), abs(y2 - y4), abs(y3 - y4))
    if (ratio + 1) * max(d0, d1, d2, d3, d4) <= 0.5 * separation:
        return b_new, xs_new, residual, separation
    if d0 * ratio > min(abs(y1 - c0), abs(y2 - c0),
                        abs(y3 - c0), abs(y4 - c0)):
        return None
    if d1 * ratio > min(abs(y0 - c1), abs(y2 - c1),
                        abs(y3 - c1), abs(y4 - c1)):
        return None
    if d2 * ratio > min(abs(y0 - c2), abs(y1 - c2),
                        abs(y3 - c2), abs(y4 - c2)):
        return None
    if d3 * ratio > min(abs(y0 - c3), abs(y1 - c3),
                        abs(y2 - c3), abs(y4 - c3)):
        return None
    if d4 * ratio > min(abs(y0 - c4), abs(y1 - c4),
                        abs(y2 - c4), abs(y3 - c4)):
        return None
    return b_new, xs_new, residual, separation


def track_path(ts, b0, xs0, tol_residual, match_ratio, max_depth, budget,
               check=None):
    """Track the branch and roots along the waypoints ``ts``.

    Returns (b_end, xs_end, max_residual, min_separation, steps_used,
    max_halving_depth); the last is the deepest halving level at which a
    step was committed (0 when no step was halved).  Raises
    :class:`TrackingError` once a segment needs halving deeper than
    ``max_depth`` or more than ``budget`` committed steps in total.

    A failed step pushes its target and then its midpoint onto the
    waypoint's stack, so the midpoint is tracked first, depth first.  A
    ``check(t_cur, t_target, result)`` that returns False fails a step the
    kernel accepted, so the certificate bisects through the same loop.
    """
    b_cur = complex(b0)
    xs_cur = [complex(x) for x in xs0]
    t_cur = complex(ts[0])
    max_residual = 0.0
    min_separation = float("inf")
    steps_used = 0
    max_halving_depth = 0

    for k in range(1, len(ts)):
        stack = [(complex(ts[k]), 0)]
        while stack:
            t_target, depth = stack.pop()
            result = _try_step(t_target, b_cur, xs_cur, tol_residual,
                               match_ratio)
            if check is not None and result is not None \
                    and not check(t_cur, t_target, result):
                result = None
            if result is None:
                if depth >= max_depth:
                    raise TrackingError(
                        "collision floor breached: segment halved "
                        f"{max_depth} times near t={t_target}")
                stack.append((t_target, depth + 1))
                stack.append((0.5 * (t_cur + t_target), depth + 1))
                continue
            steps_used += 1
            if steps_used > budget:
                raise TrackingError(
                    f"resolution budget exhausted ({budget} steps): "
                    "the loop needs finer sampling, increase steps")
            b_cur, xs_cur, residual, separation = result
            t_cur = t_target
            if residual > max_residual:
                max_residual = residual
            if separation < min_separation:
                min_separation = separation
            if depth > max_halving_depth:
                max_halving_depth = depth
    return (b_cur, tuple(xs_cur), max_residual, min_separation, steps_used,
            max_halving_depth)


def track_loop(spec: LoopSpec, cfg: TrackingConfig) -> TrackResult:
    """Track one loop and return its root permutation with diagnostics.

    It takes exactly (spec, cfg), from which perfbench's tracer names its
    spans; :mod:`certify` calls :func:`_track_loop` with its check.
    """
    return _track_loop(spec, cfg)


def _track_loop(spec: LoopSpec, cfg: TrackingConfig,
                start=None) -> TrackResult:
    """:func:`track_loop`, with an optional check on every step.

    ``start(b0, xs0)``, when given, receives the base branch and roots and
    returns the ``check`` for :func:`track_path`.  A checked loop has no
    step budget: the check, not ``--steps``, sets how far it bisects.
    """
    b0 = b_from_t(complex(spec.base_t), cfg.branch)
    xs0 = roots5(1.0, b0, tol=cfg.tol_residual)
    ts = contour(spec)
    if start is None:
        check, budget = None, cfg.budget(len(ts) - 1)
    else:
        check, budget = start(b0, xs0), math.inf
    b_end, xs_end, max_residual, min_sep, steps_used, depth = track_path(
        ts, b0, xs0, cfg.tol_residual, cfg.tol_match_ratio,
        cfg.max_depth, budget, check)

    lam = b_end / b0
    k_best = min(range(4), key=lambda k: abs(lam - 1j**k))
    if abs(lam - 1j**k_best) > cfg.tol_lambda:
        raise TrackingError(
            f"branch drift {lam} is not a fourth root of unity "
            f"within {cfg.tol_lambda}")
    mu = 1j ** (-k_best % 4)
    rescaled = [mu * x for x in xs_end]

    # nearest-point matching of the rescaled final roots to the initial ones
    pi = [None] * 5
    taken = set()
    for j, z in enumerate(rescaled):
        dists = sorted((abs(z - x), i) for i, x in enumerate(xs0))
        (d1, i1), (d2, _) = dists[0], dists[1]
        if d1 * cfg.tol_match_ratio > d2 or i1 in taken:
            raise TrackingError("final root matching ambiguous")
        taken.add(i1)
        pi[j] = i1
    return TrackResult(
        pi=tuple(pi),
        lam=lam,
        lam_power=k_best,
        max_residual=max_residual,
        min_separation=min_sep,
        steps_used=steps_used,
        waypoints=len(ts) - 1,
        max_halving_depth=depth,
    )
