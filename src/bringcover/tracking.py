"""Loop contours in the t-plane and the root permutation of one loop.

The value plane has punctures 0, 1 and infinity.  Loops are based at a
real point between 0 and 1: the finite loops walk along the real axis to
a small circle around their puncture, the infinity loop climbs straight
up to a large circle, and every circle runs counter-clockwise.  Each
contour is a lasso, the tail out to the circle's entry point and the
circle back to it: a loop T C T^-1 permutes the roots as C does in the
labels carried along T.  Tracking continues the coefficient branch and
the five quintic roots along the polyline.

No loop is tracked whole: each walk H runs from the base point to a real
point, and H conj(H)^-1 is closed by complex conjugation.  A finite
loop's circle is centred on the real axis, so H is its lasso up to the
antipode M = 2p - entry.  The infinity loop walks H0, the tail and the
circle's upper arc counter-clockwise to -R, and H1, on from H0's state
at the entry, the upper arc clockwise to +R.  The proof of a closure,
with eps = (-1)^branch:

1. (t, b, x) -> (conj t, eps conj b, eps conj x) and (b, x) -> (i b, i x)
   map solutions of x^5 + x + b = 0, b^4 = C (1 - t) / t to solutions, so
   continuation commutes with both; the first fixes b at the base point.
2. So along conj(H) base root kappa[j] ends at eps conj y_j, with y_j the
   end of root j along H and kappa the matching of eps conj x onto the
   base roots, and the branch ends at eps conj b_M, which is b_M / i^m for
   the m with i^m = b_M / (eps conj b_M): a fourth root of unity exactly,
   as b_M^4 = w(M) is real.
3. Walking conj(H) backwards from b_M, y_j is i^m eps conj y_sigma[j] for
   sigma the matching of eps conj(i^-m y) onto the roots at M, and ends at
   i^m times base root kappa[sigma[j]]: pi = kappa . sigma, lam = i^m.

Cut along Re t = t0, the infinity loop is the loop around 0 and then
the loop around 1.  H0 conj(H0)^-1 winds once round 0 alone, and closes
as (pi0', m0); H1 conj(H1)^-1 winds once clockwise round 1 alone, and
its closure (rho, m1) is that loop's inverse, pi1' = rho^-1.  So the
infinity loop is pi = pi1' . pi0' with lam = i^(m0 - m1).

The continuation loop (:func:`track_path`) is the package's one tracking
kernel, in plain Python: it continues the fourth-root branch b(t) of
BRANCH_SCALE (1 - t) / t and the five roots of x^5 + x + b(t) along the
waypoints.  A step is accepted when Newton converges and every new root
is ``tol_match_ratio`` times nearer its own old root than any other old
root (a nearest/next-nearest ratio test, not a certificate); otherwise it
is halved.  :func:`track_loop` is the one loop-level entry; :mod:`certify`
starts at :func:`loop_start` and walks the kernel itself over every full
lasso, with a check that fails every step its Rouché tests do not prove,
so it tests the closure against independent walks.  Both halve a segment
at most :data:`MAX_DEPTH` times, and a tracked loop spends at most
:meth:`TrackingConfig.budget` steps: the limits are module constants.

Each step is a predictor-corrector step, its Newton started from a
secant prediction and its ratio test mostly decided by the separation of
the new roots: see :func:`_try_step`.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .quintic import BRANCH_SCALE, b_from_t, roots5

_I_TURNS = (1j, -1 - 0j, -1j)         # the fourth roots of unity but 1
_I_POWERS = (1 + 0j, 1j, -1 + 0j, 0 - 1j)  # i^m by m, no negative zero
_NEWTON_CAP = 60
_NEWTON_ITERS = range(_NEWTON_CAP - 2)  # after the first two, one range
# the relative slack taken off the triangle bound on a step's separation,
# thousands of ulps over the rounding of the distances it rests on
_SEP_SLACK = 2.0 ** -40
# a loop may spend BUDGET_FACTOR * (waypoint count) committed steps (see
# TrackingConfig.budget), and halve one segment at most MAX_DEPTH times;
# halvings beyond that mean the requested resolution is too coarse and the
# loop fails rather than silently degrading
MAX_DEPTH = 40
BUDGET_FACTOR = 1.05
# the most waypoints per loop circle a run may ask for; its doubling row
# tracks twice as many, the most a LoopSpec takes, so that a contour (about
# 40 bytes a waypoint) stays near 100 MB
MAX_STEPS = 2**20
# the halvings a loop may always spend at the default resolution or finer:
# what BUDGET_FACTOR allowed at the former default of 1024 steps
_MIN_HALVINGS = 64
# the default waypoints per loop circle, and the resolution certify.certify
# walks whatever steps a config asks for
DEFAULT_STEPS = 32


class TrackingError(RuntimeError):
    """A step kept failing the ratio test (or the certificate) past the
    halving depth or the step budget, or the end of the loop could not be
    matched to its start."""


class TrackingConfig(namedtuple("TrackingConfig", (
        "base_t", "branch", "radius0", "radius1", "radius_inf", "steps",
        "tol_residual", "tol_match_ratio", "tol_lambda", "seed"))):
    """The loop geometry, the kernel's tolerances and the sampling seed
    of the printed expression's deviation.  ``tol_lambda`` gates no loop,
    each closed by conjugation, but is still validated and reported.

    Validated on construction, by ``_replace`` and ``with_steps`` too: a
    config that exists can be tracked.  Its ``steps`` may reach
    2 * MAX_STEPS, the doubling row's resolution at the most steps the CLI
    accepts, MAX_STEPS."""

    __slots__ = ()

    def __new__(cls, base_t: float = 0.5, branch: int = 0,
                radius0: float = 0.25, radius1: float = 0.25,
                radius_inf: float = 8.0, steps: int = DEFAULT_STEPS,
                tol_residual: float = 1e-10, tol_match_ratio: float = 3.0,
                tol_lambda: float = 1e-8, seed: int = 0):
        # a nan ratio makes every comparison of the test false, and a ratio
        # below 1 accepts a root nearer another old root than its own
        if not (math.isfinite(tol_match_ratio) and tol_match_ratio >= 1):
            raise ValueError("tol_match_ratio must be a finite number >= 1, "
                             f"got {tol_match_ratio!r}")
        # a nan tolerance switches its check off the same way
        for name, tol in (("tol_residual", tol_residual),
                          ("tol_lambda", tol_lambda)):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be a finite number > 0, "
                                 f"got {tol!r}")
        # outside (0, 1) the tail of a finite loop runs through the other
        # finite puncture
        if not 0 < base_t < 1:
            raise ValueError("base_t must lie strictly between 0 and 1, "
                             f"got {base_t!r}")
        # otherwise a bad branch fails only when a loop starts, and a None
        # seed only in the printed-deviation samples; type(...) is int also
        # turns away a bool
        if not (type(branch) is int and 0 <= branch <= 3):
            raise ValueError(f"branch must be an int in 0..3, got {branch!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        self = tuple.__new__(cls, (
            base_t, branch, radius0, radius1, radius_inf, steps,
            tol_residual, tol_match_ratio, tol_lambda, seed))
        # every loop can be built, at its own steps and at the steps
        # certify.certify walks whatever steps is
        for puncture in (0, 1, "inf"):
            spec = loop_spec(self, puncture)
            loop_entry(spec)
            loop_entry(spec._replace(steps=DEFAULT_STEPS))
        _check_far_circle(radius_inf, tol_residual)
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, behind _replace, would skip __new__
        return cls(*iterable)

    def with_steps(self, steps: int) -> "TrackingConfig":
        return self._replace(steps=steps)

    def budget(self, waypoints: int) -> int:
        """The committed steps a loop of ``waypoints`` segments may spend:
        BUDGET_FACTOR times them, and at the default resolution or finer
        at least _MIN_HALVINGS more.  Below the default, which only an
        explicit ``steps`` gives, BUDGET_FACTOR alone holds, so a contour
        far too coarse still fails loudly."""
        budget = int(BUDGET_FACTOR * waypoints)
        if self.steps >= DEFAULT_STEPS:
            budget = max(budget, waypoints + _MIN_HALVINGS)
        return budget


def _check_far_circle(radius: float, tol_residual: float) -> None:
    """Refuse an infinity circle on which Newton's test cannot tell apart
    the two roots that meet at the double root of x^5 + x + b.

    x^5 + x + b has a double root x* exactly where b^4 = -C, with C =
    BRANCH_SCALE.  On the circle |t| = R, b^4 + C = C/t, so near t = -R
    the branch passes b* = (-C)^(1/4) at the distance
    delta = C^(1/4) ((1 + 1/R)^(1/4) - 1), about C^(1/4) / (4R), with
    |b| = C^(1/4) + delta there; the vertices of the circle's polygon
    come as near up to a factor 1 + O(1/R) at any steps, so the one bound
    serves the tracked resolution and DEFAULT_STEPS alike.  At x* the
    polynomial is f = b - b*, of modulus delta.  Once delta is within the
    residual that Newton accepts, tol_residual (1 + |b|), or within the
    float resolution of f (4 ulps of 1 + |b|), x* passes for either of
    the two roots and the loop may close on the wrong permutation: at the
    default tol_residual, from R of about 8.7e8 up.
    """
    c4 = BRANCH_SCALE ** 0.25
    delta = c4 * math.expm1(math.log1p(1 / radius) / 4)
    floor = max(tol_residual, 4 * math.ulp(1.0)) * (1 + c4 + delta)
    if delta <= floor:
        raise ValueError(
            f"the infinity loop of radius_inf {radius!r} passes within "
            f"{delta:.3g} of a double root, inside the residual floor "
            f"{floor:.3g} of tol_residual {tol_residual!r}: the two roots "
            "that meet there cannot be told apart")


class LoopSpec(namedtuple("LoopSpec", (
        "puncture",           # 0, 1 or "inf"
        "base_t", "radius", "steps"))):
    """One loop: its puncture, base point, circle radius and the
    waypoints on its circle.  Validated like :class:`TrackingConfig`."""

    __slots__ = ()

    def __new__(cls, puncture, base_t: complex, radius: float, steps: int):
        if puncture not in (0, 1, "inf"):
            raise ValueError(f"unknown puncture {puncture!r}")
        # TrackingConfig's rule: off (0, 1) a finite loop's tail runs
        # through the other finite puncture, and off the real axis its
        # circle is no longer its own mirror image
        t0 = complex(base_t)
        if not (t0.imag == 0 and 0 < t0.real < 1):
            raise ValueError("base point must be real and lie strictly "
                             f"between 0 and 1, got {base_t!r}")
        # a float count would fail only mid-track, in range(), and a huge
        # one would build its contour before anything failed
        if not (isinstance(steps, int) and 4 <= steps <= 2 * MAX_STEPS):
            raise ValueError("need an int of at least 4 steps on the circle "
                             f"and at most {2 * MAX_STEPS}, got {steps!r}")
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("loop radius must be a finite number > 0, "
                             f"got {radius!r}")
        return tuple.__new__(cls, (puncture, base_t, radius, steps))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
        # the loop walks the inscribed steps-gon, not the circle: its
        # sides come within the inradius of 0
        inradius = spec.radius * math.cos(math.pi / spec.steps)
        if inradius <= 1:
            raise ValueError("infinity loop must enclose both finite "
                             f"punctures, but its {spec.steps}-gon has "
                             f"inradius {inradius:.6g} <= 1")
        center = 0j
        try:
            square = spec.radius**2
        except OverflowError:
            raise ValueError("infinity loop radius too large, its square "
                             f"overflows: {spec.radius!r}") from None
        entry = complex(t0.real, math.sqrt(square - t0.real**2))
    else:
        center = complex(spec.puncture)
        if abs(t0 - center) <= spec.radius:
            raise ValueError("finite loop must not swallow the base point")
        entry = center + spec.radius * (t0 - center) / abs(t0 - center)
    return center, entry


def contour(spec: LoopSpec) -> list:
    """Waypoints of the loop as a lasso: the tail out to ``entry``, then
    the full circle, whose last waypoint is ``entry`` itself, bit for bit.

    A finite loop's tail is evenly spaced.  The infinity loop's tail runs
    from the base point out to |t| = radius_inf, and b(t) changes on the
    scale of the distance to the finite punctures, which grows along it:
    its waypoints are spaced in geometric progression of c + s, with s the
    distance from the base point and c = min(|t0|, |1 - t0|).
    """
    t0 = complex(spec.base_t)
    center, entry = loop_entry(spec)
    steps = spec.steps
    n_tail = max(8, steps // 8)
    if spec.puncture == "inf":
        q = abs(entry - t0) / min(abs(t0), abs(1 - t0))
        ts = [t0 + (entry - t0) * (((1 + q) ** (k / n_tail) - 1) / q)
              for k in range(n_tail)]
    else:
        ts = [t0 + (entry - t0) * k / n_tail for k in range(n_tail)]
    ts.append(entry)

    offset = entry - center
    theta0 = math.atan2(offset.imag, offset.real)
    radius = abs(offset)
    ts.extend(center + cmath.rect(radius, theta0 + 2 * math.pi * k / steps)
              for k in range(1, steps))
    ts.append(entry)
    return ts


class TrackResult(namedtuple("TrackResult", (
        "pi",                 # degree-5 permutation: root j lands on pi[j]
        "lam",                # i^lam_power exactly, read off the closures
        "lam_power",          # lam is the lam_power-th power of i
        "max_residual",
        "min_separation",
        "steps_used",
        # the segments walked, steps_used without halving: n_tail +
        # ceil(steps/2) to a finite loop's antipode; about n_tail + steps/2
        # + 1 for the infinity loop's two walks to -R and +R, summed
        "waypoints",
        "max_halving_depth",  # deepest halving level that committed a step
))):
    __slots__ = ()

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


def _try_step(t_target, b_cur, xs_cur, b_prev, xs_prev, tol, ratio,
              sep_cur=0.0, floor=math.inf):
    """One predictor-corrector step of the ratio test; returns (b_new,
    xs_new, residual, separation) or None when the step must be halved.

    The branch b moves to the fourth root of w(t) nearest its old value:
    the principal root times the power of i nearest q = b_cur / principal,
    picked by quadrant.  The powers lie sqrt(2) apart, so a step that
    passes |b_new - b_cur| <= 0.4 |b_new| has one nearest by a wide margin.
    ``b_prev`` and ``xs_prev`` are the branch and roots one committed step
    back.  Each root is holomorphic in b, so the secant start
    c_i + rho (c_i - p_i), rho = (b_new - b_cur) / (b_cur - b_prev), is
    exact to first order whatever the direction of the step; with no
    history (b_prev == b_cur, as on a loop's first step or after a step
    that did not move) rho is 0 and Newton starts from c_i.  Newton
    evaluates f = x^5 + x + b_new once per iterate, as x4 * x + x + b_new
    with x4 = x * x * x * x: abs(f) is its convergence test, and at the
    returned root abs(f) / (1 + |b_new|) is the reported residual, the
    same bits as evaluating x * x * x * x * x + x + b_new afresh.

    The predictor moves only Newton's start.  Each new root y_i must be
    ``ratio`` times nearer its own old root than any other old root:
    d_i * ratio <= |y_j - c_i| for j != i, with d_i = |y_i - c_i|.  The
    test anchors at the old roots c_i, which the last step left apart, not
    at the predictions, so a start that sends Newton to another root fails
    it as a start at c_i would.

    The separation s = min |y_i - y_j| decides that test whenever
    (ratio + 1) * d_max <= s / 2, d_max = max d_i.  Proof: |y_j - c_i| >=
    |y_j - y_i| - d_i >= s - d_i >= ratio * d_i.  The factor 1/2 leaves a
    margin of s/2 over the few-ulp rounding of the computed distances, so
    the step is accepted exactly when the 20-distance test, run only when
    the bound fails, would accept it.

    ``sep_cur`` is the separation of the old roots, exact or a proven
    lower bound, and ``floor`` the smallest separation the caller has kept
    so far.  By the triangle inequality |y_i - y_j| >= |c_i - c_j| - d_i -
    d_j, so s >= lb = sep_cur - 2 d_max, less a rounding slack.  When
    (ratio + 1) d_max <= lb / 2, lb decides the ratio test as s would,
    and when also lb >= floor the exact s cannot lower the caller's
    minimum: the step then returns lb as its separation and computes none
    of the ten distances.  Such a step has (ratio + 1) d_max >= 2 d_max
    for ratio >= 1, so 4 d_max <= lb and lb >= (2/3) sep_cur: every
    quantity in the bound is within a small multiple of sep_cur, and the
    few-ulp rounding of each computed distance and of lb is far below the
    relative slack :data:`_SEP_SLACK` * sep_cur taken off lb.  So lb lies
    below the separation the exact path computes, the step accepts what
    that path accepts, and a carried lb stays a lower bound.  With no
    history (``sep_cur`` 0, ``floor`` +inf, the defaults) the bound never
    holds, and the separation returned is exact.
    """
    w = BRANCH_SCALE * (1 - t_target) / t_target
    principal = w ** 0.25
    if not principal:               # t_target == 1: no branch to continue
        return None
    q = b_cur / principal
    qr, qi = q.real, q.imag
    if qr > qi:
        b_new = principal if qr > -qi else principal * _I_TURNS[2]
    else:
        b_new = principal * _I_TURNS[0] if qr > -qi \
            else principal * _I_TURNS[1]
    b_abs = abs(b_new)
    if abs(b_new - b_cur) > 0.4 * b_abs:
        return None

    # Newton from each predicted root, its first evaluation and update
    # written out, and d_max = max |y_i - c_i| kept on the way
    db = b_cur - b_prev
    rho = (b_new - b_cur) / db if db else 0
    scale = 1.0 + b_abs
    lim = tol * scale
    xs_new = []
    residual = d_max = 0.0
    for c, p in zip(xs_cur, xs_prev):
        x = c + rho * (c - p)
        x4 = x * x * x * x
        f = x4 * x + x + b_new
        r = abs(f)
        if not r <= lim:        # a NaN residual goes to Newton and fails
            x = x - f / (5 * x4 + 1)
            x4 = x * x * x * x
            f = x4 * x + x + b_new
            r = abs(f)
            if not r <= lim:
                for _ in _NEWTON_ITERS:
                    x = x - f / (5 * x4 + 1)
                    x4 = x * x * x * x
                    f = x4 * x + x + b_new
                    r = abs(f)
                    if r <= lim:
                        break
                else:
                    return None
        if r > residual:
            residual = r
        d = abs(x - c)
        if d > d_max:
            d_max = d
        xs_new.append(x)
    residual /= scale           # division is monotone: max(|f| / scale)

    margin = (ratio + 1) * d_max
    bound = sep_cur - 2 * d_max - _SEP_SLACK * sep_cur
    if margin <= 0.5 * bound and bound >= floor:
        return b_new, xs_new, residual, bound
    y0, y1, y2, y3, y4 = xs_new
    # compared in turn: min() of many floats costs more
    separation = abs(y0 - y1)
    for s in (abs(y0 - y2), abs(y0 - y3), abs(y0 - y4), abs(y1 - y2),
              abs(y1 - y3), abs(y1 - y4), abs(y2 - y3), abs(y2 - y4),
              abs(y3 - y4)):
        if s < separation:
            separation = s
    if margin <= 0.5 * separation:
        return b_new, xs_new, residual, separation
    for i, c in enumerate(xs_cur):
        d = abs(xs_new[i] - c)
        if d * ratio > min(abs(y - c) for y in xs_new[:i] + xs_new[i + 1:]):
            return None
    return b_new, xs_new, residual, separation


def track_path(ts, b0, xs0, tol_residual, match_ratio, max_depth, budget,
               check=None, entry=0):
    """Track the branch and roots along the waypoints ``ts``.

    Returns (b_end, xs_end, max_residual, min_separation, steps_used,
    max_halving_depth, b_entry, xs_entry): the deepest level that committed
    a halved step (or 0), then the state committed at ``ts[entry]``.
    Raises :class:`TrackingError` once a segment needs halving deeper than
    ``max_depth`` or more than ``budget`` committed steps in total.

    A waypoint is one step unless that step fails.  A failed step pushes
    its target onto the stack and tries its midpoint next, so a halved
    segment is tracked depth first.  Each step's Newton starts from the
    secant prediction through the last two committed points (see
    :func:`_try_step`); a failed step leaves that history alone, and a
    loop's first step has none.  A ``check(t_cur, t_target, result)`` that
    returns False fails a step the kernel accepted, so the certificate,
    with a ``budget`` of math.inf, bisects through the same loop.

    Each step gets the last committed separation and the running minimum.
    A step whose triangle bound lies at or above that minimum returns the
    bound in place of its separation (see :func:`_try_step`).  The bound is
    at most the exact separation, so the minimum is the one every exact
    separation would give.  The first step has no separation to carry and
    passes 0, so it computes its own exactly.
    """
    b_cur = b_prev = complex(b0)
    xs_cur = xs_prev = [complex(x) for x in xs0]
    b_entry, xs_entry = b_cur, tuple(xs_cur)
    t_cur = complex(ts[0])
    max_residual = 0.0
    min_separation = math.inf
    separation = 0.0
    steps_used = 0
    max_halving_depth = 0
    stack = []                  # targets a halved segment has still to reach

    for k in range(1, len(ts)):
        t_target, depth = complex(ts[k]), 0
        while True:
            result = _try_step(t_target, b_cur, xs_cur, b_prev, xs_prev,
                               tol_residual, match_ratio, separation,
                               min_separation)
            if check is not None and result is not None \
                    and not check(t_cur, t_target, result):
                result = None
            if result is None:
                if depth >= max_depth:
                    raise TrackingError(
                        "collision floor breached: segment halved "
                        f"{max_depth} times near t={t_target}")
                depth += 1
                stack.append((t_target, depth))
                t_target = 0.5 * (t_cur + t_target)
                continue
            steps_used += 1
            if steps_used > budget:
                raise TrackingError(
                    f"resolution budget exhausted ({budget} steps): "
                    "the loop needs finer sampling, increase steps")
            b_prev, xs_prev = b_cur, xs_cur
            b_cur, xs_cur, residual, separation = result
            t_cur = t_target
            if residual > max_residual:
                max_residual = residual
            if separation < min_separation:
                min_separation = separation
            if depth > max_halving_depth:
                max_halving_depth = depth
            if not stack:
                break
            t_target, depth = stack.pop()
        if k == entry:
            b_entry, xs_entry = b_cur, tuple(xs_cur)
    return (b_cur, tuple(xs_cur), max_residual, min_separation, steps_used,
            max_halving_depth, b_entry, xs_entry)


@lru_cache(maxsize=None)
def _base(base_t: complex, branch: int, tol_residual: float) -> tuple:
    """(b0, xs0) at one base point, solved once per process for every
    loop that starts there; a forked child inherits it."""
    b0 = b_from_t(complex(base_t), branch)
    return b0, roots5(1.0, b0, tol=tol_residual)


def loop_start(spec: LoopSpec, cfg: TrackingConfig) -> tuple:
    """(b0, xs0, ts, entry): base branch, base roots, waypoints and the
    circle's entry point, the index of the first waypoint equal to the last;
    a rebinding of ``tracking.contour`` sees every loop, certified or not."""
    ts = contour(spec)
    return (*_base(spec.base_t, cfg.branch, cfg.tol_residual), ts,
            ts.index(ts[-1]))


def _power_of_i(q: complex) -> int:
    """The m whose i^m is nearest q, picked by quadrant as in
    :func:`_try_step`."""
    if q.real > q.imag:
        return 0 if q.real > -q.imag else 3
    return 1 if q.real > -q.imag else 2


def _match(src, dst, ratio: float) -> tuple:
    """For each point of ``src`` the index of the nearest point of ``dst``,
    which must be ``ratio`` times nearer than the next and distinct from
    the others' nearest."""
    pi = []
    for z in src:
        (d1, i1), (d2, _) = sorted((abs(z - x), i)
                                   for i, x in enumerate(dst))[:2]
        if d1 * ratio > d2 or i1 in pi:
            raise TrackingError("final root matching ambiguous")
        pi.append(i1)
    return tuple(pi)


def _close(b_end, xs_end, xs0, eps: int, ratio: float) -> tuple:
    """(pi, m) of H conj(H)^-1, for a walk H from the base roots ``xs0``
    to ``b_end``, ``xs_end`` at a real point (see the module docstring)."""
    power = _power_of_i(b_end / (eps * b_end.conjugate()))
    mu = _I_POWERS[-power % 4]
    sigma = _match([eps * (mu * y).conjugate() for y in xs_end], xs_end,
                   ratio)
    kappa = _match([eps * x.conjugate() for x in xs0], xs0, ratio)
    return tuple(kappa[j] for j in sigma), power


def track_loop(spec: LoopSpec, cfg: TrackingConfig) -> TrackResult:
    """Track one loop and return its root permutation with diagnostics.

    It takes exactly (spec, cfg), from which perfbench's tracer names its
    spans.  A finite loop walks the lasso's waypoints up to its circle's
    antipode M = 2p - entry, then M; the infinity loop walks H0 and H1 to
    -R and +R (see the module docstring), so pi = pi1' . pi0'.  A closure
    fails unless the roots at its real point match their rotated mirror
    images, and the base roots theirs, by the ratio test.  The walks of a
    loop may halve, together, as often as its closed contour's budget
    allows beyond their waypoints.
    """
    b0, xs0, ts, entry = loop_start(spec, cfg)
    closed = len(ts) - 1 + entry
    allowance = cfg.budget(closed) - closed
    eps, ratio = (-1) ** cfg.branch, cfg.tol_match_ratio
    if spec.puncture == "inf":
        # the circle's upper arc from the entry, clockwise to +R for H1
        # and counter-clockwise to -R for H0
        upper = [t.imag > 0 for t in ts[entry + 1:-1]]
        h1 = ts[:-2 - upper[::-1].index(False):-1] + [complex(spec.radius)]
        ts = ts[:entry + 1 + upper.index(False)] + [complex(-spec.radius)]
    else:
        # the circle's first half, to the exactly real antipode
        ts = ts[:entry + (len(ts) - entry) // 2]
        ts.append(2 * spec.puncture - ts[entry])
    waypoints = len(ts) - 1
    (b_end, xs_end, max_residual, min_sep, steps_used, depth,
     b_entry, xs_entry) = track_path(
        ts, b0, xs0, cfg.tol_residual, ratio, MAX_DEPTH,
        waypoints + allowance, entry=entry)
    pi, power = _close(b_end, xs_end, xs0, eps, ratio)
    if spec.puncture == "inf":
        (b_end, xs_end, residual, sep, used, deep, *_) = track_path(
            h1, b_entry, xs_entry, cfg.tol_residual, ratio, MAX_DEPTH,
            len(h1) - 1 + allowance - (steps_used - waypoints))
        rho, m1 = _close(b_end, xs_end, xs0, eps, ratio)
        # pi1' = rho^-1, and pi_inf = pi1' . pi0'
        pi = tuple(rho.index(k) for k in pi)
        power = (power - m1) % 4
        max_residual, min_sep = max(max_residual, residual), min(min_sep, sep)
        steps_used, waypoints = steps_used + used, waypoints + len(h1) - 1
        depth = max(depth, deep)
    return TrackResult(
        pi=pi,
        lam=_I_POWERS[power],
        lam_power=power,
        max_residual=max_residual,
        min_separation=min_sep,
        steps_used=steps_used,
        waypoints=waypoints,
        max_halving_depth=depth,
    )
