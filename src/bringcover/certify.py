"""A Rouché certificate for the three monodromy loops.

The ratio test of :mod:`tracking` decides steps by a heuristic.  This
module proves, for one contour, that analytic continuation of the five
roots of P_t(x) = x^5 + x + b(t) along it induces a given permutation.  It
starts at :func:`tracking.loop_start` and walks the kernel
:func:`tracking.track_path` itself, with no step budget, accepting a
segment only when the tests below pass; a segment that fails is bisected.
The kernel's ratio test runs at the floor ratio 1 (:data:`WALK_RATIO`),
whatever ``tol_match_ratio`` says, so the tests below alone decide.

*Inclusion at each waypoint.*  The kernel gives roots y_i of
x^5 + x + beta, where beta is the computed branch value, and
|b(t) - beta| <= delta = 64 u |beta| (u = 2^-53; beta is w**0.25 of
w = C (1 - t) / t, a few ulps off).  With the Weierstrass corrections
W_i = P_t(y_i) / prod_{j != i} (y_i - y_j), the discs D(y_i, rho_i),
rho_i = 5 |W_i|, hold all five roots, and when they are pairwise disjoint
each holds exactly one, r_i (Braess and Hadeler 1973; Carstensen 1991).
So does the Rouché disc D(y_i, R_i) for any R_i between rho_i and g_i, the
distance from y_i to the nearest other inclusion disc.  On its boundary
the Taylor expansion of P_t about y_i gives

    |P_t(x)| >= L_i = |c_1| R - |c_0| - |c_2| R^2 - |c_3| R^3 - |c_4| R^4 - R^5

with c_0 = P_t(y_i), c_1 = 5 y^4 + 1, c_2 = 10 y^3, c_3 = 10 y^2,
c_4 = 5 y.  R_i about maximises L_i (a few Newton steps on dL/dR),
capped at 0.9 g_i.

*Rouché across each segment.*  b(t)^4 = C (1 - t) / t (quintic.BRANCH_SCALE)
gives
|b'(t)| = |b| / (4 |t| |1 - t|) = (C^(1/4) / 4) |t|^(-5/4) |1 - t|^(-3/4),
so over a segment of length |h| the continued branch moves at most
|h| sup |b'|, bounded through the distances from 0 and 1 to the segment.
Take either end as the reference: with B = that bound plus its delta, if
B < L_i then every P_t on the segment has exactly one root in that end's
Rouché disc of root i (Rouché's theorem: P_t minus the reference is the
constant b(t) - b(t_ref)), and root i's inclusion disc at the other end
must lie in it, which names the same root there.  Each root may use
either end.  B plus the next delta must also stay below |beta| / sqrt(2),
so that the kernel's nearest fourth root is the continued branch.

*Closing the loop.*  The contour is a lasso, the tail out to the circle's
entry point and the circle back to it; the certified tail names entry
root i by base root i.  At the entry the continued branch is within
0.7 |beta| of i^k beta, beta = b(entry), only for the nearest k (the
powers lie sqrt(2) |beta| apart), and x -> i^-k x maps the final roots
onto the entry roots.  Root j's rescaled final inclusion disc must lie in
the entry Rouché disc of root pi(j): that is the certified permutation.

Every bound is computed in floats with a-priori rounding slack.  Each one
is a sum, product or quotient of nonnegative floats, or one subtraction of
two bounds, with at most 62 roundings of relative error u (a complex
product counts 3, a complex ``abs`` 2), so widening it by _UP or _DN is
enough (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3:
gamma_n).  A polynomial value adds the a-priori error of its evaluation,
32 u times the sum of its terms' moduli.  delta assumes libm's pow, atan2,
cos and sin are accurate to a few ulps.  The relative margin L_i / B - 1 of
a segment is reported, not used: the tests above decide.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .quintic import BRANCH_SCALE
from .tracking import (
    DEFAULT_STEPS,
    MAX_DEPTH,
    TrackingConfig,
    TrackingError,
    loop_spec,
    loop_start,
    track_path,
)

_U = 2.0 ** -53
_UP = 1 + 64 * _U
_DN = 1 - 64 * _U
_DELTA = 64 * _U                       # |b(t) - beta| <= _DELTA |beta|
_DRIFT = BRANCH_SCALE ** 0.25 / 4 * _UP  # |b'| = _DRIFT |t|^-5/4 |1-t|^-3/4
_BRANCH = 0.7                          # below 1 / sqrt(2)
_I_POWERS = (1 + 0j, 1j, -1 - 0j, -1j)

# the ratio the kernel tests on a certified walk: the floor that
# TrackingConfig allows, so a strict tol_match_ratio cannot make the walk
# bisect without bound
WALK_RATIO = 1.0


class Discs(namedtuple("Discs", "beta ys delta rho radius lower")):
    """The proved discs of one waypoint: the inclusion disc
    D(ys[i], rho[i]) and the Rouché disc D(ys[i], radius[i]) hold the same
    one root, and |P| >= lower[i] on the Rouché disc's boundary."""

    __slots__ = ()


def residual_bound(y: complex, beta: complex) -> float:
    """An upper bound of |y^5 + y + beta|: an evaluation of its own, not
    the kernel's residual, widened by that evaluation's a-priori error."""
    y2 = y * y
    y4 = y2 * y2
    a = abs(y)
    return (abs(y4 * y + y + beta)
            + 32 * _U * (a * a * a * a * a + a + abs(beta))) * _UP


def taylor_bound(y: complex, value: float, radius: float) -> float:
    """A lower bound of |P| on the circle |x - y| = radius, for P = x^5 + x
    + b with |P(y)| <= value."""
    y2 = y * y
    a = abs(y)
    slope = (abs(5 * y2 * y2 + 1) - 32 * _U * (5 * a * a * a * a + 1)) * _DN
    r = radius
    rest = (value + r * r * (10 * a * a * a
                             + r * (10 * a * a + r * (5 * a + r)))) * _UP
    low = slope * r * _DN - rest
    return low * (_DN if low > 0 else _UP)


def _best_radius(y: complex) -> float:
    """About the radius that maximises the Taylor bound around y: one
    Newton step on its derivative c1 - 2 c2 R - 3 c3 R^2 - 4 c4 R^3 - 5 R^4,
    which is concave and falls from c1 > 0, from the root of its first
    three terms, which lies above the maximiser.  (Without the step, a
    root near 0 gets a radius on which the last two terms win.)"""
    a = abs(y)
    c1 = abs(5 * y * y * y * y + 1)
    c2 = 10 * a * a * a
    r = c1 / (c2 + math.sqrt(c2 * c2 + 30 * c1 * a * a))
    slope = c1 - r * (2 * c2 + r * (30 * a * a + r * (20 * a + 5 * r)))
    return r + slope / (2 * c2 + r * (60 * a * a + r * (60 * a + 20 * r)))


def discs(beta: complex, ys) -> Discs | None:
    """The inclusion and Rouché discs of the roots ``ys`` of x^5 + x + b,
    |b - beta| <= delta, or None when the inclusion discs overlap."""
    delta = _DELTA * abs(beta)
    dist = [[abs(y - z) for z in ys] for y in ys]
    values = [(residual_bound(y, beta) + delta) * _UP for y in ys]
    rho = []
    for i, row in enumerate(dist):
        prod = 1.0
        for j, d in enumerate(row):
            if j != i:
                prod *= d
        rho.append(5 * values[i] / (prod * _DN) * _UP)
    radius, lower = [], []
    for i, (y, row) in enumerate(zip(ys, dist)):
        # a lower bound of the distance from y_i to the nearest other disc
        nearest = math.inf
        for j, d in enumerate(row):
            if j != i:
                nearest = min(nearest, (d * _DN - rho[j]) * _DN)
        if not nearest > rho[i]:        # also false for nan
            return None
        r = min(0.9 * nearest, _best_radius(y))
        radius.append(r)
        lower.append(taylor_bound(y, values[i], r) if r > rho[i] else 0.0)
    return Discs(beta, tuple(ys), delta, tuple(rho), tuple(radius),
                 tuple(lower))


def distance_below(p: complex, a: complex, b: complex) -> float:
    """A lower bound of the distance from p to the segment [a, b]."""
    h = b - a
    v = p - a
    n = abs(h)
    if n == 0:
        return abs(v) * _DN
    along = (v.real * h.real + v.imag * h.imag) / n
    across = abs(v.real * h.imag - v.imag * h.real) / n
    slack = 8 * _U * (abs(v) + n)
    past = max(-along, along - n, 0.0) - slack
    return math.hypot(max(across - slack, 0.0), max(past, 0.0)) * _DN


def drift_bound(t0: complex, t1: complex) -> float:
    """An upper bound of |b(t) - b(s)| for t, s on the segment [t0, t1],
    for the branch b continued along it; inf when it meets 0 or 1."""
    m0 = distance_below(0, t0, t1)
    m1 = distance_below(1, t0, t1)
    if not (m0 > 0 and m1 > 0):
        return math.inf
    return abs(t1 - t0) * _DRIFT * m0 ** -1.25 * m1 ** -0.75 * _UP


def segment_margin(t0: complex, old: Discs, t1: complex, new: Discs):
    """The smallest relative Rouché margin of the segment from the waypoint
    ``old`` to ``new``, or None when the segment is not certified."""
    drift = drift_bound(t0, t1)
    if not (drift + old.delta + 2 * new.delta) * _UP \
            < _BRANCH * abs(new.beta) * _DN:
        return None
    margin = math.inf
    for i in range(5):
        best = None
        move = abs(new.ys[i] - old.ys[i])
        for ref, other in ((old, new), (new, old)):
            bound = (drift + ref.delta) * _UP
            if bound < ref.lower[i] \
                    and (move + other.rho[i]) * _UP < ref.radius[i]:
                m = ref.lower[i] / bound - 1
                best = m if best is None else max(best, m)
        if best is None:
            return None
        margin = min(margin, best)
    return margin


class _Walk:
    """The check :func:`tracking.track_path` runs on each step the kernel
    accepts: it holds the discs of the last waypoint and the smallest
    relative Rouché margin so far."""

    def __init__(self, beta, ys):
        self.cur = discs(beta, ys)
        if self.cur is None:
            raise TrackingError("certificate: inclusion discs of the base "
                                "roots overlap")
        self.margin = math.inf

    def __call__(self, t_cur, t_new, result) -> bool:
        new = discs(result[0], result[1])
        margin = None if new is None \
            else segment_margin(t_cur, self.cur, t_new, new)
        if margin is None:
            return False
        self.margin = min(self.margin, margin)
        self.cur = new
        return True

    def permutation(self, base: Discs) -> tuple:
        """pi with root j's continuation landing on root pi[j] of ``base``,
        the discs it closes on; its branch must end near i^k times theirs."""
        end = self.cur
        gap, power = min((abs(p * base.beta - end.beta), k)
                         for k, p in enumerate(_I_POWERS))
        if not (gap + end.delta + base.delta) * _UP \
                < _BRANCH * abs(base.beta) * _DN:
            raise TrackingError("certificate: branch did not close on a "
                                "fourth root of unity times its start")
        mu = _I_POWERS[-power % 4]
        pi = [next((j for j in range(5)
                    if (abs(mu * y - base.ys[j]) + rho) * _UP
                    < base.radius[j]), None)
              for y, rho in zip(end.ys, end.rho)]
        if None in pi or len(set(pi)) != 5:
            raise TrackingError("certificate: final roots do not land in "
                                "distinct entry Rouché discs")
        return tuple(pi)


LoopCertificate = namedtuple("LoopCertificate", (
    "pi",           # certified permutation of the loop
    "margin",       # smallest relative Rouché margin L_i / B - 1
    "waypoints",    # segments of the contour before bisection
    "bisections",   # segments the certificate had to bisect
))


def certify_loop(spec, cfg: TrackingConfig) -> LoopCertificate:
    """Certify the loop ``spec``: walk its lasso with the kernel at
    :data:`WALK_RATIO`, bisect a segment the certificate rejects up to
    :data:`tracking.MAX_DEPTH` times, with no step budget, and return the
    proved permutation, read where the circle closes, at its entry point."""
    b0, xs0, ts, entry = loop_start(spec, cfg)
    walk = _Walk(b0, xs0)
    *_, steps_used, _, b_entry, xs_entry = track_path(
        ts, b0, xs0, cfg.tol_residual, WALK_RATIO, MAX_DEPTH, math.inf,
        walk, entry)
    waypoints = len(ts) - 1
    # the entry's discs again: the same floats give the same discs
    return LoopCertificate(pi=walk.permutation(discs(b_entry, xs_entry)),
                           margin=walk.margin,
                           waypoints=waypoints,
                           bisections=steps_used - waypoints)


def certify(cfg: TrackingConfig | None = None) -> dict:
    """Certificates of the three loops of ``cfg``'s geometry, always at the
    default :data:`tracking.DEFAULT_STEPS`, keyed by puncture."""
    cfg = (cfg or TrackingConfig()).with_steps(DEFAULT_STEPS)
    return {p: certify_loop(loop_spec(cfg, p), cfg) for p in (0, 1, "inf")}
