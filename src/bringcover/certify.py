"""A Rouché certificate for the three monodromy loops.

The ratio test of :mod:`tracking` decides steps by a heuristic.  This
module proves, for one contour, that analytic continuation of the five
roots of P_t(x) = x^5 + x + b(t) along it induces a given permutation.  It
walks the contour with the same loop and kernel
(:func:`tracking.track_loop`'s body, :func:`tracking.track_path` and its
``_try_step``) and accepts a segment only when the tests below pass; a
segment that fails is bisected.

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

*Rouché across each segment.*  b(t)^4 = C (1 - t) / t gives
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

*Closing the loop.*  At the base point the continued branch is i^k b(t_0)
for the k the kernel found, and x -> i^-k x maps the final roots onto the
initial ones.  Root j's rescaled final inclusion disc must lie in the
initial Rouché disc of root pi(j): that is the certified permutation.

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
from typing import NamedTuple

from .tracking import (
    _C,
    _I_POWERS,
    TrackingConfig,
    TrackingError,
    _track_loop,
    loop_spec,
)

_U = 2.0 ** -53
_UP = 1 + 64 * _U
_DN = 1 - 64 * _U
_DELTA = 64 * _U                       # |b(t) - beta| <= _DELTA |beta|
_DRIFT = _C ** 0.25 / 4 * _UP          # |b'| = _DRIFT |t|^-5/4 |1-t|^-3/4
_BRANCH = 0.7                          # below 1 / sqrt(2)


class Discs(NamedTuple):
    """The proved discs of one waypoint: the inclusion disc
    D(ys[i], rho[i]) and the Rouché disc D(ys[i], radius[i]) hold the same
    one root, and |P| >= lower[i] on the Rouché disc's boundary."""

    beta: complex
    ys: tuple
    delta: float
    rho: tuple
    radius: tuple
    lower: tuple


def residual_bound(y: complex, beta: complex) -> float:
    """An upper bound of |y^5 + y + beta|, evaluated as the kernel does."""
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
    accepts: it holds the discs of the base point and of the last
    waypoint, and the smallest relative Rouché margin so far."""

    def start(self, beta, ys):
        """Begin the walk at the base roots; :func:`tracking._track_loop`
        calls this and hands the returned check to the kernel."""
        self.base = self.cur = discs(beta, ys)
        if self.base is None:
            raise TrackingError("certificate: inclusion discs of the base "
                                "roots overlap")
        self.margin = math.inf
        return self

    def __call__(self, t_cur, t_new, result) -> bool:
        new = discs(result[0], result[1])
        margin = None if new is None \
            else segment_margin(t_cur, self.cur, t_new, new)
        if margin is None:
            return False
        self.margin = min(self.margin, margin)
        self.cur = new
        return True

    def permutation(self, power: int) -> tuple:
        """pi with root j's continuation landing on base root pi[j], for a
        branch that ended at i^power times its start."""
        base, end = self.base, self.cur
        turned = _I_POWERS[power] * base.beta - end.beta
        if not (abs(turned) + end.delta + base.delta) * _UP \
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
                                "distinct base Rouché discs")
        return tuple(pi)


class LoopCertificate(NamedTuple):
    pi: tuple               # certified permutation of the loop
    margin: float           # smallest relative Rouché margin L_i / B - 1
    waypoints: int          # segments of the contour before bisection
    bisections: int         # segments the certificate had to bisect


def certify_loop(spec, cfg: TrackingConfig) -> LoopCertificate:
    """Certify the loop ``spec``: walk it as :func:`tracking.track_loop`
    does, bisect a segment the certificate rejects up to ``cfg.max_depth``
    times, and return the proved permutation."""
    walk = _Walk()
    res = _track_loop(spec, cfg, walk.start)
    return LoopCertificate(pi=walk.permutation(res.lam_power),
                           margin=walk.margin, waypoints=res.waypoints,
                           bisections=res.steps_used - res.waypoints)


def certify(cfg: TrackingConfig | None = None) -> dict:
    """Certificates of the three loops of ``cfg``'s geometry, always at the
    default :attr:`TrackingConfig.steps`, keyed by puncture."""
    cfg = (cfg or TrackingConfig()).with_steps(TrackingConfig.steps)
    return {p: certify_loop(loop_spec(cfg, p), cfg) for p in (0, 1, "inf")}
