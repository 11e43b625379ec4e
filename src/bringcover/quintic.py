"""The quintic family x^5 + a*x + b and its degree-120 Belyi value.

Root 5-tuples of this family, taken projectively, sweep out the genus-4
curve cut out by vanishing power sums p1 = p2 = p3 = 0; the function

    t = 256 a^5 / (256 a^5 + 3125 b^4)

of the coefficients is the Belyi map of that curve, with the pairs (a, b)
and (lam^4 a, lam^5 b) giving the same point for any nonzero lam.

:func:`roots5` finds the roots in plain Python by Aberth's simultaneous
iteration (Aberth 1973; Bini 1996), seeded on a circle of radius
2 max(|a|^(1/4), |b|^(1/5)) that holds every root (Fujiwara's bound), for
at most 100 sweeps and until no update exceeds 1e-14 of that radius; the
residual test then decides.

:func:`verify_identities` solves no quintic: it proves the identities
exactly, in integer polynomial arithmetic on Z[a, b], from the elementary
symmetric functions e1 = e2 = e3 = 0, e4 = a, e5 = -b of the roots.  Its
seed drives only the coefficient samples at which the printed variant's
deviation from the Belyi value is evaluated.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

# b^4 = BRANCH_SCALE (1 - t) / t on the fibre a = 1 over the Belyi value t
BRANCH_SCALE = 256.0 / 3125.0

# the Aberth seeds' unit directions, turned off the real axis
_SEEDS = tuple(cmath.rect(1.0, 0.4 + 0.4 * math.pi * k) for k in range(5))
# for each root index, the other four in increasing order
_OTHERS = tuple(tuple(j for j in range(5) if j != i) for i in range(5))


def _label_order(roots, scale: float) -> list:
    """Sort by real part on a 1e-9 * scale grid, then by -imag, so that a
    conjugate pair is never ordered by the last bits of its real parts."""
    grid = 1e-9 * scale
    return sorted(roots, key=lambda z: (round(z.real / grid), -z.imag))


def roots5(a: complex, b: complex, tol: float = 1e-12) -> tuple:
    """The 5 roots of x^5 + a*x + b by Aberth's iteration, each with
    |f(x)| <= tol * scale (scale = 1 + |a| + |b|) or ArithmeticError, in
    the order of :func:`_label_order` at that scale."""
    if a == 0 and b == 0:
        return (0j,) * 5
    radius = 2.0 * max(abs(a) ** 0.25, abs(b) ** 0.2)
    xs = [radius * u for u in _SEEDS]
    try:
        for _ in range(100):
            biggest = 0.0
            for i, x in enumerate(xs):
                f = x * x * x * x * x + a * x + b
                s = 0
                for j in _OTHERS[i]:
                    s += 1 / (x - xs[j])
                w = f / (5 * x * x * x * x + a - f * s)
                xs[i] = x - w
                biggest = max(biggest, abs(w))
            if biggest <= 1e-14 * radius:
                break
    except ZeroDivisionError:
        raise ArithmeticError(f"Aberth step hit 1/0 at a={a}, b={b}") from None
    scale = 1.0 + abs(a) + abs(b)
    if not all(abs(x * x * x * x * x + a * x + b) <= tol * scale for x in xs):
        raise ArithmeticError(f"root residual above tol at a={a}, b={b}")
    return tuple(_label_order(xs, scale))


def b_from_t(t: complex, branch: int = 0) -> complex:
    """A coefficient b with 256 / (256 + 3125 b^4) = t, the Belyi value
    at a = 1; ``branch`` in 0..3 picks among the four fourth roots."""
    if t == 0:
        raise ValueError("t = 0 corresponds to b at infinity")
    if branch not in (0, 1, 2, 3):
        raise ValueError("branch must be in 0..3")
    w = BRANCH_SCALE * (1 - t) / t
    return (w ** 0.25) * (1j ** branch) if w != 0 else 0j


class IdentityReport(namedtuple("IdentityReport", (
        "samples",
        # each max_* is the largest |coefficient| of a difference that
        # must vanish in Z[a, b], so 0 exactly when the identity holds
        "max_power_sum",         # p_k, k = 1..3, by Newton's identities
        "max_identity_error",    # 1 - 1/f against -3125 b^4/(256 a^5)
        "max_symmetric_error",   # 1 - 1/f against its root-symmetric form
        "printed_expression_deviation",  # how far the quartic-power variant strays
        "printed_expression_exponent",   # its weight under (a, b) -> (l^4 a, l^5 b)
))):
    """The exact identities, and the printed variant's deviation sampled
    at seeded coefficients."""

    __slots__ = ()


# a polynomial in Z[a, b] is a dict {(i, j): c} of its terms c a^i b^j
# with c != 0; a rational function is a (numerator, denominator) pair
_ONE = {(0, 0): 1}
# x^5 + a x + b = x^5 - e1 x^4 + e2 x^3 - e3 x^2 + e4 x - e5
_E = {1: {}, 2: {}, 3: {}, 4: {(1, 0): 1}, 5: {(0, 1): -1}}


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _mul(*polys) -> dict:
    out = _ONE
    for q in polys:
        acc = {}
        for (i, j), c in out.items():
            for (k, l), d in q.items():
                acc[i + k, j + l] = acc.get((i + k, j + l), 0) + c * d
        out = {m: c for m, c in acc.items() if c}
    return out


def _fmul(*fracs) -> tuple:
    return _mul(*(f[0] for f in fracs)), _mul(*(f[1] for f in fracs))


def _size(p: dict) -> int:
    return max(map(abs, p.values()), default=0)


def _mismatch(x: tuple, y: tuple) -> int:
    """The size of x - y cross-multiplied: 0 iff x = y as rational
    functions."""
    if not (x[1] and y[1]):
        raise ArithmeticError("a denominator is the zero polynomial")
    return _size(_add(_mul(x[0], y[1]), _mul(y[0], x[1]), -1))


def _weight(p: dict) -> int:
    """The degree of p under (a, b) -> (lam^4 a, lam^5 b), that is under
    rescaling the roots by lam; p must be homogeneous for it."""
    degrees = {4 * i + 5 * j for i, j in p}
    if len(degrees) != 1:
        raise ArithmeticError("printed expression is not homogeneous")
    return degrees.pop()


def _evaluate(p: dict, a: complex, b: complex) -> complex:
    return sum(c * a**i * b**j for (i, j), c in p.items())


def _sample_coeffs(rng) -> tuple:
    while True:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if (abs(a) >= 0.2 and abs(b) >= 0.2
                and abs(256 * a**5 + 3125 * b**4) >= 0.05):
            return a, b


def verify_identities(samples: int = 100, seed: int = 0) -> IdentityReport:
    """Prove in Z[a, b], for the roots x of x^5 + a x + b:

    (i)   the power sums p1, p2, p3 vanish (Newton's identities with
          e1 = e2 = e3 = 0, e4 = a, e5 = -b);
    (ii)  1 - 1/f equals -3125 b^4 / (256 a^5), f = 256 a^5 / (256 a^5 +
          3125 b^4);
    (iii) the same value in the roots alone,
          -3125 / (256 * prod(x) * (sum(1/x))^5), from prod(x) = e5 and
          sum(1/x) = e4 / e5;
    (iv)  the variant 3125 * (sum(1/x))^4 / (256 * prod(x)) is
          -3125 a^4 / (256 b^5), NOT a function of the projective root
          point: its degree count gives weight -9 under (a, b) ->
          (lam^4 a, lam^5 b).  Its deviation from 1 - 1/f, the one float
          finding, is sampled at ``samples`` coefficient pairs drawn from
          ``seed``.  Neither it nor the weight is gated.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    import random

    # Newton: p_k = sum_{i<k} (-1)^(i-1) e_i p_(k-i) + (-1)^(k-1) k e_k
    ps = []
    for k in (1, 2, 3):
        p = _mul({(0, 0): (-1) ** (k - 1) * k}, _E[k])
        for i in range(1, k):
            p = _add(p, _mul(_E[i], ps[k - i - 1]), (-1) ** (i - 1))
        ps.append(p)

    num, den = {(5, 0): 256}, {(5, 0): 256, (0, 4): 3125}   # f = num / den
    lhs = _add(num, den, -1), num                            # 1 - 1/f
    inv_sum = _E[4], _E[5]                                   # sum 1/x
    inv_prod = _ONE, _E[5]                                   # 1 / prod(x)
    # -3125 / (256 prod(x) (sum 1/x)^5) and 3125 (sum 1/x)^4 / (256 prod(x))
    symmetric = _fmul(({(0, 0): -3125}, {(0, 0): 256}), inv_prod,
                      *[inv_sum[::-1]] * 5)
    printed = _fmul(({(0, 0): 3125}, {(0, 0): 256}), inv_prod,
                    *[inv_sum] * 4)

    # |printed - (1 - 1/f)| / |1 - 1/f| = |ratio - 1|
    ratio = _fmul(printed, lhs[::-1])
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(samples):
        a, b = _sample_coeffs(rng)
        dev = abs(_evaluate(ratio[0], a, b) / _evaluate(ratio[1], a, b) - 1)
        max_dev = max(max_dev, dev)
    return IdentityReport(
        samples=samples,
        max_power_sum=max(map(_size, ps)),
        max_identity_error=_mismatch(
            lhs, ({(0, 4): -3125}, {(5, 0): 256})),
        max_symmetric_error=_mismatch(lhs, symmetric),
        printed_expression_deviation=max_dev,
        printed_expression_exponent=_weight(printed[0]) - _weight(printed[1]),
    )
