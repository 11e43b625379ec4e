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
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

INF = complex("inf")
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


def f_value(a: complex, b: complex) -> complex:
    """256 a^5 / (256 a^5 + 3125 b^4); infinity on the discriminant locus."""
    if a == 0 and b == 0:
        raise ValueError("f is indeterminate at a = b = 0")
    num = 256 * a**5
    den = num + 3125 * b**4
    if den == 0:
        return INF
    return num / den


def b_from_t(t: complex, branch: int = 0) -> complex:
    """A coefficient b with f_value(1, b) = t; ``branch`` in 0..3 picks
    among the four fourth roots."""
    if t == 0:
        raise ValueError("t = 0 corresponds to b at infinity")
    if branch not in (0, 1, 2, 3):
        raise ValueError("branch must be in 0..3")
    w = BRANCH_SCALE * (1 - t) / t
    return (w ** 0.25) * (1j ** branch) if w != 0 else 0j


def power_sums(roots, upto: int = 3) -> list:
    return [sum(x**k for x in roots) for k in range(1, upto + 1)]


class IdentityReport(namedtuple("IdentityReport", (
        "samples",
        "max_power_sum",         # worst |p_k| / scale, k = 1..3
        "max_identity_error",    # worst rel. err of 1 - 1/f vs -3125 b^4/(256 a^5)
        "max_symmetric_error",   # worst rel. err of the root-symmetric rewrite
        "printed_expression_deviation",  # how far the quartic-power variant strays
        "printed_expression_exponent",   # its weight under (a, b) -> (l^4 a, l^5 b)
))):
    """Numerical findings over a batch of random coefficient samples."""

    __slots__ = ()


def _sample_coeffs(rng) -> tuple:
    while True:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if (abs(a) >= 0.2 and abs(b) >= 0.2
                and abs(256 * a**5 + 3125 * b**4) >= 0.05):
            return a, b


def _root_forms(roots) -> tuple:
    """The root-symmetric value -3125 / (256 prod(x) (sum 1/x)^5) and the
    printed variant 3125 (sum 1/x)^4 / (256 prod(x)); see verify_identities."""
    prod = 1.0 + 0j
    inv_sum = 0j
    for x in roots:
        prod *= x
        inv_sum += 1 / x
    return -3125 / (256 * prod * inv_sum**5), 3125 * inv_sum**4 / (256 * prod)


def verify_identities(samples: int = 100, seed: int = 0) -> IdentityReport:
    """Check, on random (a, b):

    (i)   the power sums p1, p2, p3 of the roots vanish;
    (ii)  1 - 1/f equals -3125 b^4 / (256 a^5);
    (iii) the same value rewritten in the roots alone,
          -3125 / (256 * prod(x) * (sum(1/x))^5);
    (iv)  the variant 3125 * (sum(1/x))^4 / (256 * prod(x)), which is NOT
          a function of the projective root point: it picks up lam^-9
          under (a, b) -> (lam^4 a, lam^5 b).  Its deviation and weight
          are reported as findings, not gated.
    """
    import random

    rng = random.Random(seed)
    max_ps = 0.0
    max_id = 0.0
    max_sym = 0.0
    max_dev = 0.0
    for _ in range(samples):
        a, b = _sample_coeffs(rng)
        xs = roots5(a, b)
        for k, p in enumerate(power_sums(xs), start=1):
            scale = sum(abs(x) ** k for x in xs)
            max_ps = max(max_ps, abs(p) / scale)

        lhs = 1 - 1 / f_value(a, b)
        rhs = -3125 * b**4 / (256 * a**5)
        max_id = max(max_id, abs(lhs - rhs) / abs(lhs))

        sym, printed = _root_forms(xs)
        max_sym = max(max_sym, abs(lhs - sym) / abs(lhs))
        max_dev = max(max_dev, abs(printed - lhs) / abs(lhs))

    # weight of the printed variant: (1/x)^4 scales as lam^-4, prod(x) as
    # lam^5, so the ratio carries lam^-9; confirm on one sample
    a, b = _sample_coeffs(random.Random(seed + 1))
    lam = 1.3 + 0.4j
    xs = roots5(a, b)
    ratio = _root_forms([lam * x for x in xs])[1] / _root_forms(xs)[1]
    exponent = round(math.log(abs(ratio)) / math.log(abs(lam)))
    if not abs(ratio - lam**exponent) < 1e-6 * abs(ratio):
        raise ArithmeticError("printed expression is not homogeneous")
    return IdentityReport(
        samples=samples,
        max_power_sum=max_ps,
        max_identity_error=max_id,
        max_symmetric_error=max_sym,
        printed_expression_deviation=max_dev,
        printed_expression_exponent=int(exponent),
    )
