import cmath
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bringcover import quintic, tracking, verify
from bringcover.quintic import b_from_t, roots5, verify_identities

from oracles import INF, f_value


def power_sums(roots, upto=3):
    return [sum(x**k for x in roots) for k in range(1, upto + 1)]


def test_roots5_fifth_roots_of_unity():
    # x^5 - 1 = 0: real parts cos(4pi/5) < cos(2pi/5) < 1, each conjugate
    # pair upper root first
    roots = roots5(0, -1)
    expected = [cmath.exp(2j * cmath.pi * k / 5) for k in (2, 3, 1, 4, 0)]
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-12


def test_roots5_x_times_quartic():
    # x(x^4 + 1) = 0
    roots = roots5(1, 0)
    assert any(abs(r) < 1e-12 for r in roots)
    others = [r for r in roots if abs(r) > 0.5]
    assert len(others) == 4
    for r in others:
        assert abs(r**4 + 1) < 1e-10


def test_roots5_residuals_random():
    rng = random.Random(7)
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for x in roots5(a, b):
            assert abs(x**5 + a * x + b) < 1e-10 * (1 + abs(a) + abs(b))


def test_roots5_double_root():
    # x^5 - 5x + 4 = (x - 1)^2 (x^3 + 2x^2 + 3x + 4): Aberth converges only
    # linearly onto the double root, and f' vanishes there
    roots = roots5(-5, 4)
    for x in roots:
        assert abs(x**5 - 5 * x + 4) < 1e-10 * 10
    assert sum(abs(x - 1) < 1e-6 for x in roots) == 2
    for x in roots:
        if abs(x - 1) >= 1e-6:
            assert abs(x**3 + 2 * x**2 + 3 * x + 4) < 1e-10


def test_roots5_deterministic_order():
    assert roots5(1.5, 0.25) == roots5(1.5, 0.25)
    roots = roots5(1.5, 0.25)
    # the documented order: real part on a 1e-9 * scale grid, then -imag
    grid = 1e-9 * (1 + 1.5 + 0.25)
    assert roots == tuple(sorted(
        roots, key=lambda z: (round(z.real / grid), -z.imag)))


def _nudge(v: float, ulps: int) -> float:
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        v = math.nextafter(v, toward)
    return v


_coeff = st.floats(-3, 3, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(_coeff, _coeff, _coeff, _coeff, st.booleans(),
       st.randoms(use_true_random=False))
def test_labels_survive_last_bit_noise(ar, ai, br, bi, real, rng):
    # a conjugate pair of a real quintic has real parts that agree up to
    # rounding; moving every root by a few ulp must not relabel any root
    a, b = (complex(ar), complex(br)) if real else (complex(ar, ai),
                                                    complex(br, bi))
    scale = 1 + abs(a) + abs(b)
    roots = roots5(a, b)
    assume(min(abs(x - y) for i, x in enumerate(roots)
               for y in roots[i + 1:]) > 1e-6 * scale)
    noisy = [complex(_nudge(z.real, rng.randint(-4, 4)),
                     _nudge(z.imag, rng.randint(-4, 4))) for z in roots]
    label = {z: i for i, z in enumerate(noisy)}
    rng.shuffle(noisy)
    assert [label[z] for z in quintic._label_order(noisy, scale)] == \
        list(range(5))


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=10,
                          allow_nan=False, allow_infinity=False))
def test_roots5_on_double_roots_never_divides_by_zero(r):
    # (x - r)^2 divides x^5 - 5 r^4 x + 4 r^5, and f' vanishes at r
    a, b = -5 * r**4, 4 * r**5
    try:
        roots = roots5(a, b)
    except ArithmeticError as exc:
        assert not isinstance(exc, ZeroDivisionError)
        return
    for x in roots:
        assert abs(x**5 + a * x + b) <= 1e-12 * (1 + abs(a) + abs(b))


@pytest.mark.parametrize("a, b, tol", [
    (1.5, 0.25, 1e-30),         # converged, but no float root meets this
    (float("nan"), 1.0, 1e-12),
])
def test_roots5_residual_rule_raises(a, b, tol):
    with pytest.raises(ArithmeticError, match="residual"):
        roots5(a, b, tol=tol)


@pytest.mark.parametrize("seeds, a, b", [
    # coinciding iterates: 1 / (x - y) with x == y
    ((1, 1, 1, 1, 1), 1, 1),
    # an iterate at the critical point 0 of x^5 - 1, where f' = 0 and the
    # other iterates' reciprocal distances cancel: the step divides by 0
    ((0, 1, -1, 1j, -1j), 0, -1),
])
def test_roots5_zero_divisor_raises_arithmetic_error(monkeypatch, seeds, a, b):
    monkeypatch.setattr(quintic, "_SEEDS", seeds)
    with pytest.raises(ArithmeticError) as info:
        roots5(a, b)
    assert info.type is ArithmeticError


def test_f_value_examples():
    assert f_value(1, 0) == 1
    assert f_value(0, 1) == 0
    with pytest.raises(ValueError):
        f_value(0, 0)


def test_f_value_pole():
    # 256 a^5 + 3125 b^4 = 0 with a = 1
    b = (-256.0 / 3125.0 + 0j) ** 0.25
    assert abs(256 + 3125 * b**4) < 1e-12
    a, b_exact = 1, b
    val = 256 * a**5 + 3125 * b_exact**4
    if val == 0:
        assert f_value(a, b_exact) == INF
    else:  # rounding may leave a huge finite value
        assert abs(f_value(a, b_exact)) > 1e12


def test_b_from_t_at_one():
    assert b_from_t(1) == 0


def test_b_from_t_half():
    # direct solve: 3125 b^4 = 256 (1-t)/t = 256, real positive branch
    want = (256.0 / 3125.0) ** 0.25
    got = b_from_t(0.5, 0)
    assert abs(got - want) < 1e-15
    assert abs(got - 0.534992) < 1e-6


def test_b_from_t_branches():
    b0 = b_from_t(0.3, 0)
    for k in range(4):
        bk = b_from_t(0.3, k)
        assert abs(bk - b0 * 1j**k) < 1e-14


def test_b_from_t_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(t) < 0.05 or abs(t - 1) < 0.05:
            continue
        for k in range(4):
            assert abs(f_value(1, b_from_t(t, k)) - t) < 1e-12 * max(1, abs(t))


def test_b_from_t_rejects_zero():
    with pytest.raises(ValueError):
        b_from_t(0)
    with pytest.raises(ValueError):
        b_from_t(0.5, 4)


def test_power_sums_vanish():
    rng = random.Random(13)
    for _ in range(20):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(a) < 0.1 or abs(b) < 0.1:
            continue
        for k, p in enumerate(power_sums(roots5(a, b)), start=1):
            assert abs(p) < 1e-9


def test_identity_report():
    rep = verify_identities(samples=100, seed=0)
    assert rep.samples == 100
    # exact: the residual polynomials in Z[a, b] have no coefficient left
    assert (rep.max_power_sum, rep.max_identity_error,
            rep.max_symmetric_error) == (0, 0, 0)
    # the monodromy.identities check passes this report
    (check,) = [c for c in verify.CHECKS if c.name == "monodromy.identities"]
    assert check.verdict(check.fn(SimpleNamespace(identities=rep)))


def test_identities_verdict_wants_exact_zeros():
    (check,) = [c for c in verify.CHECKS if c.name == "monodromy.identities"]
    rep = verify_identities(samples=1, seed=0)
    for field in ("max_power_sum", "max_identity_error",
                  "max_symmetric_error"):
        # a float residual that the former 1e-9 tolerance let through
        bad = rep._replace(**{field: 1e-15})
        assert not check.verdict(check.fn(SimpleNamespace(identities=bad)))


def test_printed_expression_findings():
    rep = verify_identities(samples=20, seed=1)
    # the quartic-power variant is far from the true value and carries
    # weight -9 under root rescaling
    assert rep.printed_expression_deviation > 1e-3
    assert rep.printed_expression_exponent == -9


def test_identity_report_deterministic():
    assert verify_identities(samples=30, seed=5) == \
        verify_identities(samples=30, seed=5)


@pytest.mark.parametrize("samples", [0, -1])
def test_verify_identities_rejects_empty_samples(samples):
    # with no sample the printed deviation would read 0 with nothing
    # evaluated
    with pytest.raises(ValueError, match="samples"):
        verify_identities(samples=samples, seed=0)


def test_verify_identities_solves_no_quintic(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return roots5(*args, **kwargs)

    monkeypatch.setattr(quintic, "roots5", counting)
    monkeypatch.setattr(tracking, "roots5", counting)
    verify_identities(samples=100, seed=0)
    assert calls == []


def _root_forms(roots):
    """-3125 / (256 prod(x) (sum 1/x)^5) and 3125 (sum 1/x)^4 / (256 prod(x))
    in floats."""
    prod = 1.0 + 0j
    inv_sum = 0j
    for x in roots:
        prod *= x
        inv_sum += 1 / x
    return -3125 / (256 * prod * inv_sum**5), 3125 * inv_sum**4 / (256 * prod)


_unit = st.floats(-1, 1)


@settings(max_examples=100, deadline=None)
@given(_unit, _unit, _unit, _unit)
def test_root_identities_hold_in_floats(ar, ai, br, bi):
    # the float sweep that verify-all ran before its identities were exact:
    # the Aberth roots satisfy what the polynomial proof says, at (a, b)
    # drawn and kept as quintic._sample_coeffs draws and keeps them
    a, b = complex(ar, ai), complex(br, bi)
    assume(abs(a) >= 0.2 and abs(b) >= 0.2
           and abs(256 * a**5 + 3125 * b**4) >= 0.05)
    xs = roots5(a, b)
    for k, p in enumerate(power_sums(xs), start=1):
        assert abs(p) <= 1e-9 * sum(abs(x) ** k for x in xs)
    value = -3125 * b**4 / (256 * a**5)
    symmetric, printed = _root_forms(xs)
    assert abs(symmetric - value) <= 1e-9 * abs(value)
    want = -3125 * a**4 / (256 * b**5)
    assert abs(printed - want) <= 1e-9 * abs(want)


def test_identities_match_a_sympy_oracle():
    # Vieta and the fundamental theorem of symmetric polynomials, by sympy
    import sympy as sp
    from sympy.polys.polyfuncs import symmetrize

    a, b, lam, t = sp.symbols("a b lam t")
    xs = sp.symbols("x1:6")
    coeffs = sp.Poly(sp.prod(t - x for x in xs), t).all_coeffs()[1:]
    target = (0, 0, 0, a, b)    # t^5 + a t + b

    def in_coeffs(expr):
        poly, rest, names = symmetrize(expr, *xs, formal=True)
        assert rest == 0
        # symmetrize's s_k is the k-th elementary polynomial e_k, and
        # (-1)^k e_k is the t^(5-k) coefficient of prod (t - x_i)
        subs = {}
        for name, e in names:
            k = int(str(name)[1:])
            assert sp.expand((-1) ** k * e - coeffs[k - 1]) == 0
            subs[name] = (-1) ** k * target[k - 1]
        return sp.together(poly.subs(subs))

    for k in (1, 2, 3):
        assert in_coeffs(sum(x**k for x in xs)) == 0
    f = 256 * a**5 / (256 * a**5 + 3125 * b**4)
    value = sp.simplify(1 - 1 / f)
    assert sp.simplify(value + 3125 * b**4 / (256 * a**5)) == 0
    inv_sum = in_coeffs(sum(sp.prod(y for y in xs if y != x) for x in xs)) \
        / in_coeffs(sp.prod(xs))
    prod = in_coeffs(sp.prod(xs))
    assert sp.simplify(-3125 / (256 * prod * inv_sum**5) - value) == 0
    printed = sp.simplify(3125 * inv_sum**4 / (256 * prod))
    assert sp.simplify(printed + 3125 * a**4 / (256 * b**5)) == 0
    # the degree count: rescaling the roots by lam takes (a, b) to
    # (lam^4 a, lam^5 b)
    weight = sp.simplify(printed.subs({a: lam**4 * a, b: lam**5 * b},
                                      simultaneous=True) / printed)
    rep = verify_identities(samples=50, seed=3)
    assert weight == lam**rep.printed_expression_exponent
    assert (rep.max_power_sum, rep.max_identity_error,
            rep.max_symmetric_error) == (0, 0, 0)
    # the deviation is the closed forms' at the seeded samples
    ratio = sp.lambdify((a, b), sp.simplify(printed / value), "math")
    rng = random.Random(3)
    want = max(abs(ratio(*quintic._sample_coeffs(rng)) - 1)
               for _ in range(50))
    assert math.isclose(rep.printed_expression_deviation, want,
                        rel_tol=1e-9)
