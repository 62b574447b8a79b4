"""Quadrature oracle against the exact closed forms."""

import math
import random

import pytest

from pwlienard import (Case, LienardSystem, QuadratureFailure, load_preset,
                       oracle, oracle_m0, oracle_m1, quad_I)
from pwlienard.melnikov import closed_term, expand
from pwlienard.oracle import endpoint_derivatives, i4_factor

from conftest import random_sweep_system

H_GRID = (0.5, 1.0, 2.0, 3.0)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_presets_closed_vs_quad(name):
    sys_ = load_preset(name)
    exp = expand(sys_, project_odd=True)
    for h in H_GRID:
        assert rel_err(exp.m0.eval(h), oracle_m0(sys_, h)) <= 1e-8
        assert rel_err(exp.m1.eval(h), oracle_m1(sys_, h)) <= 1e-8


def test_random_sweep_each_term(rng):
    """Every arc integral, both routes, both switching families."""
    for case in (Case.SWITCH_Y, Case.SWITCH_X):
        n_terms = 5 if case is Case.SWITCH_Y else 4
        for _ in range(12):
            sys_ = random_sweep_system(rng, case)
            exp = expand(sys_)
            for h in (0.5, 2.0):
                parts = []
                for i in range(n_terms):
                    quad = quad_I(sys_, h, i)
                    closed = closed_term(sys_, i, h)
                    assert rel_err(closed, quad) <= 1e-8, (case, i, h)
                    parts.append(quad)
                assert rel_err(exp.m0.eval(h), parts[0]) <= 1e-8
                assert rel_err(exp.m1.eval(h), sum(parts[1:])) <= 1e-8


def test_quad_rejects_bad_input():
    sys_ = load_preset("example1")
    with pytest.raises(ValueError):
        quad_I(sys_, -1.0, 0)
    with pytest.raises(ValueError):
        quad_I(sys_, 1.0, 5)
    with pytest.raises(ValueError):
        quad_I(load_preset("example2"), 1.0, 4)
    # the closed forms reject exactly the indices the quadrature rejects
    sys_x = LienardSystem.build(Case.SWITCH_X, 1, 1, a0=[0, 1], c=[0, 1])
    for system, index in ((sys_x, 4), (sys_x, -1), (sys_, 5)):
        with pytest.raises(ValueError):
            quad_I(system, 1.0, index)
        with pytest.raises(ValueError):
            closed_term(system, index, 1.0)


def test_endpoint_derivatives_match_finite_difference():
    g = [0.0, 0.25, 0.0, -0.5]  # antiderivative G(y) = y^2/8 - y^4/8
    h = 1.3
    da, db = endpoint_derivatives(g, h)

    def endpoints(lam):
        # solve y^2/2 + lam*G(y) = h near +/- sqrt(2h) by bisection
        def big_g(y):
            return 0.25 * y * y / 2 + (-0.5) * y ** 4 / 4

        def solve(y0):
            lo, hi = y0 - 0.2 * abs(y0), y0 + 0.2 * abs(y0)
            f = lambda y: 0.5 * y * y + lam * big_g(y) - h
            if y0 < 0:
                lo, hi = hi, lo
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        return solve(math.sqrt(2 * h)), solve(-math.sqrt(2 * h))

    lam = 1e-6
    a_p, b_p = endpoints(lam)
    a_m, b_m = endpoints(-lam)
    assert da == pytest.approx((a_p - a_m) / (2 * lam), rel=1e-4)
    assert db == pytest.approx((b_p - b_m) / (2 * lam), rel=1e-4)


def test_i4_factor_value():
    g = [1.0, 2.0, 3.0]
    h = 2.0
    r = math.sqrt(2 * h)
    expected = 2.0 * (1 + 2 * r + 3 * r * r) / r
    assert i4_factor(g, h) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        i4_factor(g, 0.0)


def test_oracle_m1_splits_by_case(rng):
    sys_y = random_sweep_system(rng, Case.SWITCH_Y)
    total = sum(quad_I(sys_y, 1.5, i) for i in (1, 2, 3, 4))
    assert oracle_m1(sys_y, 1.5) == pytest.approx(total, abs=1e-12)
    sys_x = random_sweep_system(rng, Case.SWITCH_X)
    total = sum(quad_I(sys_x, 1.5, i) for i in (1, 2, 3))
    assert oracle_m1(sys_x, 1.5) == pytest.approx(total, abs=1e-12)


# -- the qk21/qage rule itself -------------------------------------------------


@pytest.fixture
def rule_count(monkeypatch):
    """Counts applications of the 21-point rule."""
    count = [0]
    rule = oracle._gk21

    def counted(*args):
        count[0] += 1
        return rule(*args)

    monkeypatch.setattr(oracle, "_gk21", counted)
    return count


def batch(fn):
    return lambda xs: [fn(x) for x in xs]


@pytest.mark.parametrize("k", range(32))
def test_one_application_exact_to_degree_31(k):
    value = oracle._gk21(batch(lambda x: x ** k), -1.0, 1.0)[0]
    exact = 0.0 if k % 2 else 2.0 / (k + 1)
    assert abs(value - exact) <= 4 * oracle._EPMACH


def test_reversed_limits_negate():
    fn = batch(lambda x: math.exp(x) * math.cos(7 * x) / (1 + x * x))
    forward, err_f = oracle._qage(fn, -0.3, 2.9)
    backward, err_b = oracle._qage(fn, 2.9, -0.3)
    assert backward == pytest.approx(-forward, rel=1e-15)
    assert err_b == pytest.approx(err_f, rel=1e-15)


def test_runge_function_subdivides(rule_count):
    value, err = oracle._qage(batch(lambda x: 1.0 / (1.0 + 400.0 * x * x)),
                              -1.0, 1.0)
    assert rule_count[0] > 1
    assert value == pytest.approx(math.atan(20.0) / 10.0, rel=0, abs=1e-12)
    assert err <= oracle.QUAD_ABS_TARGET


def test_parity_with_quadpack(rule_count, capsys):
    """Same values as scipy's QUADPACK on random trig polynomials, and the
    same number of subintervals."""
    integrate = pytest.importorskip("scipy.integrate")
    rng = random.Random(2718)
    n_cases, same_count = 60, 0
    for _ in range(n_cases):
        deg = rng.randint(1, 12)
        coeffs = [(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(deg + 1)]
        omega = rng.uniform(0.5, 3.0)
        lo = rng.uniform(-4.0, 0.0)
        hi = lo + rng.uniform(0.5, 6.0)

        def fn(t):
            return sum(a * math.cos(k * omega * t) + b * math.sin(k * omega * t)
                       for k, (a, b) in enumerate(coeffs))

        ref, _, info = integrate.quad(
            fn, lo, hi, epsabs=oracle.QUAD_ABS_TARGET,
            epsrel=oracle._QUAD_REL_TARGET, limit=oracle._QUAD_LIMIT,
            full_output=1)[:3]
        rule_count[0] = 0
        value, _ = oracle._qage(batch(fn), lo, hi)
        assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref))
        # each bisection adds one interval and two rule applications
        same_count += info["last"] == (rule_count[0] + 1) // 2
    with capsys.disabled():
        print(f"\nqk21/qage vs scipy quad: {n_cases} values within 1e-12, "
              f"{same_count}/{n_cases} subinterval counts equal")
    assert same_count == n_cases


def test_roundoff_stop_ends_loop(rule_count):
    """The 50*eps*resabs floor stops the rule long before the interval limit;
    the error estimate is then too large and the oracle says so.  The
    integrand of I_2 on AB is odd: the first application gives 0 with its
    error at the floor, 7.83e-9, and stops there, as QUADPACK does."""
    sys_ = LienardSystem.build(Case.SWITCH_Y, 7, 3,
                               a0=[0, -1, 0, -8, 0, 6, 0, 4],
                               c=[0, -3, 0, -8], b0=[0, -4, 0, 0])
    with pytest.raises(QuadratureFailure):
        quad_I(sys_, 4.0, 2)
    assert rule_count[0] == 1


def test_roundoff_counters_stop_subdivision(rule_count):
    """1e6*sin(30x + 0.001) integrates to about -65.9 on [-1, 1], but the
    error floor 50*eps*resabs stays near 1.4e-8 however fine the intervals
    get.  One application does not resolve the ten periods, so it is the
    iroff counters that end the bisection, not the interval limit."""
    value, err = oracle._qage(
        batch(lambda x: 1e6 * math.sin(30.0 * x + 0.001)), -1.0, 1.0)
    assert 3 <= rule_count[0] <= 100
    assert err > oracle.QUAD_ABS_TARGET
    exact = 2e6 * math.sin(30.0) * math.sin(0.001) / 30.0
    assert value == pytest.approx(exact, rel=0, abs=1e-8)
