"""Quadrature oracle against the exact closed forms."""

import math
import random

import pytest

from pwlienard import (Case, LienardSystem, load_preset, oracle_m0, oracle_m1,
                       quad_I)
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
