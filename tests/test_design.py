"""Inverse design: placing the positive zeros of M1 at requested energies."""

import math
import random

import pytest

from pwlienard import (Case, InfeasibleShape, NoConvergence, TooManyTargets,
                       design_case_x, design_case_y, expand,
                       isolate_positive_roots, load_preset, verify_design)
from pwlienard.design import _odd_jacobian
from pwlienard.melnikov import (_a_hat_factor, _c_weight_factor,
                                _time_weight_factor, _x_odd_block)
from pwlienard.roots import CERT_SIMPLE


class TestCaseY:
    def test_reproduces_first_worked_preset(self):
        """Designing for {1, 4, 9, 16} with (m, n) = (3, 3) recovers the
        stored preset coefficients exactly."""
        sys_ = design_case_y([1, 4, 9, 16], 3, 3)
        ref = load_preset("example1")
        assert sys_.a1 == ref.a1
        assert sys_.b0 == ref.b0
        assert sys_.b1 == ref.b1
        assert sys_.c == ref.c
        assert all(v.is_zero() for v in sys_.a0)

    def test_exact_roots_at_targets(self):
        targets = [0.5, 2.0, 3.0]
        sys_ = design_case_y(targets, 3, 3)
        ok, residuals, m1 = verify_design(sys_, targets)
        assert ok
        assert max(residuals) <= 1e-9 * max(
            abs(c.to_float()) for c in m1.coeffs.values()) * 30
        report = isolate_positive_roots(m1, Case.SWITCH_Y, 3, 3)
        assert report.certified_count() == len(targets)
        for r, t in zip(report.h_roots, sorted(targets)):
            assert r.mid == pytest.approx(t, rel=1e-8)
            assert r.certificate == CERT_SIMPLE

    def test_empty_targets(self):
        sys_ = design_case_y([], 2, 2)
        assert expand(sys_).m1.is_zero()

    def test_too_many_targets(self):
        with pytest.raises(TooManyTargets):
            design_case_y([1, 2, 3, 4, 5], 3, 3)

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            design_case_y([-1.0], 3, 3)
        with pytest.raises(ValueError):
            design_case_y([1.0, 1.0], 3, 3)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                design_case_y([bad, 1.0], 3, 3)


class TestCaseX:
    def test_bound_attained_3_3(self):
        targets = [0.5, 1.0, 2.0, 4.0]
        sys_ = design_case_x(targets, 3, 3)
        ok, residuals, m1 = verify_design(sys_, targets)
        assert ok, residuals
        report = isolate_positive_roots(m1, Case.SWITCH_X, 3, 3)
        assert report.certified_count() == 4
        for r, t in zip(report.h_roots, sorted(targets)):
            assert r.mid == pytest.approx(t, rel=1e-6)

    @pytest.mark.parametrize("m,n,targets", [
        (5, 3, [0.75, 1.75, 3.25, 5.5]),
        (6, 5, [0.5, 1.5, 2.5, 3.5]),
        (7, 7, [0.5, 1.0, 2.0, 4.0]),
        # Newton within tolerance but with |M1| at a target above
        # verify_design's bound, or a root 5.7e-4 off its target
        (7, 5, [1.75, 3.75]),
        (6, 5, [0.75, 4.25, 4.75, 5.75]),
    ])
    def test_targets_placed_n_at_least_3(self, m, n, targets):
        sys_ = design_case_x(targets, m, n)
        ok, residuals, m1 = verify_design(sys_, targets)
        assert ok, residuals
        report = isolate_positive_roots(m1, Case.SWITCH_X, m, n)
        for t in targets:
            assert any(r.certificate == CERT_SIMPLE
                       and r.mid == pytest.approx(t, rel=1e-6)
                       for r in report.h_roots), t

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 6)])
    def test_single_target_is_a_simple_zero(self, m, n):
        # leading the null vector with s^(2[(m-1)/2]+3), the mean exponent
        # of these shapes, would make the one target a double zero
        sys_ = design_case_x([4.75], m, n)
        report = isolate_positive_roots(expand(sys_).m1, Case.SWITCH_X, m, n)
        assert not report.suspected
        assert any(r.certificate == CERT_SIMPLE
                   and r.mid == pytest.approx(4.75, rel=1e-9)
                   for r in report.h_roots)

    def test_targets_too_close_in_sqrt_h(self):
        # two float targets with one square root cannot be two simple zeros
        with pytest.raises(NoConvergence):
            design_case_x([2.0, math.nextafter(2.0, 3.0)], 3, 3)

    def test_exact_when_no_time_weight_block(self):
        # n = 0 keeps the odd block linear, so residuals are at rounding level
        targets = [1.0, 3.0]
        sys_ = design_case_x(targets, 3, 0)
        ok, residuals, m1 = verify_design(sys_, targets)
        assert ok
        for t in targets:
            assert abs(m1.eval(t)) <= 1e-10 * max(
                abs(c.to_float()) for c in m1.coeffs.values())

    def test_even_degree_shape_limit(self):
        # even m removes the top odd-power slot implied by the bound, so the
        # full bound worth of targets does not always fit
        bound_targets = [0.5, 1.0, 1.5, 2.0, 2.5]
        with pytest.raises((InfeasibleShape, TooManyTargets)):
            design_case_x(bound_targets, 4, 1)
        # likewise for switch-on-y: even n has no g0 coefficient b0_{n+1}
        # for the top convolution channel
        with pytest.raises(InfeasibleShape):
            design_case_y([0.5, 1.0, 2.0, 3.0], 4, 2)

    def test_too_many_targets(self):
        with pytest.raises(TooManyTargets):
            design_case_x([1, 2, 3, 4, 5], 3, 3)

    def test_empty_targets(self):
        sys_ = design_case_x([], 3, 3)
        assert expand(sys_).m1.is_zero()


@pytest.mark.parametrize("m,n", [(1, 1), (3, 3), (4, 5), (7, 7), (7, 3),
                                 (2, 7)])
def test_odd_jacobian_matches_central_difference(m, n):
    hm_odd, n_t = (m - 1) // 2, (n - 1) // 2
    c_weight = [_c_weight_factor(j).to_float() for j in range(n_t + 1)]
    time_w = [_time_weight_factor(l).to_float()
              for l in range(hm_odd + n_t + 1)]
    a_hat = [_a_hat_factor(l).to_float() for l in range(hm_odd + 1)]

    def block(u):
        out = _x_odd_block(u[:hm_odd + 1], [1.0] + u[hm_odd + 1:],
                           c_weight, time_w, a_hat)
        return [out.get(l, 0.0) for l in range(len(time_w))]

    rng = random.Random(m * 8 + n)
    for _ in range(10):
        u = [rng.uniform(-2.0, 2.0) for _ in range(hm_odd + 1 + n_t)]
        jac = _odd_jacobian(u[:hm_odd + 1], [1.0] + u[hm_odd + 1:],
                            c_weight, time_w, a_hat)
        size = max(abs(v) for row in jac for v in row)
        for k in range(len(u)):
            step = 1e-5 * max(1.0, abs(u[k]))
            up, down = list(u), list(u)
            up[k] += step
            down[k] -= step
            for l, (hi, lo) in enumerate(zip(block(up), block(down))):
                assert jac[l][k] == pytest.approx(
                    (hi - lo) / (2 * step), rel=1e-6, abs=1e-6 * size)


def test_verify_design_flags_misses():
    sys_ = design_case_y([1.0, 4.0], 3, 3)
    ok, _residuals, _m1 = verify_design(sys_, [1.0, 4.0])
    assert ok
    bad, residuals, _m1 = verify_design(sys_, [2.0])
    assert not bad
    assert residuals[0] > 0.1
