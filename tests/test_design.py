"""Inverse design: placing the positive zeros of M1 at requested energies."""

import math

import pytest

from pwlienard import (Case, InfeasibleShape, TooManyTargets, design_case_x,
                       design_case_y, expand, isolate_positive_roots,
                       load_preset, verify_design)
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


def test_verify_design_flags_misses():
    sys_ = design_case_y([1.0, 4.0], 3, 3)
    ok, _residuals, _m1 = verify_design(sys_, [1.0, 4.0])
    assert ok
    bad, residuals, _m1 = verify_design(sys_, [2.0])
    assert not bad
    assert residuals[0] > 0.1
