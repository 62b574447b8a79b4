"""Inverse design: placing the positive zeros of M1 at requested energies."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwlienard import (Case, HalfPowerPoly, InfeasibleShape, LienardSystem,
                       NoConvergence, RingElem, SimConfig, TooManyTargets,
                       design_case_x, design_case_y, expand, find_cycles,
                       isolate_positive_roots, load_preset, oracle_m1,
                       verify_design)
from pwlienard import design
from pwlienard.design import _odd_jacobian, _place, _product_s_poly
from pwlienard.melnikov import (LINEAR_CHANNELS, _a_hat_factor,
                                _b_star_factor, _c_star_factor,
                                _c_weight_factor, _time_weight_factor,
                                _x_odd_block, support, zero_bound)
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

    def test_c_only_for_the_convolution_channel(self):
        """a1 and b1 carry every monomial of these targets, so c stays zero:
        g has no even part, the period annulus survives and the simulator
        finds the designed cycles."""
        sys_ = design_case_y([1, 4], 3, 3)
        assert all(v.is_zero() for v in sys_.b0)
        assert all(v.is_zero() for v in sys_.c)
        scan = find_cycles(sys_, (1.0, 3.4), 60,
                           SimConfig(lam=0.02, eps=4e-4))
        assert [c.h_star for c in scan.cycles] == pytest.approx([1.0, 4.0],
                                                                abs=1e-3)

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

    def test_newton_budget_exhausted(self, monkeypatch):
        """With one Newton iteration per start, the odd block gives up after
        its 8 starts and reports the best residual it reached."""
        monkeypatch.setattr(design, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence,
                           match="after 1 iterations x 8 starts") as exc:
            design_case_x([1.0, 3.0], 3, 3)
        assert exc.value.best_residual == pytest.approx(0.297, abs=1e-3)

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


def _m1_channels(case: Case, n: int):
    """The channels through which the designers set M1: the linear ones of
    I_1, I_2, ..., and for switch-on-y the b0 channel that b*.c* becomes
    once c*_[n/2] = 1."""
    channels = sum(LINEAR_CHANNELS[case][1:], ())
    if case is Case.SWITCH_Y:
        channels += (("b0", 1, _b_star_factor, 2 * (n // 2) + 1),)
    return channels


@pytest.mark.parametrize("case", list(Case))
def test_each_channel_places_one_monomial(case):
    """_place of q at every exponent that a channel carries, into zero
    vectors, gives an M1 of exactly q h^(k/2), and the quadrature oracle,
    which reads no closed form, agrees at h = 0.7."""
    q, h = Fraction(-3, 7), 0.7
    for m in range(8):
        for n in range(8):
            for channel in _m1_channels(case, n):
                name, first, _factor, shift = channel
                size = 1 + (m if name.startswith("a") else n)
                for j in range((size - first + 1) // 2):
                    k = 2 * j + shift
                    vectors = {"a0": [0] * (m + 1), "a1": [0] * (m + 1),
                               "b0": [0] * (n + 1), "b1": [0] * (n + 1),
                               "c": [0] * (n + 1)}
                    assert _place(vectors, (channel,), k, q) is channel
                    if name == "b0":
                        vectors["c"][2 * (n // 2)] = \
                            _c_star_factor(n // 2).invert_monomial()
                    sys_ = LienardSystem.build(case, m, n, **vectors)
                    assert expand(sys_).m1 == HalfPowerPoly(
                        {k: RingElem.rational(q)}), (m, n, channel, k)
                    assert oracle_m1(sys_, h) == pytest.approx(
                        float(q) * h ** (k / 2), rel=1e-9), (m, n, channel, k)


def test_place_rejects_a_monomial_no_channel_carries():
    vectors = {"a1": [0] * 4, "b1": [0] * 4}
    with pytest.raises(InfeasibleShape, match="s\\^7"):
        _place(vectors, LINEAR_CHANNELS[Case.SWITCH_Y][1], 7, 1)


def test_second_design_inverts_no_factor(monkeypatch):
    """The inverse channel factors are kept: once both designers have
    placed on a shape, the same call again inverts nothing, the
    placement through c included."""
    calls = []
    invert = RingElem.invert_monomial

    def counting(self):
        calls.append(self)
        return invert(self)

    monkeypatch.setattr(RingElem, "invert_monomial", counting)
    design._inverse.cache_clear()
    for designer, targets, m, n in (
            (design_case_y, [1, 4, 9, 16], 3, 3),
            (design_case_x, [0.5, 1.0, 2.0, 4.0], 3, 3),
            (design_case_x, [0.5, 2.0], 4, 0)):
        first = designer(targets, m, n)
        assert calls
        calls.clear()
        assert designer(targets, m, n) == first
        assert not calls, (designer.__name__, m, n)


def _fraction_product(s_roots, lowest_power):
    """The plain Fraction product that ``_product_s_poly`` must equal."""
    coeffs = [Fraction(1)]
    for s in s_roots:
        sf = Fraction(s)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] += c
            new[k] -= sf * c
        coeffs = new
    return {k + lowest_power: q for k, q in enumerate(coeffs) if q != 0}


@st.composite
def float_roots(draw):
    """Positive floats, subnormals and values near 1e300 among them, with
    some repeated."""
    root = st.one_of(
        st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        st.sampled_from([5e-324, 2.5e-320, 2.2250738585072014e-308,
                         1e300, 1.7976931348623157e300, 0.5, 1.0, 3.0]))
    roots = draw(st.lists(root, max_size=6))
    return roots + roots[:draw(st.integers(0, 2))]


@given(float_roots(), st.integers(0, 3))
@example([5e-324, 1e300, 1e300], 1)
@settings(max_examples=150, deadline=None)
def test_product_s_poly_matches_fraction_product(s_roots, lowest_power):
    got = _product_s_poly(s_roots, lowest_power)
    ref = _fraction_product(s_roots, lowest_power)
    assert list(got.items()) == list(ref.items())
    assert all(type(q) is Fraction for q in got.values())


def test_infeasible_shape_names_the_lowest_missing_monomial():
    """design_case_y needs no support check of its own: _place tries the
    target monomials in ascending order, so the one it cannot place, and
    names, is the lowest outside the shape's M1 support."""
    rng = random.Random(38)
    named = 0
    for m in range(8):
        for n in range(8):
            carried = support(Case.SWITCH_Y, m, n, "M1")
            for count in range(1, zero_bound(Case.SWITCH_Y, m, n, "M1") + 1):
                targets = [rng.uniform(0.1, 10.0) for _ in range(count)]
                outside = set(_product_s_poly(
                    [math.sqrt(t) for t in sorted(targets)], 1)) - carried
                if not outside:
                    design_case_y(targets, m, n)
                    continue
                with pytest.raises(InfeasibleShape) as exc:
                    design_case_y(targets, m, n)
                assert re.search(r"s\^(\d+)", str(exc.value)).group(1) \
                    == str(min(outside))
                named += 1
    assert named
