"""Ring arithmetic and half-power polynomial behavior."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlienard import INV_PI, PI, SQRT2, HalfPowerPoly, RingElem

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=16)


@st.composite
def ring_elems(draw):
    n_terms = draw(st.integers(0, 3))
    elem = RingElem.zero()
    for _ in range(n_terms):
        q = draw(rationals)
        e = draw(st.integers(0, 1))
        p = draw(st.integers(-2, 2))
        elem = elem + RingElem.term(q, e=e, p=p)
    return elem


class TestRingElem:
    def test_constants(self):
        assert abs(SQRT2.to_float() - math.sqrt(2)) < 1e-15
        assert abs(PI.to_float() - math.pi) < 1e-15
        assert (PI * INV_PI) == RingElem.one()
        assert SQRT2 * SQRT2 == RingElem.rational(2)

    def test_sqrt2_powers_fold(self):
        # 2^(3/2) normalizes to 2 * sqrt(2)
        x = SQRT2 * SQRT2 * SQRT2
        assert x == RingElem.term(2, e=1)
        assert abs(x.to_float() - 2 ** 1.5) < 1e-14

    @given(ring_elems(), ring_elems(), ring_elems())
    @settings(max_examples=120, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + RingElem.zero() == a
        assert a * RingElem.one() == a
        assert a - a == RingElem.zero()

    @given(ring_elems(), ring_elems())
    @settings(max_examples=80, deadline=None)
    def test_float_homomorphism(self, a, b):
        scale = 1.0 + abs(a.to_float()) + abs(b.to_float())
        assert abs((a + b).to_float() - (a.to_float() + b.to_float())) \
            < 1e-12 * scale
        assert abs((a * b).to_float() - a.to_float() * b.to_float()) \
            < 1e-10 * scale * scale

    @given(ring_elems())
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip(self, a):
        assert RingElem.from_json(a.to_json()) == a

    def test_invert_monomial(self):
        x = RingElem.term(Fraction(3, 4), e=1, p=1)
        assert x * x.invert_monomial() == RingElem.one()
        with pytest.raises(Exception):
            (RingElem.one() + SQRT2).invert_monomial()

    def test_coerce(self):
        assert RingElem.coerce(3) == RingElem.rational(3)
        assert RingElem.coerce(Fraction(1, 2)) == RingElem.rational(Fraction(1, 2))
        assert RingElem.coerce(SQRT2) == SQRT2

    def test_from_float_is_exact(self):
        # 0.1 has an exact binary expansion; no rounding may happen
        assert RingElem.from_float(0.1).as_rational() == Fraction(0.1)


class TestHalfPowerPoly:
    def test_eval_matches_s_poly(self):
        poly = HalfPowerPoly({1: RingElem.rational(24),
                              2: RingElem.rational(-50),
                              3: RingElem.rational(35),
                              4: RingElem.rational(-10),
                              5: RingElem.one()})
        s_coeffs = poly.to_s_poly()
        for h in (0.25, 0.5, 1.0, 2.0, 9.0, 16.0):
            s = math.sqrt(h)
            direct = poly.eval(h)
            horner = 0.0
            for c in reversed(s_coeffs):
                horner = horner * s + c
            assert abs(direct - horner) <= 1e-12 * (1.0 + abs(direct))

    def test_negative_energy_rejected(self):
        poly = HalfPowerPoly.monomial(1, RingElem.one())
        with pytest.raises(Exception):
            poly.eval(-1.0)

    def test_addition_cancels(self):
        p = HalfPowerPoly.monomial(3, SQRT2)
        q = HalfPowerPoly.monomial(3, -SQRT2)
        assert (p + q).is_zero()

    def test_multiplication_adds_exponents(self):
        p = HalfPowerPoly.monomial(1, RingElem.rational(2))
        q = HalfPowerPoly.monomial(4, RingElem.rational(3))
        r = p * q
        assert r == HalfPowerPoly.monomial(5, RingElem.rational(6))
        assert abs(r.eval(4.0) - 6 * 4.0 ** 2.5) < 1e-12

    def test_json_round_trip(self):
        poly = HalfPowerPoly({0: PI, 3: SQRT2 * RingElem.rational(Fraction(-7, 3))})
        assert HalfPowerPoly.from_json(poly.to_json()) == poly

    def test_scale(self):
        poly = HalfPowerPoly({2: RingElem.rational(5)})
        assert poly.scale(RingElem.rational(2)) == \
            HalfPowerPoly({2: RingElem.rational(10)})
        assert poly.scale(RingElem.zero()).is_zero()

    def test_degree_key(self):
        assert HalfPowerPoly.zero().degree_key() is None
        assert HalfPowerPoly({1: RingElem.one(), 4: PI}).degree_key() == 4
