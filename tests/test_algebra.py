"""Ring arithmetic and half-power polynomial behavior."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlienard import (INV_PI, PI, SQRT2, HalfPowerPoly, InvalidInput,
                       NegativeEnergy, RingElem, expand, load_preset)

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


# raw terms as a caller may pass them: sqrt(2) powers from -2 to 3 (the
# constructor folds them; invert_monomial builds -1) and zero values
raw_terms = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(-2, 2)), rationals, max_size=4)


# -- the canonicalising constructor and operators of the plain implementation,
# kept as the reference for the operators' direct canonical construction


def ref_canon(terms):
    canon = {}
    for (e, p), q in terms.items():
        q = Fraction(q)
        if q == 0:
            continue
        q *= Fraction(2) ** (e // 2)
        key = (e % 2, p)
        q = canon.get(key, Fraction(0)) + q
        if q == 0:
            canon.pop(key, None)
        else:
            canon[key] = q
    return canon


def ref_add(a, b):
    merged = dict(a)
    for key, q in b.items():
        merged[key] = merged.get(key, Fraction(0)) + q
    return ref_canon({k: v for k, v in merged.items() if v != 0})


def ref_neg(a):
    return ref_canon({k: -v for k, v in a.items()})


def ref_mul(a, b):
    out = {}
    for (e1, p1), q1 in a.items():
        for (e2, p2), q2 in b.items():
            key = (e1 + e2, p1 + p2)
            out[key] = out.get(key, Fraction(0)) + q1 * q2
    return ref_canon(out)


def assert_canonical_as(elem, ref):
    """Same terms as the reference, in the same order (to_float sums in
    it), each key with e in {0, 1} and a nonzero Fraction value."""
    assert list(elem.terms.items()) == list(ref.items())
    for (e, _), q in elem.terms.items():
        assert e in (0, 1)
        assert type(q) is Fraction and q != 0


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

    @given(raw_terms, raw_terms)
    @settings(max_examples=200, deadline=None)
    def test_operators_match_reference(self, ta, tb):
        a, b = RingElem(ta), RingElem(tb)
        ra, rb = ref_canon(ta), ref_canon(tb)
        assert_canonical_as(a, ra)
        assert_canonical_as(b, rb)
        pairs = [(a + b, ref_add(ra, rb)), (a - b, ref_add(ra, ref_neg(rb))),
                 (a * b, ref_mul(ra, rb)), (-a, ref_neg(ra))]
        if len(ra) == 1:
            ((e, p), q), = ra.items()
            pairs.append((a.invert_monomial(), ref_canon({(-e, -p): 1 / q})))
        for got, ref in pairs:
            assert_canonical_as(got, ref)
            first = got.to_float()
            assert got.to_float().hex() == first.hex()
            assert RingElem(ref).to_float().hex() == first.hex()

    @given(ring_elems(), ring_elems())
    @settings(max_examples=80, deadline=None)
    def test_equal_elements_hash_equal(self, a, b):
        for x in (a, a * b, a - a):
            assert hash(x) == hash(RingElem(dict(x.terms)))
            if x.is_rational():
                assert hash(x) == hash(x.as_rational())

    def test_rational_hashes_like_its_number(self):
        assert RingElem.rational(3) == 3
        assert len({RingElem.rational(3), 3}) == 1
        assert len({RingElem.zero(), 0, 0.0, Fraction(0)}) == 1
        assert {0.5: "half"}[RingElem.rational(Fraction(1, 2))] == "half"
        # text is not a number, and NaN or an infinity equals no element
        assert RingElem.rational(3) != "3"
        assert RingElem.one() != math.nan
        assert RingElem.one() != -math.inf

    def test_cancellation_across_the_sqrt2_fold(self):
        """A folded sqrt(2)^2 term that cancels a rational one leaves no
        key behind, in the constructor and in a product."""
        assert RingElem({(0, 0): 2, (2, 0): -1}).is_zero()
        # (sqrt2 + 1)(sqrt2 - 2) = 2 - 2 sqrt2 + sqrt2 - 2
        assert ((SQRT2 + 1) * (SQRT2 - 2)).terms == {(1, 0): Fraction(-1)}

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
        poly = HalfPowerPoly({1: RingElem.one()})
        with pytest.raises(Exception):
            poly.eval(-1.0)

    def test_nan_energy_rejected(self):
        poly = HalfPowerPoly({1: RingElem.one()})
        with pytest.raises(NegativeEnergy, match="not a number"):
            poly.eval(math.nan)
        assert issubclass(NegativeEnergy, InvalidInput)

    def test_infinite_energy_rejected(self):
        """At h = inf one term is inf and opposite terms give nan; both
        are refused, as a NaN h is."""
        m1 = expand(load_preset("example1")).m1
        for poly in (HalfPowerPoly({1: RingElem.one()}), m1):
            with pytest.raises(NegativeEnergy, match="infinite"):
                poly.eval(math.inf)

    def test_non_integral_key_rejected(self):
        for key in (2.5, Fraction(3, 2), math.nan, math.inf):
            with pytest.raises(ValueError, match="not an integer"):
                HalfPowerPoly({key: RingElem.one()})
        with pytest.raises(ValueError, match="negative"):
            HalfPowerPoly({-2: RingElem.one()})
        assert HalfPowerPoly({2.0: RingElem.one()}) == \
            HalfPowerPoly({2: RingElem.one()})

    def test_addition_cancels(self):
        p = HalfPowerPoly({3: SQRT2})
        q = HalfPowerPoly({3: -SQRT2})
        assert (p + q).is_zero()

    def test_json_round_trip(self):
        poly = HalfPowerPoly({0: PI, 3: SQRT2 * RingElem.rational(Fraction(-7, 3))})
        assert HalfPowerPoly.from_json(poly.to_json()) == poly

    def test_degree_key(self):
        assert HalfPowerPoly().degree_key() is None
        assert HalfPowerPoly({1: RingElem.one(), 4: PI}).degree_key() == 4
