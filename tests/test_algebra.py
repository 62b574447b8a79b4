"""Ring arithmetic and half-power polynomial behavior."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwlienard import (INV_PI, PI, SQRT2, HalfPowerPoly, InvalidInput,
                       NegativeEnergy, PrecisionLoss, RingElem, expand,
                       load_preset)
from pwlienard.algebra import (MAX_JSON_PI_POWER, MAX_JSON_SQRT2_POWER,
                               compile_source, horner_deriv_source,
                               horner_source, polyval, unpack_source)
from pwlienard.systems import MAX_DEGREE

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

    @pytest.mark.parametrize("data", [
        [{"q": True}], [{"q": "1", "e": 1.5}], [{"q": "1", "e": "1"}],
        [{"q": "1", "p": True}], [{"e": 1}], [{"q": "1", "x": 0}],
        [{"q": "x"}], [{"q": "1/0"}], [{"q": float("inf")}],
        float("nan"), [{"q": "1", "e": MAX_JSON_SQRT2_POWER + 1}],
        [{"q": "1", "e": -10**11}], [{"q": "1", "p": MAX_JSON_PI_POWER + 1}],
        [{"q": "1", "p": -10**6}], [{"q": "100/1", "p": MAX_JSON_PI_POWER}],
        [{"q": "1e308"}, {"q": "1e308"}], "1e400", 10 ** 400,
        [{"q": "1e400", "p": -MAX_JSON_PI_POWER}],
    ], ids=["bool-q", "fractional-e", "string-e", "bool-p", "missing-q",
            "unknown-key", "malformed-q", "zero-denominator", "infinite-q",
            "nan", "e-above-bound", "huge-negative-e", "p-above-bound",
            "huge-negative-p", "term-overflows", "sum-overflows",
            "rational-overflows", "integer-overflows", "q-overflows"])
    def test_from_json_rejects_malformed_terms(self, data):
        """A malformed term or rational is an input error (CLI exit 2), not
        read as a nearby value (True as 1, e = 1.5 as 1) nor raised as an
        arithmetic error (CLI exit 3); so is an e whose power of 2 would
        take memory in proportion to it, a p whose power of pi has no float
        value, and a term or sum that has none.  The float evaluation goes
        term by term, so a q beyond the float range is rejected even where
        pi^p would bring its term back into range."""
        with pytest.raises(InvalidInput):
            RingElem.from_json(data)

    def test_from_json_reads_e_up_to_the_bound(self):
        for e in (MAX_JSON_SQRT2_POWER, -MAX_JSON_SQRT2_POWER):
            term = RingElem.from_json([{"q": "1", "e": e}])
            assert term == RingElem.rational(Fraction(2) ** (e // 2))

    def test_from_json_reads_p_up_to_the_bound(self):
        for p in (MAX_JSON_PI_POWER, -MAX_JSON_PI_POWER):
            term = RingElem.from_json([{"q": "1", "p": p}])
            assert term == RingElem.term(1, p=p)
            assert 0.0 < term.to_float() < math.inf

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

    @given(rationals.filter(bool), st.integers(0, 1), st.integers(-3, 3),
           rationals.filter(bool), st.integers(0, 1), st.integers(-3, 3))
    @example(Fraction(-3, 4), 1, -2, Fraction(5, 3), 1, 2)
    @example(Fraction(7, 2), 0, 0, Fraction(-1, 9), 1, -1)
    @settings(max_examples=200, deadline=None)
    def test_single_term_product_is_canonical(self, q1, e1, p1, q2, e2, p2):
        """Two one-term factors take ``__mul__``'s direct path: it builds
        the element that the constructor canonicalises, 2^(2/2) folded
        into the rational, with the float value of the reference."""
        a, b = RingElem.term(q1, e1, p1), RingElem.term(q2, e2, p2)
        ref = RingElem({(e1 + e2, p1 + p2): q1 * q2})
        got = a * b
        assert_canonical_as(got, ref.terms)
        assert_canonical_as(got, ref_mul(a.terms, b.terms))
        assert got.to_float().hex() == ref.to_float().hex()
        assert_canonical_as(a * q2, RingElem({(e1, p1): q1 * q2}).terms)

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
        assert RingElem.rational(0.1).as_rational() == Fraction(0.1)


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

    def test_overflow_named(self):
        """A finite h at which the value leaves the float range raises
        PrecisionLoss naming h and the lowest term that overflows, whether
        its power raises OverflowError or its product is inf; where no
        term overflows alone, it names the sum."""
        m1 = expand(load_preset("example1")).m1  # 24 h^(1/2) ... + h^(5/2)
        with pytest.raises(PrecisionLoss, match=r"^h = 1e\+300: the "
                           r"h\^\(3/2\) term overflows a float$"):
            m1.eval(1e300)
        assert math.isfinite(m1.eval(1e120))
        poly = HalfPowerPoly({0: RingElem.one(),
                              4: RingElem.rational(Fraction(10) ** 300)})
        with pytest.raises(PrecisionLoss, match=r"the h\^2 term"):
            poly.eval(1e5)
        big = RingElem.rational(Fraction(10) ** 308)
        with pytest.raises(PrecisionLoss, match="h = 1.0: the sum overflows"):
            HalfPowerPoly({0: big, 2: big}).eval(1.0)
        assert HalfPowerPoly({0: big, 2: big}).eval(0.5) == 1.5e308

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
        """The document CLI ``melnikov`` and ``design`` write: doubled
        exponents as string keys, each coefficient as ``RingElem.to_json``
        terms, which read back to the coefficients."""
        poly = HalfPowerPoly({0: PI, 3: SQRT2 * RingElem.rational(Fraction(-7, 3))})
        doc = {"0": [{"q": "1/1", "e": 0, "p": 1}],
               "3": [{"q": "-7/3", "e": 1, "p": 0}]}
        assert poly.to_json() == doc
        assert HalfPowerPoly({int(k): RingElem.from_json(v)
                              for k, v in doc.items()}) == poly

    def test_zero_polynomial_evaluates_to_a_float(self):
        """The sum starts at 0.0, so the zero polynomial is the float 0.0,
        not the int 0 that an empty ``sum`` gives."""
        value = HalfPowerPoly().eval(1.0)
        assert type(value) is float and value == 0.0
        assert math.copysign(1.0, value) == 1.0

    def test_repr_writes_each_exponent_whole(self):
        """h^(2/2) is h, not h^2 halved; zero prints as 0 at both levels."""
        assert repr(HalfPowerPoly()) == "HalfPowerPoly(0)"
        assert repr(RingElem.zero()) == "RingElem(0)"
        poly = HalfPowerPoly({2: RingElem.rational(-50), 1: SQRT2 * INV_PI})
        assert repr(poly) == ("HalfPowerPoly((RingElem(1*sqrt2*pi^-1))*h^(1/2)"
                              " + (RingElem(-50))*h^(2/2))")

    def test_degree_key(self):
        assert HalfPowerPoly().degree_key() is None
        assert HalfPowerPoly({1: RingElem.one(), 4: PI}).degree_key() == 4


# -- generated code ------------------------------------------------------------


def written_horner(n, deriv):
    """The function f(c, x) that algebra's writers generate for n ascending
    coefficients c: unpacked into locals, then Horner written out, with
    ``deriv`` the Horner-with-derivative chain returning (value, deriv)."""
    names, unpack = unpack_source("c", n)
    if deriv:
        chain = horner_deriv_source("val", "der", names, "x")
    else:
        chain = horner_source("val", names, "x")
    return compile_source("f", ["def f(c, x):", unpack, *chain,
                                "return (val, der)" if deriv else
                                "return val"], {})


def loop_with_derivative(coeffs, x):
    """polyval's loop, from 0.0, with the derivative's chain beside it."""
    value = deriv = 0.0
    for c in reversed(coeffs):
        deriv = deriv * x + value
        value = value * x + c
    return value, deriv


def chain_with_derivative(coeffs, x):
    """The Horner-with-derivative chain as a loop: it starts at the top
    coefficient, and the derivative at the top on the second step."""
    if len(coeffs) < 2:
        return (coeffs[0] if coeffs else 0.0), 0.0
    value, deriv = coeffs[-1] * x + coeffs[-2], coeffs[-1]
    for c in reversed(coeffs[:-2]):
        deriv = deriv * x + value
        value = value * x + c
    return value, deriv


def same_but_zero_sign(a, b):
    """Equal bits, or both zeros of either sign."""
    return a.hex() == b.hex() or a == b == 0.0


def coefficient_lists(rng, n):
    """Ascending lists of n coefficients: random ones with about a quarter
    +-0.0, all-zero ones of each sign, and ones whose top is -0.0 above
    random coefficients or above zeros and a constant."""
    def coeff():
        if rng.random() < 0.25:
            return rng.choice((0.0, -0.0))
        return rng.uniform(-2.0, 2.0)
    lists = [[coeff() for _ in range(n)] for _ in range(4)]
    if n:
        lists += [[coeff() for _ in range(n - 1)] + [-0.0],
                  [0.0] * n, [-0.0] * n]
    if n >= 2:
        lists.append([rng.uniform(1.0, 2.0)] + [0.0] * (n - 2) + [-0.0])
    return lists


# x = +-0.0 meet the top's signed zero both ways; |x| <= 1.25 keeps
# x^(MAX_DEGREE + 1) finite
HORNER_XS = (0.0, -0.0, 0.5, -0.75, 1.25, -1.25)


@pytest.mark.parametrize("n", [0, 1, 2, 100, 101, 102, MAX_DEGREE + 2])
def test_horner_source_is_polyval(n):
    """The written-out chain over ascending locals has polyval's bits,
    except for the sign of the value of an all-zero polynomial; nested 100
    steps an expression, it compiles at every length."""
    rng = random.Random(1000 + n)
    f = written_horner(n, False)
    for coeffs, x in ((c, x) for c in coefficient_lists(rng, n)
                      for x in HORNER_XS):
        got, want = f(coeffs, x), polyval(coeffs, x)
        if any(coeffs):
            assert got.hex() == want.hex()
        else:
            assert got == want == 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 100, 101, 102, MAX_DEGREE + 2])
def test_horner_deriv_source_is_the_loop(n):
    """The Horner-with-derivative chain over ascending locals has the bits
    of its loop, the value's those of horner_source's chain, and the
    value and derivative of the loop beside polyval's: bit for bit where
    the top coefficient is nonzero, and else up to the sign of a zero."""
    rng = random.Random(2000 + n)
    f, plain = written_horner(n, True), written_horner(n, False)
    for coeffs, x in ((c, x) for c in coefficient_lists(rng, n)
                      for x in HORNER_XS):
        (value, deriv), want = f(coeffs, x), loop_with_derivative(coeffs, x)
        assert [value.hex(), deriv.hex()] == \
            [v.hex() for v in chain_with_derivative(coeffs, x)]
        assert value.hex() == plain(coeffs, x).hex()
        if coeffs and coeffs[-1] != 0.0:
            assert [value.hex(), deriv.hex()] == [w.hex() for w in want]
        else:
            assert same_but_zero_sign(value, want[0])
            assert same_but_zero_sign(deriv, want[1])


def test_unpack_source_reads_ascending():
    """unpack_source's locals are the coefficients in their order, and a
    sequence of another length fails the unpacking."""
    names, line = unpack_source("c", 3)
    f = compile_source("f", ["def f(c):", line,
                             f"return [{', '.join(names)}]"], {})
    assert f((1.0, 2.0, 3.0)) == [1.0, 2.0, 3.0]
    assert f([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        f((1.0, 2.0))
