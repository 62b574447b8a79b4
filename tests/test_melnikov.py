"""Closed-form expansion assembly: exact values, the table of arc
integrals that M0 and M1 sum, shape invariants and a pinned hash of the
assembled expansions."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from pwlienard import (PRESET_NAMES, Case, HalfPowerPoly, InvalidInput,
                       LienardSystem, OddnessViolated, PI, RingElem, SQRT2,
                       WrongCase, expand, load_preset, zero_bound)
from pwlienard.melnikov import (_a_hat_factor, _a_tilde_factor,
                                _b_star_factor, _b_tilde_factor,
                                _c_star_factor, _c_weight_factor,
                                _time_weight_factor, _wallis, _x_odd_block,
                                case_x_i2, case_x_i3, case_x_m0, case_y_m0,
                                closed_forms, closed_term, support)
from pwlienard.systems import MAX_DEGREE

from conftest import random_sweep_system


SHAPES = [(case, m, n) for case in Case for m in range(8) for n in range(8)]


def rational(q):
    return RingElem.rational(Fraction(q))


class TestExactValues:
    def test_example1_m1_exact(self):
        """All sqrt(2) and pi factors must cancel to plain rationals."""
        exp = expand(load_preset("example1"))
        expected = HalfPowerPoly({1: rational(24), 2: rational(-50),
                                  3: rational(35), 4: rational(-10),
                                  5: rational(1)})
        assert exp.m1 == expected
        assert all(c.is_rational() for c in exp.m1.coeffs.values())
        assert exp.m0.is_zero()

    def test_example1_m1_values(self):
        exp = expand(load_preset("example1"))
        for h in (1.0, 4.0, 9.0, 16.0):
            assert abs(exp.m1.eval(h)) < 1e-9
        assert exp.m1.eval(2.0) < 0 < exp.m1.eval(0.5)

    def test_linear_in_g_coefficients(self):
        eq = load_preset("remark-eqMM")
        m0 = case_y_m0(eq)
        assert m0.coeffs[1] == SQRT2 * rational(12)
        assert m0.coeffs[2] == PI * rational(10)

    def test_piecewise_cubic_closed_form(self):
        m0 = case_y_m0(load_preset("remark-pw-cubic"))
        assert m0 == HalfPowerPoly({
            1: SQRT2 * rational(20),
            2: PI * rational(2),
            3: SQRT2 * rational(Fraction(56, 3)),
            4: PI * rational(3),
        })

    def test_smooth_cubic_closed_form(self):
        m0 = case_x_m0(load_preset("remark-smooth-cubic"))
        assert m0 == HalfPowerPoly({2: PI * rational(-2), 4: PI * rational(-3)})

    def test_wallis_values(self):
        assert _wallis(0) == 1
        assert _wallis(1) == Fraction(2, 3)
        assert _wallis(2) == Fraction(8, 15)

    def test_time_weight_is_a_wallis_number(self):
        """The time weight against its binomial sum, written out here."""
        for l in range(13):
            q = sum(Fraction(math.comb(l + 1, k) * (-1) ** k, 2 * k + 1)
                    for k in range(l + 2))
            assert _time_weight_factor(l) == RingElem({(2 * l + 3, 0): q})

    def test_factor_tables(self):
        """Each memoized factor against its docstring formula, written out
        with plain Fraction loops as canonical terms: 2^(k+1/2) is
        {(1, 0): 2^k}.  Called twice, so the second read is the cached one."""
        for _ in range(2):
            for i in range(41):
                w = Fraction(1)
                for l in range(1, i + 1):
                    w *= Fraction(2 * l, 2 * l + 1)
                assert _wallis(i) == w
                odd = Fraction(2, i + 1)
                for l in range(1, i + 1):
                    odd *= Fraction(2 * l - 1, l)
                for sign in (1, -1):
                    assert _a_tilde_factor(i, sign).terms == {(0, 1): sign * odd}
                assert _b_tilde_factor(i).terms == \
                    {(1, 0): Fraction(2 ** (i + 2), 2 * i + 1)}
                assert _b_star_factor(i).terms == {(0, 0): -2 ** (i + 1)}
                assert _c_star_factor(i).terms == \
                    {(1, 0): Fraction(2 ** (i + 1), 2 * i + 1)}
                assert _c_weight_factor(i).terms == {(0, 0): Fraction(2, i + 1)}
                assert _time_weight_factor(i).terms == \
                    {(1, 0): 2 ** (i + 1) * w * Fraction(2 * i + 2, 2 * i + 3)}
                assert _a_hat_factor(i).terms == \
                    {(1, 0): -Fraction(2 ** (i + 2), 2 * i + 3) * w}


def test_odd_block_on_floats_matches_closed_form(rng):
    """The designer's Newton residual evaluates the switch-on-x odd block
    through the same function as I2 + I3, on floats; both must agree."""
    for _ in range(60):
        sys_ = random_sweep_system(rng, Case.SWITCH_X)
        fc = sys_.float_coeffs()
        a_odd, c_odd = fc["a0"][1::2], fc["c"][1::2]
        top = len(a_odd) + len(c_odd) - 1
        block = _x_odd_block(
            a_odd, c_odd,
            [_c_weight_factor(j).to_float() for j in range(len(c_odd))],
            [_time_weight_factor(l).to_float() for l in range(top)],
            [_a_hat_factor(l).to_float() for l in range(len(a_odd))])
        exact = case_x_i2(sys_) + case_x_i3(sys_)
        assert {2 * l + 3 for l in block} >= set(exact.coeffs)
        for l, value in block.items():
            ref = exact.coeffs.get(2 * l + 3, RingElem.zero()).to_float()
            assert abs(value - ref) <= 1e-13 * (1 + abs(ref)), (sys_, l)


class TestVanishing:
    def test_m0_vanishes_for_odd_blocks(self, rng):
        for _ in range(25):
            sys_y = random_sweep_system(rng, Case.SWITCH_Y)
            assert case_y_m0(sys_y).is_zero()
            sys_x = random_sweep_system(rng, Case.SWITCH_X)
            assert case_x_m0(sys_x).is_zero()

    def test_even_f0_rejected_without_projection(self):
        sys_ = LienardSystem.build(Case.SWITCH_Y, 2, 1, a0=[1, 0, 1])
        with pytest.raises(OddnessViolated):
            expand(sys_)
        exp = expand(sys_, project_odd=True)
        assert exp.m1.is_zero()

    def test_wrong_case_rejected(self):
        with pytest.raises(WrongCase):
            case_y_m0(load_preset("example2"))

    def test_m1_reads_no_even_f0_or_g0_coefficient(self, rng):
        """project_odd only waives the oddness check: M1 and every M1 term
        of a system equal those of its odd projection, on every shape."""
        for case, m, n in SHAPES:
            sys_ = random_sweep_system(rng, case, enforce_odd=False, m=m, n=n)
            odd = sys_.odd_projection()
            m1 = expand(sys_, project_odd=True).m1
            assert m1.to_json() == expand(odd).m1.to_json(), (case, m, n)
            for i in range(1, case.n_integrals):
                for h in (0.5, 2.0):
                    assert closed_term(sys_, i, h) == closed_term(odd, i, h)


class TestShapeInvariants:
    def test_support_within_allowed_exponents(self, rng):
        """Over random systems of each shape, the closed forms carry exactly
        the monomials of the support table, no more and no fewer."""
        for case, m, n in SHAPES:
            seen = {"M0": set(), "M1": set()}
            for _ in range(8):
                sys_ = random_sweep_system(rng, case, enforce_odd=False,
                                           m=m, n=n)
                exp = expand(sys_, project_odd=True)
                seen["M0"] |= set(exp.m0.coeffs)
                seen["M1"] |= set(exp.m1.coeffs)
            for which in ("M0", "M1"):
                assert seen[which] == support(case, m, n, which), \
                    (case, m, n, which)

    def test_zero_bound_table(self):
        assert zero_bound(Case.SWITCH_Y, 3, 3, "M0") == 3
        assert zero_bound(Case.SWITCH_Y, 3, 3, "M1") == 4
        assert zero_bound(Case.SWITCH_X, 3, 3, "M0") == 1
        assert zero_bound(Case.SWITCH_X, 3, 3, "M1") == 4
        assert zero_bound(Case.SWITCH_X, 3, 0, "M1") == 3
        assert zero_bound(Case.SWITCH_X, 0, 0, "M1") == 1
        assert zero_bound(Case.SWITCH_Y, 0, 0, "M1") == 1

    def test_zero_bound_validation(self):
        """Both tables apply the degree rule of ``LienardSystem.build``: a
        degree is an int from 0 to MAX_DEGREE, so neither 3.5 nor True,
        even where an int of the same value is cached."""
        support(Case.SWITCH_X, 1, 0, "M1")
        assert zero_bound(Case.SWITCH_X, MAX_DEGREE, 0, "M0") \
            == MAX_DEGREE // 2
        for table in (zero_bound, support):
            for m in (-1, 3.5, True, 1.0, MAX_DEGREE + 1):
                with pytest.raises(InvalidInput):
                    table(Case.SWITCH_X, m, 0, "M1")
            with pytest.raises(InvalidInput):
                table(Case.SWITCH_Y, 0, 10**9, "M1")
            with pytest.raises(ValueError):
                table(Case.SWITCH_Y, 1, 1, "M2")

    def test_bound_equals_monomial_capacity(self):
        """Descartes' bound from the support, (monomials) - 1, equals the
        paper's zero bound except in the 56 shapes whose top channel slot
        the closed forms cannot fill."""
        below = 0
        for case, m, n in SHAPES:
            bound = zero_bound(case, m, n, "M1")
            if case is Case.SWITCH_Y and n >= 2 and n % 2 == 0:
                expected = bound - 1
            elif case is Case.SWITCH_X and m == 0:
                expected = 0
            elif case is Case.SWITCH_X and m % 2 == 0:
                expected = bound - 1
            else:
                expected = bound
            below += expected < bound
            assert len(support(case, m, n, "M1")) - 1 == expected, (case, m, n)
            assert len(support(case, m, n, "M0")) - 1 \
                == zero_bound(case, m, n, "M0")
        assert below == 56


class TestClosedForms:
    def test_table_is_what_the_expansion_sums(self, rng):
        """One closed form per quadrature index: M0 is I_0, M1 sums the
        rest, and the switch-on-y I2 and I4 are zero."""
        for case, m, n in SHAPES:
            sys_ = random_sweep_system(rng, case, m=m, n=n)
            forms = closed_forms(sys_)
            assert len(forms) == case.n_integrals
            exp = expand(sys_)
            assert exp.m0 == forms[0]
            assert exp.m1 == sum(forms[1:], HalfPowerPoly())
            if case is Case.SWITCH_Y:
                assert forms[2].is_zero() and forms[4].is_zero()
                for i in (2, 4):
                    value = closed_term(sys_, i, 1.5)
                    assert type(value) is float and value == 0.0


# sha256 of expansion_digest(), recorded with the assembly that sums
# I_1 + I_2 + ... from left to right
PINNED_EXPANSION_SHA256 = \
    "9eec14738a63645646eac0b754ebbd988eabead159d0608c8aecb829c889d393"


def expansion_digest():
    """sha256 of M0 and M1 of ``expand(..., project_odd=True)`` over the
    presets and two seeded draws with even-index f0 and g0 terms on each of
    the 128 shapes: ``to_json``, which sorts the monomials, and the
    ``float.hex`` of both at five energies, whose bits follow the order in
    which the monomials were assembled."""
    rng = random.Random(1501)
    systems = [load_preset(name) for name in PRESET_NAMES]
    for case, m, n in SHAPES:
        systems += [random_sweep_system(rng, case, enforce_odd=False,
                                        m=m, n=n) for _ in range(2)]
    digest = hashlib.sha256()
    for sys_ in systems:
        exp = expand(sys_, project_odd=True)
        values = [float(poly.eval(h)).hex() for poly in (exp.m0, exp.m1)
                  for h in (0.125, 0.5, 1.5, 2.0, 3.0)]
        digest.update(json.dumps(
            [exp.m0.to_json(), exp.m1.to_json(), values]).encode())
    return digest.hexdigest()


def test_expansion_pinned():
    """The coefficients of M0 and M1 and the bits of their values, as
    recorded: a change in the order of the sums shows here, as
    test_quad_I_pinned_bit_for_bit shows one in the oracle."""
    assert expansion_digest() == PINNED_EXPANSION_SHA256
