"""Closed-form expansion assembly: exact values, shape invariants, folding."""

import math
import random
from fractions import Fraction

import pytest

from pwlienard import (Case, HalfPowerPoly, LienardSystem, OddnessViolated,
                       PI, RingElem, SQRT2, WrongCase, ZeroLambda, expand,
                       fold_to_theorem_form, load_preset, theorem_form_system,
                       zero_bound)
from pwlienard.melnikov import (_a_hat_factor, _a_tilde_factor,
                                _b_star_factor, _b_tilde_factor,
                                _c_star_factor, _c_weight_factor,
                                _time_weight_factor, _wallis, _x_odd_block,
                                case_x_i2, case_x_i3, case_x_m0, case_y_m0,
                                case_y_m1, closed_term, support)

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
            case_y_m1(sys_)
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
        for table in (zero_bound, support):
            with pytest.raises(ValueError):
                table(Case.SWITCH_Y, -1, 0, "M1")
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


class TestFolding:
    def test_requires_positive_lambda(self):
        with pytest.raises(ZeroLambda):
            fold_to_theorem_form(load_preset("example1"))

    def test_fold_values(self):
        sys_ = load_preset("example1").with_params(0.02, 4e-4)
        form = fold_to_theorem_form(sys_)
        assert form.delta == pytest.approx(0.02)
        fc = sys_.float_coeffs()
        for j in range(sys_.m + 1):
            assert form.fbar[j] == pytest.approx(
                form.delta * (fc["a0"][j] + sys_.lam * fc["a1"][j]))
        for j in range(sys_.n + 1):
            assert form.gbar[j] == pytest.approx(
                fc["c"][j] + form.delta * (fc["b0"][j] + sys_.lam * fc["b1"][j]))

    def test_folded_system_realization(self):
        sys_ = load_preset("example1").with_params(0.02, 4e-4)
        form = fold_to_theorem_form(sys_)
        folded = theorem_form_system(form)
        assert folded.case is sys_.case
        assert folded.lam == folded.eps == sys_.lam
        fc = folded.float_coeffs()
        assert fc["a0"] == pytest.approx(list(form.fbar))
        assert fc["c"] == pytest.approx(list(form.gbar))
        assert all(v == 0.0 for v in fc["a1"] + fc["b0"] + fc["b1"])
