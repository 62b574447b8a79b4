"""Closed-form assembly of the expansion M(h) = M0(h) + lam*M1(h) + O(lam^2).

All assembly is exact RingElem arithmetic; floats appear only when a caller
evaluates the resulting half-power polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import HalfPowerPoly, RingElem
from .errors import OddnessViolated, WrongCase, ZeroLambda
from .systems import Case, LienardSystem


def _require_case(sys: LienardSystem, case: Case):
    if sys.case is not case:
        raise WrongCase(f"operation needs {case}, system is {sys.case}")


def _coef(vec, idx: int) -> RingElem:
    return vec[idx] if idx < len(vec) else RingElem.zero()


def _require_odd_f0(sys: LienardSystem, project_odd: bool) -> LienardSystem:
    if sys.f0_is_odd():
        return sys
    if project_odd:
        return sys.odd_projection()
    raise OddnessViolated("f0 has a nonzero even-index coefficient")


def wallis_odd(i: int) -> RingElem:
    """W(i) = integral of cos^(2i+1) over [0, pi/2] = prod_{l=1..i} 2l/(2l+1)."""
    q = Fraction(1)
    for l in range(1, i + 1):
        q *= Fraction(2 * l, 2 * l + 1)
    return RingElem.rational(q)


def wallis_even(j: int) -> RingElem:
    """Integral of sin^j over [0, 2*pi] for even j: 2*pi * prod (2l-1)/(2l)."""
    if j % 2:
        raise ValueError("wallis_even needs even j; odd powers integrate to 0")
    q = Fraction(2)
    for l in range(1, j // 2 + 1):
        q *= Fraction(2 * l - 1, 2 * l)
    return RingElem.term(q, p=1)


def _a_tilde_factor(j: int, sign: int) -> RingElem:
    """sign * (2*pi/(j+1)) * prod_{l=1..j} (2l-1)/l, the a_{2j} -> h^{j+1} factor."""
    q = Fraction(2 * sign, j + 1)
    for l in range(1, j + 1):
        q *= Fraction(2 * l - 1, l)
    return RingElem.term(q, p=1)


def _b_tilde_factor(j: int) -> RingElem:
    """(2^(j+5/2)/(2j+1)), the b_{2j} -> h^(j+1/2) factor (switch-on-y case)."""
    return RingElem({(2 * j + 5, 0): Fraction(1, 2 * j + 1)})


def _even_part_poly(coeffs, deg: int, sign: int) -> HalfPowerPoly:
    """sum_j a~_j h^(j+1) built from the even-index entries of a coefficient vector."""
    out: dict[int, RingElem] = {}
    for j in range(deg // 2 + 1):
        c = coeffs[2 * j]
        if not c.is_zero():
            out[2 * (j + 1)] = _a_tilde_factor(j, sign) * c
    return HalfPowerPoly(out)


def _half_part_poly(coeffs, deg: int) -> HalfPowerPoly:
    """sum_j b~_j h^(j+1/2) from the even-index entries (switch-on-y case)."""
    out: dict[int, RingElem] = {}
    for j in range(deg // 2 + 1):
        c = coeffs[2 * j]
        if not c.is_zero():
            out[2 * j + 1] = _b_tilde_factor(j) * c
    return HalfPowerPoly(out)


# -- switch-on-y (sgn(y)) case -------------------------------------------------


def case_y_i_poly(sys: LienardSystem, i: int) -> HalfPowerPoly:
    """Closed form of the arc integral I_i (i = 0 or 1), switch-on-y case."""
    a = sys.a0 if i == 0 else sys.a1
    b = sys.b0 if i == 0 else sys.b1
    return _even_part_poly(a, sys.m, +1) + _half_part_poly(b, sys.n)


def case_y_i3(sys: LienardSystem) -> HalfPowerPoly:
    """Endpoint (L-operator) contribution: the b*/c* convolution in h^(l+1/2)."""
    half_n = sys.n // 2
    b_star = [RingElem.term(Fraction(-(2 ** (i + 1)))) * _coef(sys.b0, 2 * i + 1)
              for i in range(half_n + 1)]
    c_star = [RingElem({(2 * i + 3, 0): Fraction(1, 2 * i + 1)}) * _coef(sys.c, 2 * i)
              for i in range(half_n + 1)]
    out: dict[int, RingElem] = {}
    for l in range(2 * half_n + 1):
        acc = RingElem.zero()
        for i in range(max(0, l - half_n), min(l, half_n) + 1):
            acc = acc + b_star[i] * c_star[l - i]
        if not acc.is_zero():
            out[2 * l + 1] = acc
    return HalfPowerPoly(out)


def case_y_m0(sys: LienardSystem) -> HalfPowerPoly:
    _require_case(sys, Case.SWITCH_Y)
    return case_y_i_poly(sys, 0)


def case_y_m1(sys: LienardSystem, project_odd: bool = False) -> HalfPowerPoly:
    _require_case(sys, Case.SWITCH_Y)
    sys = _require_odd_f0(sys, project_odd)
    if not sys.g0_is_odd():
        if not project_odd:
            raise OddnessViolated("g0 has a nonzero even-index coefficient")
        sys = sys.odd_projection()
    # I2 and I4 vanish under the oddness hypothesis
    return case_y_i_poly(sys, 1) + case_y_i3(sys)


# -- switch-on-x (sgn(x)) case -------------------------------------------------


def case_x_i_poly(sys: LienardSystem, i: int) -> HalfPowerPoly:
    """Closed form of I_i (i = 0 or 1), switch-on-x case; g_i does not enter."""
    a = sys.a0 if i == 0 else sys.a1
    return _even_part_poly(a, sys.m, -1)


def _time_weight_factor(l: int) -> RingElem:
    """2^(l+3/2) * sum_k C(l+1,k)(-1)^k/(2k+1): the x^(2l+3)/sqrt(2h-x^2) moment."""
    q = Fraction(0)
    for k in range(l + 2):
        q += Fraction(comb(l + 1, k) * (-1) ** k, 2 * k + 1)
    return RingElem({(2 * l + 3, 0): q})


def case_x_i2(sys: LienardSystem) -> HalfPowerPoly:
    """Time-weighted contribution sum_l a*_l h^(l+3/2); zero when n = 0."""
    if sys.n == 0:
        return HalfPowerPoly.zero()
    half_m = sys.m // 2
    n_t = (sys.n + 1) // 2 - 1
    out: dict[int, RingElem] = {}
    for l in range(half_m + n_t + 1):
        acc = RingElem.zero()
        for i in range(max(0, l - n_t), min(l, half_m) + 1):
            j = l - i
            acc = acc + RingElem.rational(Fraction(2, j + 1)) \
                * _coef(sys.a0, 2 * i + 1) * _coef(sys.c, 2 * j + 1)
        if not acc.is_zero():
            term = _time_weight_factor(l) * acc
            if not term.is_zero():
                out[2 * l + 3] = term
    return HalfPowerPoly(out)


def _a_hat_factor(i: int) -> RingElem:
    """-(2^(i+5/2)/(2i+3)) * W(i), the a_{2i+1} -> h^(i+3/2) half-arc factor."""
    return RingElem({(2 * i + 5, 0): Fraction(-1, 2 * i + 3)}) * wallis_odd(i)


def case_x_i3(sys: LienardSystem) -> HalfPowerPoly:
    """Half-arc contribution sum_i a^_i h^(i+3/2)."""
    half_m = sys.m // 2
    out: dict[int, RingElem] = {}
    for i in range(half_m + 1):
        c = _coef(sys.a0, 2 * i + 1)
        if not c.is_zero():
            out[2 * i + 3] = _a_hat_factor(i) * c
    return HalfPowerPoly(out)


def case_x_m0(sys: LienardSystem) -> HalfPowerPoly:
    _require_case(sys, Case.SWITCH_X)
    return case_x_i_poly(sys, 0)


def case_x_m1(sys: LienardSystem, project_odd: bool = False) -> HalfPowerPoly:
    _require_case(sys, Case.SWITCH_X)
    sys = _require_odd_f0(sys, project_odd)
    return case_x_i_poly(sys, 1) + case_x_i2(sys) + case_x_i3(sys)


# -- expansion container and bounds --------------------------------------------


@dataclass(frozen=True)
class MelnikovExpansion:
    case: Case
    m: int
    n: int
    m0: HalfPowerPoly
    m1: HalfPowerPoly


def expand(sys: LienardSystem, project_odd: bool = False) -> MelnikovExpansion:
    if sys.case is Case.SWITCH_Y:
        return MelnikovExpansion(sys.case, sys.m, sys.n,
                                 case_y_m0(sys), case_y_m1(sys, project_odd))
    return MelnikovExpansion(sys.case, sys.m, sys.n,
                             case_x_m0(sys), case_x_m1(sys, project_odd))


def closed_term(sys: LienardSystem, i: int, h: float) -> float:
    """Closed form of the single integral I_i at h, the counterpart of
    ``oracle.quad_I(sys, h, i)``; M1 terms use the odd projection."""
    if not 0 <= i < sys.case.n_integrals:
        raise ValueError(f"index {i} not valid for {sys.case}")
    on_y = sys.case is Case.SWITCH_Y
    if i <= 1:
        i_poly = case_y_i_poly if on_y else case_x_i_poly
        return i_poly(sys if i == 0 else sys.odd_projection(), i).eval(h)
    odd = sys.odd_projection()
    if on_y:
        # I2 and I4 vanish under the oddness hypothesis
        return case_y_i3(odd).eval(h) if i == 3 else 0.0
    return (case_x_i2 if i == 2 else case_x_i3)(odd).eval(h)


def zero_bound(case: Case, m: int, n: int, which: str) -> int:
    """Maximum number of positive zeros of M0 or M1 for the given shape."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    if which not in ("M0", "M1"):
        raise ValueError("which must be 'M0' or 'M1'")
    if case is Case.SWITCH_Y:
        if which == "M0":
            return m // 2 + n // 2 + 1
        return m // 2 + 2 * (n // 2) + 1
    if which == "M0":
        return m // 2
    if n >= 1:
        return 2 * (m // 2) + (n + 1) // 2
    return 2 * (m // 2) + 1


# -- folding to the single-small-parameter form --------------------------------


@dataclass(frozen=True)
class TheoremForm:
    """Coefficients of fbar, gbar after folding out delta = eps/lambda."""

    case: Case
    fbar: tuple
    gbar: tuple
    delta: float
    lam: float


def fold_to_theorem_form(sys: LienardSystem) -> TheoremForm:
    if sys.lam <= 0:
        raise ZeroLambda("folding requires lambda > 0")
    delta = sys.eps / sys.lam
    fc = sys.float_coeffs()
    fbar = tuple(delta * (fc["a0"][j] + sys.lam * fc["a1"][j])
                 for j in range(sys.m + 1))
    gbar = tuple(fc["c"][j] + delta * (fc["b0"][j] + sys.lam * fc["b1"][j])
                 for j in range(sys.n + 1))
    return TheoremForm(sys.case, fbar, gbar, delta, sys.lam)


def theorem_form_system(form: TheoremForm) -> LienardSystem:
    """The folded system as a LienardSystem: -lam*[y*fbar + sgn(.)*gbar].

    Realized with g = gbar, eps = lam, f0 = fbar and all other blocks zero,
    which reproduces the folded right-hand side exactly.
    """
    m = len(form.fbar) - 1
    n = len(form.gbar) - 1
    return LienardSystem.build(
        form.case, m, n,
        a0=[RingElem.from_float(v) for v in form.fbar],
        c=[RingElem.from_float(v) for v in form.gbar],
        lam=form.lam, eps=form.lam,
    )


def expansion_exponents(exp: MelnikovExpansion) -> dict:
    """Allowed doubled exponents for each polynomial, per the closed forms."""
    m, n = exp.m, exp.n
    if exp.case is Case.SWITCH_Y:
        m0 = {2 * (j + 1) for j in range(m // 2 + 1)} \
            | {2 * j + 1 for j in range(n // 2 + 1)}
        m1 = {2 * (i + 1) for i in range(m // 2 + 1)} \
            | {2 * l + 1 for l in range(2 * (n // 2) + 1)}
    else:
        m0 = {2 * (j + 1) for j in range(m // 2 + 1)}
        top = m // 2 + ((n + 1) // 2 - 1 if n >= 1 else 0)
        m1 = {2 * (l + 1) for l in range(m // 2 + 1)} \
            | {2 * l + 3 for l in range(top + 1)}
    return {"M0": m0, "M1": m1}
