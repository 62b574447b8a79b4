"""Closed-form assembly of the expansion M(h) = M0(h) + lam*M1(h) + O(lam^2).

All assembly is exact RingElem arithmetic; floats appear only when a caller
evaluates the resulting half-power polynomials.  The per-index factors are
pure functions of small integers returning immutable values, so each is
computed once per process (``functools.cache``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from fractions import Fraction

from .algebra import HalfPowerPoly, RingElem
from .errors import OddnessViolated, WrongCase
from .systems import Case, LienardSystem, check_degrees


def _require_case(sys: LienardSystem, case: Case):
    if sys.case is not case:
        raise WrongCase(f"operation needs {case}, system is {sys.case}")


def _require_odd(sys: LienardSystem, project_odd: bool, g0: bool):
    """M1 is derived for odd f0 (and odd g0 with ``g0``) but reads no
    even-index coefficient of either, so ``project_odd`` may waive the check."""
    if project_odd:
        return
    if not sys.f0_is_odd():
        raise OddnessViolated("f0 has a nonzero even-index coefficient")
    if g0 and not sys.g0_is_odd():
        raise OddnessViolated("g0 has a nonzero even-index coefficient")


@cache
def _wallis(i: int) -> Fraction:
    """W(i) = integral of cos^(2i+1) over [0, pi/2] = prod_{l=1..i} 2l/(2l+1)."""
    q = Fraction(1)
    for l in range(1, i + 1):
        q *= Fraction(2 * l, 2 * l + 1)
    return q


@cache
def _a_tilde_factor(j: int, sign: int) -> RingElem:
    """sign * (2*pi/(j+1)) * prod_{l=1..j} (2l-1)/l, the a_{2j} -> h^{j+1} factor."""
    q = Fraction(2 * sign, j + 1)
    for l in range(1, j + 1):
        q *= Fraction(2 * l - 1, l)
    return RingElem.term(q, p=1)


@cache
def _b_tilde_factor(j: int) -> RingElem:
    """(2^(j+5/2)/(2j+1)), the b_{2j} -> h^(j+1/2) factor (switch-on-y case)."""
    return RingElem({(2 * j + 5, 0): Fraction(1, 2 * j + 1)})


@cache
def _b_star_factor(i: int) -> RingElem:
    """-2^(i+1), the b0_{2i+1} -> b*_i factor of I3 (switch-on-y case)."""
    return RingElem.rational(-(2 ** (i + 1)))


@cache
def _c_star_factor(i: int) -> RingElem:
    """2^(i+3/2)/(2i+1), the c_{2i} -> c*_i factor of I3 (switch-on-y case)."""
    return RingElem({(2 * i + 3, 0): Fraction(1, 2 * i + 1)})


def _channel(coeffs, factor, shift: int) -> HalfPowerPoly:
    """sum_j factor(j) * coeffs[j] * h^(j + shift/2) over a coefficient slice."""
    return HalfPowerPoly({2 * j + shift: factor(j) * x
                          for j, x in enumerate(coeffs) if x})


def _cauchy(u, v) -> dict:
    """(sum_i u_i x^i) * (sum_j v_j x^j) as {power: coefficient}, for RingElem
    or float entries; entries that test false are zero and skipped."""
    out: dict = {}
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    out[i + j] = out[i + j] + x * y if i + j in out else x * y
    return out


# -- switch-on-y (sgn(y)) case -------------------------------------------------


def case_y_i_poly(sys: LienardSystem, i: int) -> HalfPowerPoly:
    """Closed form of the arc integral I_i (i = 0 or 1), switch-on-y case:
    sum_j a~_j h^(j+1) + b~_j h^(j+1/2) over the even-index coefficients."""
    a = sys.a0 if i == 0 else sys.a1
    b = sys.b0 if i == 0 else sys.b1
    return _channel(a[0::2], lambda j: _a_tilde_factor(j, +1), 2) \
        + _channel(b[0::2], _b_tilde_factor, 1)


def case_y_i3(sys: LienardSystem) -> HalfPowerPoly:
    """Endpoint (L-operator) contribution: the b*/c* convolution in h^(l+1/2)."""
    b_star = [_b_star_factor(i) * x for i, x in enumerate(sys.b0[1::2])]
    c_star = [_c_star_factor(i) * x for i, x in enumerate(sys.c[0::2])]
    return HalfPowerPoly({2 * l + 1: v for l, v in _cauchy(b_star, c_star).items()})


def case_y_m0(sys: LienardSystem) -> HalfPowerPoly:
    _require_case(sys, Case.SWITCH_Y)
    return case_y_i_poly(sys, 0)


# -- switch-on-x (sgn(x)) case -------------------------------------------------


def case_x_i_poly(sys: LienardSystem, i: int) -> HalfPowerPoly:
    """Closed form of I_i (i = 0 or 1), switch-on-x case; g_i does not enter."""
    a = sys.a0 if i == 0 else sys.a1
    return _channel(a[0::2], lambda j: _a_tilde_factor(j, -1), 2)


@cache
def _c_weight_factor(j: int) -> RingElem:
    """2/(j+1), the weight of c_{2j+1} in the a*_l convolution."""
    return RingElem.rational(Fraction(2, j + 1))


@cache
def _time_weight_factor(l: int) -> RingElem:
    """2^(l+3/2) * W(l+1), the x^(2l+3)/sqrt(2h-x^2) moment: W(l+1) is both
    sum_k C(l+1,k)(-1)^k/(2k+1) and the integral of (1-u^2)^(l+1) on [0, 1]."""
    return RingElem({(2 * l + 3, 0): _wallis(l + 1)})


@cache
def _a_hat_factor(i: int) -> RingElem:
    """-(2^(i+5/2)/(2i+3)) * W(i), the a_{2i+1} -> h^(i+3/2) half-arc factor."""
    return RingElem({(2 * i + 5, 0): Fraction(-1, 2 * i + 3) * _wallis(i)})


def _x_odd_block(a_odd, c_odd, c_weight, time_w, a_hat) -> dict:
    """Switch-on-x odd block I2 + I3 as {l: coefficient of h^(l+3/2)}.

    ``a_odd = a0[1::2]``, ``c_odd = c[1::2]``; the factor lists hold
    ``_c_weight_factor``, ``_time_weight_factor`` and ``_a_hat_factor``, as
    RingElem for the closed form or floats for the designer's Newton solve.
    I2: a*_l = time_w[l] * sum_{i+j=l} a_odd[i] * c_weight[j] * c_odd[j];
    I3: a^_l = a_hat[l] * a_odd[l].
    """
    block = {l: f * a for l, (f, a) in enumerate(zip(a_hat, a_odd)) if a}
    for l, v in _cauchy(a_odd, [w * c for w, c in zip(c_weight, c_odd)]).items():
        v = time_w[l] * v
        block[l] = block[l] + v if l in block else v
    return block


def case_x_i2(sys: LienardSystem) -> HalfPowerPoly:
    """Time-weighted contribution sum_l a*_l h^(l+3/2); zero when n = 0."""
    a_odd, c_odd = sys.a0[1::2], sys.c[1::2]
    block = _x_odd_block(
        a_odd, c_odd, [_c_weight_factor(j) for j in range(len(c_odd))],
        [_time_weight_factor(l) for l in range(len(a_odd) + len(c_odd) - 1)],
        ())
    return HalfPowerPoly({2 * l + 3: v for l, v in block.items()})


def case_x_i3(sys: LienardSystem) -> HalfPowerPoly:
    """Half-arc contribution sum_i a^_i h^(i+3/2)."""
    a_odd = sys.a0[1::2]
    block = _x_odd_block(a_odd, (), (), (),
                         [_a_hat_factor(i) for i in range(len(a_odd))])
    return HalfPowerPoly({2 * l + 3: v for l, v in block.items()})


def case_x_m0(sys: LienardSystem) -> HalfPowerPoly:
    _require_case(sys, Case.SWITCH_X)
    return case_x_i_poly(sys, 0)


# -- expansion container and bounds --------------------------------------------


@dataclass(frozen=True)
class MelnikovExpansion:
    m0: HalfPowerPoly
    m1: HalfPowerPoly


def closed_forms(sys: LienardSystem) -> tuple:
    """Closed forms of the arc integrals I_0..I_{n-1}, indexed as
    ``oracle.quad_I``: M0 is I_0 and M1 sums the rest.  The M1 terms read
    no even-index f0 or g0 coefficient, so they are those of the odd
    projection, under which the switch-on-y I2 and I4 vanish."""
    if sys.case is Case.SWITCH_Y:
        zero = HalfPowerPoly()
        return (case_y_i_poly(sys, 0), case_y_i_poly(sys, 1), zero,
                case_y_i3(sys), zero)
    return (case_x_i_poly(sys, 0), case_x_i_poly(sys, 1), case_x_i2(sys),
            case_x_i3(sys))


def expand(sys: LienardSystem, project_odd: bool = False) -> MelnikovExpansion:
    _require_odd(sys, project_odd, g0=sys.case is Case.SWITCH_Y)
    m0, m1, *rest = closed_forms(sys)
    return MelnikovExpansion(m0, sum(rest, m1))  # I_1 + I_2 + ..., in order


def closed_term(sys: LienardSystem, i: int, h: float) -> float:
    """Closed form of the single integral I_i at h, the counterpart of
    ``oracle.quad_I(sys, h, i)``."""
    if not 0 <= i < sys.case.n_integrals:
        raise ValueError(f"index {i} not valid for {sys.case}")
    return closed_forms(sys)[i].eval(h)


def _check_shape(m: int, n: int, which: str):
    check_degrees(m, n)
    if which not in ("M0", "M1"):
        raise ValueError("which must be 'M0' or 'M1'")


def zero_bound(case: Case, m: int, n: int, which: str) -> int:
    """Maximum number of positive zeros of M0 or M1 for the given shape."""
    _check_shape(m, n, which)
    if case is Case.SWITCH_Y:
        if which == "M0":
            return m // 2 + n // 2 + 1
        return m // 2 + 2 * (n // 2) + 1
    if which == "M0":
        return m // 2
    if n >= 1:
        return 2 * (m // 2) + (n + 1) // 2
    return 2 * (m // 2) + 1


# typed, so a bool or float degree equal to a cached int is checked, not served
@lru_cache(maxsize=None, typed=True)
def support(case: Case, m: int, n: int, which: str) -> frozenset:
    """Doubled exponents k of the monomials h^(k/2) that the closed form of
    M0 or M1 can carry for the given shape: those of I_0, or of I_1, I_2,
    ... one by one, for the system with every coefficient 1.  Within a form
    every channel's factors keep one sign (a~, b~, b*/c*, a*, a^), so none
    of its monomials cancels; in the sum M1 the b~ and b*/c* terms can.

    A polynomial in s = sqrt(h) with this many monomials has at most
    ``len(support(...)) - 1`` positive zeros (Descartes' rule of signs);
    ``zero_bound`` is the paper's number and can exceed it.
    """
    _check_shape(m, n, which)
    forms = closed_forms(LienardSystem.build(
        case, m, n, a0=[1] * (m + 1), a1=[1] * (m + 1),
        b0=[1] * (n + 1), b1=[1] * (n + 1), c=[1] * (n + 1)))
    return frozenset().union(
        *(form.coeffs for form in (forms[:1] if which == "M0" else forms[1:])))
