"""Quadrature evaluation of the arc integrals I_0..I_4 on the circle x^2+y^2=2h.

Everything here is deliberately independent of the closed-form assembly in
:mod:`pwlienard.melnikov`: arcs are parameterized by angle and integrated with
adaptive Gauss-Kronrod quadrature (QUADPACK), so agreement between the two
routes validates both.

Angle convention: x = r*cos(theta), y = r*sin(theta) with r = sqrt(2h).  The
clockwise arc from A = (0, r) to B = (0, -r) through x > 0 is theta running
from pi/2 down to -pi/2; the return arc BA continues to -3*pi/2.  Along the
unperturbed rigid rotation d(theta)/dt = -1, so dt = -d(theta).
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .algebra import poly_antideriv, polyval
from .errors import QuadratureFailure
from .systems import Case, LienardSystem

QUAD_ABS_TARGET = 1e-10
_QUAD_LIMIT = 2000


def _quad(fn, lo: float, hi: float) -> float:
    val, err = quad(fn, lo, hi, epsabs=QUAD_ABS_TARGET, epsrel=1e-12,
                    limit=_QUAD_LIMIT)
    if err > max(QUAD_ABS_TARGET * 50, 1e-11 * abs(val)):
        raise QuadratureFailure(
            f"error estimate {err:.3e} exceeds target for value {val:.6e}")
    return val


def endpoint_derivatives(g_coeffs, h: float):
    """(da/dlambda, db/dlambda) at lambda = 0 for the y-axis endpoints.

    a, b solve y^2/2 + lambda*G(y) = h with G the antiderivative of g.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    r = math.sqrt(2.0 * h)
    big_g = poly_antideriv(list(g_coeffs))
    da = -polyval(big_g, r) / r
    db = polyval(big_g, -r) / r
    return da, db


def i4_factor(g_coeffs, h: float) -> float:
    """lambda-derivative at 0 of (a + lam*g(a)) / (a - lam*g(a)), a = sqrt(2h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    r = math.sqrt(2.0 * h)
    return 2.0 * polyval(list(g_coeffs), r) / r


def quad_I(sys: LienardSystem, h: float, index: int) -> float:
    """One arc/time integral by quadrature; index 0..4 (Y) or 0..3 (X)."""
    if h <= 0:
        raise ValueError("h must be positive")
    fc = sys.float_coeffs()
    r = math.sqrt(2.0 * h)
    if sys.case is Case.SWITCH_Y:
        return _quad_i_case_y(fc, r, h, index)
    return _quad_i_case_x(fc, r, h, index)


def _quad_i_case_y(fc, r: float, h: float, index: int) -> float:
    # switch-on-y integrals are written in the swapped coordinates of the
    # transformed system, where f_i, g_i, g are functions of y
    if index in (0, 1):
        f = fc["a0"] if index == 0 else fc["a1"]
        g = fc["b0"] if index == 0 else fc["b1"]

        def ab(theta):
            x, y = r * math.cos(theta), r * math.sin(theta)
            return -(x * polyval(f, y) + polyval(g, y)) * r * math.cos(theta)

        def ba(theta):
            x, y = r * math.cos(theta), r * math.sin(theta)
            return -(x * polyval(f, y) - polyval(g, y)) * r * math.cos(theta)

        # dy = r*cos(theta) d(theta); AB: pi/2 -> -pi/2, BA: -pi/2 -> -3pi/2
        return _quad(ab, math.pi / 2, -math.pi / 2) \
            + _quad(ba, -math.pi / 2, -3 * math.pi / 2)
    if index == 2:
        big_g = poly_antideriv(fc["c"])

        def weight(theta):
            y = r * math.sin(theta)
            return polyval(big_g, y) * polyval(fc["a0"], y)

        # dt = -d(theta): -int_AB(...)dt = -int_{-pi/2}^{pi/2},
        # +int_BA(...)dt = +int_{-3pi/2}^{-pi/2}
        return -_quad(weight, -math.pi / 2, math.pi / 2) \
            + _quad(weight, -3 * math.pi / 2, -math.pi / 2)
    if index == 3:
        da, db = endpoint_derivatives(fc["c"], h)
        g0_a = polyval(fc["b0"], r)
        g0_b = polyval(fc["b0"], -r)
        # L(x f0 + g0) - L(x f0 - g0) = 2*[g0(a)*da - g0(b)*db]; x = 0 at A, B
        return 2.0 * (g0_a * da - g0_b * db)
    if index == 4:
        def ab(theta):
            x, y = r * math.cos(theta), r * math.sin(theta)
            return -(x * polyval(fc["a0"], y) - polyval(fc["b0"], y)) \
                * r * math.cos(theta)

        return i4_factor(fc["c"], h) * _quad(ab, math.pi / 2, -math.pi / 2)
    raise ValueError(f"index {index} not valid for the switch-on-y case")


def _quad_i_case_x(fc, r: float, h: float, index: int) -> float:
    if index in (0, 1):
        f = fc["a0"] if index == 0 else fc["a1"]
        g = fc["b0"] if index == 0 else fc["b1"]

        def ab(theta):
            x, y = r * math.cos(theta), r * math.sin(theta)
            return -(y * polyval(f, x) + polyval(g, x)) * (-r * math.sin(theta))

        def ba(theta):
            x, y = r * math.cos(theta), r * math.sin(theta)
            return -(y * polyval(f, x) - polyval(g, x)) * (-r * math.sin(theta))

        # dx = -r*sin(theta) d(theta)
        return _quad(ab, math.pi / 2, -math.pi / 2) \
            + _quad(ba, -math.pi / 2, -3 * math.pi / 2)
    if index == 2:
        big_g = poly_antideriv(fc["c"])

        def weight(theta):
            x = r * math.cos(theta)
            return polyval(big_g, x) * polyval(fc["a0"], x)

        # dt = -d(theta): +int_AB -> +int_{-pi/2}^{pi/2},
        # -int_BA -> -int_{-3pi/2}^{-pi/2}
        return _quad(weight, -math.pi / 2, math.pi / 2) \
            - _quad(weight, -3 * math.pi / 2, -math.pi / 2)
    if index == 3:
        def ab(theta):
            x, y = r * math.cos(theta), r * math.sin(theta)
            return -(y * polyval(fc["a0"], x) - polyval(fc["b0"], x)) \
                * (-r * math.sin(theta))

        return _quad(ab, math.pi / 2, -math.pi / 2)
    raise ValueError(f"index {index} not valid for the switch-on-x case")


def oracle_m0(sys: LienardSystem, h: float) -> float:
    return quad_I(sys, h, 0)


def oracle_m1(sys: LienardSystem, h: float) -> float:
    if sys.case is Case.SWITCH_Y:
        return sum(quad_I(sys, h, i) for i in (1, 2, 3, 4))
    return sum(quad_I(sys, h, i) for i in (1, 2, 3))


def fd_bifurcation_estimate(sys: LienardSystem, h: float, lam: float,
                            eps: float, rk_tol: float = 1e-12) -> float:
    """One-return finite-difference estimate of M(h, lam) = M0 + lam*M1 + O(lam^2).

    Runs the simulator for a single full return starting on the positive
    y-axis of the Melnikov-side coordinates and divides the energy increment
    of H+ by eps.
    """
    from . import simulator  # local import; simulator depends on kernels only

    return simulator.bifurcation_increment(sys, h, lam, eps, rk_tol=rk_tol) / eps
