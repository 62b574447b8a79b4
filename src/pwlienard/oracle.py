"""Quadrature evaluation of the arc integrals I_0..I_4 on the circle x^2+y^2=2h.

Everything here is deliberately independent of the closed-form assembly in
:mod:`pwlienard.melnikov`: arcs are parameterized by angle and integrated with
adaptive Gauss-Kronrod quadrature (QUADPACK), so agreement between the two
routes validates both.

Both switching cases share one parametrization of the circle, r = sqrt(2h):
u is the coordinate the polynomials act on and v is the other one,

    switch-on-y  (u, v, du/dtheta) = (r sin(theta), r cos(theta),  r cos(theta))
    switch-on-x  (u, v, du/dtheta) = (r cos(theta), r sin(theta), -r sin(theta))

which puts switch-on-y integrals in the swapped coordinates of the
transformed system.  The arc AB runs from theta = pi/2 down to -pi/2 and
the return arc BA on to -3*pi/2; along the unperturbed rotation
dt = -d(theta).  I_0, I_1, the switch-on-x I_3 and the arc of the
switch-on-y I_4 are line integrals of -(v*f(u) + sign*g(u)) du, I_2 is the
time integral of G(u)*f_0(u) over AB minus BA with a sign per case, and the
switch-on-y I_3 is an endpoint term that needs no quadrature.
"""

from __future__ import annotations

import math

from .algebra import poly_antideriv, polyval
from .errors import QuadratureFailure
from .systems import Case, LienardSystem

QUAD_ABS_TARGET = 1e-10
_QUAD_LIMIT = 2000
_HALF_PI = math.pi / 2

# per case: u/r and v/r as functions of theta, du/dtheta divided by v, and
# the sign of the time-weight integral I_2
_ARC = {
    Case.SWITCH_Y: (math.sin, math.cos, 1.0, -1.0),
    Case.SWITCH_X: (math.cos, math.sin, -1.0, 1.0),
}


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
    """One arc/time integral by quadrature; index 0..sys.case.n_integrals-1."""
    if h <= 0:
        raise ValueError("h must be positive")
    if not 0 <= index < sys.case.n_integrals:
        raise ValueError(f"index {index} not valid for {sys.case}")
    # scipy loads on the first quadrature, not with the package
    from scipy.integrate import quad

    fc = sys.float_coeffs()
    r = math.sqrt(2.0 * h)
    unit_u, unit_v, du_per_v, i2_sign = _ARC[sys.case]

    def integrate(fn, lo, hi):
        val, err = quad(fn, lo, hi, epsabs=QUAD_ABS_TARGET, epsrel=1e-12,
                        limit=_QUAD_LIMIT)
        if err > max(QUAD_ABS_TARGET * 50, 1e-11 * abs(val)):
            raise QuadratureFailure(
                f"error estimate {err:.3e} exceeds target for value {val:.6e}")
        return val

    def line(f, g, sign, lo, hi):
        def integrand(theta):
            u, v = r * unit_u(theta), r * unit_v(theta)
            return -(v * polyval(f, u) + sign * polyval(g, u)) * (du_per_v * v)

        return integrate(integrand, lo, hi)

    if index <= 1:
        f, g = (fc["a0"], fc["b0"]) if index == 0 else (fc["a1"], fc["b1"])
        return line(f, g, 1.0, _HALF_PI, -_HALF_PI) \
            + line(f, g, -1.0, -_HALF_PI, -3 * _HALF_PI)
    if index == 2:
        big_g = poly_antideriv(fc["c"])

        def weight(theta):
            u = r * unit_u(theta)
            return polyval(big_g, u) * polyval(fc["a0"], u)

        # int_AB dt and int_BA dt with dt = -d(theta)
        ab = integrate(weight, -_HALF_PI, _HALF_PI)
        ba = integrate(weight, -3 * _HALF_PI, -_HALF_PI)
        return i2_sign * ab - i2_sign * ba
    on_y = sys.case is Case.SWITCH_Y
    if on_y and index == 3:
        da, db = endpoint_derivatives(fc["c"], h)
        # L(x f0 + g0) - L(x f0 - g0) = 2*[g0(a)*da - g0(b)*db]; x = 0 at A, B
        return 2.0 * (polyval(fc["b0"], r) * da - polyval(fc["b0"], -r) * db)
    arc = line(fc["a0"], fc["b0"], -1.0, _HALF_PI, -_HALF_PI)
    return i4_factor(fc["c"], h) * arc if on_y else arc


def oracle_m0(sys: LienardSystem, h: float) -> float:
    return quad_I(sys, h, 0)


def oracle_m1(sys: LienardSystem, h: float) -> float:
    return sum(quad_I(sys, h, i) for i in range(1, sys.case.n_integrals))
