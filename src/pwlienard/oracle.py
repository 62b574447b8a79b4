"""Quadrature evaluation of the arc integrals I_0..I_4 on the circle x^2+y^2=2h.

Everything here is deliberately independent of the closed-form assembly in
:mod:`pwlienard.melnikov`: arcs are parameterized by angle and integrated with
globally adaptive 21-point Gauss-Kronrod quadrature, so agreement between the
two routes validates both.  The rule is QUADPACK's qk21/qage (Piessens, de
Doncker-Kapenga, Ueberhuber and Kahaner, 1983) written out in this module:
the same nodes, weights and error estimate, bisection of the interval with
the largest error, and the same round-off stops.  It uses no part of
``melnikov``.

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

import heapq
import math

from .algebra import poly_antideriv, polyval
from .errors import QuadratureFailure
from .systems import Case, LienardSystem

QUAD_ABS_TARGET = 1e-10
_QUAD_REL_TARGET = 1e-12
_QUAD_LIMIT = 2000
_HALF_PI = math.pi / 2
_EPMACH = 2.0 ** -52  # QUADPACK's d1mach(4)
_UFLOW = 2.0 ** -1022  # d1mach(1)

# qk21's abscissae on [-1, 1] from +1 down to -1; the 10-point Gauss rule
# uses the odd positions.  Constants to 33 digits as QUADPACK gives them.
_X21 = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0)
_X21 = _X21 + tuple(-x for x in reversed(_X21[:10]))
# Kronrod weights of the outer ten nodes, then of the centre
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
# Gauss weights of the nodes at positions 1, 3, 5, 7, 9
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# qk21 sums the Kronrod estimate over the Gauss pairs first
_KRONROD_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)

# per case: u/r and v/r as functions of theta, du/dtheta divided by v, and
# the sign of the time-weight integral I_2
_ARC = {
    Case.SWITCH_Y: (math.sin, math.cos, 1.0, -1.0),
    Case.SWITCH_X: (math.cos, math.sin, -1.0, 1.0),
}


def _radius(h: float) -> float:
    if h <= 0:
        raise ValueError("h must be positive")
    return math.sqrt(2.0 * h)


def endpoint_derivatives(g_coeffs, h: float):
    """(da/dlambda, db/dlambda) at lambda = 0 for the y-axis endpoints.

    a, b solve y^2/2 + lambda*G(y) = h with G the antiderivative of g.
    """
    r = _radius(h)
    big_g = poly_antideriv(list(g_coeffs))
    da = -polyval(big_g, r) / r
    db = polyval(big_g, -r) / r
    return da, db


def i4_factor(g_coeffs, h: float) -> float:
    """lambda-derivative at 0 of (a + lam*g(a)) / (a - lam*g(a)), a = sqrt(2h)."""
    r = _radius(h)
    return 2.0 * polyval(list(g_coeffs), r) / r


def _gk21(fn, a: float, b: float):
    """One application of qk21 on [a, b]: (result, abserr, resabs, resasc).

    ``fn`` takes the list of the 21 nodes and returns the integrand there.
    resabs approximates the integral of |f| and resasc that of |f - mean|.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fv = fn([centr + hlgth * x for x in _X21])
    resg = 0.0
    for j, w in zip((1, 3, 5, 7, 9), _WG):
        resg += w * (fv[j] + fv[20 - j])
    fc = fv[10]
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in _KRONROD_ORDER:
        f1, f2, w = fv[j], fv[20 - j], _WGK[j]
        resk += w * (f1 + f2)
        resabs += w * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv[j] - reskh) + abs(fv[20 - j] - reskh))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(50.0 * _EPMACH * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qage(fn, a: float, b: float):
    """qage with the qk21 rule on [a, b]: (value, error estimate).

    Bisects the interval with the largest error estimate until the summed
    estimate meets max(QUAD_ABS_TARGET, 1e-12*|value|), the interval count
    reaches _QUAD_LIMIT, round-off stalls the estimate, or the interval to
    split is too small to halve.
    """
    result, abserr, defabs, resasc = _gk21(fn, a, b)
    errbnd = max(QUAD_ABS_TARGET, _QUAD_REL_TARGET * abs(result))
    if (abserr <= 50.0 * _EPMACH * defabs and abserr > errbnd) \
            or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr
    # (-error, left, right, value) per interval: the heap top is the worst
    intervals = [(-abserr, a, b, result)]
    area, errsum = result, abserr
    iroff1 = iroff2 = 0
    for last in range(2, _QUAD_LIMIT + 1):
        neg_errmax, a1, b2, area0 = heapq.heappop(intervals)
        errmax = -neg_errmax
        b1 = a2 = 0.5 * (a1 + b2)
        area1, error1, _, defab1 = _gk21(fn, a1, b1)
        area2, error2, _, defab2 = _gk21(fn, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - area0
        if defab1 != error1 and defab2 != error2:
            if abs(area0 - area12) <= 1e-5 * abs(area12) \
                    and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff2 += 1
        heapq.heappush(intervals, (-error1, a1, b1, area1))
        heapq.heappush(intervals, (-error2, a2, b2, area2))
        if errsum <= max(QUAD_ABS_TARGET, _QUAD_REL_TARGET * abs(area)):
            break
        if iroff1 >= 6 or iroff2 >= 20 or max(abs(a1), abs(b2)) <= (
                1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            break
    return sum(iv[3] for iv in intervals), errsum


def _integrate(fn, lo: float, hi: float) -> float:
    val, err = _qage(fn, lo, hi)
    if err > max(QUAD_ABS_TARGET * 50, 1e-11 * abs(val)):
        raise QuadratureFailure(
            f"error estimate {err:.3e} exceeds target for value {val:.6e}")
    return val


def _horner_pairs(p, q):
    """(p_top, q_top) and the lower coefficient pairs from the top degree
    down, zero padded.  Horner started at the top coefficient gives
    polyval's values, whose first step 0.0*x + c is c."""
    n = max(len(p), len(q))
    pairs = list(zip(reversed(list(p) + [0.0] * (n - len(p))),
                     reversed(list(q) + [0.0] * (n - len(q)))))
    return pairs[0], pairs[1:]


def _quad_I(case: Case, fc: dict, h: float, index: int) -> float:
    """quad_I on float coefficients ``fc``; the index is already valid."""
    r = _radius(h)
    unit_u, unit_v, du_per_v, i2_sign = _ARC[case]

    def line(f, g, sign, lo, hi):
        (f_top, g_top), coeffs = _horner_pairs(f, g)

        def integrand(thetas):
            out = []
            for theta in thetas:
                u, v = r * unit_u(theta), r * unit_v(theta)
                pf, pg = f_top, g_top
                for cf, cg in coeffs:
                    pf = pf * u + cf
                    pg = pg * u + cg
                out.append(-(v * pf + sign * pg) * (du_per_v * v))
            return out

        return _integrate(integrand, lo, hi)

    if index <= 1:
        f, g = (fc["a0"], fc["b0"]) if index == 0 else (fc["a1"], fc["b1"])
        return line(f, g, 1.0, _HALF_PI, -_HALF_PI) \
            + line(f, g, -1.0, -_HALF_PI, -3 * _HALF_PI)
    if index == 2:
        (g_top, f_top), coeffs = _horner_pairs(poly_antideriv(fc["c"]),
                                               fc["a0"])

        def weight(thetas):
            out = []
            for theta in thetas:
                u = r * unit_u(theta)
                pg, pf = g_top, f_top
                for cg, cf in coeffs:
                    pg = pg * u + cg
                    pf = pf * u + cf
                out.append(pg * pf)
            return out

        # int_AB dt and int_BA dt with dt = -d(theta)
        ab = _integrate(weight, -_HALF_PI, _HALF_PI)
        ba = _integrate(weight, -3 * _HALF_PI, -_HALF_PI)
        return i2_sign * ab - i2_sign * ba
    on_y = case is Case.SWITCH_Y
    if on_y and index == 3:
        da, db = endpoint_derivatives(fc["c"], h)
        # L(x f0 + g0) - L(x f0 - g0) = 2*[g0(a)*da - g0(b)*db]; x = 0 at A, B
        return 2.0 * (polyval(fc["b0"], r) * da - polyval(fc["b0"], -r) * db)
    arc = line(fc["a0"], fc["b0"], -1.0, _HALF_PI, -_HALF_PI)
    return i4_factor(fc["c"], h) * arc if on_y else arc


def quad_I(sys: LienardSystem, h: float, index: int) -> float:
    """One arc/time integral by quadrature; index 0..sys.case.n_integrals-1."""
    if not 0 <= index < sys.case.n_integrals:
        raise ValueError(f"index {index} not valid for {sys.case}")
    return _quad_I(sys.case, sys.float_coeffs(), h, index)


def oracle_m0(sys: LienardSystem, h: float) -> float:
    return _quad_I(sys.case, sys.float_coeffs(), h, 0)


def oracle_m1(sys: LienardSystem, h: float) -> float:
    fc = sys.float_coeffs()
    return sum(_quad_I(sys.case, fc, h, i)
               for i in range(1, sys.case.n_integrals))
