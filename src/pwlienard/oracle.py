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

Node table
----------
``_qage`` bisects one of three fixed arcs, so the same few intervals come
back for every h, integral and system: a 240-system benchmark pool meets
a few dozen.  ``_nodes`` tabulates qk21's 21 abscissae on an interval, with
their sines in ``.sin`` and cosines in ``.cos``, once per interval, in a
bounded least-recently-used cache of ``_NODE_TABLE_SIZE`` entries.  The
table is a tuple of the abscissae, so ``_gk21`` and ``_qage`` stay generic
in the integrand: ``fn`` takes the 21 abscissae and returns the 21 values,
and a plain function of the abscissae ignores the two extra tables.  An
entry holds the values ``math.sin`` and ``math.cos`` return for the same
abscissae, so reading it changes no bit.

The rule's arithmetic
---------------------
``_gk21`` is written out term by term, as ``_kernel_py._arc`` writes out
the kernel's step.  Each sum runs in the left-to-right order of
QUADPACK's loops, from its first term, and a pair sum such as f1 + f19
that both the Gauss and the Kronrod sum use is the same value computed
once.

Generated integrands
--------------------
``_line(len f, len g)`` writes out the integrand -(v*f(u) + sign*g(u)) *
du/dtheta of I_0, I_1, the switch-on-x I_3 and the switch-on-y I_4 arc,
and ``_weight(len G, len f0)`` the time weight G(u)*f0(u) of I_2, each
compiled once per pair of coefficient counts and kept in a bounded
least-recently-used cache of ``_INTEGRAND_TABLE_SIZE`` entries; importing
the module compiles none.  The key is the shape alone: the coefficients,
the case's unit tables, r, the sign and du/dtheta/v come in as
arguments, so both cases and both arcs share one function.  Each
polynomial comes in ascending, as ``float_coeffs`` and ``poly_antideriv``
give it, and ``algebra``'s writers unpack it into locals and write out
Horner over them, with ``polyval``'s bits (see ``horner_source``).  With
Horner loops the integrands took about twice the rule's own time in a
profile of the verify benchmark's pool.
"""

from __future__ import annotations

import functools
import heapq
import math
from operator import attrgetter

from .algebra import (compile_source, horner_source, poly_antideriv,
                      polyval, unpack_source)
from .errors import QuadratureFailure
from .systems import Case, LienardSystem

QUAD_ABS_TARGET = 1e-10
_QUAD_REL_TARGET = 1e-12
_QUAD_LIMIT = 2000
_HALF_PI = math.pi / 2
_EPMACH = 2.0 ** -52  # QUADPACK's d1mach(4)
_UFLOW = 2.0 ** -1022  # d1mach(1)
# intervals kept in the node table, about 2.3 kB each; a benchmark pool of
# 240 systems on six energies meets 28 to 52
_NODE_TABLE_SIZE = 128
# integrands kept per generator, one per polynomial shape; a verify sweep
# over every (m, n) <= 7 meets 64 of each
_INTEGRAND_TABLE_SIZE = 128

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

# per case: the node tables of u/r and v/r, du/dtheta divided by v, and
# the sign of the time-weight integral I_2
_ARC = {
    Case.SWITCH_Y: (attrgetter("sin", "cos"), 1.0, -1.0),
    Case.SWITCH_X: (attrgetter("cos", "sin"), -1.0, 1.0),
}


def _radius(h: float) -> float:
    if not 0.0 < h < math.inf:
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


class _Nodes(tuple):
    """qk21's 21 abscissae on [a, b], from the end b to the end a, with
    their sines in ``.sin`` and cosines in ``.cos``."""


# keys compare as floats, so [0.0, b] and [-0.0, b] share an entry; their
# abscissae differ only on an interval of length zero
@functools.lru_cache(maxsize=_NODE_TABLE_SIZE)
def _nodes(a: float, b: float) -> _Nodes:
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    nodes = _Nodes([centr + hlgth * x for x in _X21])
    nodes.sin = tuple([math.sin(t) for t in nodes])
    nodes.cos = tuple([math.cos(t) for t in nodes])
    return nodes


def _gk21(fn, a: float, b: float):
    """One application of qk21 on [a, b]: (result, abserr, resabs, resasc).

    ``fn`` takes the 21 abscissae (a ``_Nodes``) and returns the integrand
    there.  resabs approximates the integral of |f| and resasc that of
    |f - mean|.  The sums are QUADPACK's loops written out in their order:
    Gauss over the pairs at odd positions, Kronrod from the centre, then
    over the Gauss pairs, then over the others.
    """
    (f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, fc,
     f11, f12, f13, f14, f15, f16, f17, f18, f19, f20) = fn(_nodes(a, b))
    wg1, wg3, wg5, wg7, wg9 = _WG
    wk0, wk1, wk2, wk3, wk4, wk5, wk6, wk7, wk8, wk9, wk10 = _WGK
    s1, s3, s5, s7, s9 = f1 + f19, f3 + f17, f5 + f15, f7 + f13, f9 + f11
    resg = wg1 * s1 + wg3 * s3 + wg5 * s5 + wg7 * s7 + wg9 * s9
    resk = (wk10 * fc + wk1 * s1 + wk3 * s3 + wk5 * s5 + wk7 * s7
            + wk9 * s9 + wk0 * (f0 + f20) + wk2 * (f2 + f18)
            + wk4 * (f4 + f16) + wk6 * (f6 + f14) + wk8 * (f8 + f12))
    resabs = (abs(wk10 * fc) + wk1 * (abs(f1) + abs(f19))
              + wk3 * (abs(f3) + abs(f17)) + wk5 * (abs(f5) + abs(f15))
              + wk7 * (abs(f7) + abs(f13)) + wk9 * (abs(f9) + abs(f11))
              + wk0 * (abs(f0) + abs(f20)) + wk2 * (abs(f2) + abs(f18))
              + wk4 * (abs(f4) + abs(f16)) + wk6 * (abs(f6) + abs(f14))
              + wk8 * (abs(f8) + abs(f12)))
    reskh = 0.5 * resk
    resasc = (wk10 * abs(fc - reskh)
              + wk0 * (abs(f0 - reskh) + abs(f20 - reskh))
              + wk1 * (abs(f1 - reskh) + abs(f19 - reskh))
              + wk2 * (abs(f2 - reskh) + abs(f18 - reskh))
              + wk3 * (abs(f3 - reskh) + abs(f17 - reskh))
              + wk4 * (abs(f4 - reskh) + abs(f16 - reskh))
              + wk5 * (abs(f5 - reskh) + abs(f15 - reskh))
              + wk6 * (abs(f6 - reskh) + abs(f14 - reskh))
              + wk7 * (abs(f7 - reskh) + abs(f13 - reskh))
              + wk8 * (abs(f8 - reskh) + abs(f12 - reskh))
              + wk9 * (abs(f9 - reskh) + abs(f11 - reskh)))
    hlgth = 0.5 * (b - a)
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
    """qage with the qk21 rule on [a, b]: (value, error estimate, integral
    of |f|, stop reason).

    Bisects the interval with the largest error estimate until the summed
    estimate meets max(QUAD_ABS_TARGET, 1e-12*|value|) ("target met"), the
    interval count reaches _QUAD_LIMIT ("interval limit"), round-off
    stalls the estimate ("round-off counters", QUADPACK's iroff1 and
    iroff2), or the interval to split is too small to halve ("interval
    too small").  A first application whose estimate is 50*eps times the
    integral of |f| and above the target stops at once ("error estimate
    at the round-off floor"), as QUADPACK does: bisection cannot lower
    that floor.  The integral of |f| is the sum of qk21's resabs over the
    final intervals.
    """
    result, abserr, defabs, resasc = _gk21(fn, a, b)
    errbnd = max(QUAD_ABS_TARGET, _QUAD_REL_TARGET * abs(result))
    if abserr <= 50.0 * _EPMACH * defabs and abserr > errbnd:
        return result, abserr, defabs, "error estimate at the round-off floor"
    if (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr, defabs, "target met"
    # (-error, left, right, value, integral of |f|) per interval: the heap
    # top is the worst
    intervals = [(-abserr, a, b, result, defabs)]
    area, errsum = result, abserr
    iroff1 = iroff2 = 0
    for last in range(2, _QUAD_LIMIT + 1):
        neg_errmax, a1, b2, area0, _ = heapq.heappop(intervals)
        errmax = -neg_errmax
        b1 = a2 = 0.5 * (a1 + b2)
        area1, error1, resabs1, defab1 = _gk21(fn, a1, b1)
        area2, error2, resabs2, defab2 = _gk21(fn, a2, b2)
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
        heapq.heappush(intervals, (-error1, a1, b1, area1, resabs1))
        heapq.heappush(intervals, (-error2, a2, b2, area2, resabs2))
        if errsum <= max(QUAD_ABS_TARGET, _QUAD_REL_TARGET * abs(area)):
            stop = "target met"
            break
        if iroff1 >= 6 or iroff2 >= 20:
            stop = "round-off counters"
            break
        if max(abs(a1), abs(b2)) <= (
                1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            stop = "interval too small"
            break
    else:
        stop = "interval limit"
    return (sum(iv[3] for iv in intervals), errsum,
            sum(iv[4] for iv in intervals), stop)


def _integrate(fn, lo: float, hi: float) -> float:
    val, err, absint, stop = _qage(fn, lo, hi)
    if not err <= max(QUAD_ABS_TARGET * 50, 1e-11 * abs(val)):  # NaN fails
        raise QuadratureFailure(
            f"error estimate {err:.3e} exceeds target for value {val:.6e}; "
            f"stop: {stop}, integral of |f| {absint:.3e}")
    return val


@functools.lru_cache(maxsize=_INTEGRAND_TABLE_SIZE)
def _line(n_f, n_g):
    """The integrand -(v*f(u) + sign*g(u)) * du/dtheta for f of n_f and g
    of n_g ascending coefficients (see Generated integrands in the module
    docstring).  line(f, g, units, r, sign, du_per_v, nodes) returns its
    values at the 21 abscissae of ``nodes``, with u/r and v/r read from
    ``units(nodes)``."""
    f_names, unpack_f = unpack_source("f", n_f)
    g_names, unpack_g = unpack_source("g", n_g)
    body = ["u = r * unit_u", "v = r * unit_v",
            *horner_source("pf", f_names, "u"),
            *horner_source("pg", g_names, "u"),
            "out.append(-(v * pf + sign * pg) * (du_per_v * v))"]
    return compile_source("line", [
        "def line(f, g, units, r, sign, du_per_v, nodes):", unpack_f,
        unpack_g, "out = []", "for unit_u, unit_v in zip(*units(nodes)):",
        *("    " + stmt for stmt in body), "return out"], {})


@functools.lru_cache(maxsize=_INTEGRAND_TABLE_SIZE)
def _weight(n_g, n_f):
    """The time weight G(u)*f0(u) of I_2 for G of n_g and f0 of n_f
    ascending coefficients.  weight(g, f, units, r, nodes) returns its
    values at the 21 abscissae of ``nodes``, with u/r read from
    ``units(nodes)``."""
    g_names, unpack_g = unpack_source("g", n_g)
    f_names, unpack_f = unpack_source("f", n_f)
    body = ["u = r * unit_u", *horner_source("pg", g_names, "u"),
            *horner_source("pf", f_names, "u"), "out.append(pg * pf)"]
    return compile_source("weight", [
        "def weight(g, f, units, r, nodes):", unpack_g, unpack_f,
        "out = []", "for unit_u in units(nodes)[0]:",
        *("    " + stmt for stmt in body), "return out"], {})


def quad_I(sys: LienardSystem, h: float, index: int) -> float:
    """One arc/time integral by quadrature; index 0..sys.case.n_integrals-1.
    Raises QuadratureFailure where the value is not finite, as where the
    integrand overflows a float at a large h."""
    case = sys.case
    if not 0 <= index < case.n_integrals:
        raise ValueError(f"index {index} not valid for {case}")
    fc = sys.float_coeffs()
    r = _radius(h)
    units, du_per_v, i2_sign = _ARC[case]

    def line(f, g, sign, lo, hi):
        integrand = functools.partial(_line(len(f), len(g)), f, g, units,
                                      r, sign, du_per_v)
        return _integrate(integrand, lo, hi)

    on_y = case is Case.SWITCH_Y
    if index <= 1:
        f, g = (fc["a0"], fc["b0"]) if index == 0 else (fc["a1"], fc["b1"])
        value = line(f, g, 1.0, _HALF_PI, -_HALF_PI) \
            + line(f, g, -1.0, -_HALF_PI, -3 * _HALF_PI)
    elif index == 2:
        big_g, f0 = poly_antideriv(fc["c"]), fc["a0"]
        weight = functools.partial(_weight(len(big_g), len(f0)), big_g, f0,
                                   units, r)
        # int_AB dt and int_BA dt with dt = -d(theta)
        ab = _integrate(weight, -_HALF_PI, _HALF_PI)
        ba = _integrate(weight, -3 * _HALF_PI, -_HALF_PI)
        value = i2_sign * ab - i2_sign * ba
    elif on_y and index == 3:
        da, db = endpoint_derivatives(fc["c"], h)
        # L(x f0 + g0) - L(x f0 - g0) = 2*[g0(a)*da - g0(b)*db]; x = 0 at A, B
        value = 2.0 * (polyval(fc["b0"], r) * da - polyval(fc["b0"], -r) * db)
    else:
        arc = line(fc["a0"], fc["b0"], -1.0, _HALF_PI, -_HALF_PI)
        value = i4_factor(fc["c"], h) * arc if on_y else arc
    if not math.isfinite(value):
        raise QuadratureFailure(f"I{index} at h = {h} is {value}")
    return value


def oracle_m0(sys: LienardSystem, h: float) -> float:
    return quad_I(sys, h, 0)


def oracle_m1(sys: LienardSystem, h: float) -> float:
    return sum(quad_I(sys, h, i) for i in range(1, sys.case.n_integrals))
