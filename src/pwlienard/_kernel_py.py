"""Pure-Python trajectory kernel: adaptive RK45 with switching-line events.

This is the reference twin of the compiled kernel in ``_kernel_c.c``; both
expose the same ``integrate_return`` entry point and must stay behaviorally
identical (the test suite compares them whenever a C compiler is present).

Folded field
------------
The entry point takes the five coefficient vectors (f0, f1, g0, g1, g) with
lam and eps, and ``fold`` combines them once per return into two
polynomials, p = eps*(f0 + lam*f1) and q = lam*g + eps*(g0 + lam*g1).  The
field is then x' = y, y' = -x - y*p(x) - sgn*q(x): with p = lam*fbar and
q = lam*gbar this is the single-small-parameter form of
``melnikov.fold_to_theorem_form``, which calls ``fold`` too.

Field modes
-----------
0: switch-on-y system in original coordinates (section {y = 0, x > 0})
1: switch-on-x system in original coordinates (section {x = 0, y > 0})
2: switch-on-y system in Melnikov (swapped) coordinates, where the switch
   and the section are both on the y-axis (section {x = 0, y > 0}):
   x' = y + x*p(y) + sgn*q(y), y' = -x

Status codes: 0 ok, 1 escaped annulus, 2 max steps, 3 non-transversal.

Both twins take norms as sqrt(x*x + y*y), never hypot, whose last bit differs
between CPython and libm; so the twins agree bitwise.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .algebra import polyval

BACKEND_NAME = "python"

# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1.0 / 5,),
    (3.0 / 40, 9.0 / 40),
    (44.0 / 45, -56.0 / 15, 32.0 / 9),
    (19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729),
    (9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656),
    (35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84),
)
_B5 = (35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0.0)
_B4 = (5179.0 / 57600, 0.0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200,
       187.0 / 2100, 1.0 / 40)

_TRANSVERSAL_GUARD = 1e-8
_MIN_RETURN_TIME = 0.5


def fold(fa0, fa1, fb0, fb1, fc, lam, eps):
    """Coefficient lists of the field polynomials p and q (see the module
    docstring); the shorter vectors count as padded with zeros."""
    p = [eps * (f0 + lam * f1)
         for f0, f1 in zip_longest(fa0, fa1, fillvalue=0.0)]
    q = [lam * g + eps * (g0 + lam * g1)
         for g0, g1, g in zip_longest(fb0, fb1, fc, fillvalue=0.0)]
    return p, q


def _field(mode, p, q, x, y, side):
    if mode == 2:
        # swapped coordinates: polynomials are functions of y
        return y + x * polyval(p, y) + side * polyval(q, y), -x
    return y, -x - y * polyval(p, x) - side * polyval(q, x)


def _rk_step(mode, p, q, x, y, side, h):
    """One Dormand-Prince step; returns (x5, y5, err_norm)."""
    kx = [0.0] * 7
    ky = [0.0] * 7
    kx[0], ky[0] = _field(mode, p, q, x, y, side)
    for i in range(1, 7):
        ai = _A[i]
        xs = x
        ys = y
        for j in range(len(ai)):
            xs += h * ai[j] * kx[j]
            ys += h * ai[j] * ky[j]
        kx[i], ky[i] = _field(mode, p, q, xs, ys, side)
    x5 = x
    y5 = y
    ex = 0.0
    ey = 0.0
    for i in range(7):
        x5 += h * _B5[i] * kx[i]
        y5 += h * _B5[i] * ky[i]
        ex += h * (_B5[i] - _B4[i]) * kx[i]
        ey += h * (_B5[i] - _B4[i]) * ky[i]
    return x5, y5, math.sqrt(ex * ex + ey * ey)


def integrate_return(mode, fa0, fa1, fb0, fb1, fc, lam, eps,
                     x0, y0, rk_tol, event_tol, max_steps,
                     r_min, r_max):
    """Integrate from a section point to its first full return.

    Returns (status, x, y, t, crossings) with crossings a list of
    (t, x, y, side_after) switching-line events (the terminal section hit
    included).
    """
    p, q = fold(fa0, fa1, fb0, fb1, fc, lam, eps)
    x, y = float(x0), float(y0)
    t = 0.0
    crossings = []

    def switch_var(px, py):
        return py if mode == 0 else px

    def dwdt(px, py):
        # side-independent estimate of the switch-variable velocity
        dx, dy = _field(mode, p, q, px, py, 0.0)
        return dy if mode == 0 else dx

    w0 = dwdt(x, y)
    if abs(w0) < _TRANSVERSAL_GUARD:
        return 3, x, y, t, crossings
    side = 1.0 if w0 > 0 else -1.0

    h = 0.01
    steps = 0
    while steps < max_steps:
        steps += 1
        x5, y5, err = _rk_step(mode, p, q, x, y, side, h)
        tol = rk_tol * (1.0 + math.sqrt(x * x + y * y))
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            continue
        w_old = switch_var(x, y)
        w_new = switch_var(x5, y5)
        # w_old == 0 means we are leaving the line after an event (or the
        # start point): not a crossing
        if w_old != 0.0 and ((w_old > 0.0) != (w_new > 0.0) or w_new == 0.0):
            # locate the crossing by bisection on the substep length
            lo, hi = 0.0, h
            xe, ye = x5, y5
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                xm, ym, _e = _rk_step(mode, p, q, x, y, side, mid)
                if abs(switch_var(xm, ym)) <= event_tol:
                    lo = hi = mid
                    xe, ye = xm, ym
                    break
                if (switch_var(xm, ym) > 0.0) == (w_old > 0.0):
                    lo = mid
                else:
                    hi = mid
                    xe, ye = xm, ym
                if hi - lo <= 1e-16 * max(1.0, h):
                    break
            t += 0.5 * (lo + hi)
            # land exactly on the line
            if mode == 0:
                x, y = xe, 0.0
            else:
                x, y = 0.0, ye
            vel = dwdt(x, y)
            if abs(vel) < _TRANSVERSAL_GUARD:
                return 3, x, y, t, crossings
            side = 1.0 if vel > 0 else -1.0
            crossings.append((t, x, y, side))
            r = math.sqrt(x * x + y * y)
            if r < r_min or r > r_max:
                return 1, x, y, t, crossings
            if t > _MIN_RETURN_TIME:
                if mode == 0 and x > 0.0:
                    return 0, x, y, t, crossings
                if mode != 0 and y > 0.0:
                    return 0, x, y, t, crossings
            h = 0.01
            continue
        x, y = x5, y5
        t += h
        r = math.sqrt(x * x + y * y)
        if r < r_min or r > r_max:
            return 1, x, y, t, crossings
        if err > 0.0:
            h *= min(5.0, 0.9 * (tol / err) ** 0.2)
        else:
            h *= 5.0
    return 2, x, y, t, crossings
