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

Stepping and event location
---------------------------
Dormand-Prince 5(4) with FSAL: stage 7 of an accepted step is the field at
its end point and becomes stage 1 of the next step; a rejected step reuses
stage 1, since the point has not moved.  A step whose switch coordinate w
(y in mode 0, x otherwise) changes sign holds a crossing.  Its first
estimate is the root in theta of w on the step's continuous extension,
built from the seven stages with the dense-output weights d1..d7 (Hairer,
Norsett & Wanner, Solving ODEs I, II.6).  Newton substeps on the substep
length then land on the line, each taking its own stage 7 as dw/dt; a sign
bracket on the substep length bounds them and falls back to bisection.
The step size carries across a crossing.

Status codes: 0 ok, 1 escaped annulus, 2 max steps, 3 non-transversal.

Both twins take norms as sqrt(x*x + y*y), never hypot, whose last bit differs
between CPython and libm; so the twins agree bitwise.  For the same reason
``_rk_step`` is written out stage by stage (the interpreter spends half a
return walking tableau loops otherwise) but sums each stage and the error
estimate in the tableau's left-to-right order, zero weights included,
exactly as the C twin's loops do.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .algebra import polyval

BACKEND_NAME = "python"

# Dormand-Prince 5(4) tableau.  Row 6 of _A is the 5th-order weights, so
# stage 7 is the field at the step's end point: the next step's stage 1.
_A = (
    (),
    (1.0 / 5,),
    (3.0 / 40, 9.0 / 40),
    (44.0 / 45, -56.0 / 15, 32.0 / 9),
    (19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729),
    (9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656),
    (35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84),
)
_B4 = (5179.0 / 57600, 0.0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200,
       187.0 / 2100, 1.0 / 40)
# error weights b5 - b4 (b5 is row 6 of _A with a zero for stage 7)
_E = tuple(b5 - b4 for b5, b4 in zip(_A[6] + (0.0,), _B4))
# the same weights by name, for the written-out step
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65), (_A71, _A72, _A73, _A74, _A75, _A76) \
    = _A[1:]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E
# dense-output weights d1..d7 of the continuous extension
_D = (-12715105075.0 / 11282082432, 0.0, 87487479700.0 / 32700410799,
      -10690763975.0 / 1880347072, 701980252875.0 / 199316789632,
      -1453857185.0 / 822651844, 69997945.0 / 29380423)

_TRANSVERSAL_GUARD = 1e-8
_MIN_RETURN_TIME = 0.5
_ROOT_ITER = 50  # bracketed Newton iterations on the dense output
_LAND_ITER = 60  # landing substeps; bisection alone needs 54 to 1e-16


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


def _rk_step(mode, p, q, x, y, side, h, k1x, k1y):
    """One Dormand-Prince step from stage 1 (k1x, k1y); returns
    (x5, y5, err_norm, kx, ky) with the seven stages, kx[6], ky[6] being
    the field at (x5, y5).  Each stage is x + (h*a_i1)*k1 + (h*a_i2)*k2 + ...
    summed left to right, zero weights included, and the error sum starts
    from 0.0: the C twin's loops, term for term."""
    h1 = h * _A21
    k2x, k2y = _field(mode, p, q, x + h1 * k1x, y + h1 * k1y, side)
    h1 = h * _A31
    h2 = h * _A32
    k3x, k3y = _field(mode, p, q, x + h1 * k1x + h2 * k2x,
                      y + h1 * k1y + h2 * k2y, side)
    h1 = h * _A41
    h2 = h * _A42
    h3 = h * _A43
    k4x, k4y = _field(mode, p, q, x + h1 * k1x + h2 * k2x + h3 * k3x,
                      y + h1 * k1y + h2 * k2y + h3 * k3y, side)
    h1 = h * _A51
    h2 = h * _A52
    h3 = h * _A53
    h4 = h * _A54
    k5x, k5y = _field(
        mode, p, q, x + h1 * k1x + h2 * k2x + h3 * k3x + h4 * k4x,
        y + h1 * k1y + h2 * k2y + h3 * k3y + h4 * k4y, side)
    h1 = h * _A61
    h2 = h * _A62
    h3 = h * _A63
    h4 = h * _A64
    h5 = h * _A65
    k6x, k6y = _field(
        mode, p, q, x + h1 * k1x + h2 * k2x + h3 * k3x + h4 * k4x + h5 * k5x,
        y + h1 * k1y + h2 * k2y + h3 * k3y + h4 * k4y + h5 * k5y, side)
    h1 = h * _A71
    h2 = h * _A72
    h3 = h * _A73
    h4 = h * _A74
    h5 = h * _A75
    h6 = h * _A76
    x5 = x + h1 * k1x + h2 * k2x + h3 * k3x + h4 * k4x + h5 * k5x + h6 * k6x
    y5 = y + h1 * k1y + h2 * k2y + h3 * k3y + h4 * k4y + h5 * k5y + h6 * k6y
    k7x, k7y = _field(mode, p, q, x5, y5, side)
    h1 = h * _E1
    h2 = h * _E2
    h3 = h * _E3
    h4 = h * _E4
    h5 = h * _E5
    h6 = h * _E6
    h7 = h * _E7
    ex = (0.0 + h1 * k1x + h2 * k2x + h3 * k3x + h4 * k4x + h5 * k5x
          + h6 * k6x + h7 * k7x)
    ey = (0.0 + h1 * k1y + h2 * k2y + h3 * k3y + h4 * k4y + h5 * k5y
          + h6 * k6y + h7 * k7y)
    return (x5, y5, math.sqrt(ex * ex + ey * ey),
            (k1x, k2x, k3x, k4x, k5x, k6x, k7x),
            (k1y, k2y, k3y, k4y, k5y, k6y, k7y))


def _dense_root(w0, w1, k, h):
    """The theta in (0, 1] where the continuous extension of one coordinate
    vanishes, over a step of length h from w0 to w1 (of opposite signs, or
    w1 == 0) with stages k.  The extension is Hairer's
    w0 + th*(dw + (1-th)*(c2 + th*(c3 + (1-th)*c4))), here in powers of th;
    its root is found by Newton steps kept inside a sign bracket."""
    dw = w1 - w0
    c2 = h * k[0] - dw
    c3 = dw - h * k[6] - c2
    c4 = 0.0
    for d, kj in zip(_D, k):
        c4 += d * kj
    c4 *= h
    e1 = dw + c2
    e2 = c3 + c4 - c2
    e3 = -c3 - 2.0 * c4
    lo, hi = 0.0, 1.0
    th = w0 / (w0 - w1)
    for _ in range(_ROOT_ITER):
        v = (((c4 * th + e3) * th + e2) * th + e1) * th + w0
        if v == 0.0:
            break
        if (v > 0.0) == (w0 > 0.0):
            lo = th
        else:
            hi = th
        dv = ((4.0 * c4 * th + 3.0 * e3) * th + 2.0 * e2) * th + e1
        nxt = th - v / dv if dv != 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - th) <= 1e-14
        th = nxt
        if done:
            break
    return th


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

    def dwdt(px, py):
        # side-independent estimate of the switch-variable velocity
        dx, dy = _field(mode, p, q, px, py, 0.0)
        return dy if mode == 0 else dx

    w0 = dwdt(x, y)
    if abs(w0) < _TRANSVERSAL_GUARD:
        return 3, x, y, t, crossings
    side = 1.0 if w0 > 0 else -1.0
    k1x, k1y = _field(mode, p, q, x, y, side)

    h = 0.01
    steps = 0
    while steps < max_steps:
        steps += 1
        x5, y5, err, kx, ky = _rk_step(mode, p, q, x, y, side, h, k1x, k1y)
        tol = rk_tol * (1.0 + math.sqrt(x * x + y * y))
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            continue
        w_old, w_new = (y, y5) if mode == 0 else (x, x5)
        # w_old == 0 means we are leaving the line after an event (or the
        # start point): not a crossing
        if w_old != 0.0 and ((w_old > 0.0) != (w_new > 0.0) or w_new == 0.0):
            # start from the root of the dense output, then Newton substeps
            # on the substep length, whose dw/dt is each substep's stage 7
            s = h * _dense_root(w_old, w_new, ky if mode == 0 else kx, h)
            lo, hi, xe, ye = 0.0, h, x5, y5
            for _ in range(_LAND_ITER):
                xs, ys, _e, kxs, kys = _rk_step(mode, p, q, x, y, side, s,
                                                k1x, k1y)
                ws, vel = (ys, kys[6]) if mode == 0 else (xs, kxs[6])
                if abs(ws) <= event_tol:
                    hi, xe, ye = s, xs, ys
                    break
                if (ws > 0.0) == (w_old > 0.0):
                    lo = s
                else:
                    hi, xe, ye = s, xs, ys
                if hi - lo <= 1e-16 * max(1.0, h):
                    break
                nxt = s - ws / vel if vel != 0.0 else lo
                s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
            t += hi
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
            # the next step starts on the new side with the same h
            k1x, k1y = _field(mode, p, q, x, y, side)
            continue
        x, y = x5, y5
        k1x, k1y = kx[6], ky[6]
        t += h
        r = math.sqrt(x * x + y * y)
        if r < r_min or r > r_max:
            return 1, x, y, t, crossings
        if err > 0.0:
            h *= min(5.0, 0.9 * (tol / err) ** 0.2)
        else:
            h *= 5.0
    return 2, x, y, t, crossings
