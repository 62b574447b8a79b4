"""The trajectory kernel: adaptive RK45 in the polar angle, pure Python.

``simulator`` runs every return through ``integrate_return``, whose
tangent mode also gives the derivative of the return by its start radius.

Folded field
------------
The entry point takes the five coefficient vectors (f0, f1, g0, g1, g) with
lam and eps, and ``fold`` combines them once per return into two
polynomials, p = eps*(f0 + lam*f1) and q = lam*g + eps*(g0 + lam*g1).  The
field is then x' = y, y' = -x - y*p(x) - sgn*q(x): with p = lam*fbar and
q = lam*gbar this is the single-small-parameter form -lam*[y*fbar +
sgn*gbar] of the theorem, with delta = eps/lam folded into fbar and gbar.

Field modes
-----------
0: switch-on-y system, sgn = sgn(y), section {y = 0, x > 0}
1: switch-on-x system, sgn = sgn(x), section {x = 0, y > 0}

The switch-on-y system in Melnikov (swapped) coordinates is mode 0 with all
five vectors negated; see ``simulator.bifurcation_increment``.

Arc form
--------
The unperturbed flow is the rotation x = r cos(phi), y = -r sin(phi) with
phi = t, and each switching half-line is a ray at a fixed phi.  So the
kernel takes phi as the independent variable (Henon's trick, Physica D 5
(1982), applied to the angle).  With A = y*p(x) + side*q(x),

    dr/dphi = r sin(phi) A / (r + cos(phi) A),
    dt/dphi = r / (r + cos(phi) A).

A mode-0 return integrates phi over [0, pi] with side -1, then over
[pi, 2 pi] with side +1; mode 1 does the same from -pi/2, with sides +1
then -1.  The last step of each arc is clipped to land exactly on the arc's
end, so there is no event location: each crossing lies on its line by
construction.

Stepping
--------
Dormand-Prince 5(4) with FSAL on the pair (r, t): stage 7 of an accepted
step is the field at its end point and becomes stage 1 of the next step; a
rejected step reuses stage 1.  The stage nodes c2..c7 enter phi.  The error
estimate is on r alone, against rk_tol*(1 + |r|).  Each return starts at
h = pi/16 (``_H_START``).  The step that follows a rejection may not grow h
(Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Where the rest of an
arc lies between h and 2h, the kernel steps half of it, so that an arc does
not end on a sliver.  The step size carries across the switch, where only
stage 1 is recomputed, since the side changes.

The field takes p and q in the form ``_descending`` makes once per return
(p) and once per arc (q): tuples from the top degree down, q multiplied by
the arc's side.  ``_field`` runs both Horner loops inline.  Horner from the
top is ``algebra.polyval``, and a product with +-1 is exact, so this form
changes no bit of a return: only the sign of an exactly zero value of q can
differ, and a step adds that zero to nonzero sums only.

Tangent mode
------------
With ``tangent=True`` a return also carries v = dr/dr0 through the
variational equation dv/dphi = F_r v, F_r = d(dr/dphi)/dr (Hairer, Norsett
& Wanner, Solving ODEs I, I.14).  The arcs end at fixed angles, which do
not move with r0, so v needs no jump term at the switch.
``_field_tangent`` computes F_r from the same cos, sin and x as the field,
with Horner-with-derivative chains of p and q, and ``_rk_step_tangent``
takes the Dormand-Prince step of (r, t, v).  The error estimate stays on r
alone, so the step sequence, the status, the end point, the time and the
crossings are the plain return's bit for bit, and v is the derivative of
the discrete return map along that step sequence.

Status codes: 0 ok, 1 escaped annulus, 2 max steps, 3 non-transversal,
where phi stops being a valid independent variable: the angular speed
(r + cos(phi) A)/r is below ``_TRANSVERSAL_GUARD`` at an accepted point
(stage 1), or a step kept meeting the guard at a trial stage until h fell
below ``_H_FLOOR``.  A trial stage below the guard rejects only its step,
which is retried at a fifth of its length.

``_rk_step`` is written out stage by stage: the interpreter spends half a
return walking tableau loops otherwise.  It sums each stage and the error
estimate in the tableau's left-to-right order and skips the zero weights
(a7,2 and e2), which changes no bit: a product with a zero weight is a
signed zero, which can change only the sign of a sum that is exactly zero,
and r5 and t5 are positive while the error estimate is taken in absolute
value.
"""

from __future__ import annotations

import math
from itertools import zip_longest

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
# stage nodes c2..c6 (c7 = 1: stage 7 sits at the step's end)
_C = (1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0)
_B4 = (5179.0 / 57600, 0.0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200,
       187.0 / 2100, 1.0 / 40)
# error weights b5 - b4 (b5 is row 6 of _A with a zero for stage 7)
_E = tuple(b5 - b4 for b5, b4 in zip(_A[6] + (0.0,), _B4))
# the same weights by name, for the written-out step
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76) \
    = _A[1:]
_C2, _C3, _C4, _C5, _C6 = _C
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E

_TRANSVERSAL_GUARD = 1e-8
# the first step of a return, and the step length below which a step that
# keeps meeting the guard ends the return with status 3
_H_START = math.pi / 16
_H_FLOOR = 1e-12


class _NonTransversal(Exception):
    """The angular speed fell below the guard at an evaluated point."""


def fold(fa0, fa1, fb0, fb1, fc, lam, eps):
    """Coefficient lists of the field polynomials p and q (see the module
    docstring); the shorter vectors count as padded with zeros."""
    p = [eps * (f0 + lam * f1)
         for f0, f1 in zip_longest(fa0, fa1, fillvalue=0.0)]
    q = [lam * g + eps * (g0 + lam * g1)
         for g0, g1, g in zip_longest(fb0, fb1, fc, fillvalue=0.0)]
    return p, q


def _descending(coeffs, scale=1.0):
    """The coefficient form ``_field`` takes: a tuple from the top degree
    down, each coefficient times ``scale`` (+-1, so exactly).  Built from a
    list: tuple() of a generator starts with 10 slots and shrinks, which
    drifts CPython's per-size tuple free lists and grew the resident memory
    of a cycles run by about 0.5 MB."""
    return tuple([scale * c for c in reversed(coeffs)])


def _field(p, q, r, phi, cos=math.cos, sin=math.sin):
    """(dr/dphi, dt/dphi) at polar point (r, phi); p and q are coefficient
    tuples from the top degree down, q already multiplied by the arc's side
    (see ``integrate_return``).  Raises _NonTransversal where the angular
    speed is below the guard.  cos and sin are bound as defaults, so that
    they are local names."""
    c = cos(phi)
    s = sin(phi)
    x = r * c
    pa = 0.0
    for k in p:
        pa = pa * x + k
    qa = 0.0
    for k in q:
        qa = qa * x + k
    a = -r * s * pa + qa
    w = r + c * a
    if not (r > 0.0 and w > _TRANSVERSAL_GUARD * r):
        raise _NonTransversal
    dt = r / w
    return s * a * dt, dt


def _field_tangent(p, q, r, phi, cos=math.cos, sin=math.sin):
    """``_field`` with the same arithmetic, plus F_r = d(dr/dphi)/dr: returns
    (dr/dphi, dt/dphi, F_r).  p' and q' come from Horner-with-derivative
    chains beside p's and q's, and x = r cos(phi) moves with r by cos(phi)."""
    c = cos(phi)
    s = sin(phi)
    x = r * c
    pa = pd = 0.0
    for k in p:
        pd = pd * x + pa
        pa = pa * x + k
    qa = qd = 0.0
    for k in q:
        qd = qd * x + qa
        qa = qa * x + k
    a = -r * s * pa + qa
    w = r + c * a
    if not (r > 0.0 and w > _TRANSVERSAL_GUARD * r):
        raise _NonTransversal
    dt = r / w
    # d(s a r / w)/dr with w = r + c a reduces to s (ar r^2 + c a^2) / w^2
    ar = c * qd - s * (pa + x * pd)
    g = a / w
    return s * a * dt, dt, s * (ar * dt * dt + c * g * g)


def _rk_step(p, q, r, t, phi, h, k1r, k1t):
    """One Dormand-Prince step of length h in phi from stage 1 (k1r, k1t);
    returns (r5, t5, err, k7r, k7t), stage 7 being the field at
    (r5, phi + h).  Each stage is r + (h*a_i1)*k1 + (h*a_i2)*k2 + ...
    summed left to right, the zero weights left out."""
    h1 = h * _A21
    k2r, k2t = _field(p, q, r + h1 * k1r, phi + _C2 * h)
    h1 = h * _A31
    h2 = h * _A32
    k3r, k3t = _field(p, q, r + h1 * k1r + h2 * k2r, phi + _C3 * h)
    h1 = h * _A41
    h2 = h * _A42
    h3 = h * _A43
    k4r, k4t = _field(p, q, r + h1 * k1r + h2 * k2r + h3 * k3r,
                      phi + _C4 * h)
    h1 = h * _A51
    h2 = h * _A52
    h3 = h * _A53
    h4 = h * _A54
    k5r, k5t = _field(p, q, r + h1 * k1r + h2 * k2r + h3 * k3r + h4 * k4r,
                      phi + _C5 * h)
    h1 = h * _A61
    h2 = h * _A62
    h3 = h * _A63
    h4 = h * _A64
    h5 = h * _A65
    k6r, k6t = _field(
        p, q, r + h1 * k1r + h2 * k2r + h3 * k3r + h4 * k4r + h5 * k5r,
        phi + _C6 * h)
    h1 = h * _A71
    h3 = h * _A73
    h4 = h * _A74
    h5 = h * _A75
    h6 = h * _A76
    r5 = r + h1 * k1r + h3 * k3r + h4 * k4r + h5 * k5r + h6 * k6r
    t5 = t + h1 * k1t + h3 * k3t + h4 * k4t + h5 * k5t + h6 * k6t
    k7r, k7t = _field(p, q, r5, phi + h)
    h1 = h * _E1
    h3 = h * _E3
    h4 = h * _E4
    h5 = h * _E5
    h6 = h * _E6
    h7 = h * _E7
    er = h1 * k1r + h3 * k3r + h4 * k4r + h5 * k5r + h6 * k6r + h7 * k7r
    return r5, t5, abs(er), k7r, k7t


def _rk_step_tangent(p, q, r, t, v, phi, h, k1r, k1t, k1f):
    """``_rk_step`` on (r, t), the same sums in the same order, and beside
    it the tangent v = dr/dr0 through dv/dphi = F_r v, each stage's F_r
    from ``_field_tangent`` at that stage's r; k1f is stage 1's F_r.
    Returns (r5, t5, err, k7r, k7t, v5, k7f), the error on r alone."""
    k1v = k1f * v
    h1 = h * _A21
    k2r, k2t, f = _field_tangent(p, q, r + h1 * k1r, phi + _C2 * h)
    k2v = f * (v + h1 * k1v)
    h1 = h * _A31
    h2 = h * _A32
    k3r, k3t, f = _field_tangent(p, q, r + h1 * k1r + h2 * k2r,
                                 phi + _C3 * h)
    k3v = f * (v + h1 * k1v + h2 * k2v)
    h1 = h * _A41
    h2 = h * _A42
    h3 = h * _A43
    k4r, k4t, f = _field_tangent(p, q, r + h1 * k1r + h2 * k2r + h3 * k3r,
                                 phi + _C4 * h)
    k4v = f * (v + h1 * k1v + h2 * k2v + h3 * k3v)
    h1 = h * _A51
    h2 = h * _A52
    h3 = h * _A53
    h4 = h * _A54
    k5r, k5t, f = _field_tangent(
        p, q, r + h1 * k1r + h2 * k2r + h3 * k3r + h4 * k4r, phi + _C5 * h)
    k5v = f * (v + h1 * k1v + h2 * k2v + h3 * k3v + h4 * k4v)
    h1 = h * _A61
    h2 = h * _A62
    h3 = h * _A63
    h4 = h * _A64
    h5 = h * _A65
    k6r, k6t, f = _field_tangent(
        p, q, r + h1 * k1r + h2 * k2r + h3 * k3r + h4 * k4r + h5 * k5r,
        phi + _C6 * h)
    k6v = f * (v + h1 * k1v + h2 * k2v + h3 * k3v + h4 * k4v + h5 * k5v)
    h1 = h * _A71
    h3 = h * _A73
    h4 = h * _A74
    h5 = h * _A75
    h6 = h * _A76
    r5 = r + h1 * k1r + h3 * k3r + h4 * k4r + h5 * k5r + h6 * k6r
    t5 = t + h1 * k1t + h3 * k3t + h4 * k4t + h5 * k5t + h6 * k6t
    v5 = v + h1 * k1v + h3 * k3v + h4 * k4v + h5 * k5v + h6 * k6v
    k7r, k7t, k7f = _field_tangent(p, q, r5, phi + h)
    h1 = h * _E1
    h3 = h * _E3
    h4 = h * _E4
    h5 = h * _E5
    h6 = h * _E6
    h7 = h * _E7
    er = h1 * k1r + h3 * k3r + h4 * k4r + h5 * k5r + h6 * k6r + h7 * k7r
    return r5, t5, abs(er), k7r, k7t, v5, k7f


def _point(r, phi):
    """(x, y) of the polar point (r, phi)."""
    return r * math.cos(phi), -r * math.sin(phi)


def integrate_return(mode, fa0, fa1, fb0, fb1, fc, lam, eps,
                     x0, y0, rk_tol, event_tol, max_steps,
                     r_min, r_max, tangent=False):
    """Integrate from the section point (x0, y0) to its first full return;
    its radius is x0 in mode 0 and y0 in mode 1.

    Returns (status, x, y, t, crossings) with crossings the two
    (t, x, y, side_after) switching-line hits, the terminal section hit
    included, each exactly on its line.  With ``tangent`` it returns
    (status, x, y, t, crossings, v) with v the derivative of the end
    radius by the start radius (see the module docstring); everything
    else is the plain return's, bit for bit.  ``event_tol`` is unused: the
    arcs end on their lines without event location.  The slot stays
    because perfbench's ``kernel_rows`` calls this entry with all 15
    arguments by position.
    """
    if mode not in (0, 1):
        raise ValueError(f"unknown field mode {mode}")
    p, q = fold(fa0, fa1, fb0, fb1, fc, lam, eps)
    out = _arcs(mode, _descending(p), q, float(x0 if mode == 0 else y0),
                rk_tol, max_steps, r_min, r_max, tangent)
    return out if tangent else out[:5]


def _arcs(mode, p, q, r, rk_tol, max_steps, r_min, r_max, tangent):
    """The two arcs of a return from radius r, p in ``_field``'s form;
    returns (status, x, y, t, crossings, v), v staying 1.0 unless
    ``tangent``."""
    if mode == 0:
        phi, side = 0.0, -1.0
    else:
        phi, side = -0.5 * math.pi, 1.0
    t = 0.0
    v = 1.0
    crossings = []
    h = _H_START
    steps = 0
    rejected = False
    try:
        for sign in (-1.0, 1.0):
            end = phi + math.pi
            qs = _descending(q, side)
            # stage 1 is at an accepted point: below the guard there, the
            # return ends
            if tangent:
                k1r, k1t, k1f = _field_tangent(p, qs, r, phi)
            else:
                k1r, k1t = _field(p, qs, r, phi)
            while phi < end:
                if steps >= max_steps:
                    return (2, *_point(r, phi), t, crossings, v)
                steps += 1
                last = phi + h >= end
                if last:
                    hs = end - phi
                elif phi + 2.0 * h > end:
                    # two halves, not a step and a sliver
                    hs = 0.5 * (end - phi)
                else:
                    hs = h
                try:
                    if tangent:
                        r5, t5, err, k7r, k7t, v5, k7f = _rk_step_tangent(
                            p, qs, r, t, v, phi, hs, k1r, k1t, k1f)
                    else:
                        r5, t5, err, k7r, k7t = _rk_step(p, qs, r, t, phi,
                                                         hs, k1r, k1t)
                except _NonTransversal:
                    # a trial stage below the guard rejects the step only
                    h = 0.2 * hs
                    if h < _H_FLOOR:
                        return (3, *_point(r, phi), t, crossings, v)
                    rejected = True
                    continue
                tol = rk_tol * (1.0 + abs(r))
                if err > tol:
                    h = hs * max(0.2, 0.9 * (tol / err) ** 0.2)
                    rejected = True
                    continue
                r, t = r5, t5
                phi = end if last else phi + hs
                k1r, k1t = k7r, k7t
                if tangent:
                    v, k1f = v5, k7f
                if r < r_min or r > r_max:
                    return (1, *_point(r, phi), t, crossings, v)
                # a clipped step keeps h: the arc's end, not the error,
                # set its length; right after a rejection h may not grow
                if not last:
                    fac = (min(5.0, 0.9 * (tol / err) ** 0.2)
                           if err > 0.0 else 5.0)
                    h = hs * (min(1.0, fac) if rejected else fac)
                rejected = False
            # land exactly on the line; the next arc has the other side
            side = -side
            x, y = (sign * r, 0.0) if mode == 0 else (0.0, sign * r)
            crossings.append((t, x, y, side))
    except _NonTransversal:
        return (3, *_point(r, phi), t, crossings, v)
    return 0, x, y, t, crossings, v
