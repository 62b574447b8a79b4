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
Dormand-Prince 5(4) with FSAL on the state (r, t): stage 7 of an accepted
step is the field at its end point and becomes stage 1 of the next step;
a rejected step reuses stage 1.  The stage nodes c2..c7 enter phi.  The
error estimate is on r alone, against rk_tol*(1 + |r|).  Each return
starts at h = pi/16 (``_H_START``).  The step that follows a rejection may
not grow h (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Where the
rest of an arc lies between h and 2h, the kernel steps half of it, so that
an arc does not end on a sliver.  The step size carries across the switch,
where only stage 1 is recomputed, since the side changes.  Each arc runs
in one function that ``_arc`` generates (see Generated arc); ``_arcs``
keeps the loop over the two arcs, the crossings and the status codes.

The field takes fold's p, and q times the arc's side once per arc.  A
product with +-1 is exact, so q's value is side * q(x) but for the sign
of an exact zero, which a step adds to nonzero sums only.

Tangent mode
------------
With ``tangent=True`` the state is y = (r, t, v), v = dr/dr0 carried
through the variational equation dv/dphi = F_r v, F_r = d(dr/dphi)/dr
(Hairer, Norsett & Wanner, Solving ODEs I, I.14).  The arcs end at fixed
angles, which do not move with r0, so v needs no jump term at the switch.
Each stage computes F_r from the same cos, sin and x as the field, with
Horner-with-derivative chains of p and q.  The error estimate stays on r
alone, so the step sequence, the status, the end point, the time and the
crossings are the plain return's bit for bit, and v is the derivative of
the discrete return map along that step sequence.

Status codes: 0 ok, 1 escaped annulus, 2 max steps, 3 non-transversal,
where phi stops being a valid independent variable: the angular speed
(r + cos(phi) A)/r is below ``_TRANSVERSAL_GUARD`` at an accepted point
(stage 1), or a step kept meeting the guard at a trial stage until h fell
below ``_H_FLOOR``.  A trial stage below the guard rejects only its step,
which is retried at a fifth of its length.

Generated arc
-------------
``_arc(len(p), len(q), tangent)`` writes out one function that integrates
a whole arc (Jorba & Zou, Exp. Math. 14 (2005), generate the integrator of
an ODE, not only its right-hand side): stage 1 at the arc's start, then
the step-control loop with the Dormand-Prince step over _A, _C and _E
inline over locals.  The field is one stage template (``_stage``); p and q
are unpacked into locals once per arc and Horner is written out over them,
with the derivative in tangent mode, by ``algebra``'s writers: a called
field with Horner loops spends about half its time in interpreter
dispatch.  No step calls a function but cos and sin, or builds or unpacks
a sequence.  Stage 7 sits at stage 6's angle
(c6 = 1), so it reuses that stage's cos and sin: five trig pairs a step.
``_arc`` compiles once per shape, ``_arcs`` fetches it once per arc, and
importing the module compiles none.

The arc keeps the bits of a polyval field and of the tableau loops over
it, stepped by the same controller, which tests/test_simulator.py checks
on every shape up to 8 x 8, attempt by attempt, and on whole returns
(TestFieldCoefficientForm, TestWrittenOutStep, TestWrittenOutTangentStep).
It sums each stage and the error estimate in the tableau's left-to-right
order, with two departures that change at most the sign of an exactly
zero term.  It skips the zero weights (a7,2 and e2), whose products are
signed zeros.  And Horner starts from the top coefficient, which differs
from ``polyval`` only in the sign of a zero value (see
``algebra.horner_source``).  A zero term can change only the sign of a
sum that is exactly zero, and r5 and t5 are positive while the error
estimate is taken in absolute value.
"""

from __future__ import annotations

import functools
import math
from itertools import zip_longest

from .algebra import (compile_source, horner_deriv_source, horner_source,
                      unpack_source)

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


@functools.lru_cache(maxsize=None)
def _arc(n_p, n_q, tangent):
    """The integrator of one arc for p of n_p and q of n_q ascending
    coefficients, q times the arc's side (see Generated arc in the module
    docstring).  arc(p, q, phi, end, h, steps, max_steps, rk_tol, r_min,
    r_max, r, t) steps the state (r, t), with ``tangent`` (r, t, v) with
    v = dr/dr0 through dv/dphi = F_r v, from phi to end; h is the next
    step length and steps the step attempts the return has made.  It
    returns (status, phi, h, steps, r, t), with ``tangent`` (..., r, t,
    v): status 0 at the arc's end, else 1, 2 or 3 as the return's, with
    the last accepted state.  Stage 1, at phi, below the guard raises
    _NonTransversal.  A p or q of another length fails the unpacking.
    The cache holds one arc per shape in use."""
    p, unpack_p = unpack_source("p", n_p)
    q, unpack_q = unpack_source("q", n_q)
    state = ("r", "t", "v") if tangent else ("r", "t")
    stage = ("r", "t", "f") if tangent else ("r", "t")
    done = "return {}, phi, h, steps, " + ", ".join(state)
    # at the arc's start and at each accepted point: the error bound, and
    # stage 1's F_r v.  r > 0 there, or stage 1 would not have passed the
    # guard, so 1 + r is 1 + |r|
    at_point = ["tol = rk_tol * (1.0 + r)"] + (["k1v = k1f * v"] if tangent
                                               else [])
    body = ["if steps >= max_steps:",
            "    " + done.format(2),
            "steps += 1",
            "last = phi + h >= end",
            "if last:",
            "    hs = end - phi",
            "elif phi + 2.0 * h > end:",
            "    # two halves, not a step and a sliver",
            "    hs = 0.5 * (end - phi)",
            "else:",
            "    hs = h",
            "try:",
            *("    " + line for line in _attempt(p, q, tangent)),
            "except _NonTransversal:",
            "    # a trial stage below the guard rejects the step only",
            "    h = 0.2 * hs",
            f"    if h < {_H_FLOOR!r}:",
            "        " + done.format(3),
            "    rejected = True",
            "    continue"]
    weights = [j for j, e in enumerate(_E, start=1) if e != 0.0]
    body += [f"h{j} = hs * {_E[j - 1]!r}" for j in weights]
    # abs, min and max written out: a step calls nothing but cos and sin
    body += ["er = " + " + ".join(f"h{j} * k{j}r" for j in weights),
             "err = er if er >= 0.0 else -er",
             "if err > tol:",
             "    fac = 0.9 * (tol / err) ** 0.2",
             "    h = hs * (fac if fac > 0.2 else 0.2)",
             "    rejected = True",
             "    continue",
             *(f"{y} = {y}5" for y in state),
             *(f"k1{k} = k7{k}" for k in stage),
             "phi = end if last else phi + hs",
             "if r < r_min or r > r_max:",
             "    " + done.format(1),
             # a clipped step keeps h: the arc's end, not the error, set
             # its length; right after a rejection h may not grow
             "if not last:",
             "    fac = 0.9 * (tol / err) ** 0.2 if err > 0.0 else 5.0",
             "    if fac > 5.0:",
             "        fac = 5.0",
             "    if rejected and fac > 1.0:",
             "        fac = 1.0",
             "    h = hs * fac",
             "rejected = False",
             *at_point]
    src = [f"def arc(p, q, phi, end, h, steps, max_steps, rk_tol, r_min, "
           f"r_max, {', '.join(state)}, cos=cos, sin=sin):",
           unpack_p, unpack_q,
           *_stage(1, "r", "phi", p, q, tangent),
           *at_point,
           "rejected = False",
           "while phi < end:",
           *("    " + line for line in body),
           done.format(0)]
    return compile_source("arc", src, {"cos": math.cos, "sin": math.sin,
                                       "_NonTransversal": _NonTransversal})


def _attempt(p, q, tangent):
    """Source lines of one Dormand-Prince step of length hs from phi and
    the state r, t (and v), stage 1 in k1r, k1t (and k1f, k1v), on the
    field's locals ``p`` and ``q``: the end point in r5, t5 (and v5) and
    stage 7 in k7r, k7t (and k7f).  Stage i is y + (h*a_i1)*k1 +
    (h*a_i2)*k2 + ... summed left to right."""
    state = ("r", "t", "v") if tangent else ("r", "t")
    src = []
    for i, (row, node) in enumerate(zip(_A[1:], _C + (1.0,)), start=2):
        weights = [j for j, a in enumerate(row, start=1) if a != 0.0]
        src += [f"h{j} = hs * {row[j - 1]!r}" for j in weights]
        # stages 2 to 6 need their r (and v); stage 7, the step's end
        # point, sums t as well
        out = "5" if i == 7 else "s"
        for y in state if i == 7 else [y for y in state if y != "t"]:
            src.append(f"{y}{out} = {y}" + "".join(
                f" + h{j} * k{j}{y}" for j in weights))
        # c6 = c7 = 1: stage 6 sits at phi + hs, which phi + 1.0*hs is
        # exactly, and stage 7 reuses its cos and sin
        if i < 7:
            src.append("ph = phi + hs" if node == 1.0
                       else f"ph = phi + {node!r} * hs")
        src += _stage(i, f"r{out}", "ph" if i < 7 else None, p, q, tangent)
        if tangent and i < 7:
            src.append(f"k{i}v = k{i}f * vs")
    return src


def _stage(i, rs, ph, p, q, tangent):
    """Source lines of the field on the locals ``p`` and ``q`` at radius
    {rs} and angle {ph}: k{i}r = dr/dphi and k{i}t = dt/dphi, with
    ``tangent`` also k{i}f = F_r.  They raise _NonTransversal where the
    angular speed is below the guard.  With ph None they reuse the cos and
    sin in c and s.  a = qa - r s pa is -r s pa + qa bit for bit, signed
    zeros included: negation is exact and x - y is x + (-y)."""
    src = [] if ph is None else [f"c = cos({ph})", f"s = sin({ph})"]
    src.append(f"x = {rs} * c")
    for y, names in (("p", p), ("q", q)):
        src += (horner_deriv_source(f"{y}a", f"{y}d", names, "x") if tangent
                else horner_source(f"{y}a", names, "x"))
    src += [f"a = qa - {rs} * s * pa",
            f"w = {rs} + c * a",
            f"if not ({rs} > 0.0 and w > {_TRANSVERSAL_GUARD!r} * {rs}):",
            "    raise _NonTransversal",
            f"k{i}t = {rs} / w",
            f"k{i}r = s * a * k{i}t"]
    if tangent:
        # d(s a r / w)/dr with w = r + c a is s (a_r r^2 + c a^2) / w^2,
        # where a_r = da/dr = c q' - s (p + x p'), x moving with r by c
        src += ["g = a / w",
                f"k{i}f = s * ((c * qd - s * (pa + x * pd)) * k{i}t * k{i}t"
                " + c * g * g)"]
    return src


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
    else is the plain return's, bit for bit.  Each of the two arcs runs in
    the function ``_arc`` generates for the shape of p and q, with the
    step size and the step count carried across the switch.
    ``event_tol`` is unused: the arcs end on their lines without event
    location.  The slot stays because perfbench's ``kernel_rows`` calls
    this entry with all 15 arguments by position.
    """
    if mode not in (0, 1):
        raise ValueError(f"unknown field mode {mode}")
    p, q = fold(fa0, fa1, fb0, fb1, fc, lam, eps)
    status, phi, y, crossings = _arcs(
        mode, p, q, float(x0 if mode == 0 else y0), rk_tol,
        max_steps, r_min, r_max, tangent)
    r, t = y[:2]
    # a return ends on its line, every other status at the point (r, phi)
    point = (crossings[-1][1:3] if status == 0
             else (r * math.cos(phi), -r * math.sin(phi)))
    return (status, *point, t, crossings, *y[2:])


def _arcs(mode, p, q, r, rk_tol, max_steps, r_min, r_max, tangent):
    """The two arcs of a return from radius r on fold's p and q; returns
    (status, phi, y, crossings) with y the last accepted state: r, t and
    with ``tangent`` v."""
    if mode == 0:
        phi, side = 0.0, -1.0
    else:
        phi, side = -0.5 * math.pi, 1.0
    y = (r, 0.0, 1.0) if tangent else (r, 0.0)
    crossings = []
    h = _H_START
    steps = 0
    for sign in (-1.0, 1.0):
        qs = [side * c for c in q]
        try:
            status, phi, h, steps, *y = _arc(len(p), len(qs), tangent)(
                p, qs, phi, phi + math.pi, h, steps, max_steps, rk_tol,
                r_min, r_max, *y)
        except _NonTransversal:
            # stage 1 is at an accepted point: below the guard there, the
            # return ends
            return 3, phi, y, crossings
        if status:
            return status, phi, y, crossings
        # landed exactly on the line; the next arc has the other side
        side = -side
        r = sign * y[0]
        crossings.append((y[1], *((r, 0.0) if mode == 0 else (0.0, r)),
                          side))
    return 0, phi, y, crossings
