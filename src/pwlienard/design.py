"""Inverse design: place the positive zeros of M1 at requested energies.

Every exact coefficient is the inverse of a :mod:`pwlienard.melnikov`
factor times a target coefficient, and which monomials a shape can carry is
read from ``melnikov.support``; the designer re-derives no closed form.

Switch-on-y systems are designed exactly and triangularly.  Only a target
monomial beyond the ``b1`` channel needs ``c``, through the convolution
channel; then only ``c_{2*[n/2]}`` is nonzero, chosen so its ``c*`` image is
exactly 1, which makes those targets directly assignable through the odd
``b``-coefficients of g0.  Otherwise ``c`` stays zero, so g keeps no even
part that M1 does not use.

Switch-on-x systems couple the unknowns (odd f0 and odd g coefficients)
through a*_l + a^_l, so the odd-power block is solved numerically with a
damped Newton iteration.  Its residual is melnikov's own odd-block formula
evaluated in floats, and its exact Jacobian is that formula at unit vectors.
The even-power block stays exact.  The null vector of the target polynomial
and the Newton step share one small Gaussian elimination.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .algebra import RingElem
from .errors import InfeasibleShape, NoConvergence, TooManyTargets
from .melnikov import (_a_hat_factor, _a_tilde_factor, _b_star_factor,
                       _b_tilde_factor, _c_star_factor, _c_weight_factor,
                       _time_weight_factor, _x_odd_block, expand, support,
                       zero_bound)
from .systems import Case, LienardSystem

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200


def _check_targets(targets, case: Case, m: int, n: int):
    targets = sorted(float(t) for t in targets)
    if not all(0 < t < math.inf for t in targets):
        raise ValueError("targets must be finite positive energies")
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    bound = zero_bound(case, m, n, "M1")
    if len(targets) > bound:
        raise TooManyTargets(
            f"{len(targets)} targets exceed the bound {bound} for (m, n) = ({m}, {n})")
    return targets


def _product_s_poly(s_roots, lowest_power: int):
    """Exact coefficients of s^lowest * prod (s - s_i), via Fraction arithmetic."""
    coeffs = [Fraction(1)]
    for s in s_roots:
        sf = Fraction(s)  # exact binary expansion of the float sqrt
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] += c
            new[k] -= sf * c
        coeffs = new
    return {k + lowest_power: q for k, q in enumerate(coeffs) if q != 0}


def design_case_y(targets, m: int, n: int) -> LienardSystem:
    """Exact system whose M1 vanishes (simply) at each target energy."""
    targets = _check_targets(targets, Case.SWITCH_Y, m, n)
    half_n = n // 2
    a1 = [RingElem.zero()] * (m + 1)
    b0 = [RingElem.zero()] * (n + 1)
    b1 = [RingElem.zero()] * (n + 1)
    c = [RingElem.zero()] * (n + 1)
    if not targets:
        return LienardSystem.build(Case.SWITCH_Y, m, n, a1=a1, b0=b0, b1=b1, c=c)
    q_poly = _product_s_poly([math.sqrt(t) for t in targets], 1)
    outside = sorted(set(q_poly) - support(Case.SWITCH_Y, m, n, "M1"))
    if outside:
        raise InfeasibleShape(
            f"monomial s^{outside[0]} is outside the M1 support of the"
            f" (m, n) = ({m}, {n}) shape")
    for k, q in q_poly.items():
        coeff = RingElem.rational(q)
        if k % 2 == 0:
            i = k // 2 - 1  # h^(i+1) channel via a^(1)_{2i}
            a1[2 * i] = _a_tilde_factor(i, +1).invert_monomial() * coeff
        else:
            l = (k - 1) // 2  # h^(l+1/2) channel
            if l <= half_n:
                b1[2 * l] = _b_tilde_factor(l).invert_monomial() * coeff
            else:
                # convolution channel: b~_l = b*_{l - [n/2]} * c*_{[n/2]},
                # with c_{2*[n/2]} picked so that c*_{[n/2]} = 1 exactly
                c[2 * half_n] = _c_star_factor(half_n).invert_monomial()
                i = l - half_n
                b0[2 * i + 1] = _b_star_factor(i).invert_monomial() * coeff
    return LienardSystem.build(Case.SWITCH_Y, m, n, a1=a1, b0=b0, b1=b1, c=c)


# -- switch-on-x ---------------------------------------------------------------


def _solve(a, b):
    """x with a x = b by Gauss-Jordan elimination with partial pivoting, or
    None when a pivot is zero."""
    size = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for k in range(size):
        p = max(range(k, size), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for row in rows[:k] + rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], rows[k][k:])]
    return [row[size] / row[k] for k, row in enumerate(rows)]


def _null_space_poly(s_roots, exponents, near: int):
    """Coefficients (by exponent) of a poly on the allowed monomials vanishing
    at every target s: on the column-scaled Vandermonde-like matrix A, the
    null vector w - A^T (A A^T)^-1 A w nearest the unit vector w of s^near."""
    mat = [[s ** e for e in exponents] for s in s_roots]
    # column scaling for conditioning
    col = [max(column) or 1.0 for column in zip(*mat)]
    mat = [[x / c for x, c in zip(row, col)] for row in mat]
    j = exponents.index(near)
    gram = [[math.fsum(x * y for x, y in zip(r1, r2)) for r2 in mat]
            for r1 in mat]
    y = _solve(gram, [row[j] for row in mat])
    if y is None:
        raise NoConvergence("targets too close in sqrt(h) to separate")
    vec = [(float(i == j) - math.fsum(yi * row[i] for yi, row in zip(y, mat)))
           / c for i, c in enumerate(col)]
    top = max(vec, key=abs)
    return {e: v / top for e, v in zip(exponents, vec)}


def _newton_solve(fun, jac, u, scale):
    """Damped Newton from u: (root, residual), or (None, best residual)
    when it does not converge or meets a singular Jacobian.

    Within tolerance it steps on while the residual still falls: the
    tolerance bounds the odd-block residual, not |M1| at the targets."""
    best, best_u = math.inf, None
    for _ in range(NEWTON_MAX_ITER):
        r = fun(u)
        err = max(map(abs, r))
        if err < best:
            best, best_u = err, u
        elif best <= NEWTON_TOL * scale:
            break
        delta = _solve(jac(u), r)
        if delta is None:
            break
        # damped update; within tolerance a full step, which the next
        # residual accepts or rejects
        t = 1.0
        base = math.hypot(*r)
        while t > 1e-6 and best > NEWTON_TOL * scale:
            trial = [x - t * d for x, d in zip(u, delta)]
            if math.hypot(*fun(trial)) < base:
                break
            t *= 0.5
        u = [x - t * d for x, d in zip(u, delta)]
    if best <= NEWTON_TOL * scale:
        return best_u, best
    return None, best


def design_case_x(targets, m: int, n: int) -> LienardSystem:
    """System whose M1 vanishes at each target; odd block solved numerically."""
    targets = _check_targets(targets, Case.SWITCH_X, m, n)
    hm_odd = (m - 1) // 2
    a0 = [RingElem.zero()] * (m + 1)
    a1 = [RingElem.zero()] * (m + 1)
    c = [RingElem.zero()] * (n + 1)
    if not targets:
        return LienardSystem.build(Case.SWITCH_X, m, n, a0=a0, a1=a1, c=c)

    exponents = sorted(support(Case.SWITCH_X, m, n, "M1"))
    if len(targets) >= len(exponents):
        raise InfeasibleShape(
            f"{len(targets)} targets need more monomials than the (m, n) = "
            f"({m}, {n}) shape provides ({len(exponents)})")
    # The odd block is a^ * a + time_w * A C, A = sum a_odd[i] x^i and
    # C = sum c_weight[j] c_odd[j] x^j, C(0) fixed: odd targets led by x^hm_odd
    # split as A ~ x^hm_odd, C ~ C(0) (the initial guess), so lead with it.
    # For one target that lead is a double zero when its exponent is the
    # mean exponent; then lead with the nearest monomial that gives simple
    # zeros.
    s_roots = [math.sqrt(t) for t in targets]
    for near in sorted(exponents, key=lambda e: abs(e - 2 * hm_odd - 3)):
        coeff_by_exp = _null_space_poly(s_roots, exponents, near)
        slopes = [[e * v * s ** e for e, v in coeff_by_exp.items()]
                  for s in s_roots]
        if all(abs(math.fsum(d)) > 1e-12 * sum(map(abs, d)) for d in slopes):
            break
    # even exponents: exact linear inversion through a^(1)
    for e, v in coeff_by_exp.items():
        if e % 2 == 0:
            i = e // 2 - 1
            a1[2 * i] = _a_tilde_factor(i, -1).invert_monomial() \
                * RingElem.rational(v)

    # the odd exponents are 2l+3 for l = 0, 1, ..., in order
    odd_targets = [v for e, v in coeff_by_exp.items() if e % 2]
    scale = max(abs(v) for v in coeff_by_exp.values())

    if n == 0:
        # no time-weighted block: a^_l alone, exact linear inversion
        for l, target in enumerate(odd_targets):
            a0[2 * l + 1] = _a_hat_factor(l).invert_monomial() \
                * RingElem.rational(target)
        return LienardSystem.build(Case.SWITCH_X, m, n, a0=a0, a1=a1, c=c)

    n_t = (n - 1) // 2
    c_weight = [_c_weight_factor(j).to_float() for j in range(n_t + 1)]
    time_w = [_time_weight_factor(l).to_float()
              for l in range(len(odd_targets))]
    a_hat = [_a_hat_factor(l).to_float() for l in range(hm_odd + 1)]

    def split(u):
        # u holds the odd a0, then c_3, c_5, ... (c_1 is fixed to 1)
        return u[:hm_odd + 1], [1.0] + u[hm_odd + 1:]

    def fun(u):
        block = _x_odd_block(*split(u), c_weight, time_w, a_hat)
        return [block.get(l, 0.0) - t for l, t in enumerate(odd_targets)]

    # decoupled approximation: only the c_1 = 1, j = 0 convolution term
    guess = [t / (2.0 * w) for t, w in zip(odd_targets[:hm_odd + 1], time_w)] \
        + [0.1] * n_t
    best_err = math.inf
    for attempt in range(8):
        rng = random.Random(attempt)
        u0 = [u * rng.uniform(0.25, 2.0) * rng.choice((-1.0, 1.0))
              for u in guess] if attempt else guess
        solution, err = _newton_solve(
            fun, lambda u: _odd_jacobian(*split(u), c_weight, time_w, a_hat),
            u0, scale)
        if solution is not None:
            break
        best_err = min(best_err, err)
    else:
        raise NoConvergence(
            f"odd-block Newton failed after {NEWTON_MAX_ITER} iterations x 8 starts",
            best_residual=best_err)
    exact = [RingElem.rational(v) for v in solution]
    a0[1::2] = exact[:hm_odd + 1]
    c[1::2] = [RingElem.one()] + exact[hm_odd + 1:]
    return LienardSystem.build(Case.SWITCH_X, m, n, a0=a0, a1=a1, c=c)


def _odd_jacobian(a_odd, c_odd, c_weight, time_w, a_hat):
    """Rows d(block_l)/d(a_odd, c_odd[1:]) of ``_x_odd_block`` (c_1 is fixed).

    The block is a^ * a plus a term bilinear in (a, c), so the column of a_i
    is the block at a = e_i, and the column of c_j the block at c = e_j
    without the a^ term."""
    eye = [[float(i == j) for i in range(len(time_w))]
           for j in range(len(time_w))]
    cols = [_x_odd_block(e[:len(a_odd)], c_odd, c_weight, time_w, a_hat)
            for e in eye[:len(a_odd)]]
    cols += [_x_odd_block(a_odd, e[:len(c_odd)], c_weight, time_w, ())
             for e in eye[1:len(c_odd)]]
    return [[col.get(l, 0.0) for col in cols] for l in range(len(time_w))]


def verify_design(sys: LienardSystem, targets):
    """Residuals |M1(t)| at each target, against the polynomial scale."""
    m1 = expand(sys).m1
    scale = max((abs(c.to_float()) for c in m1.coeffs.values()), default=1.0)
    residuals = [abs(m1.eval(t)) for t in targets]
    ok = all(r <= NEWTON_TOL * scale * max(1.0, t) ** (
        (m1.degree_key() or 0) / 2) for r, t in zip(residuals, targets))
    return ok, residuals, m1
