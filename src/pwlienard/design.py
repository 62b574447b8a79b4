"""Inverse design: place the positive zeros of M1 at requested energies.

Every exact coefficient is the inverse of a :mod:`pwlienard.melnikov`
factor times a target coefficient; the designer re-derives no closed form.

Switch-on-y systems are designed exactly and triangularly, using the single
nonzero ``c`` monomial trick: only ``c_{2*[n/2]}`` is nonzero, chosen so its
``c*`` image is exactly 1, which makes the high-index convolution targets
directly assignable through the odd ``b``-coefficients of g0.

Switch-on-x systems couple the unknowns (odd f0 and odd g coefficients)
through a*_l + a^_l, so the odd-power block is solved numerically with a
damped Newton iteration on a finite-difference Jacobian; its residual is
melnikov's own odd-block formula evaluated in floats.  The even-power block
stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import RingElem
from .errors import InfeasibleShape, NoConvergence, TooManyTargets
from .melnikov import (_a_hat_factor, _a_tilde_factor, _b_star_factor,
                       _b_tilde_factor, _c_star_factor, _c_weight_factor,
                       _time_weight_factor, _x_odd_block, case_x_m1, case_y_m1,
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
    half_m, half_n = m // 2, n // 2
    a1 = [RingElem.zero()] * (m + 1)
    b0 = [RingElem.zero()] * (n + 1)
    b1 = [RingElem.zero()] * (n + 1)
    c = [RingElem.zero()] * (n + 1)
    if not targets:
        return LienardSystem.build(Case.SWITCH_Y, m, n, a1=a1, b0=b0, b1=b1, c=c)
    # pick c_{2*[n/2]} so that c*_{[n/2]} = 1 exactly
    c[2 * half_n] = _c_star_factor(half_n).invert_monomial()

    q_poly = _product_s_poly([math.sqrt(t) for t in targets], 1)
    for k, q in q_poly.items():
        coeff = RingElem.rational(q)
        if k % 2 == 0:
            i = k // 2 - 1  # h^(i+1) channel via a^(1)_{2i}
            if i < 0 or i > half_m:
                raise InfeasibleShape(
                    f"monomial s^{k} needs a^(1) index {i} beyond [m/2] = {half_m}")
            a1[2 * i] = _a_tilde_factor(i, +1).invert_monomial() * coeff
        else:
            l = (k - 1) // 2  # h^(l+1/2) channel
            if l <= half_n:
                b1[2 * l] = _b_tilde_factor(l).invert_monomial() * coeff
            else:
                # convolution channel: b~_l = b*_{l - [n/2]} * c*_{[n/2]}
                i = l - half_n
                if 2 * i + 1 > n:
                    raise InfeasibleShape(
                        f"monomial s^{k} needs g0 coefficient b0_{2 * i + 1}"
                        f" beyond n = {n}")
                b0[2 * i + 1] = _b_star_factor(i).invert_monomial() * coeff
    return LienardSystem.build(Case.SWITCH_Y, m, n, a1=a1, b0=b0, b1=b1, c=c)


# -- switch-on-x ---------------------------------------------------------------


def _allowed_exponents_x(m: int, n: int):
    # odd-power channels draw on a0 indices 2i+1 <= m and c indices 2j+1 <= n,
    # so for even m the top slot implied by the theorem bound does not exist
    half_m = m // 2
    hm_odd = (m - 1) // 2
    n_t = (n - 1) // 2 if n >= 1 else 0
    even = [2 * (l + 1) for l in range(half_m + 1)]
    odd = [2 * l + 3 for l in range(hm_odd + n_t + 1)] if m >= 1 else []
    return sorted(even + odd)


def _null_space_poly(s_roots, exponents):
    """Coefficients (by exponent) of a poly on the allowed monomials vanishing
    at every target s; least-singular-vector of the Vandermonde-like system."""
    mat = np.array([[s ** e for e in exponents] for s in s_roots], dtype=float)
    # column scaling for conditioning
    col = np.max(np.abs(mat), axis=0)
    col[col == 0] = 1.0
    _, _, vt = np.linalg.svd(mat / col)
    vec = vt[-1] / col
    vec /= np.max(np.abs(vec))
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return dict(zip(exponents, vec))


def _newton_solve(fun, u0, scale, max_iter=NEWTON_MAX_ITER):
    u = np.array(u0, dtype=float)
    best = (np.inf, u.copy())
    for _ in range(max_iter):
        r = fun(u)
        err = np.max(np.abs(r))
        if err < best[0]:
            best = (err, u.copy())
        if err <= NEWTON_TOL * scale:
            return u, err
        # finite-difference Jacobian
        jac = np.zeros((len(r), len(u)))
        for j in range(len(u)):
            step = 1e-7 * max(1.0, abs(u[j]))
            up = u.copy()
            up[j] += step
            jac[:, j] = (fun(up) - r) / step
        try:
            delta = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(jac, r, rcond=None)
        # damped update
        t = 1.0
        base = np.linalg.norm(r)
        while t > 1e-6:
            trial = u - t * delta
            if np.linalg.norm(fun(trial)) < base:
                break
            t *= 0.5
        u = u - t * delta
    return None, best[0]


def design_case_x(targets, m: int, n: int) -> LienardSystem:
    """System whose M1 vanishes at each target; odd block solved numerically."""
    targets = _check_targets(targets, Case.SWITCH_X, m, n)
    hm_odd = (m - 1) // 2
    a0 = [RingElem.zero()] * (m + 1)
    a1 = [RingElem.zero()] * (m + 1)
    c = [RingElem.zero()] * (n + 1)
    if not targets:
        return LienardSystem.build(Case.SWITCH_X, m, n, a0=a0, a1=a1, c=c)

    exponents = _allowed_exponents_x(m, n)
    if len(targets) >= len(exponents):
        raise InfeasibleShape(
            f"{len(targets)} targets need more monomials than the (m, n) = "
            f"({m}, {n}) shape provides ({len(exponents)})")
    s_roots = [math.sqrt(t) for t in targets]
    coeff_by_exp = _null_space_poly(s_roots, exponents)
    # even exponents: exact linear inversion through a^(1)
    for e, v in coeff_by_exp.items():
        if e % 2 == 0:
            i = e // 2 - 1
            a1[2 * i] = _a_tilde_factor(i, -1).invert_monomial() \
                * RingElem.from_float(float(v))

    # the odd exponents are 2l+3 for l = 0, 1, ..., in order
    odd_targets = [v for e, v in coeff_by_exp.items() if e % 2]
    scale = max(abs(v) for v in coeff_by_exp.values())

    if n == 0:
        # no time-weighted block: a^_l alone, exact linear inversion
        for l, target in enumerate(odd_targets):
            a0[2 * l + 1] = _a_hat_factor(l).invert_monomial() \
                * RingElem.from_float(float(target))
        return LienardSystem.build(Case.SWITCH_X, m, n, a0=a0, a1=a1, c=c)

    n_t = (n - 1) // 2
    c_weight = [_c_weight_factor(j).to_float() for j in range(n_t + 1)]
    time_w = [_time_weight_factor(l).to_float()
              for l in range(len(odd_targets))]
    a_hat = [_a_hat_factor(l).to_float() for l in range(hm_odd + 1)]

    def fun(u):
        # residual of the odd block; u holds the odd a0, then c_3, c_5, ...
        # (c_1 is fixed to 1)
        u = u.tolist()
        block = _x_odd_block(u[:hm_odd + 1], [1.0] + u[hm_odd + 1:],
                             c_weight, time_w, a_hat)
        return np.array([block.get(l, 0.0) - t
                         for l, t in enumerate(odd_targets)])

    best_err = np.inf
    solution = None
    for attempt in range(8):
        u0 = _initial_guess(m, n, odd_targets, time_w, attempt)
        u, err = _newton_solve(fun, u0, scale)
        if u is not None:
            solution = u
            break
        best_err = min(best_err, err)
    if solution is None:
        raise NoConvergence(
            f"odd-block Newton failed after {NEWTON_MAX_ITER} iterations x 8 starts",
            best_residual=best_err)
    exact = [RingElem.from_float(v) for v in solution.tolist()]
    a0[1::2] = exact[:hm_odd + 1]
    c[1::2] = [RingElem.one()] + exact[hm_odd + 1:]
    return LienardSystem.build(Case.SWITCH_X, m, n, a0=a0, a1=a1, c=c)


def _initial_guess(m, n, odd_targets, time_w, attempt):
    hm_odd = (m - 1) // 2
    n_t = (n - 1) // 2
    rng = np.random.default_rng(attempt)
    a_init = np.zeros(hm_odd + 1)
    for l in range(hm_odd + 1):
        target = odd_targets[l] if l < len(odd_targets) else 0.0
        # decoupled approximation: only the c_1 = 1, j = 0 convolution term
        a_init[l] = target / (2.0 * time_w[l])
    c_init = np.full(n_t, 0.1)
    u0 = np.concatenate((a_init, c_init))
    if attempt > 0:
        u0 = u0 * rng.uniform(0.25, 2.0, size=u0.shape) \
            * rng.choice([-1.0, 1.0], size=u0.shape)
    return u0


def verify_design(sys: LienardSystem, targets, rel_tol: float = NEWTON_TOL):
    """Residuals |M1(t)| at each target, against the polynomial scale."""
    m1 = case_y_m1(sys) if sys.case is Case.SWITCH_Y else case_x_m1(sys)
    scale = max((abs(c.to_float()) for c in m1.coeffs.values()), default=1.0)
    residuals = [abs(m1.eval(t)) for t in targets]
    ok = all(r <= rel_tol * scale * max(1.0, t) ** (
        (m1.degree_key() or 0) / 2) for r, t in zip(residuals, targets))
    return ok, residuals, m1
