"""Direct integration of the piecewise systems: return maps, displacement,
limit-cycle location and the finite-difference bifurcation increment.

The stepping loop lives in ``pwlienard._kernel_py``, which integrates a
return as two fixed arcs in the polar angle about the centre, one per side
of the switching line, with no event location.

Cycles are the roots of a Chebyshev proxy of the displacement d(r): d is
a low-degree polynomial plus integration noise, so a few Chebyshev-Lobatto
nodes capture it (Trefethen, Approximation Theory and Approximation
Practice, 2013; Boyd, Solving Transcendental Equations, 2014).  The roots
come from ``roots``' Descartes isolator with no further return, and each
costs one polish return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

from . import _kernel_py
from .algebra import poly_antideriv, polyval
from .errors import (EscapeAnnulus, MaxStepsExceeded, NonTransversalCrossing,
                     PwLienardError)
from .roots import _deriv, _refined_roots, _scale_to_unit
from .systems import Case, LienardSystem, check_params

# every return calls _kernel.integrate_return through this module attribute
# at call time, so that a tracer can swap in a wrapper
_kernel = _kernel_py

BACKEND = _kernel.BACKEND_NAME

MAX_STEPS = 2_000_000  # RK steps allowed for one return
# every return starts and stays strictly inside R_MIN < r < R_MAX
R_MIN = 1e-3
R_MAX = 50.0


@dataclass(frozen=True)
class SimConfig:
    lam: float = 0.0
    eps: float = 0.0
    rk_tol: float = 1e-10

    def __post_init__(self):
        # written so that NaN fails every check
        check_params(self.lam, self.eps)
        if not 0 < self.rk_tol < math.inf:
            raise ValueError("rk_tol must be finite and positive")


@dataclass(frozen=True)
class CycleReport:
    h_star: float
    radius: float
    residual: float
    stability_slope: float


@dataclass
class CycleScan:
    cycles: list = field(default_factory=list)
    non_isolated: bool = False
    grid: list = field(default_factory=list)
    displacements: list = field(default_factory=list)


def _return(fc: dict, lam: float, eps: float, mode: int, start: float,
            config: SimConfig):
    """One kernel return on the float vectors ``fc`` at parameters lam and
    eps from the section point at ``start`` on the x-axis (mode 0) or the
    y-axis (mode 1); returns (coord, time, crossings) with coord the end
    point's x resp. y.  ``config`` supplies the tolerance."""
    if not R_MIN < start < R_MAX:
        raise EscapeAnnulus(f"start {start} outside the annulus")
    x0, y0 = (start, 0.0) if mode == 0 else (0.0, start)
    # the 0.0 fills the kernel's unused event_tol slot
    status, x, y, t, crossings = _kernel.integrate_return(
        mode, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"],
        lam, eps, x0, y0, config.rk_tol, 0.0, MAX_STEPS,
        R_MIN, R_MAX)
    if status == 1:
        raise EscapeAnnulus(f"trajectory left [{R_MIN}, {R_MAX}] at t = {t:.4f}")
    if status == 2:
        raise MaxStepsExceeded(f"no return after {MAX_STEPS} steps")
    if status == 3:
        raise NonTransversalCrossing(
            f"angular speed below guard at t = {t:.4f}")
    if status != 0:
        raise PwLienardError(f"kernel returned unknown status {status}")
    return (x if mode == 0 else y), t, crossings


def advance_to_section(sys: LienardSystem, start: float, config: SimConfig):
    """One full return from the section; returns (coord, time, crossings).

    The section is {y = 0, x > 0} for switch-on-y systems and
    {x = 0, y > 0} for switch-on-x systems; ``start`` is the positive
    section coordinate (x resp. y).  Every return of a scan goes through
    this module attribute.  The config's lam and eps apply unless both are
    0, when the system's do.
    """
    mode = 0 if sys.case is Case.SWITCH_Y else 1
    lam, eps = ((config.lam, config.eps) if config.lam or config.eps
                else (sys.lam, sys.eps))
    return _return(sys.float_coeffs(), lam, eps, mode, start, config)


def displacement(sys: LienardSystem, r: float, config: SimConfig) -> float:
    """d(r) = return coordinate minus r; zeros correspond to periodic orbits."""
    return advance_to_section(sys, r, config)[0] - r


def find_cycles(sys: LienardSystem, r_range, grid_n: int,
                config: SimConfig) -> CycleScan:
    """Cycles on ``r_range`` from a Chebyshev proxy of the displacement.

    d is sampled at Chebyshev-Lobatto radii, 9 first; the node count
    doubles, reusing every node, while one of the last three coefficients
    lies above the noise floor ``10 * rk_tol * (1 + hi)`` and the new nodes
    fit in ``grid_n``, the scan's return budget.  The roots of the proxy,
    chopped at the floor, are its cycles; each costs one more return at the
    root, the residual, and one Newton step with the proxy's slope.  A
    failed return keeps NaN at its node, and the proxy is fitted again on
    each run of finite nodes on either side of it, within what is left of
    the budget.  A proxy with every coefficient at the floor is
    non-isolated: a period annulus.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    lo, hi = r_range
    if not lo < hi:
        raise ValueError(f"r_range needs lo < hi, got ({lo}, {hi})")
    # the coefficient plateau of integration noise in d, about 1e-10 to
    # 6e-10 at rk_tol 1e-10 on r <= 3.4, lies below this floor
    floor = 10.0 * config.rk_tol * (1.0 + hi)
    values = {}  # node radius -> displacement, NaN where the return failed

    def fits(a, b, n):  # the new nodes of level n within the budget
        new = sum(r not in values for r in _nodes(a, b, n))
        return new <= grid_n - len(values)

    pieces, proxies = [(lo, hi)], []
    while pieces:
        a, b = pieces.pop()
        n = 8
        while n > 1 and not fits(a, b, n):
            n //= 2
        while True:
            rs = _nodes(a, b, n)
            for r in rs:
                if r not in values:
                    try:
                        values[r] = displacement(sys, r, config)
                    except PwLienardError:
                        values[r] = math.nan
            ds = [values[r] for r in rs]
            if any(math.isnan(d) for d in ds):
                # each run of two or more finite nodes becomes a piece
                runs = [[r for r, _d in run] for failed, run in
                        groupby(zip(rs, ds), key=lambda p: math.isnan(p[1]))
                        if not failed]
                pieces += [(run[-1], run[0]) for run in runs if len(run) > 1]
                break
            coeffs = _chebyshev_coeffs(ds)
            if (max(abs(c) for c in coeffs[-3:]) <= floor
                    or not fits(a, b, 2 * n)):
                proxies.append((a, b, _chop(coeffs, floor)))
                break
            n *= 2
    scan = CycleScan()
    scan.grid = sorted(values)
    scan.displacements = [values[r] for r in scan.grid]
    scan.non_isolated = bool(proxies) and not any(c for _a, _b, c in proxies)
    for a, b, coeffs in proxies:
        for r_star, slope in _proxy_roots(coeffs, a, b, floor):
            scan.cycles.append(_cycle_report(sys, r_star, slope, config))
    scan.cycles.sort(key=lambda c: c.radius)
    return scan


def _nodes(a, b, n):
    """The n + 1 Chebyshev-Lobatto radii of [a, b], from b down to a; those
    of n are every other one of 2n, bit for bit."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return [b] + [mid + half * math.cos(math.pi * k / n)
                  for k in range(1, n)] + [a]


def _chebyshev_coeffs(ds):
    """Coefficients c_j of sum c_j T_j(x) through the values at the
    Lobatto points x_k = cos(pi k / n), by the type-I cosine transform."""
    n = len(ds) - 1
    w = [0.5 * ds[0]] + ds[1:-1] + [0.5 * ds[-1]]
    cos = [math.cos(math.pi * m / n) for m in range(2 * n)]
    coeffs = [2.0 / n * sum(wk * cos[j * k % (2 * n)]
                            for k, wk in enumerate(w))
              for j in range(n + 1)]
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


def _chop(coeffs, floor):
    """The coefficients up to the last one above the floor."""
    while coeffs and abs(coeffs[-1]) <= floor:
        coeffs = coeffs[:-1]
    return coeffs


def _clenshaw(coeffs, x):
    """sum c_j T_j(x) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for c in reversed(coeffs[1:]):
        b1, b2 = 2.0 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def _proxy_roots(coeffs, a, b, floor):
    """(r, slope) at each sign change of sum c_j T_j on [a, b].

    The roots come from ``roots._refined_roots`` on monomials in u, where
    r = a + (b - a) u maps [0, 1] onto [a, b].  Converting T_j to them
    amplifies rounding by up to T_j(3), so while that error could pass the
    floor, the proxy is re-expanded on each half of [a, b], where its
    coefficients fall faster."""
    if len(coeffs) > 2 and math.ulp(1.0) * (
            _clenshaw([abs(c) for c in coeffs], 3.0) - abs(coeffs[0])) > floor:
        out, mid, n = [], 0.5 * (a + b), len(coeffs) - 1
        for a2, b2 in ((a, mid), (mid, b)):
            local = [_clenshaw(coeffs, (2.0 * r - a - b) / (b - a))
                     for r in _nodes(a2, b2, n)]
            out += _proxy_roots(_chop(_chebyshev_coeffs(local), floor),
                                a2, b2, floor)
        return out
    mono = _scale_to_unit(_monomial_coeffs(coeffs), -1.0, 1.0)
    slope = _deriv(mono)
    return [(a + (b - a) * u, polyval(slope, u) / (b - a))
            for _lo, _hi, u in _refined_roots(mono, 1.0)]


def _monomial_coeffs(coeffs):
    """sum c_j T_j(x) as ascending coefficients in x, from
    T_{j+1} = 2 x T_j - T_{j-1} with T_{-1} = T_1 = x."""
    out = [0.0] * len(coeffs)
    prev, cur = [0.0, 1.0], [1.0]
    for c in coeffs:
        for i, v in enumerate(cur):
            out[i] += c * v
        nxt = [0.0] + [2.0 * v for v in cur]
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    return out


def _cycle_report(sys, r_star, slope, config):
    """One polish return at the proxy root r_star and one Newton step with
    the proxy's slope there."""
    try:
        d_star = displacement(sys, r_star, config)
    except PwLienardError:
        d_star = math.nan
    radius = (r_star - d_star / slope if slope and not math.isnan(d_star)
              else r_star)
    return CycleReport(h_star=0.5 * radius * radius, radius=radius,
                       residual=abs(d_star), stability_slope=slope)


def bifurcation_increment(sys: LienardSystem, h: float, lam: float,
                          eps: float, rk_tol: float = 1e-12) -> float:
    """H+(return) - H+(start) over one full return in Melnikov coordinates.

    In the swapped coordinates of a switch-on-y system, where both the
    switching line and the section are the y-axis and H+ = y^2/2 + lam*G(y),
    the flow x' = y + x*p(y) + sgn(x)*q(y), y' = -x becomes, with
    (u, v) = (y, -x), the mode-0 flow with p and q negated.  ``fold`` is
    linear, so the return runs mode 0 on the five vectors negated, from
    (a, 0), and its x is the swapped y.  Negation is exact, so this is the
    swapped-coordinate return bit for bit.  Switch-on-x systems integrate
    directly.  Each return is two fixed arcs in the polar angle (see
    ``_kernel_py``).
    """
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive")
    fc = sys.float_coeffs()
    big_g = poly_antideriv(fc["c"])
    config = SimConfig(lam=lam, eps=eps, rk_tol=rk_tol)
    if sys.case is Case.SWITCH_Y:
        # start ordinate a solves a^2/2 + lam*G(a) = h (Newton from sqrt(2h))
        a = math.sqrt(2.0 * h)
        for _ in range(60):
            f_val = 0.5 * a * a + lam * polyval(big_g, a) - h
            f_der = a + lam * polyval(fc["c"], a)
            step = f_val / f_der
            a -= step
            if abs(step) <= 1e-15 * max(1.0, a):
                break
        negated = {k: [-c for c in v] for k, v in fc.items()}
        u = _return(negated, lam, eps, 0, a, config)[0]
        return (0.5 * u * u + lam * polyval(big_g, u)) - h
    y = _return(fc, lam, eps, 1, math.sqrt(2.0 * h), config)[0]
    return 0.5 * y * y - h
