"""Direct integration of the piecewise systems: return maps, displacement,
limit-cycle location and the finite-difference bifurcation increment.

The stepping loop lives in ``pwlienard._kernel_py``, which integrates a
return as two fixed arcs in the polar angle about the centre, one per side
of the switching line, with no event location.

Cycles are the roots of a Chebyshev proxy of the displacement d(r): d is
a low-degree polynomial plus integration noise, so a few Chebyshev-Lobatto
nodes capture it (Trefethen, Approximation Theory and Approximation
Practice, 2013; Boyd, Solving Transcendental Equations, 2014).  Each node
is a tangent return, which gives d' = dr/dr0 - 1 beside d (the variational
equation; Hairer, Norsett & Wanner, Solving ODEs I, I.14), so n + 1 nodes
fix a Hermite proxy of degree 2n + 1.  Its Bernstein coefficients guide
``roots``' isolator, the one that serves M0 and M1, to its roots with no
further return, and each root costs one plain polish return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

from . import _kernel_py
from .algebra import poly_antideriv, polyval
from .errors import (EscapeAnnulus, MaxStepsExceeded, NonTransversalCrossing,
                     PwLienardError)
from .roots import chebyshev_bernstein, refined_roots
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
    lam: float | None = None  # None: the system's
    eps: float | None = None
    rk_tol: float = 1e-10

    def __post_init__(self):
        # written so that NaN fails every check
        check_params(*(0.0 if v is None else v for v in (self.lam, self.eps)))
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
            config: SimConfig, tangent: bool = False):
    """One kernel return on the float vectors ``fc`` at parameters lam and
    eps from the section point at ``start`` on the x-axis (mode 0) or the
    y-axis (mode 1); returns (coord, time, crossings) with coord the end
    point's x resp. y, and with ``tangent`` also d coord / d start.
    ``config`` supplies the tolerance."""
    if not R_MIN < start < R_MAX:
        raise EscapeAnnulus(f"start {start} outside the annulus")
    x0, y0 = (start, 0.0) if mode == 0 else (0.0, start)
    # the 0.0 fills the kernel's unused event_tol slot
    args = (mode, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"],
            lam, eps, x0, y0, config.rk_tol, 0.0, MAX_STEPS, R_MIN, R_MAX)
    status, x, y, t, crossings, *v = _kernel.integrate_return(
        *args, tangent=tangent)
    if status == 1:
        raise EscapeAnnulus(f"trajectory left [{R_MIN}, {R_MAX}] at t = {t:.4f}")
    if status == 2:
        raise MaxStepsExceeded(f"no return after {MAX_STEPS} steps")
    if status == 3:
        raise NonTransversalCrossing(
            f"angular speed below guard at t = {t:.4f}")
    if status != 0:
        raise PwLienardError(f"kernel returned unknown status {status}")
    return (x if mode == 0 else y, t, crossings, *v)


def advance_to_section(sys: LienardSystem, start: float, config: SimConfig,
                       tangent: bool = False):
    """One full return from the section; returns (coord, time, crossings),
    and with ``tangent`` (coord, time, crossings, d coord / d start).

    The section is {y = 0, x > 0} for switch-on-y systems and
    {x = 0, y > 0} for switch-on-x systems; ``start`` is the positive
    section coordinate (x resp. y).  Every return of a scan goes through
    this module attribute.  The config's lam and eps apply, 0 included;
    where one is None, the system's does.
    """
    mode = 0 if sys.case is Case.SWITCH_Y else 1
    lam = sys.lam if config.lam is None else config.lam
    eps = sys.eps if config.eps is None else config.eps
    return _return(sys.float_coeffs(), lam, eps, mode, start, config,
                   tangent)


def displacement(sys: LienardSystem, r: float, config: SimConfig) -> float:
    """d(r) = return coordinate minus r; zeros correspond to periodic orbits."""
    return advance_to_section(sys, r, config)[0] - r


def find_cycles(sys: LienardSystem, r_range, budget: int,
                config: SimConfig) -> CycleScan:
    """Cycles on ``r_range`` from a Chebyshev proxy of the displacement.

    d and d' are sampled at Chebyshev-Lobatto radii, one tangent return
    each, 5 first, and n + 1 nodes fix the Hermite proxy of degree 2n + 1
    through both (``_hermite_coeffs``).  The node count doubles, reusing
    every node, while one of the proxy's last three coefficients lies
    above the noise floor ``10 * rk_tol * (1 + hi)`` and the new nodes fit
    in ``budget``, the most node returns the scan takes.  The proxy's roots,
    chopped at the floor, are its cycles; each costs one more, plain,
    return at the root, the residual, and one Newton step with the proxy's
    slope.  A failed return keeps NaN at its node, and the proxy is fitted
    again on each run of finite nodes on either side of it, within what is
    left of the budget.  A proxy with every coefficient at the floor is
    non-isolated: a period annulus.
    """
    if budget < 2:
        raise ValueError(f"budget must be at least 2 returns, got {budget}")
    lo, hi = r_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"r_range needs finite lo < hi, got ({lo}, {hi})")
    # the coefficient plateau of integration noise in d, about 1e-10 to
    # 6e-10 at rk_tol 1e-10 on r <= 3.4, lies below this floor
    floor = 10.0 * config.rk_tol * (1.0 + hi)
    values = {}  # node radius -> (d, d'), NaN where the return failed

    def fits(a, b, n):  # the new nodes of level n within the budget
        new = sum(r not in values for r in _nodes(a, b, n))
        return new <= budget - len(values)

    pieces, proxies = [(lo, hi)], []
    while pieces:
        a, b = pieces.pop()
        n = 4
        while n > 1 and not fits(a, b, n):
            n //= 2
        while True:
            rs = _nodes(a, b, n)
            for r in rs:
                if r not in values:
                    try:
                        coord, _t, _c, v = advance_to_section(
                            sys, r, config, tangent=True)
                        values[r] = coord - r, v - 1.0
                    except PwLienardError:
                        values[r] = math.nan, math.nan
            ds = [values[r][0] for r in rs]
            if any(math.isnan(d) for d in ds):
                # each run of two or more finite nodes becomes a piece
                runs = [[r for r, _d in run] for failed, run in
                        groupby(zip(rs, ds), key=lambda p: math.isnan(p[1]))
                        if not failed]
                pieces += [(run[-1], run[0]) for run in runs if len(run) > 1]
                break
            # d' in x = (2r - a - b)/(b - a) on [-1, 1]
            slopes = [0.5 * (b - a) * values[r][1] for r in rs]
            coeffs = _hermite_coeffs(ds, slopes)
            if (max(abs(c) for c in coeffs[-3:]) <= floor
                    or not fits(a, b, 2 * n)):
                while coeffs and abs(coeffs[-1]) <= floor:
                    coeffs = coeffs[:-1]
                proxies.append((a, b, coeffs))
                break
            n *= 2
    scan = CycleScan()
    scan.grid = sorted(values)
    scan.displacements = [values[r][0] for r in scan.grid]
    scan.non_isolated = bool(proxies) and not any(c for _a, _b, c in proxies)
    for a, b, coeffs in proxies:
        for r_star, slope in _proxy_roots(coeffs, a, b):
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


def _hermite_coeffs(ds, slopes):
    """Coefficients of the degree-(2n+1) sum c_j T_j(x) with values ds and
    slopes at the Lobatto points x_k = cos(pi k / n): p = L + omega M, with
    L through the values and omega = (T_{n+1} - T_{n-1})/2, which vanishes
    at every node.  So p' = L' + omega' M there, and M goes through
    (slope_k - L'(x_k)) / omega'(x_k), where omega'(x_k) = (-1)^k n,
    doubled at both ends.  By T_m T_j = (T_{m+j} + T_{|m-j|})/2, omega M is
    M's coefficients shifted by n + 1 and by n - 1, each with its
    reflection at 0."""
    n = len(ds) - 1
    low = _chebyshev_coeffs(ds)
    dlow = _chebyshev_deriv(low)
    ms = []
    for k, slope in enumerate(slopes):
        x = math.cos(math.pi * k / n)
        w = (-1.0) ** k * n * (2.0 if k in (0, n) else 1.0)
        ms.append((slope - _clenshaw(dlow, x)) / w)
    out = low + [0.0] * (n + 1)
    for j, m in enumerate(_chebyshev_coeffs(ms)):
        for shift, sign in ((n + 1, 0.25), (n - 1, -0.25)):
            out[shift + j] += sign * m
            out[abs(shift - j)] += sign * m
    return out


def _chebyshev_deriv(coeffs):
    """Chebyshev coefficients of (sum c_j T_j)', by the recurrence
    c'_{j-1} = c'_{j+1} + 2 j c_j."""
    n = len(coeffs) - 1
    out = [0.0] * (n + 2)
    for j in range(n, 0, -1):
        out[j - 1] = out[j + 1] + 2.0 * j * coeffs[j]
    out[0] *= 0.5
    return out[:n]


def _clenshaw(coeffs, x):
    """sum c_j T_j(x) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for c in reversed(coeffs[1:]):
        b1, b2 = 2.0 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def _clenshaw_unit(coeffs, u):
    """``_clenshaw`` at x = 2u - 1, the map of u in [0, 1] onto [-1, 1]."""
    return _clenshaw(coeffs, 2.0 * u - 1.0)


def _proxy_roots(coeffs, a, b):
    """(r, slope) at each sign change of sum c_j T_j on [a, b].

    ``roots.refined_roots`` finds them in u, r = a + (b - a) u and x = 2u - 1,
    guided by the proxy's Bernstein coefficients, a well conditioned change
    of basis (Rababah, Comput. Methods Appl. Math. 3, 2003)."""
    if not coeffs:
        return []  # d lies within the floor throughout: no sign change
    deriv = _chebyshev_deriv(coeffs)
    return [(a + (b - a) * u, 2.0 * _clenshaw_unit(deriv, u) / (b - a))
            for _lo, _hi, u in refined_roots(
                partial(_clenshaw_unit, coeffs), chebyshev_bernstein(coeffs),
                0.0, 1.0)]


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
