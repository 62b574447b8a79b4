"""Direct integration of the piecewise systems: return maps, displacement,
limit-cycle location and the finite-difference bifurcation increment.

The stepping loop lives in ``pwlienard._kernel_py``, which integrates a
return as two fixed arcs in the polar angle about the centre, one per side
of the switching line, with no event location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernel_py
from .algebra import poly_antideriv, polyval
from .errors import (EscapeAnnulus, MaxStepsExceeded, NonTransversalCrossing,
                     PwLienardError)
from .systems import Case, LienardSystem, check_params

# every return calls _kernel.integrate_return through this module attribute
# at call time, so that a tracer can swap in a wrapper
_kernel = _kernel_py

BACKEND = _kernel.BACKEND_NAME

MAX_STEPS = 2_000_000  # RK steps allowed for one return


@dataclass(frozen=True)
class SimConfig:
    lam: float = 0.0
    eps: float = 0.0
    rk_tol: float = 1e-10
    r_min: float = 1e-3
    r_max: float = 50.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 <= self.r_min < self.r_max < math.inf:
            raise ValueError("need 0 <= r_min < r_max < inf")
        check_params(self.lam, self.eps)
        if not 0 < self.rk_tol < math.inf:
            raise ValueError("rk_tol must be finite and positive")


@dataclass(frozen=True)
class CycleReport:
    section_coord: float
    h_star: float
    radius: float
    residual: float
    stability_slope: float
    side_sequence: tuple


@dataclass
class CycleScan:
    cycles: list = field(default_factory=list)
    non_isolated: bool = False
    grid: list = field(default_factory=list)
    displacements: list = field(default_factory=list)


def vector_field(sys: LienardSystem, state, side: float):
    """Right-hand side with sgn replaced by the supplied side value."""
    x, y = state
    fc = sys.float_coeffs()
    p, q = _kernel_py.fold(fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"],
                           sys.lam, sys.eps)
    return y, -x - y * polyval(p, x) - side * polyval(q, x)


def _return(fc: dict, lam: float, eps: float, mode: int, start: float,
            config: SimConfig):
    """One kernel return on the float vectors ``fc`` at parameters lam and
    eps from the section point at ``start`` on the x-axis (mode 0) or the
    y-axis (mode 1); returns (coord, time, crossings) with coord the end
    point's x resp. y.  ``config`` supplies the tolerance and annulus."""
    if not config.r_min < start < config.r_max:
        raise EscapeAnnulus(f"start {start} outside the annulus")
    x0, y0 = (start, 0.0) if mode == 0 else (0.0, start)
    # the 0.0 fills the kernel's unused event_tol slot
    status, x, y, t, crossings = _kernel.integrate_return(
        mode, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"],
        lam, eps, x0, y0, config.rk_tol, 0.0, MAX_STEPS,
        config.r_min, config.r_max)
    if status == 1:
        raise EscapeAnnulus(
            f"trajectory left [{config.r_min}, {config.r_max}] at t = {t:.4f}")
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
    """Grid scan for sign changes of the displacement, each refined by
    Illinois false position on its bracket; a grid point whose
    displacement is exactly 0 is a cycle as it stands."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    lo, hi = r_range
    if not lo < hi:
        raise ValueError(f"r_range needs lo < hi, got ({lo}, {hi})")
    scan = CycleScan()
    rs = [lo + (hi - lo) * i / (grid_n - 1) for i in range(grid_n)]
    ds = []
    for r in rs:
        try:
            ds.append(displacement(sys, r, config))
        except PwLienardError:
            ds.append(math.nan)
    scan.grid = rs
    scan.displacements = ds
    finite = [abs(d) for d in ds if not math.isnan(d)]
    if finite and max(finite) <= 1e-8 * max(1.0, hi):
        scan.non_isolated = True
        return scan
    for i, d0 in enumerate(ds):
        if d0 == 0.0:
            scan.cycles.append(_cycle_report(sys, rs[i], 0.0, config))
        # a NaN on either side makes the product NaN, which is not < 0
        elif i + 1 < grid_n and d0 * ds[i + 1] < 0:
            r_star, d_star = _refine_cycle(sys, rs[i], rs[i + 1], d0,
                                           ds[i + 1], config)
            scan.cycles.append(_cycle_report(sys, r_star, d_star, config))
    return scan


def _cycle_report(sys, r_star, d_star, config):
    return CycleReport(
        section_coord=r_star,
        h_star=0.5 * r_star * r_star,
        radius=r_star,
        residual=abs(d_star),
        stability_slope=_secant_slope(sys, r_star, config,
                                      1e-4 * max(1.0, r_star)),
        # the switching sides after each crossing of a completed return
        side_sequence=(1.0, -1.0) if sys.case is Case.SWITCH_Y
        else (-1.0, 1.0),
    )


def _refine_cycle(sys, r_lo, r_hi, d_lo, d_hi, config):
    """Illinois false position on the bracket (r_lo, r_hi), whose
    displacements d_lo and d_hi have opposite signs: when the same end is
    kept twice running, its displacement is halved, so neither end sticks.
    A point outside the open bracket falls back to the midpoint.  Returns
    the last point evaluated and its displacement."""
    kept = 0  # -1: r_lo was kept last time, +1: r_hi, 0: neither yet
    for _ in range(200):
        r = r_hi - d_hi * (r_hi - r_lo) / (d_hi - d_lo)
        if not r_lo < r < r_hi:
            r = 0.5 * (r_lo + r_hi)
        d = displacement(sys, r, config)
        if abs(d) <= 1e-9 * max(1.0, r) or r_hi - r_lo < 1e-13:
            break
        if (d_lo > 0) != (d > 0):
            r_hi, d_hi = r, d
            if kept < 0:
                d_lo *= 0.5
            kept = -1
        else:
            r_lo, d_lo = r, d
            if kept > 0:
                d_hi *= 0.5
            kept = 1
    return r, d


def _secant_slope(sys, r_star, config, delta):
    try:
        d_plus, d_minus = (displacement(sys, r, config)
                           for r in (r_star + delta, r_star - delta))
    except PwLienardError:
        return math.nan
    return (d_plus - d_minus) / (2.0 * delta)


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
