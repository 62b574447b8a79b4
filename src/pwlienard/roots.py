"""Certified isolation of the positive zeros of half-power polynomials.

Roots are isolated in the substituted variable s = sqrt(h): the half-power
polynomial becomes an ordinary polynomial Q(s).  The lowest s-power is
factored out (so h = 0 is never reported), the search runs on (0, B] with B
a Cauchy bound, Descartes' rule reads the signs of Q's Bernstein
coefficients, de Casteljau splits them (Eigenwillig, Sharma & Yap, ISSAC
2006), and each isolated interval is refined by ITP, a projected regula
falsi that never takes more than two steps beyond bisection's count, and
certified by the sign change of Q itself.  Even-multiplicity candidates are
flagged, not certified.  They are sought among the extrema of Q only where
Descartes' rule leaves room for an even root: where the certified roots are
not exactly as many as the sign variations, or where two of them lie close
enough to be one even root that rounding split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate

from .algebra import HalfPowerPoly, polyval
from .errors import PrecisionLoss, ZeroPolynomial
from .melnikov import zero_bound
from .systems import Case

REFINE_WIDTH = 1e-12
# fallback split ratio when the midpoint is an exact zero; being irrational,
# it keeps the new split off the dyadic points where exact zeros occur
_OFF_CENTRE = math.sqrt(2.0) - 1.0
# ITP's n0: the steps a refinement may take beyond bisection's count
_ITP_SLACK = 2

# adjacent certified roots closer than this, relative to s, may be one even
# root whose rounding noise changes sign twice: in a seeded sweep of 2 841
# planted double roots of degree up to 11, rounding split them at most 1e-3
# apart, while distinct targets i/4 up to 6 lie 2e-2 or more apart
_CLOSE_PAIR = 3e-3

CERT_SIMPLE = "SimpleSignChange"
CERT_SUSPECT_EVEN = "SuspectedEvenMultiplicity"


def sign_variations(coeffs) -> int:
    signs = [c for c in coeffs if c != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _bernstein(coeffs, width: float):
    """Bernstein coefficients on [0, width] of sum a_k s^k (Pascal's rule)."""
    n = len(coeffs) - 1
    out, w = [], 1.0
    for k, a in enumerate(coeffs):
        out.append(a * w / math.comb(n, k))
        w *= width
    for i in range(n):
        out[i + 1:] = [a + b for a, b in zip(out[i + 1:], out[i:])]
    return out


@lru_cache(maxsize=None)
def _chebyshev_weights(n: int):
    """Column k: the k-th Bernstein coefficient of T_0..T_n(2u - 1) on [0, 1],
    from exact rows C(n, k) w_jk, polynomials P_j in z = u / (1 - u) with
    P_{j+1} = 2 (z - 1) P_j / (1 + z) - P_{j-1} and P_{-1} = P_1."""
    rows = [[math.comb(n, k) for k in range(n + 1)]]
    for j in range(n):
        quot = list(accumulate(rows[-1][:-1], lambda q, p: p - q))
        step = [a - b for a, b in zip([0] + quot, quot + [0])]
        rows.append([2 * a - b for a, b in zip(step, rows[-2])] if j else step)
    return tuple(tuple(row[k] / math.comb(n, k) for row in rows)
                 for k in range(n + 1))


def chebyshev_bernstein(coeffs):
    """Bernstein coefficients on u in [0, 1] of sum c_j T_j(2u - 1)."""
    return [sum(c * w for c, w in zip(coeffs, col))
            for col in _chebyshev_weights(len(coeffs) - 1)]


def _split(b, t: float):
    """de Casteljau at t: the Bernstein coefficients of both pieces."""
    rows, s = [b], 1.0 - t
    while len(rows[-1]) > 1:
        rows.append([s * x + t * y for x, y in zip(rows[-1], rows[-1][1:])])
    return [r[0] for r in rows], [r[-1] for r in reversed(rows)]


@dataclass(frozen=True)
class IsolatedRoot:
    lo: float
    hi: float
    mid: float
    certificate: str


@dataclass
class RootReport:
    """``h_roots`` and ``suspected`` are intervals in h."""

    h_roots: list = field(default_factory=list)
    suspected: list = field(default_factory=list)
    descartes_bound: int = 0
    theorem_bound: int | None = None

    def certified_count(self) -> int:
        return len(self.h_roots)


def _refine_root(f, lo: float, hi: float, flo: float, fhi: float):
    """(lo, hi, mid) of the sign change of f on (lo, hi), where f has the
    values flo and fhi, refined by ITP (Oliveira & Takahashi, ACM TOMS 47,
    2021).

    Each step moves the regula falsi point toward the midpoint by
    max(w^2 / w0, target / 3), the floor letting the far end move too, and
    projects it into a radius about the midpoint that halves every step.
    The new width is at most that radius, which starts at w0 2^(n0 - 1), so
    no root takes more than n0 steps beyond bisection's count."""
    w0 = hi - lo
    radius = w0 * 2.0 ** (_ITP_SLACK - 1)
    # target / 3 where the target is least, at hi
    floor = REFINE_WIDTH / (3.0 * max(1.0, 2.0 * hi))
    # tight target: both the s-interval and the induced h-interval stay
    # <= 1e-12; branches, not max() or copysign(), on this hot path
    while (w := hi - lo) * (hi + lo if hi + lo > 1.0 else 1.0) > REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution reached
        x = lo + w * flo / (flo - fhi)
        shift = w * w / w0
        if shift < floor:
            shift = floor
        reach = radius - 0.5 * w
        radius *= 0.5
        if x < mid:
            x += shift
            if x >= mid:
                x = mid
            elif x < mid - reach:
                x = mid - reach
        else:
            x -= shift
            if x <= mid:
                x = mid
            elif x > mid + reach:
                x = mid + reach
        if not lo < x < hi:
            x = mid
        fx = f(x)
        if fx == 0.0:
            lo = hi = x
            break
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return lo, hi, 0.5 * (lo + hi)


def _isolate(f, b, lo, hi, flo, fhi, out: list, depth: int = 0):
    """Descartes-guided subdivision of (lo, hi), where f has the values flo
    and fhi and the Bernstein coefficients b."""
    b[0], b[-1] = flo, fhi  # so the count's parity is the sign change's
    count = sign_variations(b)
    if count == 0:
        return
    # an isolated root, or past the depth or width limit an unresolved
    # cluster: recorded if it changes sign, else left for the even scan
    if (count == 1 and flo * fhi < 0 or depth > 60
            or hi - lo < 1e-9 * max(1.0, hi)):
        if flo * fhi < 0:
            out.append((lo, hi, flo, fhi))
        return
    t, mid = 0.5, 0.5 * (lo + hi)
    fmid = f(mid)
    if fmid == 0.0:
        # a root on the split point would be an endpoint of both halves,
        # where neither Descartes nor a sign change can see it
        t, mid = _OFF_CENTRE, lo + _OFF_CENTRE * (hi - lo)
        fmid = f(mid)
    left, right = _split(b, t)
    _isolate(f, left, lo, mid, flo, fmid, out, depth + 1)
    _isolate(f, right, mid, hi, fmid, fhi, out, depth + 1)


def refined_roots(f, b, lo: float, hi: float):
    """(lo, hi, mid) of f's sign changes on (lo, hi], isolated from f's
    Bernstein coefficients b there and refined by ``_refine_root``.  Only
    intervals whose ends differ in sign are kept, so a zero at lo itself is
    never one, and mid > lo.  Each (lo, hi) has ends of strictly opposite
    sign, or is a point at an exact zero, and lies in its isolating
    interval."""
    intervals: list = []
    _isolate(f, list(b), lo, hi, f(lo), f(hi), intervals)
    return [_refine_root(f, *interval) for interval in intervals]


def _strip_low_power(coeffs):
    k = 0
    while k < len(coeffs) and coeffs[k] == 0.0:
        k += 1
    return coeffs[k:]


def isolate_positive_roots(poly: HalfPowerPoly, case: Case | None = None,
                           m: int | None = None, n: int | None = None,
                           which: str = "M1") -> RootReport:
    """Isolate and certify the positive zeros of P(h) via Q(s), s = sqrt(h)."""
    if poly.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    # stripped, coeffs[0] is nonzero: a constant has no sign change and no root
    try:
        coeffs = _strip_low_power(poly.to_s_poly())
    except OverflowError:
        raise PrecisionLoss("a coefficient overflows a float") from None
    # the exact top coefficient is nonzero, so a zero there underflowed
    if not coeffs or coeffs[-1] == 0.0:
        raise PrecisionLoss("the top coefficient vanished in float conversion")
    scale = max(abs(c) for c in coeffs)
    bound = 1.0 + max((abs(c) for c in coeffs[:-1]),
                      default=0.0) / abs(coeffs[-1])
    if not (math.isfinite(scale) and math.isfinite(bound)):
        raise PrecisionLoss("coefficient conversion lost all significant digits")
    report = RootReport(descartes_bound=sign_variations(coeffs))
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    s_roots = []
    # partials, not lambdas: refinement makes most of the isolator's calls
    for lo, hi, mid in refined_roots(partial(polyval, coeffs),
                                     _bernstein(coeffs, bound), 0.0, bound):
        cert = CERT_SIMPLE if polyval(deriv, mid) != 0.0 else CERT_SUSPECT_EVEN
        s_roots.append(IsolatedRoot(lo, hi, mid, cert))
    s_roots.sort(key=lambda r: r.mid)
    # flag possible even-multiplicity roots: minima of |P| at zeros of P',
    # sought only where Descartes leaves room for one
    if _room_for_even_root(report.descartes_bound, s_roots):
        report.suspected = _suspect_even_roots(coeffs, deriv, bound,
                                              s_roots, scale)
    report.h_roots = [IsolatedRoot(r.lo ** 2, r.hi ** 2, r.mid ** 2,
                                   r.certificate) for r in s_roots]
    if case is not None and m is not None and n is not None:
        report.theorem_bound = zero_bound(case, m, n, which)
    return report


def _room_for_even_root(descartes_bound: int, certified) -> bool:
    """Whether Q may have an even-multiplicity root beside ``certified``
    (sorted by mid).  The sign variations exceed the roots counted with
    multiplicity by an even number, so where the certified sign changes are
    simple roots and as many as the variations, none is left to be even.
    Any other count leaves room, or shows that rounding noise made some
    sign changes; so do two changes close enough to be one even root that
    rounding split."""
    return (descartes_bound != len(certified)
            or any(b.mid - a.mid < _CLOSE_PAIR * max(1.0, b.mid)
                   for a, b in zip(certified, certified[1:])))


def _suspect_even_roots(coeffs, deriv, bound, certified, scale):
    """Even-multiplicity candidates as h-intervals; the search runs in s."""
    out = []
    for lo, hi, mid in refined_roots(partial(polyval, deriv),
                                     _bernstein(deriv, bound), 0.0, bound):
        if any(r.lo - 1e-9 <= mid <= r.hi + 1e-9 for r in certified):
            continue
        if abs(polyval(coeffs, mid)) <= 1e-8 * scale * max(1.0, mid) ** len(coeffs):
            out.append(IsolatedRoot(lo ** 2, hi ** 2, mid ** 2,
                                    CERT_SUSPECT_EVEN))
    return out
