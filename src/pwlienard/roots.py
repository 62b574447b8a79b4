"""Certified isolation of the positive zeros of half-power polynomials.

Roots are isolated in the substituted variable s = sqrt(h): the half-power
polynomial becomes an ordinary polynomial Q(s).  The lowest s-power is
factored out (so h = 0 is never reported), the search runs on (0, B] with B
a Cauchy bound, subdivision is guided by Descartes' rule of signs, and each
isolated interval is refined by bisection and certified by its sign change.
Even-multiplicity candidates (no sign change) are flagged, not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import HalfPowerPoly, polyval
from .errors import PrecisionLoss, ZeroPolynomial
from .melnikov import zero_bound
from .systems import Case

REFINE_WIDTH = 1e-12
# fallback split ratio when the midpoint is an exact zero; being irrational,
# it keeps the new split off the dyadic points where exact zeros occur
_OFF_CENTRE = math.sqrt(2.0) - 1.0

CERT_SIMPLE = "SimpleSignChange"
CERT_SUSPECT_EVEN = "SuspectedEvenMultiplicity"


def _deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def sign_variations(coeffs) -> int:
    signs = [c for c in coeffs if c != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _descartes_count_01(coeffs) -> int:
    """Sign variations of (1+x)^n P(1/(1+x)): root-count bound of P on (0, 1)."""
    rev = list(reversed(coeffs))
    return sign_variations(_scale_to_unit(rev, 1.0, 2.0))  # rev(x + 1)


def _scale_to_unit(coeffs, lo: float, hi: float):
    """Coefficients of P(lo + (hi - lo) * x), mapping (0,1) onto (lo, hi)."""
    n = len(coeffs)
    out = list(coeffs)
    if lo != 0.0:
        # Taylor shift by lo via repeated synthetic division
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += lo * out[j + 1]
    width = hi - lo
    w = 1.0
    for k in range(n):
        out[k] *= w
        w *= width
    return out


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


def _bisect_root(coeffs, lo: float, hi: float):
    """Bisect (lo, hi), on which P changes sign as ``_isolate`` records it."""
    flo = polyval(coeffs, lo)
    # tight target: both the s-interval and the induced h-interval stay <= 1e-12
    while (hi - lo) * max(1.0, hi + lo) > REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution reached
        fm = polyval(coeffs, mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return lo, hi


def _isolate(coeffs, lo: float, hi: float, out: list, depth: int = 0):
    """Recursive Descartes-guided subdivision of (lo, hi)."""
    mapped = _scale_to_unit(coeffs, lo, hi)
    count = _descartes_count_01(mapped)
    if count == 0:
        return
    flo = polyval(coeffs, lo)
    fhi = polyval(coeffs, hi)
    if count == 1 and flo * fhi < 0:
        out.append((lo, hi))
        return
    if depth > 60 or hi - lo < 1e-9 * max(1.0, hi):
        # unresolved cluster: record as a sign-change interval if one exists,
        # otherwise leave it for the even-multiplicity scan
        if flo * fhi < 0:
            out.append((lo, hi))
        return
    mid = 0.5 * (lo + hi)
    if polyval(coeffs, mid) == 0.0:
        # a root on the split point would be an endpoint of both halves,
        # where neither Descartes nor a sign change can see it
        mid = lo + _OFF_CENTRE * (hi - lo)
    _isolate(coeffs, lo, mid, out, depth + 1)
    _isolate(coeffs, mid, hi, out, depth + 1)


def _refined_roots(coeffs, bound: float):
    """(lo, hi, mid) s-intervals of P's sign changes on (0, bound], bisected.

    ``_isolate`` records (lo, hi) only where P(lo) * P(hi) < 0, so P(lo) is
    nonzero even at lo = 0, and mid > 0."""
    intervals: list = []
    _isolate(coeffs, 0.0, bound, intervals)
    out = []
    for lo, hi in intervals:
        lo, hi = _bisect_root(coeffs, lo, hi)
        out.append((lo, hi, 0.5 * (lo + hi)))
    return out


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
    deriv = _deriv(coeffs)
    s_roots = []
    for lo, hi, mid in _refined_roots(coeffs, bound):
        cert = CERT_SIMPLE if polyval(deriv, mid) != 0.0 else CERT_SUSPECT_EVEN
        s_roots.append(IsolatedRoot(lo, hi, mid, cert))
    # flag possible even-multiplicity roots: minima of |P| at zeros of P'
    if len(deriv) > 1:
        report.suspected = _suspect_even_roots(coeffs, deriv, bound,
                                              s_roots, scale)
    s_roots.sort(key=lambda r: r.mid)
    report.h_roots = [IsolatedRoot(r.lo ** 2, r.hi ** 2, r.mid ** 2,
                                   r.certificate) for r in s_roots]
    if case is not None and m is not None and n is not None:
        report.theorem_bound = zero_bound(case, m, n, which)
    return report


def _suspect_even_roots(coeffs, deriv, bound, certified, scale):
    """Even-multiplicity candidates as h-intervals; the search runs in s."""
    out = []
    for lo, hi, mid in _refined_roots(deriv, bound):
        if any(r.lo - 1e-9 <= mid <= r.hi + 1e-9 for r in certified):
            continue
        if abs(polyval(coeffs, mid)) <= 1e-8 * scale * max(1.0, mid) ** len(coeffs):
            out.append(IsolatedRoot(lo ** 2, hi ** 2, mid ** 2,
                                    CERT_SUSPECT_EVEN))
    return out
