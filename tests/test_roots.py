"""Certified positive-root isolation of half-power polynomials."""

import math
from fractions import Fraction

import pytest

from pwlienard import (Case, HalfPowerPoly, PrecisionLoss, RingElem,
                       ZeroPolynomial, design_case_y, expand,
                       isolate_positive_roots, load_preset)
from pwlienard.roots import CERT_SIMPLE, CERT_SUSPECT_EVEN


def int_poly(mapping):
    return HalfPowerPoly({k: RingElem.rational(v) for k, v in mapping.items()})


def test_example1_root_certification():
    exp = expand(load_preset("example1"))
    report = isolate_positive_roots(exp.m1, Case.SWITCH_Y, 3, 3, which="M1")
    assert report.certified_count() == 4
    assert report.theorem_bound == 4
    mids = [r.mid for r in report.h_roots]
    assert mids == pytest.approx([1.0, 4.0, 9.0, 16.0], abs=1e-9)
    for r in report.h_roots:
        assert r.certificate == CERT_SIMPLE
        assert r.hi - r.lo <= 1e-12
    assert not report.suspected


def test_root_on_bisection_point_kept():
    """s = 1.5 lands exactly on a subdivision point of the Cauchy interval;
    it must be reported like any other root."""
    sys_ = design_case_y([0.25, 2.25], 4, 2)
    report = isolate_positive_roots(expand(sys_).m1, Case.SWITCH_Y, 4, 2)
    assert report.certified_count() == 2
    mids = [r.mid for r in report.h_roots]
    assert mids == pytest.approx([0.25, 2.25], abs=1e-9)
    assert all(r.certificate == CERT_SIMPLE for r in report.h_roots)


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        isolate_positive_roots(HalfPowerPoly())


@pytest.mark.parametrize("top", [Fraction(10) ** -400, Fraction(10) ** 400],
                         ids=["underflow", "overflow"])
def test_top_coefficient_out_of_float_range(top):
    """-1 + 10^(+-400) h has its root at h = 10^(-+400), which no float
    holds: the top coefficient converts to 0.0 or overflows, and either is
    a loss of precision, not a division by zero or an overflow."""
    with pytest.raises(PrecisionLoss):
        isolate_positive_roots(int_poly({0: -1, 2: top}))


def test_origin_root_not_reported():
    # h^(1/2) * (h - 1): the factored s power must not yield a root at 0
    poly = int_poly({1: -1, 3: 1})
    report = isolate_positive_roots(poly)
    assert report.certified_count() == 1
    assert report.h_roots[0].mid == pytest.approx(1.0, abs=1e-10)


def test_even_multiplicity_flagged_not_certified():
    # Q(s) = (s - 1)^2 (s - 2) = s^3 - 4 s^2 + 5 s - 2
    poly = int_poly({0: -2, 1: 5, 2: -4, 3: 1})
    report = isolate_positive_roots(poly)
    assert report.certified_count() == 1
    assert math.sqrt(report.h_roots[0].mid) == pytest.approx(2.0, abs=1e-9)
    assert any(abs(r.mid - 1.0) < 1e-4 for r in report.suspected)
    assert all(r.certificate == CERT_SUSPECT_EVEN for r in report.suspected)


def test_descartes_bound_respected(rng):
    for _ in range(60):
        mapping = {k: rng.randrange(-9, 10) for k in range(rng.randrange(2, 12))}
        poly = int_poly(mapping)
        if poly.is_zero():
            continue
        report = isolate_positive_roots(poly)
        assert report.certified_count() <= report.descartes_bound
        # Descartes parity: the count and the bound differ by an even number
        assert (report.descartes_bound - report.certified_count()
                - 2 * len(report.suspected)) >= 0


def test_cross_check_against_numpy(rng):
    """Certified roots must coincide with numpy's real positive roots."""
    np = pytest.importorskip("numpy")
    for _ in range(40):
        mapping = {k: rng.randrange(-9, 10) for k in range(rng.randrange(3, 10))}
        poly = int_poly(mapping)
        if poly.is_zero() or poly.degree_key() == 0:
            continue
        coeffs = poly.to_s_poly()  # ascending in s
        np_roots = np.roots(list(reversed(coeffs)))
        separated = sorted(
            r.real for r in np_roots
            if abs(r.imag) < 1e-9 and r.real > 1e-7)
        # skip clustered configurations; certification only covers simple roots
        if any(b - a < 1e-5 for a, b in zip(separated, separated[1:])):
            continue
        report = isolate_positive_roots(poly)
        certified = [math.sqrt(r.mid) for r in report.h_roots
                     if r.certificate == CERT_SIMPLE]
        for s in certified:
            assert min(abs(s - t) for t in separated) < 1e-6
        # every simple numpy root with a clear sign change must be found
        for t in separated:
            lo, hi = t * (1 - 1e-4) - 1e-4, t * (1 + 1e-4) + 1e-4
            flo = np.polyval(list(reversed(coeffs)), lo)
            fhi = np.polyval(list(reversed(coeffs)), hi)
            if flo * fhi < 0:
                assert min(abs(s - t) for s in certified) < 1e-4


def test_interval_width_contract(rng):
    for _ in range(20):
        mapping = {k: rng.randrange(-9, 10) for k in range(rng.randrange(3, 9))}
        poly = int_poly(mapping)
        if poly.is_zero():
            continue
        report = isolate_positive_roots(poly)
        for r in report.h_roots:
            if r.certificate == CERT_SIMPLE:
                assert r.hi - r.lo <= 1e-10 * max(1.0, r.hi)


def test_bound_check_reports_slack():
    exp = expand(load_preset("example2"), project_odd=True)
    report = isolate_positive_roots(exp.m1, Case.SWITCH_X, 3, 3)
    assert report.theorem_bound == 4
    assert report.certified_count() == len(report.h_roots) == 2


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: float Descartes counts and bisection drop the triple "
    "root at s = 3/2 and place the one at s = 1 on lo == hi = 1.000008"))
@pytest.mark.parametrize("s_root", [Fraction(3, 2), Fraction(1)],
                         ids=["dropped", "mislocated"])
def test_triple_root_in_a_certified_interval(s_root):
    """Q(s) = s (s - a)^3 changes sign at a, so h = a^2 must lie in a
    certified interval."""
    a = s_root
    report = isolate_positive_roots(
        int_poly({1: -a ** 3, 2: 3 * a ** 2, 3: -3 * a, 4: 1}))
    h = float(a ** 2)
    assert any(r.lo <= h <= r.hi and r.certificate == CERT_SIMPLE
               for r in report.h_roots)
