"""Certified positive-root isolation of half-power polynomials."""

import math
from fractions import Fraction
from functools import partial

import pytest

from pwlienard import (PRESET_NAMES, Case, HalfPowerPoly, InfeasibleShape,
                       NoConvergence, OddnessViolated, PrecisionLoss,
                       RingElem, TooManyTargets, ZeroPolynomial, design_case_x,
                       design_case_y, expand, isolate_positive_roots,
                       load_preset, melnikov, roots, simulator)
from pwlienard.algebra import polyval
from pwlienard.roots import CERT_SIMPLE, CERT_SUSPECT_EVEN, REFINE_WIDTH


def int_poly(mapping):
    return HalfPowerPoly({k: RingElem.rational(v) for k, v in mapping.items()})


def test_example1_root_certification():
    exp = expand(load_preset("example1"))
    report = isolate_positive_roots(exp.m1, Case.SWITCH_Y, 3, 3, which="M1")
    assert report.certified_count() == 4
    assert report.theorem_bound == 4
    mids = [r.mid for r in report.h_roots]
    assert mids == pytest.approx([1.0, 4.0, 9.0, 16.0], abs=1e-9)
    for r, h in zip(report.h_roots, (1.0, 4.0, 9.0, 16.0)):
        assert r.lo <= h <= r.hi
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


def test_root_on_split_point_with_rounded_value_kept():
    """Q(s) = -(pi/3)(s^2 - 1)(s^2 - 2) has B = 4, so s = 1 is the end of
    the pieces (0, 1] and [1, 2], and Q(1) evaluates to a rounding residue,
    not 0.  Each piece's end Bernstein coefficients are Q's own values
    there, so the piece whose ends change sign counts an odd number of
    roots and keeps h = 1."""
    poly = HalfPowerPoly({0: RingElem.term(Fraction(-2, 3), p=1),
                          2: RingElem.term(1, p=1),
                          4: RingElem.term(Fraction(-1, 3), p=1)})
    report = isolate_positive_roots(poly)
    assert [r.mid for r in report.h_roots] == pytest.approx([1.0, 2.0],
                                                            abs=1e-9)
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


def counted_scans(monkeypatch):
    """A list that records each call to the Q' scan."""
    calls = []
    scan = roots._suspect_even_roots

    def counting(*args):
        calls.append(args)
        return scan(*args)
    monkeypatch.setattr(roots, "_suspect_even_roots", counting)
    return calls


@pytest.mark.parametrize("targets, m, n", [
    ([1.25, 1.75, 2.75, 4.25, 4.75, 5.25, 5.75], 6, 5),
    ([3.25, 3.75, 4.25, 4.75, 5.25], 7, 7),
], ids=["seven", "five"])
def test_no_even_scan_without_descartes_room(monkeypatch, targets, m, n):
    """Each designed M1 has as many sign variations as targets, and each
    target is a certified root, so Descartes' rule leaves no root to be
    even: the Q' scan is not run, and its three extrema, where |Q| is 6e-5
    in the first, are no suspects."""
    calls = counted_scans(monkeypatch)
    report = isolate_positive_roots(expand(design_case_y(targets, m, n)).m1)
    assert report.descartes_bound == report.certified_count() == len(targets)
    assert not report.suspected and not calls


def test_split_double_root_keeps_its_suspect(monkeypatch):
    """Q = (s^2 - 2)^2: rounding splits the double root at sqrt 2 into two
    certified sign changes, as many as the sign variations.  Being close,
    they still send Q' to the scan, which flags h = 2."""
    calls = counted_scans(monkeypatch)
    report = isolate_positive_roots(int_poly({0: 4, 2: -4, 4: 1}))
    assert report.descartes_bound == report.certified_count() == 2
    assert len(calls) == 1
    assert any(abs(r.mid - 2.0) < 1e-9 for r in report.suspected)


def test_odd_remainder_keeps_its_suspect(monkeypatch):
    """Q = (s - 13/5)^2: its float coefficients change sign once near the
    double root, so one root is certified against two sign variations.  An
    odd remainder breaks Descartes' parity, a sign of rounding noise, and
    the scan flags h = 6.76."""
    calls = counted_scans(monkeypatch)
    report = isolate_positive_roots(
        int_poly({0: Fraction(169, 25), 1: Fraction(-26, 5), 2: 1}))
    assert report.descartes_bound - report.certified_count() == 1
    assert len(calls) == 1
    assert any(abs(r.mid - 6.76) < 1e-9 for r in report.suspected)


DESIGN_SHAPES = {
    Case.SWITCH_Y: ((3, 3), (4, 3), (5, 5), (6, 5), (7, 7)),
    Case.SWITCH_X: ((3, 1), (4, 2), (5, 1), (5, 2), (6, 1), (7, 1)),
}


def test_no_suspect_where_descartes_leaves_no_room(rng):
    """A seeded audit of designed M1s: both designers, every target count
    up to the bound, distinct targets i/4.  Where the certified roots are
    as many as the sign variations and no two of them are close, no root
    can be even, so none is suspected."""
    audited = 0
    for _ in range(4):
        for case, shapes in DESIGN_SHAPES.items():
            designer = design_case_y if case is Case.SWITCH_Y else design_case_x
            for m, n in shapes:
                for k in range(1, melnikov.zero_bound(case, m, n, "M1") + 1):
                    targets = sorted(i / 4 for i in rng.sample(range(1, 25, 2), k))
                    try:
                        sys_ = designer(targets, m, n)
                    except (InfeasibleShape, NoConvergence, TooManyTargets):
                        continue
                    report = isolate_positive_roots(expand(sys_).m1)
                    s = [math.sqrt(r.mid) for r in report.h_roots]
                    if (report.descartes_bound == len(s)
                            and all(b - a >= roots._CLOSE_PAIR * max(1.0, b)
                                    for a, b in zip(s, s[1:]))):
                        assert not report.suspected, (case, m, n, targets)
                        audited += 1
    assert audited > 100


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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: float signs of Q near the close pair 3.29, 3.291 are "
    "rounding noise, and each of their sign changes is kept as a certified "
    "root: 2 894 certified roots against a Descartes bound of 12"))
def test_descartes_bound_respected_with_close_pairs():
    """Q = prod(s - r_i) over twelve simple roots, five pairs of them 1e-2
    to 1e-4 apart, has at most ``descartes_bound`` certified roots."""
    q = [Fraction(1)]
    for r in ("0.53", "2.16", "2.17", "2.59", "2.5901", "2.77", "3.16",
              "3.17", "3.29", "3.291", "4.14", "4.15"):
        q = [a - Fraction(r) * b for a, b in zip([0] + q, q + [0])]
    report = isolate_positive_roots(int_poly(dict(enumerate(q))))
    assert report.certified_count() <= report.descartes_bound


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
    "ROADMAP item 4: float Descartes counts in the Bernstein basis and "
    "ITP refinement place both triple roots on point intervals that miss "
    "them: s = 3/2 on h = 2.2500029 and s = 1 on h = 1.000008"))
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


# (lo, hi, mid) as float.hex and the certificate of each isolated root of
# every nonzero M0 and M1 of the presets; none has a suspected root.  The
# odd projection leaves example1 and example2 as they are, and the remark
# presets expand only with it.
PRESET_ROOTS = {
    "example1": {"M1": [
        ("0x1.ffffffffff8a8p-1", "0x1.00000000003acp+0",
         "0x1.0000000000000p+0", CERT_SIMPLE),
        ("0x1.ffffffffffd74p+1", "0x1.000000000014cp+2",
         "0x1.0000000000004p+2", CERT_SIMPLE),
        ("0x1.1ffffffffff3dp+3", "0x1.20000000000bap+3",
         "0x1.1fffffffffffcp+3", CERT_SIMPLE),
        ("0x1.fffffffffff70p+3", "0x1.0000000000040p+4",
         "0x1.ffffffffffff8p+3", CERT_SIMPLE)]},
    "example2": {"M1": [
        ("0x1.473af68962949p-2", "0x1.473af6896560fp-2",
         "0x1.473af68963fabp-2", CERT_SIMPLE),
        ("0x1.cabb05a3f2c7cp-2", "0x1.cabb05a3f5444p-2",
         "0x1.cabb05a3f4060p-2", CERT_SIMPLE)]},
    "remark-eqMM": {"M0": []},
    "remark-pw-cubic": {"M0": []},
    "remark-smooth-cubic": {"M0": [], "M1": []},
}


@pytest.mark.parametrize("project_odd", [False, True])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_isolator_bits_on_the_presets(name, project_odd):
    """Every interval of the presets to the bit, so that a change to the
    isolator shows each interval it moves."""
    if not project_odd and name.startswith("remark"):
        with pytest.raises(OddnessViolated):
            expand(load_preset(name))
        return
    exp = expand(load_preset(name), project_odd=project_odd)
    got = {}
    for which, poly in (("M0", exp.m0), ("M1", exp.m1)):
        if not poly.is_zero():
            report = isolate_positive_roots(poly)
            assert not report.suspected
            got[which] = [(r.lo.hex(), r.hi.hex(), r.mid.hex(), r.certificate)
                          for r in report.h_roots]
    assert got == PRESET_ROOTS[name]


def test_off_centre_split_carries_its_pieces():
    """Q = (s - 7/4)(s - 15/8)(s - 2) on (0, 4]: Q(2) is exactly 0, so the
    first split moves to 4 (sqrt 2 - 1) = 1.66, and the right piece must
    carry the Bernstein coefficients of [1.66, 4], which count all three
    roots, not those of [2, 4]."""
    coeffs = [-6.5625, 10.53125, -5.625, 1.0]
    found = roots.refined_roots(partial(polyval, coeffs),
                                roots._bernstein(coeffs, 4.0), 0.0, 4.0)
    assert [mid for _lo, _hi, mid in found] == pytest.approx(
        [1.75, 1.875, 2.0], abs=1e-12)


def rounding_bound(terms, n):
    """A bound on the float error of n + 1 roundings of sums of ``terms``."""
    return 4 * (n + 1) * 2.0 ** -52 * sum(abs(t) for t in terms)


@pytest.mark.parametrize("width", [1.0, 2.75], ids=["unit", "dyadic"])
def test_bernstein_coefficients_of_monomials(rng, width):
    """b_i = sum_k C(i, k) a_k width^k / C(n, k) on [0, width], to rounding
    of the exact coefficients of random integer polynomials."""
    for _ in range(60):
        n = rng.randrange(0, 14)
        coeffs = [float(rng.randrange(-9, 10)) for _ in range(n + 1)]
        got = roots._bernstein(coeffs, width)
        for i, b in enumerate(got):
            terms = [Fraction(math.comb(i, k), math.comb(n, k))
                     * Fraction(a) * Fraction(width) ** k
                     for k, a in enumerate(coeffs[:i + 1])]
            assert abs(Fraction(b) - sum(terms)) <= rounding_bound(terms, n)


@pytest.mark.parametrize("t", [0.5, roots._OFF_CENTRE],
                         ids=["half", "off-centre"])
def test_de_casteljau_split(rng, t):
    """The split pieces hold the exact de Casteljau coefficients to
    rounding, and their shared end coefficient is P(t)."""
    tq = Fraction(t)
    for _ in range(60):
        n = rng.randrange(0, 14)
        b = [float(rng.randrange(-9, 10)) for _ in range(n + 1)]
        left, right = roots._split(b, t)
        rows = [[Fraction(x) for x in b]]
        while len(rows[-1]) > 1:
            rows.append([(1 - tq) * x + tq * y
                         for x, y in zip(rows[-1], rows[-1][1:])])
        want = [r[0] for r in rows] + [r[-1] for r in reversed(rows)][1:]
        assert left[-1] == right[0]
        p_t = sum(Fraction(x) * math.comb(n, k) * tq ** k * (1 - tq) ** (n - k)
                  for k, x in enumerate(b))
        assert want[n] == p_t
        for g, w in zip(left + right[1:], want):
            assert abs(Fraction(g) - w) <= rounding_bound(b, n)


def isolating_intervals(f, b, lo, hi):
    """The (lo, hi, f(lo), f(hi)) that ``refined_roots`` refines."""
    out = []
    roots._isolate(f, list(b), lo, hi, f(lo), f(hi), out)
    return out


def random_refinements(rng, count):
    """(f, Bernstein coefficients, lo, hi) of seeded random polynomials on
    (0, B], B their Cauchy bound, and of Chebyshev proxies on [0, 1]: a
    third with integer coefficients, a third with planted roots, a third
    proxies."""
    for i in range(count):
        if i % 3 == 2:
            coeffs = [rng.gauss(0.0, 1.0) for _ in range(rng.randrange(2, 18))]
            yield (partial(simulator._clenshaw_unit, coeffs),
                   roots.chebyshev_bernstein(coeffs), 0.0, 1.0)
            continue
        if i % 3 == 0:
            coeffs = [float(rng.randrange(-9, 10))
                      for _ in range(rng.randrange(1, 13))] + [1.0]
        else:
            coeffs = [1.0]
            for _ in range(rng.randrange(1, 8)):
                r = rng.randrange(1, 400) / 64
                coeffs = [a - r * b for a, b in zip([0.0] + coeffs,
                                                    coeffs + [0.0])]
        bound = 1.0 + max(abs(c) for c in coeffs[:-1])
        yield (partial(polyval, coeffs), roots._bernstein(coeffs, bound),
               0.0, bound)


def test_refinement_contract(rng):
    """Each refined root is a strict sign change or a point interval at an
    exact zero, meets the width rule, and lies inside its isolating
    interval, with mid above the interval's lower end."""
    checked = 0
    for f, b, lo, hi in random_refinements(rng, 300):
        intervals = isolating_intervals(f, b, lo, hi)
        found = roots.refined_roots(f, b, lo, hi)
        assert len(found) == len(intervals)
        for (lo0, hi0, _flo, _fhi), (a, c, mid) in zip(intervals, found):
            assert lo0 <= a <= mid <= c <= hi0 and lo0 < mid
            assert (c - a) * max(1.0, c + a) <= REFINE_WIDTH
            if a == c:
                assert f(a) == 0.0
            else:
                fa, fc = f(a), f(c)
                assert fa != 0.0 and fc != 0.0 and (fa < 0.0) != (fc < 0.0)
            checked += 1
    assert checked > 300


def counted(f):
    """f and a list whose length is the number of calls made to it."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def bisection_steps(f, lo, hi):
    """The evaluations bisection makes inside (lo, hi) to the width rule."""
    flo, steps = f(lo), 0
    while (hi - lo) * max(1.0, hi + lo) > REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        steps += 1
        if fm == 0.0:
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return steps


def test_refinement_evaluations_per_root(rng):
    """Given f at the isolating interval's ends, the refinement takes at
    most 14 evaluations per root on average on the seeded pool, where
    bisection takes about 40."""
    evaluations = found = 0
    for f, b, lo, hi in random_refinements(rng, 300):
        for interval in isolating_intervals(f, b, lo, hi):
            g, calls = counted(f)
            roots._refine_root(g, *interval)
            evaluations += len(calls)
            found += 1
    assert found > 300
    assert evaluations / found <= 14


WORST_CASE_SHAPES = {
    "cube": lambda s, c: (s - c) ** 3,
    "fifteenth-power": lambda s, c: (s - c) ** 15,
    "step": lambda s, c: -1.0 if s < c else 1.0,
}


@pytest.mark.parametrize("shape", WORST_CASE_SHAPES)
@pytest.mark.parametrize("c", [1 / 3, 0.7, math.e])
@pytest.mark.parametrize("lo, hi", [(0.0, 4.0), (0.25, 3.0)])
def test_refinement_worst_case_is_bisection_plus_two(shape, c, lo, hi):
    """Where falsi points crawl, the projection keeps the refinement within
    two evaluations of bisection's count."""
    f = partial(WORST_CASE_SHAPES[shape], c=c)
    g, calls = counted(f)
    a, b, _mid = roots._refine_root(g, lo, hi, f(lo), f(hi))
    assert a <= c <= b and (b - a) * max(1.0, b + a) <= REFINE_WIDTH
    assert len(calls) <= bisection_steps(f, lo, hi) + 2
