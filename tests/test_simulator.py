"""Direct integration: return maps, cycle location, kernel parity and the
dynamical cross-checks of the closed-form expansion."""

import math
from fractions import Fraction

import pytest

from pwlienard import (Case, EscapeAnnulus, LienardSystem, RingElem, SimConfig,
                       advance_to_section, displacement, expand, find_cycles,
                       load_preset, vector_field)
from pwlienard import fold_to_theorem_form, theorem_form_system
from pwlienard.melnikov import case_x_i2, case_x_i3, case_x_i_poly
from pwlienard import _kernel_py, simulator
from pwlienard.simulator import BACKEND, bifurcation_increment

INV_PI = RingElem.term(1, p=-1)


def two_cycle_system(lam=0.0, eps=0.0):
    """Switch-on-y system with M0 = 0 and M1 = h(h-1)(h-4): limit cycles
    near r = sqrt(2) and r = sqrt(8) for small parameters."""
    return LienardSystem.build(
        Case.SWITCH_Y, 4, 0,
        a1=[INV_PI * RingElem.rational(2), 0, INV_PI * RingElem.rational(-5),
            0, INV_PI],
        lam=lam, eps=eps)


class TestUnperturbed:
    @pytest.mark.parametrize("name,r", [("example1", 2.0), ("example2", 1.5)])
    def test_closed_orbits(self, name, r):
        sys_ = load_preset(name)
        config = SimConfig(rk_tol=1e-11)
        coord, t, crossings = advance_to_section(sys_, r, config)
        assert coord == pytest.approx(r, abs=1e-9)
        assert t == pytest.approx(2 * math.pi, abs=1e-7)
        assert len(crossings) == 2

    def test_energy_conserved_along_return(self):
        sys_ = load_preset("example1")
        coord, _t, _c = advance_to_section(sys_, 3.0, SimConfig(rk_tol=1e-12))
        assert 0.5 * coord ** 2 == pytest.approx(4.5, abs=1e-10)

    def test_non_isolated_annulus_flagged(self):
        scan = find_cycles(load_preset("example1"), (1.0, 2.0), 8, SimConfig())
        assert scan.non_isolated
        assert not scan.cycles


def assert_twins_agree(kernel_c, args, status):
    """Both kernels end with ``status`` at the same point, time and sides."""
    s_py, x_py, y_py, t_py, c_py = _kernel_py.integrate_return(*args)
    s_c, x_c, y_c, t_c, c_c = kernel_c.integrate_return(*args)
    assert s_py == s_c == status
    assert abs(x_py - x_c) + abs(y_py - y_c) <= 1e-13
    assert abs(t_py - t_c) <= 5e-12
    assert len(c_py) == len(c_c)
    assert [c[3] for c in c_py] == [c[3] for c in c_c]


PARITY_INPUTS = [
    (0, 2.0, 0.0, 2_000_000, 1e-3, 0),
    (1, 0.0, 1.5, 2_000_000, 1e-3, 0),
    (2, 0.0, 2.0, 2_000_000, 1e-3, 0),
    # the lam-drift spirals inward below r_min before the return
    (0, 2.0, 0.0, 2_000_000, 1.99, 1),
    (1, 0.0, 1.5, 40, 1e-3, 2),
    # the start point is (numerically) the origin: no transversal flow
    (0, 1e-10, 0.0, 2_000_000, 1e-12, 3),
]


def example1_args(mode, x0, y0, max_steps, r_min, rk_tol=1e-10):
    fc = load_preset("example1").float_coeffs()
    return (mode, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"],
            0.02, 4e-4, x0, y0, rk_tol, 1e-12, max_steps, r_min, 50.0)


def five_vector_args(mode, rk_tol=1e-10):
    """Five nonzero vectors of unequal lengths, p of degree 3 and q of
    degree 2: the twins pad the shorter vectors and fold them alike."""
    x0, y0 = (1.5, 0.0) if mode == 0 else (0.0, 1.5)
    return (mode, [0.0, 1.5, -0.4, 0.3], [0.7, -1.0], [0.9, 0.6],
            [-0.3, 1.1, 0.4], [0.0, 0.8],
            0.02, 4e-4, x0, y0, rk_tol, 1e-12, 2_000_000, 1e-3, 50.0)


class TestKernelParity:
    @pytest.mark.parametrize("mode,x0,y0,max_steps,r_min,status",
                             PARITY_INPUTS)
    def test_backends_agree(self, kernel_c, mode, x0, y0, max_steps, r_min,
                            status):
        assert_twins_agree(
            kernel_c, example1_args(mode, x0, y0, max_steps, r_min), status)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_backends_agree_five_vectors(self, kernel_c, mode):
        assert_twins_agree(kernel_c, five_vector_args(mode), 0)

    def test_backends_bitwise_equal(self, kernel_c):
        """Both twins take every norm as sqrt(x*x + y*y), so on every parity
        input they end at the same bits, not only within the bounds.  At
        rk_tol 1e-10 most crossings take one Newton landing step after the
        dense-output root; at 1e-12, the increments' tolerance, the root's
        own substep already lands within event_tol."""
        inputs = [example1_args(*row[:5]) for row in PARITY_INPUTS] \
            + [five_vector_args(mode) for mode in (0, 1, 2)] \
            + [example1_args(*row[:5], rk_tol=1e-12)
               for row in PARITY_INPUTS if row[5] == 0] \
            + [five_vector_args(mode, rk_tol=1e-12) for mode in (0, 1, 2)]
        for args in inputs:
            s_py, x_py, y_py, t_py, _c = _kernel_py.integrate_return(*args)
            s_c, x_c, y_c, t_c, _c = kernel_c.integrate_return(*args)
            assert (s_py, x_py.hex(), y_py.hex(), t_py.hex()) \
                == (s_c, x_c.hex(), y_c.hex(), t_c.hex()), args[0]

    def test_compiled_contract(self, kernel_c):
        assert kernel_c.BACKEND_NAME == "compiled"
        long_vec = [0.0] * 65
        with pytest.raises(ValueError, match="too long"):
            kernel_c.integrate_return(0, long_vec, [0.0], [0.0], [0.0], [0.0],
                                      0.0, 0.0, 1.0, 0.0, 1e-10, 1e-12, 100,
                                      1e-3, 50.0)

    def test_backend_name_known(self):
        assert BACKEND in ("compiled", "python")


def centre_args(mode, r, rk_tol):
    """lam = eps = 0: the linear centre x' = y, y' = -x in every mode, whose
    orbit through the section point r crosses the line at t = pi and
    returns at t = 2 pi."""
    x0, y0 = (r, 0.0) if mode == 0 else (0.0, r)
    return (mode, [1.0], [1.0], [1.0], [1.0], [1.0], 0.0, 0.0, x0, y0,
            rk_tol, 1e-12, 2_000_000, 1e-3, 50.0)


class TestEventLocation:
    @pytest.mark.parametrize("twin", ["python", "compiled"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("r", [0.5, 2.0, 6.0])
    @pytest.mark.parametrize("rk_tol", [1e-10, 1e-12])
    def test_centre_crossings_at_half_periods(self, request, twin, mode, r,
                                              rk_tol):
        """Each crossing lands at t = pi, k pi on the exact +-r section
        coordinate; what is left is the integration's global error."""
        kernel = _kernel_py if twin == "python" \
            else request.getfixturevalue("kernel_c")
        status, x, y, t, crossings = kernel.integrate_return(
            *centre_args(mode, r, rk_tol))
        assert status == 0
        assert len(crossings) == 2
        for k, (tk, xk, yk, _side) in enumerate(crossings, start=1):
            # mode 0 runs x = r cos t, y = -r sin t; modes 1 and 2 run
            # x = r sin t, y = r cos t
            coord, other = (xk, yk) if mode == 0 else (yk, xk)
            assert other == 0.0
            assert abs(tk - k * math.pi) <= 1e-8
            assert abs(coord - (-1) ** k * r) <= 1e-8
        assert (t, x, y) == crossings[-1][:3]


class TestKernelWork:
    @pytest.mark.parametrize("r,rk_tol,count", [
        (2.0, 1e-10, 971),
        (6.0, 1e-12, 2477),
    ])
    def test_field_evaluations_per_return(self, monkeypatch, r, rk_tol,
                                          count):
        """The two example1 returns of perfbench's kernel_fixed op take
        exactly this many field evaluations, 38 % (r = 2) and 26 % (r = 6)
        below the 1564 and 3335 of bisection location; FSAL, dense-output
        location and the carried step size make the difference.  An exact
        count also fails a step that stops calling the module-level field.
        The count depends on the arithmetic only, not on the machine."""
        calls = [0]
        field = _kernel_py._field

        def counted(*args):
            calls[0] += 1
            return field(*args)

        monkeypatch.setattr(_kernel_py, "_field", counted)
        status, *_ = _kernel_py.integrate_return(
            *example1_args(0, r, 0.0, 2_000_000, 1e-3, rk_tol=rk_tol))
        assert status == 0
        assert calls[0] == count


def tableau_step(mode, p, q, x, y, side, h, k1x, k1y):
    """The Dormand-Prince step as loops over _A and _E: the summation
    order the C twin uses."""
    kx, ky = [k1x], [k1y]
    for row in _kernel_py._A[1:]:
        xs, ys = x, y
        for a, kxj, kyj in zip(row, kx, ky):
            xs += (h * a) * kxj
            ys += (h * a) * kyj
        dx, dy = _kernel_py._field(mode, p, q, xs, ys, side)
        kx.append(dx)
        ky.append(dy)
    ex = ey = 0.0
    for e, kxj, kyj in zip(_kernel_py._E, kx, ky):
        ex += (h * e) * kxj
        ey += (h * e) * kyj
    return xs, ys, math.sqrt(ex * ex + ey * ey), kx, ky


class TestWrittenOutStep:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_step_matches_tableau_loops_bitwise(self, rng, mode):
        """_rk_step is written out stage by stage; it must sum in the
        tableau's order, or the twins drift apart in the last bit.  This
        holds it to that order where no C compiler is present."""
        p, q = _kernel_py.fold(*five_vector_args(mode)[1:8])
        for _ in range(300):
            x, y = rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)
            side = rng.choice((-1.0, 1.0))
            h = 10.0 ** rng.uniform(-8.0, 0.0)
            k1x, k1y = _kernel_py._field(mode, p, q, x, y, side)
            got = _kernel_py._rk_step(mode, p, q, x, y, side, h, k1x, k1y)
            want = tableau_step(mode, p, q, x, y, side, h, k1x, k1y)
            assert [v.hex() for v in got[:3]] == [v.hex() for v in want[:3]]
            assert [v.hex() for v in got[3] + got[4]] \
                == [v.hex() for v in want[3] + want[4]]


class TestVectorField:
    def test_swapped_coordinates_formula(self):
        """Mode 2, the switch-on-y path of bifurcation_increment: the
        polynomials act on y and the perturbation sits in x'."""
        a0, a1, b0 = [0.3, -1.2], [0.5, 0.7], [1.1, 0.4, -0.2]
        b1, c = [-0.6, 0.9, 0.8], [0.25, 1.5, -0.35]
        lam, eps, x, y, side = 0.1, 0.01, 0.7, -0.4, -1.0
        dx, dy = _kernel_py._field(
            2, *_kernel_py.fold(a0, a1, b0, b1, c, lam, eps), x, y, side)

        def at_y(coeffs):
            return sum(k * y ** i for i, k in enumerate(coeffs))

        expected = y + lam * side * at_y(c) + eps * (
            x * (at_y(a0) + lam * at_y(a1)) + side * (at_y(b0) + lam * at_y(b1)))
        assert dx == pytest.approx(expected, rel=1e-13)
        assert dy == -x

    def test_switch_on_y_formula(self):
        sys_ = LienardSystem.build(Case.SWITCH_Y, 1, 1, a0=[0, 2], b0=[0, 3],
                                   c=[1, 0], lam=0.1, eps=0.01)
        x, y = 0.7, -0.4
        dx, dy = vector_field(sys_, (x, y), side=-1.0)
        assert dx == pytest.approx(y)
        expected = -x - 0.1 * (-1.0) * 1.0 \
            - 0.01 * (y * 2 * x + (-1.0) * 3 * x)
        assert dy == pytest.approx(expected, rel=1e-14)

    def test_switch_on_x_formula(self):
        sys_ = LienardSystem.build(Case.SWITCH_X, 1, 0, a0=[0, 1], c=[2],
                                   lam=0.2, eps=0.05)
        x, y = -0.3, 0.9
        dx, dy = vector_field(sys_, (x, y), side=1.0)
        assert dx == pytest.approx(y)
        assert dy == pytest.approx(-x - 0.2 * 2 - 0.05 * (y * x), rel=1e-13)


class TestCycleDetection:
    def test_finds_designed_cycles(self):
        """Zeros of M1 at h = 1 and 4 must appear as limit cycles."""
        lam = 0.02
        sys_ = two_cycle_system()
        scan = find_cycles(sys_, (1.0, 3.4), 60,
                           SimConfig(lam=lam, eps=lam * lam))
        assert len(scan.cycles) == 2
        h_stars = sorted(c.h_star for c in scan.cycles)
        assert h_stars[0] == pytest.approx(1.0, abs=5e-3)
        assert h_stars[1] == pytest.approx(4.0, abs=2e-2)
        for c in scan.cycles:
            assert c.residual <= 1e-8 * max(1.0, c.radius)
            assert not math.isnan(c.stability_slope)
        # alternating stability along the scan direction
        slopes = [c.stability_slope for c in
                  sorted(scan.cycles, key=lambda c: c.radius)]
        assert slopes[0] * slopes[1] < 0

    def test_cycle_location_stable_in_lambda(self):
        """The bifurcating cycle stays pinned to the M1 zero as the small
        parameters vary over two orders of magnitude."""
        for lam in (0.1, 0.02):
            scan = find_cycles(two_cycle_system(), (1.2, 1.7), 20,
                               SimConfig(lam=lam, eps=lam * lam))
            assert len(scan.cycles) == 1
            assert abs(scan.cycles[0].h_star - 1.0) <= 1e-4


    def test_refinement_work(self, monkeypatch):
        """60 scan returns, then two cycles of at most 3 Illinois and
        exactly 2 slope returns each; bisection took 8 + 2 per cycle."""
        calls = [0]
        integrate = simulator._kernel.integrate_return

        def counted(*args):
            calls[0] += 1
            return integrate(*args)

        monkeypatch.setattr(simulator._kernel, "integrate_return", counted)
        scan = find_cycles(two_cycle_system(), (1.0, 3.4), 60,
                           SimConfig(lam=0.02, eps=4e-4))
        assert len(scan.cycles) == 2
        assert calls[0] <= 70


def synthetic_map(monkeypatch, d):
    """Replace the return map by r -> r + d(r), one crossing per return;
    returns the list of the start points it is asked for."""
    asked = []

    def advance(sys_, fc, start, config):
        asked.append(start)
        return start + d(start), 2 * math.pi, [(math.pi, -start, 0.0, -1.0)]

    monkeypatch.setattr(simulator, "_advance", advance)
    return asked


class TestSyntheticReturnMap:
    def test_zero_on_grid_point_reported_once(self, monkeypatch):
        """d(1.5) is exactly 0 on the grid 1.0, 1.5, 2.0: that grid point is
        the cycle, with no refinement and the usual two slope returns."""
        asked = synthetic_map(monkeypatch, lambda r: (r - 1.5) * (1.0 + r))
        scan = find_cycles(two_cycle_system(), (1.0, 2.0), 3, SimConfig())
        assert scan.displacements[1] == 0.0
        assert len(scan.cycles) == 1
        cycle = scan.cycles[0]
        assert (cycle.radius, cycle.residual) == (1.5, 0.0)
        assert cycle.h_star == 1.125
        assert cycle.side_sequence == (-1.0,)
        assert cycle.stability_slope == pytest.approx(2.5, rel=1e-9)
        assert len(asked) == 3 + 2

    def test_illinois_beats_stalled_false_position(self, monkeypatch):
        """On the strongly convex d(r) = r^8 - 1 over [0.5, 3] plain regula
        falsi keeps the end r = 3 and is still at r = 0.57 after 200 steps;
        halving the kept end's value meets the stop rule in 19."""
        asked = synthetic_map(monkeypatch, lambda r: r ** 8 - 1.0)
        scan = find_cycles(two_cycle_system(), (0.5, 3.0), 2, SimConfig())
        assert len(scan.cycles) == 1
        cycle = scan.cycles[0]
        assert cycle.residual <= 1e-9
        assert cycle.radius == pytest.approx(1.0, abs=1e-9)
        refinement = len(asked) - 2 - 2
        assert refinement <= 25


class TestGuards:
    def test_escape_outside_annulus(self):
        sys_ = load_preset("example1")
        with pytest.raises(EscapeAnnulus):
            advance_to_section(sys_, 60.0, SimConfig())

    def test_escape_below_r_min(self):
        # strong positive damping spirals below r_min within one return
        sys_ = LienardSystem.build(Case.SWITCH_Y, 0, 0, a0=[3])
        with pytest.raises(EscapeAnnulus):
            advance_to_section(sys_, 0.6,
                               SimConfig(eps=0.5, r_min=0.5, r_max=5.0))

    @pytest.mark.parametrize("grid_n", [1, 0])
    def test_scan_needs_two_grid_points(self, grid_n):
        with pytest.raises(ValueError):
            find_cycles(load_preset("example1"), (1.0, 2.0), grid_n,
                        SimConfig())

    @pytest.mark.parametrize("kwargs", [{"rk_tol": -1.0}, {"rk_tol": 0.0}],
                             ids=["rk_tol-negative", "rk_tol-zero"])
    def test_config_rejects_bad_tolerances(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_non_transversal_start(self):
        status, *_ = _kernel_py.integrate_return(
            0, [0.0], [0.0], [0.0], [0.0], [0.0], 0.0, 0.0,
            1e-10, 0.0, 1e-10, 1e-12, 1000, 1e-12, 50.0)
        assert status == 3


def theorem_form_equivalent(sys_, folded, r_values, config, tol=1e-7):
    """Check that the multi-parameter and folded systems return identically."""
    worst = 0.0
    for r in r_values:
        c1, _t1, _x1 = advance_to_section(sys_, r, config)
        c2, _t2, _x2 = advance_to_section(folded, r, config)
        worst = max(worst, abs(c1 - c2))
    return worst <= tol, worst


class TestFoldedEquivalence:
    def test_folded_system_returns_identically(self):
        sys_ = load_preset("example1", lam=0.02, eps=4e-4)
        folded = theorem_form_system(fold_to_theorem_form(sys_))
        ok, worst = theorem_form_equivalent(
            sys_, folded, (1.5, 2.5), SimConfig(rk_tol=1e-11))
        assert ok, worst


class TestBifurcationFunction:
    def test_valid_domain_first_order_match(self):
        """With an odd g the energy increment per return reproduces
        M0 + lam*M1 up to O(lam^2) + O(eps)."""
        lam = 0.01
        sys_ = LienardSystem.build(
            Case.SWITCH_Y, 3, 3,
            a0=[0, Fraction(1, 2), 0, Fraction(-1, 4)],
            a1=[1, 0, Fraction(1, 2), 0],
            b0=[0, Fraction(3, 4), 0, Fraction(-1, 8)],
            b1=[Fraction(1, 2), 0, 1, 0],
            c=[0, Fraction(1, 4), 0, Fraction(-1, 16)])
        exp = expand(sys_)
        for h in (0.8, 1.6):
            pred = exp.m0.eval(h) + lam * exp.m1.eval(h)
            e1 = bifurcation_increment(sys_, h, lam, 2e-4) / 2e-4
            e2 = bifurcation_increment(sys_, h, lam, 1e-4) / 1e-4
            richardson = 2 * e2 - e1  # removes the O(eps) part
            assert richardson == pytest.approx(pred, abs=2e-3 * (1 + abs(pred)))


class TestClosedFormFlaws:
    """Dynamical measurements that quantify where the contracted closed
    forms depart from the actual flow.  These document real behavior; the
    assertions pin the measured discrepancy, not agreement."""

    def test_even_g_destroys_period_annulus(self):
        """example1 carries an even g, so the lam-term alone (eps = 0)
        already drifts every orbit: d(r) = -lam * r^2 / sqrt(2) + O(lam^2),
        hence no unperturbed-side annulus survives to bifurcate from."""
        sys_ = load_preset("example1")
        lam = 0.01
        config = SimConfig(lam=lam, eps=1e-30, rk_tol=1e-11)
        for r in (2.0, 4.0):
            d = displacement(sys_, r, config)
            predicted = -lam * r * r / math.sqrt(2.0)
            assert d == pytest.approx(predicted, rel=0.05)
            assert d < 0

    @staticmethod
    def _richardson(sys_, h, lam):
        e1 = bifurcation_increment(sys_, h, lam, 2e-4) / 2e-4
        e2 = bifurcation_increment(sys_, h, lam, 1e-4) / 1e-4
        return 2 * e2 - e1  # removes the O(eps) part

    def test_switch_on_x_half_arc_term_is_spurious(self):
        """With no time-weighted block (n = 0) the measured energy increment
        reproduces M0 + lam*I1 exactly; the half-arc h^(i+3/2) block of the
        contracted M1 does not appear in the flow, so the offset from the
        contracted prediction equals minus that block."""
        sys_ = LienardSystem.build(
            Case.SWITCH_X, 3, 0,
            a0=[0, Fraction(1, 2), 0, Fraction(-1, 4)],
            a1=[1, 0, Fraction(1, 2), 0])
        h = 1.5
        lam = 0.004
        exp = expand(sys_)
        i3 = case_x_i3(sys_).eval(h)
        pred_contracted = exp.m0.eval(h) + lam * exp.m1.eval(h)
        offset = (self._richardson(sys_, h, lam) - pred_contracted) / lam
        assert offset == pytest.approx(-i3, rel=1e-3)

    def test_switch_on_x_contracted_m1_overshoot_measured(self):
        """For n > 0 the contracted M1 overshoots the measured increment by
        the half-arc block plus a smaller time-weight correction; this pins
        the measured discrepancy on the second worked preset."""
        sys_ = load_preset("example2")
        lam = 0.004
        h = 1.5
        exp = expand(sys_, project_odd=True)
        pred_contracted = exp.m0.eval(h) + lam * exp.m1.eval(h)
        i3 = case_x_i3(sys_).eval(h)
        richardson = self._richardson(sys_, h, lam)
        offset = (richardson - pred_contracted) / lam
        # the half-arc block dominates the discrepancy ...
        assert 0.9 <= offset / -i3 <= 1.15
        # ... and removing it leaves a residual below 5% of the block
        pred_reduced = exp.m0.eval(h) + lam * (
            case_x_i_poly(sys_.odd_projection(), 1).eval(h)
            + case_x_i2(sys_).eval(h))
        assert abs(richardson - pred_reduced) <= 0.05 * lam * abs(i3)
