"""Direct integration: return maps, cycle location, the kernel's entry
point and the dynamical cross-checks of the closed-form expansion."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from pwlienard import (Case, EscapeAnnulus, LienardSystem, RingElem, SimConfig,
                       MaxStepsExceeded, NonTransversalCrossing, PwLienardError,
                       advance_to_section, displacement, expand, find_cycles,
                       load_preset)
from pwlienard.melnikov import case_x_i2, case_x_i3, case_x_i_poly
from pwlienard import _kernel_py, simulator
from pwlienard.algebra import poly_antideriv, polyval
from pwlienard.simulator import BACKEND, bifurcation_increment

INV_PI = RingElem.term(1, p=-1)


def two_cycle_system(lam=0.0, eps=0.0, case=Case.SWITCH_Y, targets=(1, 4)):
    """Switch-on-y system with M0 = 0 and M1 = h(h - t1)(h - t2): limit
    cycles near r = sqrt(2 t1) and sqrt(2 t2) for small parameters, by
    default sqrt(2) and sqrt(8).  As a switch-on-x system M1 changes sign,
    and the cycles stay."""
    t1, t2 = (Fraction(t) for t in targets)
    return LienardSystem.build(
        case, 4, 0,
        a1=[INV_PI * RingElem.rational(t1 * t2 / 2), 0,
            INV_PI * RingElem.rational(-(t1 + t2)), 0, INV_PI],
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


def route_args(mode, vectors, lam, eps, x0, y0, rk_tol, max_steps, r_min):
    """Kernel arguments for one return.  Modes 0 and 1 are the kernel's; 2
    is the switch-on-y system in Melnikov (swapped) coordinates, which
    ``bifurcation_increment`` runs as mode 0 on the five vectors negated,
    from (y0, -x0)."""
    if mode == 2:
        mode, vectors, x0, y0 = 0, [[-c for c in v] for v in vectors], y0, -x0
    return (mode, *vectors, lam, eps, x0, y0, rk_tol, 0.0, max_steps, r_min,
            50.0)


STATUS_INPUTS = [
    (0, 2.0, 0.0, 2_000_000, 1e-3, 0),
    (1, 0.0, 1.5, 2_000_000, 1e-3, 0),
    (2, 0.0, 2.0, 2_000_000, 1e-3, 0),
    # the lam-drift spirals inward below r_min before the return
    (0, 2.0, 0.0, 2_000_000, 1.99, 1),
    (1, 0.0, 1.5, 40, 1e-3, 2),
    # the start point is (numerically) the origin: no transversal flow
    (0, 1e-10, 0.0, 2_000_000, 1e-12, 3),
]


def example1_args(mode, x0, y0, max_steps, r_min, rk_tol=1e-10, lam=0.02,
                  eps=4e-4):
    fc = load_preset("example1").float_coeffs()
    return route_args(mode, [fc[k] for k in ("a0", "a1", "b0", "b1", "c")],
                      lam, eps, x0, y0, rk_tol, max_steps, r_min)


FIVE_VECTORS = ([0.0, 1.5, -0.4, 0.3], [0.7, -1.0], [0.9, 0.6],
                [-0.3, 1.1, 0.4], [0.0, 0.8])


def five_vector_args(mode, rk_tol=1e-10):
    """Five nonzero vectors of unequal lengths, p of degree 3 and q of
    degree 2: the kernel pads the shorter vectors before it folds them."""
    x0, y0 = (1.5, 0.0) if mode == 0 else (0.0, 1.5)
    return route_args(mode, FIVE_VECTORS, 0.02, 4e-4, x0, y0, rk_tol,
                      2_000_000, 1e-3)


# the guard's two sides: a sliding start (status 3) and the linear centre's
# orbit through r = 1e-10 (status 0); see TestGuards
SLIDING_ARGS = (0, [0.0], [0.0], [0.0], [0.0], [2.0], 1.0, 0.0,
                1.0, 0.0, 1e-10, 0.0, 1000, 1e-12, 50.0)
TINY_CENTRE_ARGS = (0, [0.0], [0.0], [0.0], [0.0], [0.0], 0.0, 0.0,
                    1e-10, 0.0, 1e-10, 0.0, 1000, 1e-12, 50.0)

# the step controller's cases; see TestStepControl
TRIAL_STAGE_VECTORS = ([-0.344, -0.23, 0.761, -1.327], [-0.662, -1.797, 0.244],
                       [0.418, -1.644, -0.186, -0.767], [1.945, 0.375, 0.444],
                       [0.437, 1.186])
# x'' + 2.5 x' + x = 0: an overdamped node, whose angle never reaches pi
OVERDAMPED_ARGS = (0, [2.5], [0.0], [0.0], [0.0], [0.0], 0.0, 1.0,
                   1.0, 0.0, 1e-10, 0.0, 1000, 1e-12, 50.0)


def first_step_rejected_args():
    """example1 at lam = 0.3, eps = 0.09 from r = 2: its first pi/16 step
    is rejected."""
    return example1_args(0, 2.0, 0.0, 2_000_000, 1e-3, lam=0.3, eps=0.09)


def designed_cycle_args():
    """One scan return of two_cycle_system at its designed cycle
    r = sqrt(2), lam = 0.02, eps = 4e-4, rk_tol 1e-10: it halves the rest
    of both arcs."""
    fc = two_cycle_system().float_coeffs()
    return route_args(0, [fc[k] for k in ("a0", "a1", "b0", "b1", "c")],
                      0.02, 4e-4, math.sqrt(2.0), 0.0, 1e-10, 2_000_000, 1e-3)


def trial_stage_args(rk_tol):
    """A switch-on-y return (mode 0, lam 0.3, eps 0.09, r = 4.259) whose
    first step after the switch puts a trial stage below the guard, while
    every accepted point stays transversal."""
    return route_args(0, TRIAL_STAGE_VECTORS, 0.3, 0.09, 4.259, 0.0, rk_tol,
                      2_000_000, 1e-3)


def counting_kernel(monkeypatch):
    """Swap ``simulator._kernel`` for a namespace that counts its returns,
    as perfbench/tracing.py does: it holds only BACKEND_NAME and a wrapper
    that forwards every argument, keywords included.  The kernel module's
    own entry fails, so that a return that does not go through the
    attribute fails.  ``calls.tangent`` counts the tangent returns and
    ``calls.crossings`` the crossings at ``result[4]``, where the tracer
    reads them."""
    calls = CallCount([0])
    integrate = _kernel_py.integrate_return

    def counted(*args, **kwargs):
        calls[0] += 1
        calls.tangent += kwargs.get("tangent", False)
        result = integrate(*args, **kwargs)
        calls.crossings += len(result[4])
        return result

    def bypassed(*args, **kwargs):
        raise AssertionError("a return bypassed simulator._kernel")

    monkeypatch.setattr(simulator, "_kernel", SimpleNamespace(
        BACKEND_NAME=_kernel_py.BACKEND_NAME, integrate_return=counted))
    monkeypatch.setattr(_kernel_py, "integrate_return", bypassed)
    return calls


class CallCount(list):
    """A one-element call count with two more counts."""
    tangent = 0
    crossings = 0


def assert_status(args, status):
    """The kernel ends ``args`` with ``status``, and with two crossings
    when it returns."""
    s, _x, _y, _t, crossings = _kernel_py.integrate_return(*args)
    assert s == status
    if status == 0:
        assert len(crossings) == 2


class TestKernelParity:
    """The kernel's statuses and calling contract.  There is one kernel, so
    nothing is compared across kernels; the test names are older than
    that."""

    @pytest.mark.parametrize("mode,x0,y0,max_steps,r_min,status",
                             STATUS_INPUTS)
    def test_backends_agree(self, mode, x0, y0, max_steps, r_min, status):
        assert_status(example1_args(mode, x0, y0, max_steps, r_min), status)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_backends_agree_five_vectors(self, mode):
        assert_status(five_vector_args(mode), 0)

    def test_backend_name_known(self):
        assert BACKEND == "python"
        assert simulator._kernel is _kernel_py

    def test_unknown_mode_rejected(self):
        """Modes 0 and 1 are the only ones; the swapped coordinates are mode
        0 on negated vectors, so a stray 2 must not run as mode 1."""
        with pytest.raises(ValueError, match="mode"):
            _kernel_py.integrate_return(
                2, [0.0], [0.0], [0.0], [0.0], [0.0], 0.0, 0.0, 0.0, 1.0,
                1e-10, 0.0, 100, 1e-3, 50.0)

    @pytest.mark.parametrize("r,rk_tol", [(2.0, 1e-10), (6.0, 1e-12)])
    def test_perfbench_calling_contract(self, r, rk_tol):
        """perfbench/worker.py ``kernel_rows`` calls the entry with these 15
        arguments by position, event_tol slot included, and reads a 5-tuple
        whose status is 0; perfbench/tracing.py counts ``result[4]`` as the
        crossings.  A kernel refactor must keep all of it."""
        fc = load_preset("example1").float_coeffs()
        result = _kernel_py.integrate_return(
            0, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"], 0.02, 4e-4,
            r, 0.0, rk_tol, 1e-12, 2_000_000, 1e-3, 50.0)
        assert isinstance(result, tuple) and len(result) == 5
        assert result[0] == 0
        assert len(result[4]) == 2


class TestKernelEntry:
    def test_degree_70_returns(self):
        """The coefficient vectors have no length limit: f1 of degree 70,
        71 coefficients, returns.  From r = 0.9 the top term stays small,
        so the orbit comes back close to its start."""
        sys_ = LienardSystem.build(Case.SWITCH_X, 70, 0, a1=[0] * 70 + [1])
        coord, _t, crossings = advance_to_section(
            sys_, 0.9, SimConfig(lam=0.02, eps=4e-4))
        assert len(crossings) == 2
        assert coord == pytest.approx(0.9, abs=1e-6)

    @pytest.mark.parametrize("case", [Case.SWITCH_Y, Case.SWITCH_X])
    def test_every_return_through_the_module_attribute(self, monkeypatch,
                                                       case):
        """perfbench/tracing.py counts returns by swapping the module
        attributes ``simulator._kernel`` and ``simulator.advance_to_section``
        for wrappers that take ``*args, **kwargs``: a scan with its tangent
        node returns and plain polish returns, and a displacement, make
        every return through both, and an increment makes exactly one
        plain kernel call."""
        sys_ = two_cycle_system(case=case)
        config = SimConfig(lam=0.02, eps=4e-4)
        calls = counting_kernel(monkeypatch)
        advances = [0]
        advance = simulator.advance_to_section

        def counted_advance(*args, **kwargs):
            advances[0] += 1
            return advance(*args, **kwargs)

        monkeypatch.setattr(simulator, "advance_to_section", counted_advance)
        scan = find_cycles(sys_, (1.0, 3.4), 60, config)
        assert len(scan.cycles) == 2
        assert calls[0] == advances[0] == len(scan.grid) + 2
        assert calls.tangent == len(scan.grid)
        displacement(sys_, 2.0, config)
        assert calls == advances
        bifurcation_increment(sys_, 2.5, 0.02, 4e-4)
        assert calls[0] == advances[0] + 1
        assert calls.tangent == len(scan.grid)
        assert calls.crossings == 2 * calls[0]

    @pytest.mark.parametrize("case", [Case.SWITCH_Y, Case.SWITCH_X])
    def test_find_cycles_compiles_each_shape_once(self, case):
        """Each arc fetches its step from ``_step``, which compiles one per
        (len p, len q, tangent): a scan of tangent returns with plain polish
        returns compiles two steps, not one per return, and a second scan
        compiles none."""
        sys_ = two_cycle_system(case=case)
        config = SimConfig(lam=0.02, eps=4e-4)
        fc = sys_.float_coeffs()
        p, q = _kernel_py.fold(
            *(fc[k] for k in ("a0", "a1", "b0", "b1", "c")), config.lam,
            config.eps)
        shapes = {(len(p), len(q), tangent) for tangent in (True, False)}
        _kernel_py._step.cache_clear()
        scan = find_cycles(sys_, (1.0, 3.4), 60, config)
        info = _kernel_py._step.cache_info()
        assert len(scan.cycles) == 2
        assert info.misses == info.currsize == len(shapes) == 2
        assert info.hits + info.misses == 2 * (len(scan.grid) + 2)
        find_cycles(sys_, (1.0, 3.4), 60, config)
        assert _kernel_py._step.cache_info().misses == len(shapes)

    def test_import_compiles_no_step(self):
        """``import pwlienard`` compiles no step, so none of the compile
        time falls into an import; the first return compiles its shape.  A
        fresh interpreter, since this one has compiled steps."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import pwlienard, pwlienard.cli; "
             "from pwlienard import _kernel_py as k; "
             "print(k._step.cache_info().misses); "
             "k.integrate_return(0, [0.0], [0.0], [0.0], [0.0], [0.0], "
             "0.0, 0.0, 1.0, 0.0, 1e-10, 0.0, 1000, 1e-3, 50.0); "
             "print(k._step.cache_info().misses)"],
            capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.split() == ["0", "1"]


CENTRE_DAMPING = 0.05


def centre_args(mode, r, rk_tol):
    """The linear centre damped by a constant p = mu (eps = 1, lam = 0):
    x'' + mu x' + x = 0 in modes 0 and 1.  Mode 2, the swapped
    coordinates, negates p, so there the orbit grows."""
    x0, y0 = (r, 0.0) if mode == 0 else (0.0, r)
    return route_args(mode, [[CENTRE_DAMPING], [0.0], [0.0], [0.0], [0.0]],
                      0.0, 1.0, x0, y0, rk_tol, 2_000_000, 1e-3)


class TestEventLocation:
    """No event location is left: each arc's last step is clipped to the
    arc's end angle, so every crossing lies on its line by construction."""

    # one kernel; its name stays in these cases' ids
    @pytest.mark.parametrize("kernel", [_kernel_py], ids=["python"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("r", [0.5, 2.0, 6.0])
    @pytest.mark.parametrize("rk_tol", [1e-10, 1e-12])
    def test_centre_crossings_at_half_periods(self, kernel, mode, r,
                                              rk_tol):
        """Crossing k lands at t = k pi/omega, omega = sqrt(1 - mu^2/4),
        exactly on its line, at the section coordinate
        (-1)^k r exp(-k mu pi/(2 omega)), with mu negated in mode 2; what
        is left is the integration's global error."""
        status, x, y, t, crossings = kernel.integrate_return(
            *centre_args(mode, r, rk_tol))
        assert status == 0
        assert len(crossings) == 2
        mu = -CENTRE_DAMPING if mode == 2 else CENTRE_DAMPING
        omega = math.sqrt(1.0 - 0.25 * mu * mu)
        for k, (tk, xk, yk, _side) in enumerate(crossings, start=1):
            # mode 0 and the swapped mode 2 cross y = 0, mode 1 crosses x = 0
            coord, other = (yk, xk) if mode == 1 else (xk, yk)
            assert other == 0.0
            assert abs(tk - k * math.pi / omega) <= 1e-8
            decay = math.exp(-k * mu * math.pi / (2.0 * omega))
            assert abs(coord - (-1) ** k * r * decay) <= 1e-8 * r
        assert (t, x, y) == crossings[-1][:3]


def hook_steps(monkeypatch, wrap):
    """Patch ``_kernel_py._step`` so that every step it hands the kernel is
    ``wrap(step)``: the kernel fetches its step there once per arc."""
    make = _kernel_py._step
    monkeypatch.setattr(_kernel_py, "_step", lambda *key: wrap(make(*key)))


def count_field_evaluations(monkeypatch, args):
    """The ``_field`` calls, stage 1 of each arc, plus six for each step
    that returns: a step evaluates the field inline at its stages 2 to 7.
    A step that meets the guard evaluates fewer and is not counted."""
    calls = [0]
    field = _kernel_py._field

    def counted(*fargs):
        calls[0] += 1
        return field(*fargs)

    def counted_step(step):
        def stepped(*step_args):
            out = step(*step_args)
            calls[0] += 6
            return out
        return stepped

    monkeypatch.setattr(_kernel_py, "_field", counted)
    hook_steps(monkeypatch, counted_step)
    status, *_ = _kernel_py.integrate_return(*args)
    assert status == 0
    return calls[0]


class TestKernelWork:
    @pytest.mark.parametrize("r,rk_tol,count", [
        (2.0, 1e-10, 350),
        (6.0, 1e-12, 1286),
    ])
    def test_field_evaluations_per_return(self, monkeypatch, r, rk_tol,
                                          count):
        """The two example1 returns of perfbench's kernel_fixed op take
        exactly this many field evaluations: one for stage 1, six per step
        and one at the switch.  Time-stepped with event location they took
        971 and 2477; in the angle form from a first step of 0.01, with no
        half-split and regrowth after a rejection, 362 and 1292.  An exact
        count also fails an arc that stops fetching its step from
        ``_kernel_py._step``.  The count depends on the arithmetic only, not
        on the machine."""
        assert count_field_evaluations(monkeypatch, example1_args(
            0, r, 0.0, 2_000_000, 1e-3, rk_tol=rk_tol)) == count

    def test_field_evaluations_designed_cycle_return(self, monkeypatch):
        """One scan return of two_cycle_system at its designed cycle
        r = sqrt(2), lam = 0.02, eps = 4e-4, rk_tol 1e-10: 128 evaluations,
        against 947 time-stepped with event location and 146 in the angle
        form from a first step of 0.01.  The perturbation is small against
        the rotation, so the angle form gains most here, and the first
        step's warm-up was a large share of the return."""
        assert count_field_evaluations(monkeypatch,
                                       designed_cycle_args()) == 128


def tableau_step(p, q, r, t, phi, h, k1r, k1t):
    """The Dormand-Prince step as loops over _A, the nodes and _E, every
    weight summed in the tableau's order, the zero weights included."""
    kr, kt = [k1r], [k1t]
    for row, c in zip(_kernel_py._A[1:], _kernel_py._C + (1.0,)):
        rs, ts = r, t
        for a, krj, ktj in zip(row, kr, kt):
            rs += (h * a) * krj
            ts += (h * a) * ktj
        dr, dt = _kernel_py._field(p, q, rs, phi + c * h)
        kr.append(dr)
        kt.append(dt)
    er = 0.0
    for e, krj in zip(_kernel_py._E, kr):
        er += (h * e) * krj
    return rs, ts, abs(er), kr[6], kt[6]


def step_bits(step, *args):
    """The hex of each float ``step(*args)`` returns, None where a stage
    meets the guard."""
    try:
        return [x.hex() for x in step(*args)]
    except _kernel_py._NonTransversal:
        return None


def random_shape_inputs(rng, n_p, n_q):
    """Random p and q of n_p and n_q coefficients in the kernel's form,
    the one of degree k within 0.2 * 4^-k, and a random point, angle and
    step length.  At r <= 3 each term stays below 0.2 (3/4)^k."""
    p, q = ([rng.uniform(-0.2, 0.2) * 0.25 ** k for k in range(n)]
            for n in (n_p, n_q))
    return (_kernel_py._descending(p),
            _kernel_py._descending(q, rng.choice((-1.0, 1.0))),
            rng.uniform(0.5, 3.0), rng.uniform(0.0, 7.0),
            rng.uniform(-0.5 * math.pi, 2.5 * math.pi),
            10.0 ** rng.uniform(-8.0, 0.0))


SHAPES = list(itertools.product(range(9), repeat=2))


class TestWrittenOutStep:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_step_matches_tableau_loops_bitwise(self, rng, mode):
        """The step that ``_step`` writes out stage by stage skips the zero
        weights; it still ends at the tableau loops' bits, on the folded
        vectors in the kernel's coefficient form and the angles of each
        mode's return."""
        args = five_vector_args(mode)
        p, q = _kernel_py.fold(*args[1:8])
        p = _kernel_py._descending(p)
        phi0 = -0.5 * math.pi if args[0] == 1 else 0.0
        for _ in range(300):
            r, t = rng.uniform(0.5, 6.0), rng.uniform(0.0, 7.0)
            phi = phi0 + rng.uniform(0.0, 2.0 * math.pi)
            qs = _kernel_py._descending(q, rng.choice((-1.0, 1.0)))
            h = 10.0 ** rng.uniform(-8.0, 0.0)
            k1r, k1t = _kernel_py._field(p, qs, r, phi)
            step = _kernel_py._step(len(p), len(qs), False)
            got = step(p, qs, r, t, phi, h, k1r, k1t)
            want = tableau_step(p, qs, r, t, phi, h, k1r, k1t)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("n_p,n_q", SHAPES)
    def test_every_shape_matches_tableau_loops_bitwise(self, rng, n_p, n_q):
        """Each (len p, len q) up to 8 x 8 compiles its own step, with
        Horner unrolled to that length, an empty p or q included: 40 random
        steps on random p and q of that shape end at the tableau loops'
        bits, or meet the guard in both."""
        finished = 0
        for _ in range(40):
            p, qs, r, t, phi, h = random_shape_inputs(rng, n_p, n_q)
            try:
                k1r, k1t = _kernel_py._field(p, qs, r, phi)
            except _kernel_py._NonTransversal:
                continue
            got = step_bits(_kernel_py._step(n_p, n_q, False),
                            p, qs, r, t, phi, h, k1r, k1t)
            assert got == step_bits(tableau_step,
                                    p, qs, r, t, phi, h, k1r, k1t)
            finished += got is not None
        assert finished >= 20

    @pytest.mark.parametrize("tangent", [False, True])
    def test_returns_match_tableau_loop_returns(self, monkeypatch, rng,
                                                tangent):
        """Whole returns keep their bits when the kernel steps by the
        tableau loops, whose ``_field`` starts each Horner loop from 0.0:
        the status inputs, 30 random returns, signed zeros, from the
        designed-cycle increment's negated vectors (q = [-0.0]) and from
        negated vectors with p = [-0.0] or p = q = [-0.0], and empty
        vectors, which fold to an empty p and q."""
        fc = two_cycle_system().float_coeffs()
        cases = [example1_args(*inputs[:5]) for inputs in STATUS_INPUTS]
        cases += [random_return_args(rng) for _ in range(30)]
        cases += [
            route_args(2, [fc[k] for k in ("a0", "a1", "b0", "b1", "c")],
                       0.02, 4e-4, 0.0, 2.0, 1e-12, 2_000_000, 1e-3),
            route_args(2, [[0.0], [0.0], [0.0], [0.0], [0.5]], 0.1, 0.0,
                       0.0, 1.0, 1e-10, 2_000_000, 1e-3),
            route_args(2, [[0.0]] * 5, 0.0, 0.0, 0.0, 1.0, 1e-10, 1000,
                       1e-3),
            route_args(0, [[]] * 5, 0.1, 0.1, 1.0, 0.0, 1e-10, 1000, 1e-3)]
        got = [result_bits(_kernel_py.integrate_return(*args,
                                                       tangent=tangent))
               for args in cases]
        monkeypatch.setattr(_kernel_py, "_step", lambda n_p, n_q, t: (
            tableau_step_tangent if t else tableau_step))
        assert got == [result_bits(_kernel_py.integrate_return(
            *args, tangent=tangent)) for args in cases]


def tableau_step_tangent(p, q, r, t, v, phi, h, k1r, k1t, k1f):
    """The tangent step as loops over _A, the nodes and _E: each stage's v
    summed in the tableau's order, the zero weights included, and its
    derivative F_r v with F_r from the field at that stage's r."""
    kr, kt, kv, fs = [k1r], [k1t], [k1f * v], [k1f]
    for row, c in zip(_kernel_py._A[1:], _kernel_py._C + (1.0,)):
        rs, ts, vs = r, t, v
        for a, krj, ktj, kvj in zip(row, kr, kt, kv):
            rs += (h * a) * krj
            ts += (h * a) * ktj
            vs += (h * a) * kvj
        dr, dt, f = _kernel_py._field_tangent(p, q, rs, phi + c * h)
        kr.append(dr)
        kt.append(dt)
        kv.append(f * vs)
        fs.append(f)
    er = 0.0
    for e, krj in zip(_kernel_py._E, kr):
        er += (h * e) * krj
    return rs, ts, abs(er), kr[6], kt[6], vs, fs[6]


def random_step_inputs(rng, args):
    """The folded p of ``args`` in the kernel's form, and a random side's
    q, point, angle in the return's range and step length."""
    p, q = _kernel_py.fold(*args[1:8])
    phi0 = -0.5 * math.pi if args[0] == 1 else 0.0
    r, t = rng.uniform(0.5, 6.0), rng.uniform(0.0, 7.0)
    phi = phi0 + rng.uniform(0.0, 2.0 * math.pi)
    qs = _kernel_py._descending(q, rng.choice((-1.0, 1.0)))
    return (_kernel_py._descending(p), qs, r, t, phi,
            10.0 ** rng.uniform(-8.0, 0.0))


class TestWrittenOutTangentStep:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_step_matches_tableau_loops_bitwise(self, rng, mode):
        """The tangent step is written out like the plain one; it ends at
        the tableau loops' bits, v and stage 7's F_r included."""
        args = five_vector_args(mode)
        for _ in range(300):
            p, qs, r, t, phi, h = random_step_inputs(rng, args)
            v = rng.uniform(-2.0, 2.0)
            k1r, k1t, k1f = _kernel_py._field_tangent(p, qs, r, phi)
            got = _kernel_py._step(len(p), len(qs), True)(
                p, qs, r, t, v, phi, h, k1r, k1t, k1f)
            want = tableau_step_tangent(p, qs, r, t, v, phi, h,
                                        k1r, k1t, k1f)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            plain = _kernel_py._step(len(p), len(qs), False)(
                p, qs, r, t, phi, h, k1r, k1t)
            assert [x.hex() for x in got[:5]] == [x.hex() for x in plain]

    @pytest.mark.parametrize("n_p,n_q", SHAPES)
    def test_every_shape_matches_tableau_loops_bitwise(self, rng, n_p, n_q):
        """Each shape's tangent step, with its Horner-with-derivative
        chains unrolled, ends at the tableau loops' bits on 40 random
        steps, or meets the guard in both; its (r, t) part is the plain
        step's."""
        finished = 0
        for _ in range(40):
            p, qs, r, t, phi, h = random_shape_inputs(rng, n_p, n_q)
            v = rng.uniform(-2.0, 2.0)
            try:
                k1r, k1t, k1f = _kernel_py._field_tangent(p, qs, r, phi)
            except _kernel_py._NonTransversal:
                continue
            got = step_bits(_kernel_py._step(n_p, n_q, True),
                            p, qs, r, t, v, phi, h, k1r, k1t, k1f)
            assert got == step_bits(tableau_step_tangent,
                                    p, qs, r, t, v, phi, h, k1r, k1t, k1f)
            plain = step_bits(_kernel_py._step(n_p, n_q, False),
                              p, qs, r, t, phi, h, k1r, k1t)
            assert got is None and plain is None or got[:5] == plain
            finished += got is not None
        assert finished >= 20

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_field_tangent(self, rng, mode):
        """The tangent field's (dr/dphi, dt/dphi) are _field's bits, and its
        F_r matches a central difference of dr/dphi in r."""
        args = five_vector_args(mode)
        for _ in range(300):
            p, qs, r, _t, phi, _h = random_step_inputs(rng, args)
            dr, dt, fr = _kernel_py._field_tangent(p, qs, r, phi)
            assert (dr.hex(), dt.hex()) == tuple(
                x.hex() for x in _kernel_py._field(p, qs, r, phi))
            delta = 1e-6 * r
            diff = (_kernel_py._field(p, qs, r + delta, phi)[0]
                    - _kernel_py._field(p, qs, r - delta, phi)[0])
            assert fr == pytest.approx(diff / (2.0 * delta), abs=1e-7)


def result_bits(result):
    """A kernel result with every float as its hex string."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, (tuple, list)):
        return [result_bits(x) for x in result]
    return result


def random_return_args(rng):
    """A return on five nonzero random vectors in a random mode (2 is the
    swapped coordinates), parameters and tolerance."""
    vectors = [[rng.uniform(-1.5, 1.5) for _ in range(rng.randint(1, 4))]
               for _ in range(5)]
    mode = rng.choice((0, 1, 2))
    r = rng.uniform(0.5, 3.0)
    x0, y0 = (r, 0.0) if mode == 0 else (0.0, r)
    return route_args(mode, vectors, rng.uniform(0.005, 0.1),
                      rng.uniform(0.0, 0.01), x0, y0,
                      10.0 ** rng.uniform(-12.0, -8.0), 2_000_000, 1e-3)


def end_radius(args, r):
    """The section coordinate of the plain return of ``args`` from r."""
    mode = args[0]
    args = list(args)
    args[8 + mode] = r
    status, x, y, _t, _c = _kernel_py.integrate_return(*args)
    assert status == 0
    return y if mode else x


class TestTangentReturn:
    """integrate_return(..., tangent=True) carries v = dr/dr0 beside the
    plain return, whose results it keeps bit for bit."""

    @pytest.mark.parametrize("mode,x0,y0,max_steps,r_min,status",
                             STATUS_INPUTS)
    def test_plain_results_on_status_inputs(self, mode, x0, y0, max_steps,
                                            r_min, status):
        args = example1_args(mode, x0, y0, max_steps, r_min)
        plain = _kernel_py.integrate_return(*args)
        tangent = _kernel_py.integrate_return(*args, tangent=True)
        assert len(tangent) == 6 and tangent[0] == status
        assert result_bits(tangent[:5]) == result_bits(plain)

    def test_plain_results_on_random_returns(self, rng):
        """50 returns on five nonzero vectors in all modes: status, end
        point, time and crossings are the plain return's bits."""
        finished = 0
        for _ in range(50):
            args = random_return_args(rng)
            plain = _kernel_py.integrate_return(*args)
            tangent = _kernel_py.integrate_return(*args, tangent=True)
            assert result_bits(tangent[:5]) == result_bits(plain)
            if plain[0] == 0:
                finished += 1
                assert math.isfinite(tangent[5])
        assert finished >= 40

    @pytest.mark.parametrize("args", [
        example1_args(0, 2.0, 0.0, 2_000_000, 1e-3),
        example1_args(1, 0.0, 1.5, 2_000_000, 1e-3),
        example1_args(2, 0.0, 2.0, 2_000_000, 1e-3),
        five_vector_args(0), five_vector_args(1), five_vector_args(2),
        first_step_rejected_args()],
        ids=["example1-0", "example1-1", "example1-2", "five-0", "five-1",
             "five-2", "strong"])
    def test_tangent_matches_central_difference(self, args):
        """v agrees with (r(r0 + delta) - r(r0 - delta)) / (2 delta) of two
        plain returns within rk_tol / delta, the noise of the difference.
        The strong case (lam 0.3, eps 0.09) contracts to v = 0.26."""
        mode, delta = args[0], 1e-4
        r0 = args[8 + mode]
        v = _kernel_py.integrate_return(*args, tangent=True)[5]
        diff = (end_radius(args, r0 + delta)
                - end_radius(args, r0 - delta)) / (2.0 * delta)
        assert abs(v - diff) <= args[10] / delta


def polyval_field(p, q, r, phi, side):
    """The field on fold's ascending lists, through algebra.polyval and
    with the side applied to q's value: the form before the kernel's
    coefficient tuples."""
    c = math.cos(phi)
    s = math.sin(phi)
    x = r * c
    a = -r * s * polyval(p, x) + side * polyval(q, x)
    w = r + c * a
    if not (r > 0.0 and w > _kernel_py._TRANSVERSAL_GUARD * r):
        return None
    dt = r / w
    return s * a * dt, dt


def has_negative_zero(coeffs):
    return any(c == 0.0 and math.copysign(1.0, c) < 0.0 for c in coeffs)


class TestFieldCoefficientForm:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["vectors", "negated"])
    @pytest.mark.parametrize("lam,eps", [(0.02, 4e-4), (0.3, 0.09),
                                         (0.0, 0.5)])
    def test_field_matches_polyval_bitwise(self, rng, sign, lam, eps):
        """_field on the descending tuples, q times the side, equals the
        polyval formula bit for bit: Horner from the top is polyval, and a
        product with +-1 is exact.  The negated vectors are what
        bifurcation_increment passes; with lam = 0 their zeros fold to
        -0.0 coefficients."""
        vectors = [[sign * c for c in v] for v in FIVE_VECTORS]
        p, q = _kernel_py.fold(*vectors, lam, eps)
        if sign < 0.0 and lam == 0.0:
            assert has_negative_zero(p)
        self.check(rng, p, q)

    def test_designed_cycle_increment_coefficients(self, rng):
        """The designed-cycle systems carry zeros in every odd slot of a1
        and in b0, b1 and c; negated for bifurcation_increment, they fold
        to -0.0 coefficients of p and to q = [-0.0]."""
        fc = two_cycle_system().float_coeffs()
        vectors = [[-c for c in fc[k]] for k in ("a0", "a1", "b0", "b1", "c")]
        p, q = _kernel_py.fold(*vectors, 0.02, 4e-4)
        assert has_negative_zero(p) and has_negative_zero(q)
        self.check(rng, p, q)

    @staticmethod
    def check(rng, p, q):
        top_p = _kernel_py._descending(p)
        for _ in range(400):
            r = rng.uniform(0.2, 6.0)
            phi = rng.uniform(-0.5 * math.pi, 2.5 * math.pi)
            side = rng.choice((-1.0, 1.0))
            want = polyval_field(p, q, r, phi, side)
            try:
                got = _kernel_py._field(top_p, _kernel_py._descending(q, side),
                                        r, phi)
            except _kernel_py._NonTransversal:
                got = None
            assert got is None and want is None \
                or [v.hex() for v in got] == [v.hex() for v in want]


def record_steps(monkeypatch, args):
    """Run the kernel on ``args``, recording the (phi, h) of every step
    it tries.  Returns the result, the steps and for each step whether it
    was accepted: a rejected step is retried from the same phi."""
    steps = []

    def recorded(step):
        def stepped(*step_args):
            steps.append((step_args[4], step_args[5]))
            return step(*step_args)
        return stepped

    hook_steps(monkeypatch, recorded)
    result = _kernel_py.integrate_return(*args)
    accepted = [steps[i + 1][0] != phi if i + 1 < len(steps)
                else result[0] == 0 for i, (phi, _h) in enumerate(steps)]
    return result, steps, accepted


class TestStepControl:
    def test_first_step_is_pi_over_16(self, monkeypatch):
        _result, steps, _accepted = record_steps(
            monkeypatch, example1_args(0, 2.0, 0.0, 2_000_000, 1e-3))
        assert steps[0] == (0.0, math.pi / 16)

    def test_no_growth_right_after_rejection(self, monkeypatch):
        """At lam = 0.3 the first pi/16 step is rejected; after every
        rejection, the step that follows the next accepted one is no longer
        than it."""
        (status, *_), steps, accepted = record_steps(
            monkeypatch, first_step_rejected_args())
        assert status == 0
        assert not accepted[0]
        checked = 0
        for i in range(len(steps) - 2):
            if not accepted[i] and accepted[i + 1]:
                assert steps[i + 2][1] <= steps[i + 1][1]
                checked += 1
        assert checked >= 5

    def test_arc_ends_on_two_halves(self, monkeypatch):
        """The designed-cycle return ends both arcs on two accepted steps of
        equal length, the rest of the arc halved, with no sliver after a
        full step."""
        (status, *_), steps, accepted = record_steps(
            monkeypatch, designed_cycle_args())
        assert status == 0
        done = [step for step, ok in zip(steps, accepted) if ok]
        for end in (math.pi, 2.0 * math.pi):
            k = max(i for i, (phi, _h) in enumerate(done) if phi < end)
            (_phi, h1), (phi2, h2) = done[k - 1], done[k]
            assert phi2 + h2 == end
            assert h2 == pytest.approx(h1, rel=1e-12)

    def test_trial_stage_below_guard_rejects_the_step(self, monkeypatch):
        """A trial stage below the guard after the switch rejects its step,
        not the return: the return ends with status 0, not 3 at the switch,
        and agrees with a 1e-13 return."""
        raised = [0]

        def guarded(step):
            def stepped(*step_args):
                try:
                    return step(*step_args)
                except _kernel_py._NonTransversal:
                    raised[0] += 1
                    raise
            return stepped

        hook_steps(monkeypatch, guarded)
        status, x, y, t, crossings = _kernel_py.integrate_return(
            *trial_stage_args(1e-10))
        assert raised[0] >= 1
        ref = _kernel_py.integrate_return(*trial_stage_args(1e-13))
        assert status == ref[0] == 0
        assert len(crossings) == 2
        assert (x, y) == pytest.approx(ref[1:3], abs=1e-8)
        assert t == pytest.approx(ref[3], abs=1e-8)

    def test_overdamped_node_stops_at_the_floor(self, monkeypatch):
        """x'' + 2.5 x' + x = 0 from (1, 0) turns onto its slow eigenvector
        y = -x/2, at angle atan(1/2), and never reaches the line.  Trial
        stages past it keep meeting the guard until h falls below the floor;
        the return ends with status 3 at the last accepted point, short of
        that angle."""
        (status, x, y, _t, crossings), steps, _accepted = record_steps(
            monkeypatch, OVERDAMPED_ARGS)
        assert (status, crossings) == (3, [])
        phi = math.atan2(-y, x)
        assert 0.0 < math.atan(0.5) - phi <= 1e-8
        assert 0.2 * steps[-1][1] < _kernel_py._H_FLOOR <= steps[-1][1]


def fold_field(sys_, state, side):
    """The system's right-hand side at ``state`` with sgn replaced by
    ``side``, from the kernel's fold of its five vectors into p and q."""
    x, y = state
    fc = sys_.float_coeffs()
    p, q = _kernel_py.fold(fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"],
                           sys_.lam, sys_.eps)
    return y, -x - y * polyval(p, x) - side * polyval(q, x)


class TestVectorField:
    def test_fold_values(self):
        """p = eps*(f0 + lam*f1) and q = lam*g + eps*(g0 + lam*g1), term by
        term: with delta = eps/lam these are lam*fbar and lam*gbar of the
        single-small-parameter form."""
        sys_ = load_preset("example1").with_params(0.02, 4e-4)
        fc = sys_.float_coeffs()
        lam, eps = sys_.lam, sys_.eps
        p, q = _kernel_py.fold(fc["a0"], fc["a1"], fc["b0"], fc["b1"],
                               fc["c"], lam, eps)
        assert len(p) == sys_.m + 1 and len(q) == sys_.n + 1
        for j in range(sys_.m + 1):
            assert p[j] == pytest.approx(
                eps * (fc["a0"][j] + lam * fc["a1"][j]), rel=1e-15)
        for j in range(sys_.n + 1):
            assert q[j] == pytest.approx(
                lam * fc["c"][j] + eps * (fc["b0"][j] + lam * fc["b1"][j]),
                rel=1e-15)

    def test_swapped_coordinates_formula(self):
        """The switch-on-y system in Melnikov (swapped) coordinates,
        x' = y + x*p(y) + sgn(x)*q(y), y' = -x, is with (u, v) = (y, -x)
        the switch-on-y system in original coordinates on the five vectors
        negated, and bifurcation_increment runs it that way.  The field maps
        over, and the increment is the direct mode-0 return on the negated
        vectors, bit for bit.  G(2) = 0 here, so the start ordinate of h = 2
        is exactly 2."""
        vectors = {"a0": [Fraction(3, 10), Fraction(-6, 5)],
                   "a1": [Fraction(1, 2), Fraction(7, 10)],
                   "b0": [Fraction(11, 10), Fraction(2, 5), Fraction(-1, 5)],
                   "b1": [Fraction(-3, 5), Fraction(9, 10), Fraction(4, 5)],
                   "c": [Fraction(-4), Fraction(0), Fraction(3)]}
        lam, eps = 0.1, 0.01
        sys_, negated = (
            LienardSystem.build(Case.SWITCH_Y, 1, 2, lam=lam, eps=eps,
                                **{k: [sign * c for c in v]
                                   for k, v in vectors.items()})
            for sign in (1, -1))
        fc = sys_.float_coeffs()
        p, q = _kernel_py.fold(fc["a0"], fc["a1"], fc["b0"], fc["b1"],
                               fc["c"], lam, eps)
        for x, y in ((0.7, -0.4), (-1.3, 0.9)):
            sgn = 1.0 if x > 0 else -1.0
            du, dv = fold_field(negated, (y, -x), -sgn)
            swapped = (y + x * polyval(p, y) + sgn * polyval(q, y), -x)
            assert (-dv, du) == pytest.approx(swapped, rel=1e-14)

        fn = negated.float_coeffs()
        status, u, _v, _t, _c = simulator._kernel.integrate_return(
            0, fn["a0"], fn["a1"], fn["b0"], fn["b1"], fn["c"], lam, eps,
            2.0, 0.0, 1e-12, 0.0, simulator.MAX_STEPS, 1e-3, 50.0)
        assert status == 0
        big_g = poly_antideriv(fc["c"])
        assert polyval(big_g, 2.0) == 0.0
        assert bifurcation_increment(sys_, 2.0, lam, eps) \
            == 0.5 * u * u + lam * polyval(big_g, u) - 2.0

    def test_switch_on_y_formula(self):
        sys_ = LienardSystem.build(Case.SWITCH_Y, 1, 1, a0=[0, 2], b0=[0, 3],
                                   c=[1, 0], lam=0.1, eps=0.01)
        x, y = 0.7, -0.4
        dx, dy = fold_field(sys_, (x, y), -1.0)
        assert dx == pytest.approx(y)
        expected = -x - 0.1 * (-1.0) * 1.0 \
            - 0.01 * (y * 2 * x + (-1.0) * 3 * x)
        assert dy == pytest.approx(expected, rel=1e-14)

    def test_switch_on_x_formula(self):
        sys_ = LienardSystem.build(Case.SWITCH_X, 1, 0, a0=[0, 1], c=[2],
                                   lam=0.2, eps=0.05)
        x, y = -0.3, 0.9
        dx, dy = fold_field(sys_, (x, y), 1.0)
        assert dx == pytest.approx(y)
        assert dy == pytest.approx(-x - 0.2 * 2 - 0.05 * (y * x), rel=1e-13)


class TestCycleDetection:
    def test_finds_designed_cycles(self):
        """Zeros of M1 at h = 1 and 4 must appear as limit cycles.  The
        references 1.000000018 and 3.999999986 are the cycles at rk_tol
        1e-13 with the Illinois iteration run down to bracket width."""
        lam = 0.02
        sys_ = two_cycle_system()
        scan = find_cycles(sys_, (1.0, 3.4), 60,
                           SimConfig(lam=lam, eps=lam * lam))
        assert len(scan.cycles) == 2
        h_stars = sorted(c.h_star for c in scan.cycles)
        assert h_stars[0] == pytest.approx(1.000000018, abs=5e-5)
        assert h_stars[1] == pytest.approx(3.999999986, abs=5e-5)
        for c in scan.cycles:
            assert c.residual <= 1e-8 * max(1.0, c.radius)
            assert not math.isnan(c.stability_slope)
        # alternating stability along the scan direction
        slopes = [c.stability_slope for c in
                  sorted(scan.cycles, key=lambda c: c.radius)]
        assert slopes[0] * slopes[1] < 0

    @pytest.mark.parametrize("case", [Case.SWITCH_Y, Case.SWITCH_X])
    def test_side_sequence_of_the_cycle_return(self, case):
        """A completed return switches sides twice, in an order fixed by
        the case; the return of each located cycle logs those sides."""
        sys_ = two_cycle_system(case=case)
        config = SimConfig(lam=0.02, eps=4e-4)
        scan = find_cycles(sys_, (1.0, 3.4), 60, config)
        assert len(scan.cycles) == 2
        for c in scan.cycles:
            _coord, _t, crossings = advance_to_section(sys_, c.radius, config)
            assert tuple(cr[3] for cr in crossings) == (
                (1.0, -1.0) if case is Case.SWITCH_Y else (-1.0, 1.0))

    def test_cycle_location_stable_in_lambda(self):
        """The bifurcating cycle stays pinned to the M1 zero as the small
        parameters vary over two orders of magnitude."""
        for lam in (0.1, 0.02):
            scan = find_cycles(two_cycle_system(), (1.2, 1.7), 20,
                               SimConfig(lam=lam, eps=lam * lam))
            assert len(scan.cycles) == 1
            assert abs(scan.cycles[0].h_star - 1.0) <= 1e-4


    @pytest.mark.parametrize("targets", [("2.0", "2.1"), ("1.0", "1.1")])
    @pytest.mark.parametrize("case", [Case.SWITCH_Y, Case.SWITCH_X])
    def test_close_pairs_found(self, case, targets):
        """Cycles 0.049 and 0.069 apart in r, closer than one step of a
        25-point grid on [1, 3.4], whose sign changes miss three of these
        four pairs.  The proxy from the same budget finds every cycle."""
        scan = find_cycles(two_cycle_system(case=case, targets=targets),
                           (1.0, 3.4), 25, SimConfig(lam=0.02, eps=4e-4))
        assert [c.h_star for c in scan.cycles] == pytest.approx(
            [float(t) for t in targets], abs=1e-3)

    def test_refinement_work(self, monkeypatch):
        """5 tangent returns fix a degree-11 proxy that meets the noise
        floor, well inside the budget of 60, then one plain polish return
        per cycle: 7 returns."""
        calls = [0]
        integrate = simulator._kernel.integrate_return

        def counted(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(simulator._kernel, "integrate_return", counted)
        scan = find_cycles(two_cycle_system(), (1.0, 3.4), 60,
                           SimConfig(lam=0.02, eps=4e-4))
        assert len(scan.cycles) == 2
        assert len(scan.grid) == 5
        assert calls[0] == 5 + 2


def synthetic_map(monkeypatch, d, slope):
    """Replace the return map by r -> r + d(r), one crossing per return,
    whose tangent return adds 1 + slope(r); returns the list of the start
    points it is asked for."""
    asked = []

    def advance(sys_, start, config, tangent=False):
        asked.append(start)
        out = start + d(start), 2 * math.pi, [(math.pi, -start, 0.0, -1.0)]
        return (*out, 1.0 + slope(start)) if tangent else out

    monkeypatch.setattr(simulator, "advance_to_section", advance)
    return asked


class TestSyntheticReturnMap:
    def test_zero_on_grid_point_reported_once(self, monkeypatch):
        """d(1.5) is exactly 0 on the nodes 2.0, 1.5, 1.0 of a budget of 3:
        the quadratic proxy through them has that node as its one root in
        range, reported once, after one polish return."""
        asked = synthetic_map(monkeypatch, lambda r: (r - 1.5) * (1.0 + r),
                              lambda r: 2.0 * r - 0.5)
        scan = find_cycles(two_cycle_system(), (1.0, 2.0), 3, SimConfig())
        assert scan.grid == [1.0, 1.5, 2.0]
        assert scan.displacements[1] == 0.0
        assert len(scan.cycles) == 1
        cycle = scan.cycles[0]
        assert cycle.radius == pytest.approx(1.5, abs=1e-12)
        assert cycle.residual <= 1e-11
        assert cycle.h_star == pytest.approx(1.125, abs=1e-11)
        assert cycle.stability_slope == pytest.approx(2.5, rel=1e-9)
        assert len(asked) == 3 + 1

    def test_budget_caps_the_nodes(self, monkeypatch):
        """d(r) = r^8 - 1 on [0.5, 3]: the node set is the largest 2^j + 1
        within the budget, and 9 nodes, a degree-17 proxy, put the last
        three coefficients at the noise floor.  From 5 nodes on, a degree-9
        proxy, the proxy is d itself, so its root is r = 1; then one
        polish return."""
        asked = synthetic_map(monkeypatch, lambda r: r ** 8 - 1.0,
                              lambda r: 8.0 * r ** 7)
        for budget, nodes in [(2, 2), (4, 3), (8, 5), (16, 9), (17, 9),
                              (400, 9)]:
            asked.clear()
            scan = find_cycles(two_cycle_system(), (0.5, 3.0), budget,
                               SimConfig())
            assert len(scan.grid) == nodes
            assert len(scan.cycles) == 1
            assert len(asked) == nodes + 1
            if nodes >= 5:
                cycle = scan.cycles[0]
                assert cycle.radius == pytest.approx(1.0, abs=1e-12)
                assert cycle.stability_slope == pytest.approx(8.0, rel=1e-9)

    def test_high_degree_proxy(self, monkeypatch):
        """d(r) = sin(16 r) on [1, 3.4] needs 33 nodes, a proxy of degree
        65, where values alone needed 65 nodes.  Its proxy's
        monomials would lose up to T_j(3) ~ 5.8^j to rounding, which
        missed 2 of the 12 zeros k pi / 16, so the proxy is re-expanded on
        halves until the conversion error is below the noise floor."""
        synthetic_map(monkeypatch, lambda r: math.sin(16.0 * r),
                      lambda r: 16.0 * math.cos(16.0 * r))
        scan = find_cycles(two_cycle_system(), (1.0, 3.4), 400, SimConfig())
        assert len(scan.grid) == 33
        zeros = [k * math.pi / 16 for k in range(6, 18)]
        assert [c.radius for c in scan.cycles] == pytest.approx(zeros,
                                                                abs=1e-12)
        assert [c.stability_slope for c in scan.cycles] == pytest.approx(
            [16.0 * math.cos(16.0 * r) for r in zeros], rel=1e-6)

    def test_failed_return_splits_the_range(self, monkeypatch):
        """Above r = 2.5 every return fails.  Of the 5 first nodes, the two
        there keep NaN, and the proxy is fitted again on [1, 2], the run of
        finite nodes below them, from 3 new nodes.  d's zero at 2.6 lies
        across the failure and is not reported; the one at 1.5 is."""
        def d(r):
            if r > 2.5:
                raise EscapeAnnulus("synthetic failure")
            return (r - 1.5) * (r - 2.6)

        asked = synthetic_map(monkeypatch, d, lambda r: 2.0 * r - 4.1)
        scan = find_cycles(two_cycle_system(), (1.0, 3.0), 25, SimConfig())
        assert scan.grid == sorted(scan.grid)
        failed = [r for r, dr in zip(scan.grid, scan.displacements)
                  if math.isnan(dr)]
        assert len(failed) == 2 and min(failed) > 2.5
        assert len(scan.grid) == 5 + 3
        assert [c.radius for c in scan.cycles] == pytest.approx([1.5],
                                                                abs=1e-12)
        assert len(asked) == len(scan.grid) + 1
        assert not scan.non_isolated


def chebyshev_values_and_slopes(coeffs, n):
    """sum c_j T_j and its x-derivative at x_k = cos(theta_k),
    theta_k = pi k / n, from T_j(x_k) = cos(j theta_k) and
    T_j'(x_k) = j sin(j theta_k) / sin(theta_k), which is j^2 at x = 1 and
    (-1)^(j+1) j^2 at x = -1."""
    values, slopes = [], []
    for k in range(n + 1):
        theta = math.pi * k / n
        values.append(sum(c * math.cos(j * theta)
                          for j, c in enumerate(coeffs)))
        if k in (0, n):
            sign = 1.0 if k == 0 else -1.0
            slopes.append(sum(c * sign ** (j + 1) * j * j
                              for j, c in enumerate(coeffs)))
        else:
            slopes.append(sum(c * j * math.sin(j * theta)
                              for j, c in enumerate(coeffs))
                          / math.sin(theta))
    return values, slopes


class TestHermiteProxy:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_degree_2n_plus_1_from_n_plus_1_nodes(self, rng, n):
        """Values and slopes at the n + 1 Lobatto points fix a polynomial
        of degree 2n + 1: its Chebyshev coefficients come back to
        rounding."""
        for _ in range(20):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(2 * n + 2)]
            got = simulator._hermite_coeffs(
                *chebyshev_values_and_slopes(coeffs, n))
            assert len(got) == 2 * n + 2
            assert max(abs(g - c) for g, c in zip(got, coeffs)) <= 2e-14

    def test_degree_nine_from_five_nodes(self, monkeypatch):
        """d(r) = (r - 1.5)(r - 2.5) r^7 on [1, 3] within a budget of 8:
        5 tangent returns, a degree-9 proxy that is d itself, so both
        zeros and their slopes come out to rounding."""
        def d(r):
            return (r - 1.5) * (r - 2.5) * r ** 7

        def slope(r):
            return (2.0 * r - 4.0) * r ** 7 + 7.0 * d(r) / r

        asked = synthetic_map(monkeypatch, d, slope)
        scan = find_cycles(two_cycle_system(), (1.0, 3.0), 8, SimConfig())
        assert len(scan.grid) == 5
        assert [c.radius for c in scan.cycles] == pytest.approx(
            [1.5, 2.5], abs=1e-12)
        assert [c.stability_slope for c in scan.cycles] == pytest.approx(
            [slope(1.5), slope(2.5)], rel=1e-9)
        assert len(asked) == 5 + 2


class TestGuards:
    def test_escape_outside_annulus(self):
        sys_ = load_preset("example1")
        with pytest.raises(EscapeAnnulus):
            advance_to_section(sys_, 60.0, SimConfig())

    def test_escape_below_r_min(self):
        # strong positive damping spirals below R_MIN within one return
        sys_ = LienardSystem.build(Case.SWITCH_Y, 0, 0, a0=[3])
        with pytest.raises(EscapeAnnulus):
            advance_to_section(sys_, 0.6, SimConfig(eps=0.5))

    def test_escape_above_r_max(self):
        # strong negative damping spirals above R_MAX within one return
        sys_ = LienardSystem.build(Case.SWITCH_Y, 0, 0, a0=[-3])
        with pytest.raises(EscapeAnnulus):
            advance_to_section(sys_, 10.0, SimConfig(eps=0.5))

    @pytest.mark.parametrize("status,error", [
        (2, MaxStepsExceeded), (3, NonTransversalCrossing),
        (7, PwLienardError)])
    def test_kernel_status_raises(self, monkeypatch, status, error):
        """Each failing kernel status ends the return with its error; the
        kernel gets the fixed annulus as its last two arguments."""
        asked = []

        def stub(*args):
            asked.append(args)
            return status, 1.0, 0.0, 0.5, []

        monkeypatch.setattr(simulator, "_kernel", SimpleNamespace(
            BACKEND_NAME=_kernel_py.BACKEND_NAME, integrate_return=stub))
        with pytest.raises(error) as info:
            advance_to_section(load_preset("example1"), 2.0, SimConfig())
        if status == 7:
            assert "unknown status 7" in str(info.value)
        assert asked[0][-2:] == (simulator.R_MIN, simulator.R_MAX)

    @pytest.mark.parametrize("grid_n", [1, 0])
    def test_scan_needs_two_grid_points(self, grid_n):
        with pytest.raises(ValueError):
            find_cycles(load_preset("example1"), (1.0, 2.0), grid_n,
                        SimConfig())

    @pytest.mark.parametrize("r_range", [(3.4, 1.0), (2.0, 2.0)])
    def test_scan_needs_rising_range(self, r_range):
        """A reversed or empty range has no Chebyshev nodes to map onto
        [-1, 1]."""
        with pytest.raises(ValueError, match="lo < hi"):
            find_cycles(two_cycle_system(), r_range, 60,
                        SimConfig(lam=0.02, eps=4e-4))

    @pytest.mark.parametrize("preset", ["example1", "example2"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_energy_and_start_out_of_range(self, monkeypatch, preset, value):
        """An increment needs a finite positive h, and a return a start
        strictly inside the annulus; neither reaches the kernel."""
        sys_ = load_preset(preset)
        calls = counting_kernel(monkeypatch)
        with pytest.raises(ValueError, match="h must be positive"):
            bifurcation_increment(sys_, value, 0.02, 4e-4)
        with pytest.raises(EscapeAnnulus):
            advance_to_section(sys_, value, SimConfig())
        assert calls[0] == 0

    @pytest.mark.parametrize("kwargs", [{"rk_tol": -1.0}, {"rk_tol": 0.0}],
                             ids=["rk_tol-negative", "rk_tol-zero"])
    def test_config_rejects_bad_tolerances(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lam", "eps", "rk_tol"])
    def test_config_rejects_non_finite(self, name, value):
        """NaN fails every comparison, so each check is written to fail
        for it; inf is rejected too."""
        with pytest.raises(ValueError, match="finite|inf"):
            SimConfig(**{name: value})

    def test_non_transversal_start(self):
        """A sliding start: q = 2 (lam = 1, g = 2) at (1, 0) on the side
        -1 arc, where the angular speed (r + cos(phi) A)/r is
        (1 - 2)/1 = -1; the flow points back at the line from both sides."""
        status, x, y, t, crossings = _kernel_py.integrate_return(*SLIDING_ARGS)
        assert (status, x, y, t, crossings) == (3, 1.0, -0.0, 0.0, [])

    def test_tiny_centre_orbit_returns(self):
        """r = 1e-10 in the zero field is a periodic orbit of the linear
        centre, not a stationary point: it returns to itself at 2 pi."""
        status, x, y, t, crossings = _kernel_py.integrate_return(
            *TINY_CENTRE_ARGS)
        assert (status, x, y) == (0, 1e-10, 0.0)
        assert t == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert len(crossings) == 2


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

    @pytest.mark.parametrize("sys_", [
        load_preset("example1").with_params(0.02, 4e-4),
        two_cycle_system(0.02, 4e-4, case=Case.SWITCH_X)], ids=["Y", "X"])
    def test_zero_parameters_are_not_the_systems(self, sys_):
        """lam = eps = 0 is the unperturbed centre whatever lam and eps the
        system carries: the increment is exactly 0."""
        assert bifurcation_increment(sys_, 2.0, 0.0, 0.0) == 0.0


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
