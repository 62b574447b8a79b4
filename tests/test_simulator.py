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
                       advance_to_section, design_case_y, displacement, expand,
                       find_cycles, load_preset)
from pwlienard.melnikov import closed_forms
from pwlienard import _kernel_py, roots, simulator
from pwlienard.algebra import poly_antideriv, polyval
from pwlienard.simulator import BACKEND, bifurcation_increment
from pwlienard.systems import MAX_DEGREE

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


def fresh_import_output(code):
    """The words ``code`` prints in a fresh interpreter after ``import
    pwlienard, pwlienard.cli``, with the package from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import pwlienard, pwlienard.cli; " + code],
        capture_output=True, text=True, env=env, check=True)
    return proc.stdout.split()


class TestKernelEntry:
    def test_degree_70_returns(self):
        """The kernel takes vectors of any length the degree bound allows:
        f1 of degree 70, 71 coefficients, returns.  From r = 0.9 the top term stays small,
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
        """Each arc fetches its integrator from ``_arc``, which compiles one
        per (len p, len q, tangent): a scan of tangent returns with plain
        polish returns compiles two arcs, not one per return, and a second
        scan compiles none."""
        sys_ = two_cycle_system(case=case)
        config = SimConfig(lam=0.02, eps=4e-4)
        fc = sys_.float_coeffs()
        p, q = _kernel_py.fold(
            *(fc[k] for k in ("a0", "a1", "b0", "b1", "c")), config.lam,
            config.eps)
        shapes = {(len(p), len(q), tangent) for tangent in (True, False)}
        _kernel_py._arc.cache_clear()
        scan = find_cycles(sys_, (1.0, 3.4), 60, config)
        info = _kernel_py._arc.cache_info()
        assert len(scan.cycles) == 2
        assert info.misses == info.currsize == len(shapes) == 2
        assert info.hits + info.misses == 2 * (len(scan.grid) + 2)
        find_cycles(sys_, (1.0, 3.4), 60, config)
        assert _kernel_py._arc.cache_info().misses == len(shapes)

    def test_import_compiles_no_step(self):
        """``import pwlienard`` compiles no arc, so none of the compile
        time falls into an import; the first return compiles its shape.  A
        fresh interpreter, since this one has compiled arcs."""
        assert fresh_import_output(
            "from pwlienard import _kernel_py as k; "
            "print(k._arc.cache_info().misses); "
            "k.integrate_return(0, [0.0], [0.0], [0.0], [0.0], [0.0], "
            "0.0, 0.0, 1.0, 0.0, 1e-10, 0.0, 1000, 1e-3, 50.0); "
            "print(k._arc.cache_info().misses)") == ["0", "1"]

    def test_import_compiles_no_integrand(self):
        """Nor does it compile an oracle integrand: the first ``quad_I``
        of I_0 compiles its line integrand, and that of I_2 its weight."""
        assert fresh_import_output(
            "from pwlienard import oracle; "
            "sys_ = pwlienard.load_preset('example2'); "
            "tables = (oracle._line, oracle._weight); "
            "print(*(t.cache_info().currsize for t in tables)); "
            "oracle.quad_I(sys_, 1.0, 0); "
            "print(*(t.cache_info().currsize for t in tables)); "
            "oracle.quad_I(sys_, 1.0, 2); "
            "print(*(t.cache_info().currsize for t in tables))"
        ) == ["0", "0", "1", "0", "1", "1"]

    def test_import_fills_no_support_table(self):
        """``import pwlienard`` computes no ``melnikov.support`` entry, as
        it compiles no step; the first call fills one."""
        assert fresh_import_output(
            "from pwlienard.melnikov import support; "
            "print(support.cache_info().currsize); "
            "support(pwlienard.Case.SWITCH_Y, 7, 7, 'M1'); "
            "print(support.cache_info().currsize)") == ["0", "1"]


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


def fresh_arcs(monkeypatch, line=None):
    """Have the kernel run arcs that the generator builds afresh for this
    test, not the cached ones, with ``line`` appended to every stage of
    the template, after its guard, where given.  Returns the scope the
    fresh arcs share, for the names that ``line`` calls: fill it before
    the first return.  A trig function patched while an arc is built is
    the one it calls."""
    scope, built = {}, {}
    make = _kernel_py._arc.__wrapped__
    if line is not None:
        stage = _kernel_py._stage
        monkeypatch.setattr(_kernel_py, "_stage",
                            lambda *key: stage(*key) + [line])

    def fresh(*key):
        if key not in built:
            built[key] = make(*key)
            built[key].__globals__.update(scope)
        return built[key]

    monkeypatch.setattr(_kernel_py, "_arc", fresh)
    return scope


def count_field_evaluations(monkeypatch, args):
    """The field evaluations of the return ``args``: the stages that pass
    the guard, counted by a call appended to each stage.  Stage 1 of each
    arc, plus six for each step that returns."""
    calls = [0]

    def evaluated():
        calls[0] += 1

    with monkeypatch.context() as patch:
        fresh_arcs(patch, "evaluated()")["evaluated"] = evaluated
        status, *_ = _kernel_py.integrate_return(*args)
    assert status == 0
    return calls[0]


def count_trig_calls(monkeypatch, args):
    """The cos and sin calls of the return ``args``, on arcs built while
    both count their calls."""
    calls = {"cos": 0, "sin": 0}
    with monkeypatch.context() as patch:
        for name in calls:
            def counted(x, name=name, trig=getattr(math, name)):
                calls[name] += 1
                return trig(x)
            patch.setattr(math, name, counted)
        fresh_arcs(patch)
        status, *_ = _kernel_py.integrate_return(*args)
    assert status == 0
    return calls["cos"], calls["sin"]


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
        count also fails an arc that stops building its stages from
        ``_kernel_py._stage``.  The count depends on the arithmetic only,
        not on the machine."""
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

    def test_trig_calls_per_return(self, monkeypatch):
        """The example1 return from r = 2 at rk_tol 1e-10 calls cos 292
        times, and sin as often: once per arc for stage 1 and five times
        per step, since stage 7 sits at stage 6's angle and reuses its cos
        and sin.  A cos per evaluation made 350, its field evaluations."""
        args = example1_args(0, 2.0, 0.0, 2_000_000, 1e-3)
        assert count_trig_calls(monkeypatch, args) == (292, 292)
        assert count_field_evaluations(monkeypatch, args) == 350


def tableau_step(p, q, phi, h, y, k1, field=None):
    """The Dormand-Prince step as loops over _A, the nodes and _E, every
    weight summed in the tableau's order, the zero weights included, and
    each stage from ``field``, by default ``reference_start``.  Returns
    (err, y5, k7)."""
    field = field or reference_start
    (r, t), (k1r, k1t) = y, k1
    kr, kt = [k1r], [k1t]
    for row, c in zip(_kernel_py._A[1:], _kernel_py._C + (1.0,)):
        rs, ts = r, t
        for a, krj, ktj in zip(row, kr, kt):
            rs += (h * a) * krj
            ts += (h * a) * ktj
        dr, dt = field(p, q, rs, phi + c * h)
        kr.append(dr)
        kt.append(dt)
    er = 0.0
    for e, krj in zip(_kernel_py._E, kr):
        er += (h * e) * krj
    return abs(er), (rs, ts), (kr[6], kt[6])


def reference_arc(tangent, field=None):
    """The reference controller: the arc's step control as a loop over
    the state tuple y, with stage 1 from ``field`` (by default
    ``reference_start`` or its tangent twin) and each step from the
    tableau loops over it.  It takes and returns what the arcs of
    ``_kernel_py._arc`` do."""
    field = field or (reference_start_tangent if tangent
                      else reference_start)
    tableau = tableau_step_tangent if tangent else tableau_step

    def arc(p, q, phi, end, h, steps, max_steps, rk_tol, r_min, r_max, *y):
        r = y[0]
        k1 = field(p, q, r, phi)
        rejected = False
        while phi < end:
            if steps >= max_steps:
                return (2, phi, h, steps, *y)
            steps += 1
            last = phi + h >= end
            if last:
                hs = end - phi
            elif phi + 2.0 * h > end:
                hs = 0.5 * (end - phi)
            else:
                hs = h
            try:
                err, y5, k7 = tableau(p, q, phi, hs, y, k1, field)
            except _kernel_py._NonTransversal:
                h = 0.2 * hs
                if h < _kernel_py._H_FLOOR:
                    return (3, phi, h, steps, *y)
                rejected = True
                continue
            tol = rk_tol * (1.0 + abs(r))
            if err > tol:
                h = hs * max(0.2, 0.9 * (tol / err) ** 0.2)
                rejected = True
                continue
            y, k1 = y5, k7
            r = y[0]
            phi = end if last else phi + hs
            if r < r_min or r > r_max:
                return (1, phi, h, steps, *y)
            if not last:
                fac = (min(5.0, 0.9 * (tol / err) ** 0.2)
                       if err > 0.0 else 5.0)
                h = hs * (min(1.0, fac) if rejected else fac)
            rejected = False
        return (0, phi, h, steps, *y)
    return arc


def attempt_bits(arc, p, q, phi, h, y, rk_tol, attempts=2):
    """The ``result_bits`` of ``attempts`` step attempts of ``arc`` from
    (phi, y) with step length h, or None where stage 1 meets the guard.
    max_steps is the attempts, and the end lies beyond every step they can
    take (a step grows h at most 5-fold), so no step is clipped or halved.
    The second attempt starts from the first one's stage 7 or retries its
    step; through the step length it sets, each attempt's result also
    depends on its error estimate."""
    try:
        return result_bits(arc(p, q, phi, phi + 40.0 * h, h, 0, attempts,
                               rk_tol, 0.0, math.inf, *y))
    except _kernel_py._NonTransversal:
        return None


def random_shape_inputs(rng, n_p, n_q, scale=0.2):
    """Random ascending p and q of n_p and n_q coefficients, the one of
    degree k within scale * 4^-k, q times a random side as the kernel
    passes it, and a random point, angle, step length and tolerance.  At
    r <= 3 and scale 0.2 each term stays below 0.2 (3/4)^k."""
    p, q = ([rng.uniform(-scale, scale) * 0.25 ** k for k in range(n)]
            for n in (n_p, n_q))
    side = rng.choice((-1.0, 1.0))
    return (p, [side * c for c in q],
            rng.uniform(0.5, 3.0), rng.uniform(0.0, 7.0),
            rng.uniform(-0.5 * math.pi, 2.5 * math.pi),
            10.0 ** rng.uniform(-8.0, 0.0), 10.0 ** rng.uniform(-14.0, -2.0))


def assert_attempts_match(rng, n_p, n_q, tangent, count=40, scale=0.2):
    """``count`` random attempts on random p and q of shape (n_p, n_q)
    end at the reference controller's bits, or meet the guard at stage 1
    in both; returns how many passed stage 1."""
    arc = _kernel_py._arc(n_p, n_q, tangent)
    finished = 0
    for _ in range(count):
        p, qs, r, t, phi, h, rk_tol = random_shape_inputs(rng, n_p, n_q,
                                                          scale)
        y = (r, t, rng.uniform(-2.0, 2.0)) if tangent else (r, t)
        got = attempt_bits(arc, p, qs, phi, h, y, rk_tol)
        assert got == attempt_bits(reference_arc(tangent), p, qs, phi, h, y,
                                   rk_tol)
        finished += got is not None
    return finished


SHAPES = list(itertools.product(range(9), repeat=2))


class TestWrittenOutStep:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_step_matches_tableau_loops_bitwise(self, rng, mode):
        """The step that ``_arc`` writes out stage by stage skips the zero
        weights; two attempts through the arc still end at the reference
        controller's bits, on the folded vectors in the kernel's
        coefficient form and the angles of each mode's return."""
        args = five_vector_args(mode)
        for _ in range(300):
            p, qs, r, t, phi, h, rk_tol = random_step_inputs(rng, args)
            arc = _kernel_py._arc(len(p), len(qs), False)
            assert attempt_bits(arc, p, qs, phi, h, (r, t), rk_tol) == \
                attempt_bits(reference_arc(False), p, qs, phi, h, (r, t),
                             rk_tol)

    @pytest.mark.parametrize("n_p,n_q", SHAPES)
    def test_every_shape_matches_tableau_loops_bitwise(self, rng, n_p, n_q):
        """Each (len p, len q) up to 8 x 8 compiles its own arc, with
        Horner unrolled to that length, an empty p or q included: 40 random
        pairs of attempts on random p and q of that shape end at the
        reference controller's bits."""
        assert assert_attempts_match(rng, n_p, n_q, False) >= 20

    @pytest.mark.parametrize("tangent", [False, True])
    def test_returns_match_tableau_loop_returns(self, monkeypatch, rng,
                                                tangent):
        """Whole returns keep their bits when each arc runs on the
        reference controller, whose fields start each Horner loop from 0.0:
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
        assert {status for status, *_ in got} == {0, 1, 2, 3}
        monkeypatch.setattr(_kernel_py, "_arc",
                            lambda n_p, n_q, t: reference_arc(t))
        assert got == [result_bits(_kernel_py.integrate_return(
            *args, tangent=tangent)) for args in cases]


def tableau_step_tangent(p, q, phi, h, y, k1, field=None):
    """The tangent step as loops over _A, the nodes and _E: each stage's v
    summed in the tableau's order, the zero weights included, and its
    derivative F_r v with F_r from ``field``, by default
    ``reference_start_tangent``, at that stage's r."""
    field = field or reference_start_tangent
    (r, t, v), (k1r, k1t, k1f) = y, k1
    kr, kt, kv, fs = [k1r], [k1t], [k1f * v], [k1f]
    for row, c in zip(_kernel_py._A[1:], _kernel_py._C + (1.0,)):
        rs, ts, vs = r, t, v
        for a, krj, ktj, kvj in zip(row, kr, kt, kv):
            rs += (h * a) * krj
            ts += (h * a) * ktj
            vs += (h * a) * kvj
        dr, dt, f = field(p, q, rs, phi + c * h)
        kr.append(dr)
        kt.append(dt)
        kv.append(f * vs)
        fs.append(f)
    er = 0.0
    for e, krj in zip(_kernel_py._E, kr):
        er += (h * e) * krj
    return abs(er), (rs, ts, vs), (kr[6], kt[6], fs[6])


def random_step_inputs(rng, args):
    """The folded p of ``args``, its q times a random side as the kernel
    passes them, and a random point, angle in the return's range, step
    length and tolerance."""
    p, q = _kernel_py.fold(*args[1:8])
    phi0 = -0.5 * math.pi if args[0] == 1 else 0.0
    r, t = rng.uniform(0.5, 6.0), rng.uniform(0.0, 7.0)
    phi = phi0 + rng.uniform(0.0, 2.0 * math.pi)
    side = rng.choice((-1.0, 1.0))
    return (p, [side * c for c in q], r, t, phi,
            10.0 ** rng.uniform(-8.0, 0.0), 10.0 ** rng.uniform(-14.0, -2.0))


class TestWrittenOutTangentStep:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_step_matches_tableau_loops_bitwise(self, rng, mode):
        """The tangent step is written out like the plain one; two
        attempts through the tangent arc end at the reference controller's
        bits, v included, and everything but v is the plain arc's."""
        args = five_vector_args(mode)
        for _ in range(300):
            p, qs, r, t, phi, h, rk_tol = random_step_inputs(rng, args)
            v = rng.uniform(-2.0, 2.0)
            plain, tangent = (_kernel_py._arc(len(p), len(qs), k)
                              for k in (False, True))
            got = attempt_bits(tangent, p, qs, phi, h, (r, t, v), rk_tol)
            assert got == attempt_bits(reference_arc(True), p, qs, phi, h,
                                       (r, t, v), rk_tol)
            assert got[:-1] == attempt_bits(plain, p, qs, phi, h, (r, t),
                                            rk_tol)

    @pytest.mark.parametrize("n_p,n_q", SHAPES)
    def test_every_shape_matches_tableau_loops_bitwise(self, rng, n_p, n_q):
        """Each shape's tangent arc, with its Horner-with-derivative
        chains unrolled, ends 40 random pairs of attempts at the reference
        controller's bits."""
        assert assert_attempts_match(rng, n_p, n_q, True) >= 20

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_field_tangent(self, rng, mode):
        """One step of the tangent arc from v = 1 leaves the plain step's
        bits and, in v, the derivative of its end radius by its start
        radius: a central difference of two plain steps, whose end radius
        depends on r through every stage's field, F_r included."""
        args = five_vector_args(mode)
        finished = 0
        for _ in range(300):
            p, qs, r, t, phi, _h, _tol = random_step_inputs(rng, args)
            h = 10.0 ** rng.uniform(-1.5, 0.0)
            delta = 1e-6 * r
            plain, tangent = (_kernel_py._arc(len(p), len(qs), k)
                              for k in (False, True))
            ends = [attempt_bits(plain, p, qs, phi, h, (r0, t), 1.0, 1)
                    for r0 in (r - delta, r, r + delta)]
            got = attempt_bits(tangent, p, qs, phi, h, (r, t, 1.0), 1.0, 1)
            if got is None or got[1] == phi.hex():
                # stage 1 or a trial stage met the guard
                continue
            assert got[:-1] == ends[1]
            low, high = (float.fromhex(end[4]) for end in ends[::2])
            diff = (high - low) / (2.0 * delta)
            assert float.fromhex(got[-1]) == pytest.approx(diff, abs=1e-7)
            finished += 1
        assert finished >= 200


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


def polyval_with_derivative(coeffs, x):
    """``polyval(coeffs, x)`` and the derivative's value there, from the
    Horner-with-derivative chain beside polyval's loop."""
    value = deriv = 0.0
    for c in reversed(coeffs):
        deriv = deriv * x + value
        value = value * x + c
    return value, deriv


def polyval_field_tangent(p, q, r, phi, side):
    """``polyval_field`` with F_r = d(dr/dphi)/dr as well: (dr/dphi,
    dt/dphi, F_r), or None below the guard.  d(s a r / w)/dr with
    w = r + c a reduces to s (a_r r^2 + c a^2) / w^2, and x = r cos(phi)
    moves with r by cos(phi)."""
    c = math.cos(phi)
    s = math.sin(phi)
    x = r * c
    pa, pd = polyval_with_derivative(p, x)
    qa, qd = polyval_with_derivative(q, x)
    a = -r * s * pa + side * qa
    w = r + c * a
    if not (r > 0.0 and w > _kernel_py._TRANSVERSAL_GUARD * r):
        return None
    dt = r / w
    g = a / w
    return s * a * dt, dt, s * (
        (c * (side * qd) - s * (pa + x * pd)) * dt * dt + c * g * g)


def kernel_form(field):
    """``field`` as a stage-1 field of the reference controller: p and q
    as the kernel takes them, q already times the side, and
    _NonTransversal below the guard."""
    def start(p, q, r, phi):
        out = field(p, q, r, phi, 1.0)
        if out is None:
            raise _kernel_py._NonTransversal
        return out
    return start


# the fields of the reference controller and of its tableau loops
reference_start = kernel_form(polyval_field)
reference_start_tangent = kernel_form(polyval_field_tangent)


def has_negative_zero(coeffs):
    return any(c == 0.0 and math.copysign(1.0, c) < 0.0 for c in coeffs)


class TestFieldCoefficientForm:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["vectors", "negated"])
    @pytest.mark.parametrize("lam,eps", [(0.02, 4e-4), (0.3, 0.09),
                                         (0.0, 0.5)])
    def test_field_matches_polyval_bitwise(self, rng, sign, lam, eps):
        """The arcs on fold's p and on q times the side, plain and
        tangent, end their attempts at the bits of the reference controller
        on the polyval formula with the side applied to q's value: Horner
        from the top is polyval, and a product with +-1 is exact.  The
        negated vectors are what bifurcation_increment passes; with lam = 0
        their zeros fold to -0.0 coefficients."""
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

    @pytest.mark.parametrize("n_p,n_q", SHAPES)
    def test_every_shape_start_matches_reference_fields(self, rng, n_p,
                                                        n_q):
        """Each shape's arc, plain and tangent, meets the guard at stage 1
        where the reference fields do and otherwise ends its attempts at
        the reference controller's bits, on 40 random p and q large enough
        that stage 1 often meets the guard."""
        for tangent in (False, True):
            finished = assert_attempts_match(rng, n_p, n_q, tangent,
                                             scale=10.0)
            assert finished >= 8
            # with p = q = 0 the field is the rotation, which never meets
            # the guard
            assert finished <= (40 if n_p == n_q == 0 else 36)

    @pytest.mark.parametrize("tangent", [False, True])
    def test_step_compiles_at_the_degree_bound(self, rng, tangent):
        """Horner is nested at most 100 steps deep, so the arc for p and
        q of MAX_DEGREE + 1 coefficients compiles, where a chain nested one
        parenthesis per coefficient met the parser's limit of 200 levels.
        Its attempts keep the reference controller's bits."""
        n = MAX_DEGREE + 1
        assert assert_attempts_match(rng, n, n, tangent, count=10) >= 5

    @staticmethod
    def check(rng, p, q):
        for _ in range(200):
            r, t = rng.uniform(0.2, 6.0), rng.uniform(0.0, 7.0)
            phi = rng.uniform(-0.5 * math.pi, 2.5 * math.pi)
            h, rk_tol = 10.0 ** rng.uniform(-8.0, 0.0), 1e-10
            side = rng.choice((-1.0, 1.0))
            qs = [side * c for c in q]
            for tangent, field in ((False, polyval_field),
                                   (True, polyval_field_tangent)):
                sided = kernel_form(lambda _p, _q, r, phi, _s, field=field:
                                    field(p, q, r, phi, side))
                y = (r, t, 1.0) if tangent else (r, t)
                got = attempt_bits(_kernel_py._arc(len(p), len(qs), tangent),
                                   p, qs, phi, h, y, rk_tol)
                assert got == attempt_bits(reference_arc(tangent, sided),
                                           p, qs, phi, h, y, rk_tol)


def record_steps(monkeypatch, args):
    """Run the kernel on ``args`` and replay each of its arcs one step
    attempt at a time: rerun from the arc's start with max_steps one above
    the attempts before it, an arc stops right after the next attempt.
    Returns the result and, for each attempt, the phi and the step length
    h before it and the phi after it: a rejected attempt leaves phi where
    it was.  Near an arc's end the step taken is shorter than h."""
    attempts = []

    def replayed(arc):
        def run(p, q, phi, end, h, steps, max_steps, *rest):
            result = arc(p, q, phi, end, h, steps, max_steps, *rest)
            before, after = (phi, h), None
            for n in range(steps + 1, result[3] + 1):
                after = arc(p, q, phi, end, h, steps, n, *rest)
                attempts.append((*before, after[1]))
                before = after[1:3]
            assert after is None or result_bits(after) == result_bits(result)
            return result
        return run

    # the kernel fetches one arc function per arc
    make = _kernel_py._arc
    monkeypatch.setattr(_kernel_py, "_arc", lambda *key: replayed(make(*key)))
    return _kernel_py.integrate_return(*args), attempts


class TestStepControl:
    def test_first_step_is_pi_over_16(self, monkeypatch):
        _result, attempts = record_steps(
            monkeypatch, example1_args(0, 2.0, 0.0, 2_000_000, 1e-3))
        assert attempts[0][:2] == (0.0, math.pi / 16)

    def test_no_growth_right_after_rejection(self, monkeypatch):
        """At lam = 0.3 the first pi/16 step is rejected; after every
        rejection, the step that follows the next accepted one is no longer
        than it."""
        (status, *_), attempts = record_steps(monkeypatch,
                                              first_step_rejected_args())
        assert status == 0
        accepted = [after != phi for phi, _h, after in attempts]
        assert not accepted[0]
        checked = 0
        for i in range(len(attempts) - 2):
            if not accepted[i] and accepted[i + 1]:
                assert attempts[i + 2][1] <= attempts[i + 1][1]
                checked += 1
        assert checked >= 5

    def test_arc_ends_on_two_halves(self, monkeypatch):
        """The designed-cycle return ends both arcs on two accepted steps of
        equal length, the rest of the arc halved, with no sliver after a
        full step."""
        (status, *_), attempts = record_steps(monkeypatch,
                                              designed_cycle_args())
        assert status == 0
        done = [attempt for attempt in attempts if attempt[2] != attempt[0]]
        for end in (math.pi, 2.0 * math.pi):
            k = next(i for i, (_phi, _h, after) in enumerate(done)
                     if after == end)
            (phi1, h1, phi2), (_phi2, _h2, after) = done[k - 1], done[k]
            assert h1 > phi2 - phi1
            assert phi2 - phi1 == pytest.approx(after - phi2, rel=1e-12)

    def test_trial_stage_below_guard_rejects_the_step(self, monkeypatch):
        """A trial stage below the guard after the switch rejects its step,
        not the return: the return ends with status 0, not 3 at the switch,
        and agrees with a 1e-13 return."""
        raised = [0]

        def counted(self, *args):
            raised[0] += 1
            Exception.__init__(self, *args)

        monkeypatch.setattr(_kernel_py._NonTransversal, "__init__", counted)
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
        (status, x, y, _t, crossings), attempts = record_steps(
            monkeypatch, OVERDAMPED_ARGS)
        assert (status, crossings) == (3, [])
        phi = math.atan2(-y, x)
        assert 0.0 < math.atan(0.5) - phi <= 1e-8
        assert 0.2 * attempts[-1][1] < _kernel_py._H_FLOOR <= attempts[-1][1]


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


    def test_failed_polish_return_keeps_the_proxy_root(self, monkeypatch):
        """A polish return that raises leaves each cycle at its proxy root,
        with a NaN residual and no Newton step.  The design is the README
        quickstart's, whose polished h* are about 1.000003 and 3.999984."""
        def escape(*args, **kwargs):
            raise EscapeAnnulus("the polish return left the annulus")

        designed = design_case_y([1.0, 4.0], 3, 3)
        monkeypatch.setattr(simulator, "displacement", escape)
        scan = find_cycles(designed, (1.0, 3.4), 60,
                           SimConfig(lam=0.02, eps=4e-4))
        assert [c.h_star for c in scan.cycles] == pytest.approx(
            [0.99999534, 4.0000027], abs=5e-8)
        for c in scan.cycles:
            assert math.isnan(c.residual)
            assert c.h_star == 0.5 * c.radius * c.radius
            assert not math.isnan(c.stability_slope)

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
        65, where values alone needed 65 nodes.  Monomials of that proxy
        would lose up to T_j(3) ~ 5.8^j to rounding, enough to miss 2 of
        the 12 zeros k pi / 16; its Bernstein coefficients find all 12."""
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
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 17])
    def test_chebyshev_bernstein_weights_are_exact(self, n):
        """Column k of the weights at degree n holds the k-th Bernstein
        coefficient of T_j(2u - 1), j <= n, correctly rounded: T_0..T_8 at
        their own and higher degrees, and T_0..T_17 at degree 17.  The
        exact value comes from T_j's monomials in u, by T_{j+1} =
        2 (2u - 1) T_j - T_{j-1}, and b_k = sum_i C(k, i) a_i / C(n, i)."""
        cols = roots._chebyshev_weights(n)
        prev, cur = [Fraction(-1), Fraction(2)], [Fraction(1)]
        for j in range(n + 1):
            for k in range(n + 1):
                exact = sum(Fraction(math.comb(k, i), math.comb(n, i)) * a
                            for i, a in enumerate(cur[:k + 1]))
                assert cols[k][j] == float(exact)
            nxt = [-2 * a for a in cur] + [0]
            for i, a in enumerate(cur):
                nxt[i + 1] += 4 * a
            for i, a in enumerate(prev):
                nxt[i] -= a
            prev, cur = cur, nxt

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

        def stub(*args, tangent=False):
            asked.append(args)
            return status, 1.0, 0.0, 0.5, []

        monkeypatch.setattr(simulator, "_kernel", SimpleNamespace(
            BACKEND_NAME=_kernel_py.BACKEND_NAME, integrate_return=stub))
        with pytest.raises(error) as info:
            advance_to_section(load_preset("example1"), 2.0, SimConfig())
        if status == 7:
            assert "unknown status 7" in str(info.value)
        assert asked[0][-2:] == (simulator.R_MIN, simulator.R_MAX)

    @pytest.mark.parametrize("budget", [1, 0])
    def test_scan_needs_two_grid_points(self, budget):
        with pytest.raises(ValueError):
            find_cycles(load_preset("example1"), (1.0, 2.0), budget,
                        SimConfig())

    @pytest.mark.parametrize("r_range", [(3.4, 1.0), (2.0, 2.0),
                                         (1.0, math.inf)])
    def test_scan_needs_rising_range(self, r_range):
        """A reversed, empty or unbounded range has no Chebyshev nodes to
        map onto [-1, 1]: on (1, inf) the midpoint and half-width are both
        inf, and the nodes would be inf and NaN radii."""
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

    def test_config_zero_params_are_used(self):
        """An explicit lam or eps of 0 is used, where two zeros used to
        mean the system's values (a return at lam = 0.02, d = -0.055).  At
        lam = eps = 0 the flow is the linear centre and every start
        returns to itself.  A field left None takes the system's value."""
        sys_ = load_preset("example1").with_params(0.02, 4e-4)

        def d(config):
            return advance_to_section(sys_, 2.0, config)[0] - 2.0

        assert abs(d(SimConfig(lam=0.0, eps=0.0))) <= 1e-12
        assert d(SimConfig()) == d(SimConfig(lam=0.02, eps=4e-4))
        assert d(SimConfig(eps=0.0)) == d(SimConfig(lam=0.02, eps=0.0))
        assert d(SimConfig(lam=0.0)) == d(SimConfig(lam=0.0, eps=4e-4))

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
        i3 = closed_forms(sys_)[3].eval(h)
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
        i3 = closed_forms(sys_)[3].eval(h)
        richardson = self._richardson(sys_, h, lam)
        offset = (richardson - pred_contracted) / lam
        # the half-arc block dominates the discrepancy ...
        assert 0.9 <= offset / -i3 <= 1.15
        # ... and removing it leaves a residual below 5% of the block
        pred_reduced = exp.m0.eval(h) + lam * (
            closed_forms(sys_.odd_projection())[1].eval(h)
            + closed_forms(sys_)[2].eval(h))
        assert abs(richardson - pred_reduced) <= 0.05 * lam * abs(i3)
