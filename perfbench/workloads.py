"""Seeded inputs, operations and correctness checks for each workload.

Every workload is a list of op specs built from one ``random.Random(seed)``.
Op kinds are laid out round-robin, so every block of consecutive ops has the
same mix whatever the seed; the seed only moves coefficients and targets.
An op returns a dict of what it measured besides time (empty but for
``cycles``) and raises ``CheckFailed`` (or the package's own exception)
when its output is wrong.

The package is called through module attributes (``melnikov.expand``, not a
name bound at import time), so the timing wrappers of ``tracing.py`` see
every call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

from pwlienard import design, melnikov, oracle, roots, simulator
from pwlienard.algebra import RingElem
from pwlienard.systems import Case, LienardSystem

# CLI default comparison tolerance (PWLIENARD_REL_TOL)
REL_TOL = 1e-8
# Energies up to 2: above that, integrals that vanish by symmetry can carry
# a QUADPACK error estimate over the oracle's absolute target (README.md).
VERIFY_H_GRID = (0.125, 0.25, 0.5, 1.0, 1.5, 2.0)

# designed-cycle systems: lambda = 0.02, eps = lambda^2, scanned on one grid
CYCLE_LAM = 0.02
CYCLE_EPS = CYCLE_LAM ** 2
CYCLE_R_RANGE = (1.0, 3.4)
CYCLE_GRID = 25
# Target energies per cycle count: one window per target.  Neighbouring
# windows stay >= 0.4 apart in r = sqrt(2h), four grid steps of 0.1, so the
# scan sees every sign change of the displacement.
CYCLE_WINDOWS = {
    1: ((1.5, 3.5),),
    2: ((0.8, 1.4), (2.8, 4.0)),
    3: ((0.8, 1.2), (2.0, 2.6), (3.6, 4.4)),
}
CYCLE_INCREMENT_TOL = 1e-12
CYCLE_H_TOL = 0.02  # located h* within 2 % of its target

CLI_COMMANDS = ("melnikov", "roots", "design", "oracle", "verify", "simulate")
CLI_SIM_GRID = 12

# Distinct inputs per run; a run cycles through them, so each is timed
# several times (cycles: two per case and target count).
POOL_SIZE = {"exact": 240, "verify": 240, "cycles": 12}


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def _check(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# -- random exact inputs -------------------------------------------------------


def _rand_q(rng, lo=-3, hi=3, den=4) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), rng.randint(1, den))


def _rand_vec(rng, length, zero_share=0.25):
    return [Fraction(0) if rng.random() < zero_share else _rand_q(rng)
            for _ in range(length)]


def _nonzero_q(rng) -> Fraction:
    q = _rand_q(rng)
    return q if q else Fraction(1)


def random_system(rng, case: Case, m: int, n: int) -> LienardSystem:
    """System with nonzero M0 and nonzero M1 after odd projection.

    f0 and g0 carry even parts (which make M0) and odd parts (which make
    M1).  M1 assumes odd f0 and g0, so callers compare it on
    ``sys.odd_projection()``: with purely odd f0 and g0, M0 would vanish.
    """
    a0 = _rand_vec(rng, m + 1)
    a1 = _rand_vec(rng, m + 1)
    a0[0] = _nonzero_q(rng)  # makes h^1 in M0
    a1[0] = _nonzero_q(rng)  # makes h^1 in M1
    return LienardSystem.build(
        case, m, n, a0=a0, a1=a1, b0=_rand_vec(rng, n + 1),
        b1=_rand_vec(rng, n + 1), c=_rand_vec(rng, n + 1))


def _distinct_targets(rng, k, den=4, top=6):
    """k distinct rationals i/den in (0, top], at least 2/den apart.

    Values whose square root is rational (1/4, 9/4, ...) are left out: a
    root at s = 1/2 or 3/2 can land exactly on a bisection point of the root
    isolator, which then loses it (see README.md).
    """
    slots = [i for i in range(1, top * den + 1, 2)
             if math.isqrt(i) ** 2 != i]
    return sorted(Fraction(i, den) for i in rng.sample(slots, k))


def _design_kmax(case: Case, m: int, n: int) -> int:
    """Most targets the designer can place for this shape."""
    bound = melnikov.zero_bound(case, m, n, "M1")
    if case is Case.SWITCH_Y:
        # K targets need s^1 .. s^(K+1): even powers s^(2i+2) through a1
        # (i <= m//2), odd powers s^(2l+1) through b1 and b0 (l <= 2*(n//2))
        return max(k for k in range(bound + 1)
                   if (k + 1) // 2 - 1 <= m // 2 and k // 2 <= 2 * (n // 2))
    # one fewer target than allowed monomials; beyond four targets the
    # float null-space solve moves zeros off their targets
    hm_odd = (m - 1) // 2
    n_t = (n - 1) // 2 if n >= 1 else 0
    monomials = (m // 2 + 1) + (hm_odd + n_t + 1 if m >= 1 else 0)
    return min(monomials - 1, bound, 4)


# -- exact: expansion, roots, design ------------------------------------------

# Shapes and target counts follow a fixed round-robin, the same for every
# seed, so the seed moves coefficients and targets but not the amount of work.
ANALYSIS_SHAPES = [(m, n) for m in range(1, 8) for n in range(1, 8)]

# Shapes on which the designers place every target count up to
# _design_kmax.  design_case_y needs odd n there (even n overruns b0), and
# design_case_x's Newton solve often fails for n >= 3 (see README.md).
EXACT_DESIGN_SHAPES = {
    Case.SWITCH_Y: ((3, 3), (4, 3), (5, 5), (6, 5), (7, 7)),
    Case.SWITCH_X: ((3, 1), (4, 2), (5, 1), (5, 2), (6, 1), (7, 1)),
}


def design_plan(case: Case):
    """Every (m, n, target count) the workload asks the designer for."""
    return [(m, n, k) for m, n in EXACT_DESIGN_SHAPES[case]
            for k in range(1, _design_kmax(case, m, n) + 1)]


def gen_exact(rng, count):
    plans = {case: design_plan(case) for case in Case}
    specs = []
    for i in range(count):
        case = Case.SWITCH_Y if (i // 2) % 2 == 0 else Case.SWITCH_X
        j = i // 4  # position among the ops of this kind
        if i % 2 == 0:
            m, n = ANALYSIS_SHAPES[j % len(ANALYSIS_SHAPES)]
            specs.append({"kind": f"analysis_{case.value}",
                          "sys": random_system(rng, case, m, n)})
        else:
            m, n, k = plans[case][j % len(plans[case])]
            specs.append({"kind": f"design_{case.value}", "case": case,
                          "m": m, "n": n,
                          "targets": _distinct_targets(rng, k)})
    return specs


def _check_roots(poly, report, bound, label):
    _check(report.certified_count() <= bound,
           f"{label}: {report.certified_count()} certified roots exceed "
           f"the bound {bound}")
    scale = sum(abs(c.to_float()) for c in poly.coeffs.values())
    for r in report.h_roots:
        _check(r.mid > 0 and r.lo <= r.mid <= r.hi, f"{label}: bad interval")
        size = max(1.0, r.mid) ** ((poly.degree_key() or 0) / 2)
        _check(abs(poly.eval(r.mid)) <= 1e-6 * scale * size,
               f"{label}: |P| too large at certified root h={r.mid!r}")


def op_exact(spec):
    if spec["kind"].startswith("analysis"):
        sys_ = spec["sys"]
        exp = melnikov.expand(sys_, project_odd=True)
        for which, poly in (("M0", exp.m0), ("M1", exp.m1)):
            report = roots.isolate_positive_roots(poly, sys_.case, sys_.m,
                                                  sys_.n, which=which)
            bound = melnikov.zero_bound(sys_.case, sys_.m, sys_.n, which)
            _check(report.theorem_bound == bound, f"{which}: wrong bound")
            _check_roots(poly, report, bound, which)
        return {}
    case, m, n, targets = spec["case"], spec["m"], spec["n"], spec["targets"]
    floats = [float(t) for t in targets]
    if case is Case.SWITCH_Y:
        sys_ = design.design_case_y(floats, m, n)
    else:
        sys_ = design.design_case_x(floats, m, n)
    ok, residuals, m1 = design.verify_design(sys_, floats)
    _check(ok, f"verify_design failed, residuals {residuals}")
    report = roots.isolate_positive_roots(m1, case, m, n)
    _check_roots(m1, report, melnikov.zero_bound(case, m, n, "M1"), "M1")
    for t in floats:
        _check(any(r.certificate == roots.CERT_SIMPLE
                   and abs(r.mid - t) <= 1e-4 * max(1.0, t)
                   for r in report.h_roots),
               f"target {t} is not on a certified root")
    return {}


# -- verify: closed forms against quadrature -----------------------------------


def gen_verify(rng, count):
    specs = []
    for i in range(count):
        case = Case.SWITCH_Y if i % 2 == 0 else Case.SWITCH_X
        m, n = ANALYSIS_SHAPES[(i // 2) % len(ANALYSIS_SHAPES)]
        specs.append({"kind": f"verify_{case.value}",
                      "sys": random_system(rng, case, m, n)})
    return specs


def op_verify(spec):
    sys_ = spec["sys"]
    odd = sys_.odd_projection()
    exp = melnikov.expand(sys_, project_odd=True)
    for h in VERIFY_H_GRID:
        for closed, quad in ((exp.m0.eval(h), oracle.oracle_m0(sys_, h)),
                             (exp.m1.eval(h), oracle.oracle_m1(odd, h))):
            err = abs(closed - quad) / (1.0 + abs(quad))
            _check(err <= REL_TOL, f"rel err {err:.3e} at h={h}")
    return {}


# -- cycles: designed limit cycles found by direct simulation ------------------


def _product_coeffs(targets):
    """Coefficients q_j of h^(j+1) in h * prod(h - t_i), exactly."""
    coeffs = [Fraction(1)]
    for t in targets:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] += c
            new[k] -= t * c
        coeffs = new
    return coeffs


def cycle_system(case: Case, targets) -> LienardSystem:
    """M0 = 0 and M1 = h * prod(h - t_i), set through a1 alone.

    a1_{2j} contributes sign * (2 pi / (j+1)) * prod_{l<=j} (2l-1)/l * h^(j+1)
    to M1, with sign +1 for switch-on-y and -1 for switch-on-x; every other
    coefficient is zero, so g stays zero and the period annulus survives.
    """
    sign = 1 if case is Case.SWITCH_Y else -1
    m = 2 * len(targets)
    a1 = [0] * (m + 1)
    for j, q in enumerate(_product_coeffs(targets)):
        factor = Fraction(2 * sign, j + 1)
        for l in range(1, j + 1):
            factor *= Fraction(2 * l - 1, l)
        a1[2 * j] = RingElem.term(q / factor, p=-1)
    return LienardSystem.build(case, m, 0, a1=a1)


def gen_cycles(rng, count):
    specs = []
    for i in range(count):
        case = Case.SWITCH_Y if i % 2 == 0 else Case.SWITCH_X
        k = (i // 2) % 3 + 1
        targets = [Fraction(round(rng.uniform(lo, hi) * 40), 40)
                   for lo, hi in CYCLE_WINDOWS[k]]
        specs.append({"kind": f"cycles_{case.value}", "case": case,
                      "targets": targets, "sys": cycle_system(case, targets)})
    return specs


def _increment_points(targets):
    """Energies between, below and above the targets, where M1 != 0."""
    ts = [float(t) for t in targets]
    return [0.5 * ts[0]] + [0.5 * (a + b) for a, b in zip(ts, ts[1:])] \
        + [ts[-1] + 0.5]


def op_cycles(spec):
    sys_, targets = spec["sys"], [float(t) for t in spec["targets"]]
    config = simulator.SimConfig(lam=CYCLE_LAM, eps=CYCLE_EPS)
    scan = simulator.find_cycles(sys_, CYCLE_R_RANGE, CYCLE_GRID, config)
    # find_cycles stores NaN where a return failed (nonzero kernel status)
    _check(not any(math.isnan(d) for d in scan.displacements),
           "a return of the scan failed")
    found = sorted(c.h_star for c in scan.cycles)
    _check(len(found) == len(targets),
           f"{len(found)} cycles found for {len(targets)} targets")
    errs = [abs(h - t) / t for h, t in zip(found, targets)]
    _check(max(errs) <= CYCLE_H_TOL, f"h* off its target by {max(errs):.3e}")
    m1 = melnikov.expand(sys_).m1
    for h in _increment_points(targets):
        inc = simulator.bifurcation_increment(sys_, h, CYCLE_LAM, CYCLE_EPS,
                                              rk_tol=CYCLE_INCREMENT_TOL)
        _check((inc > 0) == (m1.eval(h) > 0),
               f"increment sign {inc:+.3e} disagrees with M1 at h={h}")
    return {"h_star_rel_err_max": max(errs)}


# -- CLI: one fresh interpreter per subcommand ---------------------------------


def gen_cli(rng, workdir):
    """One op per subcommand; writes the system documents the CLI reads
    into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    specs = []
    for i, command in enumerate(CLI_COMMANDS):
        case = Case.SWITCH_Y if i % 2 == 0 else Case.SWITCH_X
        spec = {"kind": f"cli_{command}", "command": command}
        if command == "design":
            plan = design_plan(case)
            m, n, k = plan[i % len(plan)]
            targets = _distinct_targets(rng, k)
            spec["argv"] = ["design", "--case", case.value, "--m", str(m),
                            "--n", str(n), "--targets",
                            ",".join(str(float(t)) for t in targets)]
        else:
            if command == "simulate":
                targets = [Fraction(round(rng.uniform(lo, hi) * 40), 40)
                           for lo, hi in CYCLE_WINDOWS[2]]
                sys_ = cycle_system(case, targets)
                spec["targets"] = [float(t) for t in targets]
            else:
                m, n = ANALYSIS_SHAPES[8 * i % len(ANALYSIS_SHAPES)]
                sys_ = random_system(rng, case, m, n).odd_projection()
            path = os.path.join(workdir, f"sys{i}.json")
            with open(path, "w") as fh:
                fh.write(sys_.dumps())
            spec["argv"] = [command, "--system", path]
            if command == "roots":
                spec["argv"] += ["--which", "M1"]
            elif command in ("oracle", "verify"):
                spec["argv"] += ["--h-grid", ",".join(map(str, VERIFY_H_GRID))]
            elif command == "simulate":
                spec["argv"] += ["--lam", str(CYCLE_LAM), "--eps", str(CYCLE_EPS),
                                 "--r-range", "%g:%g" % CYCLE_R_RANGE,
                                 "--grid", str(CLI_SIM_GRID)]
        specs.append(spec)
    return specs


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def op_cli(spec, env):
    """One fresh ``python -m pwlienard.cli`` child, waited for."""
    proc = subprocess.run([sys.executable, "-m", "pwlienard.cli"] + spec["argv"],
                          capture_output=True, text=True, env=env, timeout=120)
    _check(proc.returncode == 0,
           f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    command, out = spec["command"], proc.stdout
    if command in ("oracle", "verify"):
        rows = _csv_rows(out)
        _check(rows and all(r["status"] == "pass" for r in rows),
               "a comparison row did not pass")
    else:
        doc = json.loads(out)
        if command == "melnikov":
            _check("M1" in doc and len(doc["grid"]) == 4, "missing fields")
        elif command == "roots":
            _check(doc["certified_count"] <= doc["theorem_bound"],
                   "certified count above the bound")
        elif command == "design":
            _check(doc["verified"], "design not verified")
        elif command == "simulate":
            found = sorted(c["h_star"] for c in doc["cycles"])
            _check(len(found) == len(spec["targets"]) and all(
                abs(h - t) / t <= CYCLE_H_TOL
                for h, t in zip(found, spec["targets"])),
                f"cycles {found} for targets {spec['targets']}")
    return {}
