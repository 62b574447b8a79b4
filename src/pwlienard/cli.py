"""Command-line harness: expansions, roots, oracle checks, simulation,
inverse design and end-to-end verification.

Exit codes: 0 success, 2 input error (a ValueError, errors.InvalidInput
included, a KeyError or an OSError), 3 numerical failure.
Default comparison tolerance can be overridden with PWLIENARD_REL_TOL, a
finite non-negative number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from . import melnikov, oracle, roots, simulator
from .design import design_case_x, design_case_y, verify_design
from .errors import PwLienardError
from .systems import PRESET_NAMES, Case, LienardSystem, load_preset

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

DEFAULT_REL_TOL = 1e-8


def _rel_tol() -> float:
    text = os.environ.get("PWLIENARD_REL_TOL", str(DEFAULT_REL_TOL))
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:  # written so that NaN fails it
        raise ValueError(
            f"PWLIENARD_REL_TOL must be finite and non-negative, got {text!r}")
    return tol


def _load_system(args) -> LienardSystem:
    if args.preset and args.system:
        raise ValueError("give one of --preset/--system, not both")
    if args.preset:
        sys_ = load_preset(args.preset)
    elif args.system:
        with open(args.system) as fh:
            sys_ = LienardSystem.from_json(json.load(fh))
    else:
        raise ValueError("one of --preset/--system is required")
    if args.lam is not None or args.eps is not None:
        # a flag left unset keeps the preset's or the file's value
        sys_ = sys_.with_params(sys_.lam if args.lam is None else args.lam,
                                sys_.eps if args.eps is None else args.eps)
    return sys_


def _numbers(least: int):
    """The argparse type of comma-separated numbers, at least ``least``."""
    def parse(text: str) -> list:
        try:
            values = [float(v) for v in text.split(",") if v.strip()]
        except ValueError:
            values = None
        if values is None or len(values) < least:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated numbers, got {text!r}")
        return values
    return parse


def _r_range(text: str):
    """``--r-range lo:hi`` as the pair (lo, hi)."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi, two numbers, got {text!r}") from None
    return lo, hi


def _int_from(lo: int):
    """The argparse type of an integer from ``lo``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"expected an integer from {lo}, got {text!r}")
        return value
    return parse


def _rel_err(value: float, reference: float) -> float:
    """The error of ``value`` relative to 1 + |reference|."""
    return abs(value - reference) / (1.0 + abs(reference))


def _emit(args, name: str, text: str):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of strings."""
    return header + "\n" + "\n".join(",".join(row) for row in rows) + "\n"


def _fmt(args, v: float) -> str:
    return f"{v:.{args.precision}g}"


# -- subcommands ---------------------------------------------------------------


def cmd_melnikov(args) -> int:
    sys_ = _load_system(args)
    exp = melnikov.expand(sys_, project_odd=args.project_odd)
    report = {
        "case": sys_.case.value,
        "m": sys_.m,
        "n": sys_.n,
        "M0": exp.m0.to_json(),
        "M1": exp.m1.to_json(),
        "zero_bound": {
            "M0": melnikov.zero_bound(sys_.case, sys_.m, sys_.n, "M0"),
            "M1": melnikov.zero_bound(sys_.case, sys_.m, sys_.n, "M1"),
        },
        "grid": [
            {"h": h, "M0": exp.m0.eval(h), "M1": exp.m1.eval(h)}
            for h in args.h_grid
        ],
    }
    _emit(args, "melnikov.json", json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_roots(args) -> int:
    sys_ = _load_system(args)
    # M0 has no oddness hypothesis, so reporting it waives the M1 check
    exp = melnikov.expand(sys_,
                          project_odd=args.project_odd or args.which == "M0")
    poly = exp.m0 if args.which == "M0" else exp.m1
    report = roots.isolate_positive_roots(poly, sys_.case, sys_.m, sys_.n,
                                          which=args.which)
    doc = {
        "which": args.which,
        "descartes_bound": report.descartes_bound,
        "theorem_bound": report.theorem_bound,
        "certified_count": report.certified_count(),
        "h_roots": [asdict(r) for r in report.h_roots],
        "suspected": [asdict(r) for r in report.suspected],
    }
    _emit(args, "roots.json", json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    sys_ = _load_system(args)
    exp = melnikov.expand(sys_, project_odd=True)
    tol = _rel_tol()
    rows = []
    for h in args.h_grid:
        # closed forms first: at an h too large they name the term
        m0, m1 = exp.m0.eval(h), exp.m1.eval(h)
        pairs = [
            ("M0", m0, oracle.oracle_m0(sys_, h)),
            ("M1", m1, oracle.oracle_m1(sys_, h)),
        ]
        for name, closed, quad in pairs:
            err = _rel_err(closed, quad)
            rows.append([_fmt(args, h), name, _fmt(args, closed),
                         _fmt(args, quad), f"{err:.3e}",
                         "pass" if err <= tol else "FAIL"])
    _emit(args, "oracle.csv",
          _csv("h,term,closed,oracle,rel_err,status", rows))
    return EXIT_NUMERICAL if any(r[-1] == "FAIL" for r in rows) else EXIT_OK


def cmd_simulate(args) -> int:
    r = args.dump_traj
    if r is not None and not simulator.R_MIN < r < simulator.R_MAX:
        raise ValueError(f"--dump-traj {r!r} outside the annulus "
                         f"({simulator.R_MIN}, {simulator.R_MAX})")
    sys_ = _load_system(args)
    # the system carries lambda and eps
    config = simulator.SimConfig(rk_tol=args.rk_tol)
    scan = simulator.find_cycles(sys_, args.r_range, args.grid, config)
    doc = {
        "backend": simulator.BACKEND,
        "non_isolated": scan.non_isolated,
        "cycles": [asdict(c) for c in scan.cycles],
    }
    _emit(args, "cycles.json", json.dumps(doc, indent=2) + "\n")
    if args.out:  # written to a file only, never to stdout
        _emit(args, "displacement.csv", _csv("r,displacement", (
            (repr(r), repr(d)) for r, d in zip(scan.grid, scan.displacements))))
    if args.dump_traj is not None:
        rows = trajectory_rows(sys_, args.dump_traj, config)
        _emit(args, "trajectory.csv", _csv(
            "t,x,y,side", ([repr(v) for v in row] for row in rows)))
    return EXIT_OK


def trajectory_rows(sys_, r, config):
    """Crossing log for one full return started at section coordinate r."""
    _coord, _t, crossings = simulator.advance_to_section(sys_, r, config)
    start_side = crossings[0][3] if crossings else 0.0
    rows = [(0.0, r, 0.0, -start_side) if sys_.case is Case.SWITCH_Y
            else (0.0, 0.0, r, -start_side)]
    rows.extend(crossings)
    return rows


def cmd_design(args) -> int:
    case = Case(args.case)
    if case is Case.SWITCH_Y:
        sys_ = design_case_y(args.targets, args.m, args.n)
    else:
        sys_ = design_case_x(args.targets, args.m, args.n)
    ok, residuals, m1 = verify_design(sys_, args.targets)
    report = roots.isolate_positive_roots(m1, case, args.m, args.n) \
        if not m1.is_zero() else None
    doc = {
        "system": sys_.to_json(),
        "M1": m1.to_json(),
        "targets": args.targets,
        "residuals": residuals,
        "verified": ok,
        "roots": None if report is None else {
            "certified_count": report.certified_count(),
            "h_roots": [asdict(r) for r in report.h_roots],
        },
    }
    _emit(args, "design.json", json.dumps(doc, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    sys_ = _load_system(args)
    tol = _rel_tol()
    exp = melnikov.expand(sys_, project_odd=True)
    forms = melnikov.closed_forms(sys_)
    rows = []

    def add(check, value, reference, threshold):
        err = _rel_err(value, reference)
        rows.append((check, value, reference, err, threshold,
                     err <= threshold))

    for h in args.h_grid:
        m0, m1 = exp.m0.eval(h), exp.m1.eval(h)
        # each integral once: M0 is I_0 and M1 sums the rest, in the order
        # of oracle_m0 and oracle_m1
        quads = [oracle.quad_I(sys_, h, i)
                 for i in range(sys_.case.n_integrals)]
        add(f"M0@h={h}", m0, quads[0], tol)
        add(f"M1@h={h}", m1, sum(quads[1:]), tol)
        for i, (form, quad) in enumerate(zip(forms, quads)):
            add(f"I{i}@h={h}", form.eval(h), quad, tol)
    if args.with_sim:
        # _load_system has applied --lam/--eps to the system
        lam = sys_.lam or 0.02
        eps = sys_.eps or 1e-4
        for h in (0.5, 2.0):
            # one-return finite difference of M0 + lam*M1 + O(lam^2)
            est = simulator.bifurcation_increment(sys_, h, lam, eps) / eps
            pred = exp.m0.eval(h) + lam * exp.m1.eval(h)
            # first-order estimate: allow O(eps) + O(lam^2) slack
            add(f"F@h={h}", est, pred, max(tol, 50 * (eps + lam * lam)))
    _emit(args, "verify.csv", _csv(
        "check,value,reference,rel_err,tol,status",
        ((c, _fmt(args, v), _fmt(args, r), f"{e:.3e}", f"{t:.1e}",
          "pass" if ok else "FAIL") for c, v, r, e, t, ok in rows)))
    bad = [r for r in rows if not r[5]]
    if bad:
        print(f"first failing row: {bad[0][0]}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pwlienard",
        description="Melnikov expansions for piecewise Lienard systems",
        epilog="@FILE stands for FILE's lines, one argument per line",
        fromfile_prefix_chars="@")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--precision", type=_int_from(0), default=17,
                   help="significant digits in numeric output")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--preset", choices=PRESET_NAMES)
        sp.add_argument("--system", help="LienardSystem JSON document path")
        sp.add_argument("--lam", type=float, default=None)
        sp.add_argument("--eps", type=float, default=None)

    sp = sub.add_parser("melnikov", help="closed-form expansion report")
    common(sp)
    sp.add_argument("--h-grid", type=_numbers(1), default="0.5,1,2,3")
    sp.add_argument("--project-odd", action="store_true")
    sp.set_defaults(func=cmd_melnikov)

    sp = sub.add_parser("roots", help="certified positive-zero isolation")
    common(sp)
    sp.add_argument("--which", choices=["M0", "M1"], default="M1")
    sp.add_argument("--project-odd", action="store_true")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("oracle", help="closed form vs quadrature")
    common(sp)
    sp.add_argument("--h-grid", type=_numbers(1), default="0.5,1,2,3")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("simulate", help="displacement scan and cycle search")
    common(sp)
    sp.add_argument("--r-range", type=_r_range, default=(1.0, 6.5),
                    metavar="lo:hi")
    sp.add_argument("--grid", type=_int_from(2), default=400)
    sp.add_argument("--rk-tol", type=float, default=1e-10)
    sp.add_argument("--dump-traj", type=float, default=None,
                    metavar="R", help="dump the crossing log from r=R")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("design", help="place M1 zeros at target energies")
    sp.add_argument("--case", choices=["Y", "X"], required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--targets", type=_numbers(0), default="")
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("verify", help="closed form vs oracle vs simulator")
    common(sp)
    sp.add_argument("--h-grid", type=_numbers(1), default="0.5,1,2,3")
    sp.add_argument("--with-sim", action="store_true")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # errors.InvalidInput and json.JSONDecodeError are ValueErrors: every
    # input error exits 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PwLienardError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
