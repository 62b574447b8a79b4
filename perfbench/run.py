"""pwlienard benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload exact|verify|cycles|all
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` of this checkout.
Load comes from one closed-loop client: one op at a time, no threads, one
child process at a time.  Each run starts ``SETUPS`` fresh worker processes
in turn; all of them time the set-up (fresh import, input generation, one
warm-up op) and the middle one then measures for ``--seconds``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced pass.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full results, the
environment and the spans go to ``perfbench/out/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact", "verify", "cycles")
SETUPS = 7
CHILD_TIMEOUT_S = 150
IMPORT_PROBES = 3


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_child(argv):
    """Run one child in its own process group, wait for it, kill the group
    on timeout; return its stdout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}")
    return out


def run_worker(args, mode):
    out = run_child([sys.executable, str(HERE / "worker.py"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--mode", mode, "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", str(OUT)])
    return json.loads(out.strip().splitlines()[-1])


def import_probe(module):
    """Seconds to import ``module`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    return float(run_child([sys.executable, "-c", code]).split()[-1])


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def spec_units(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def end_to_end(main, setup_times):
    (p,), t = main["passes"], main["timing"]
    n, failed = t["n"], sum(p["failed"].values())
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_kref": 1e3 * n / t["typical_busy_ref"],
        "op_p50_ref": t["p50_ref"],
        "op_tail_ref": t["tail_ref"],
        "pass_ratio": 1.0 - failed / n,
        "peak_rss_mb": main["rss_mb"],
    }
    notes = [f"1 ref = one reference loop, median {t['ref_ms']:.6g} ms in this"
             f" run; ops timed at their input's median of at least"
             f" {t['min_repeats']} repeats; op_tail_ref is"
             f" p{t['tail_pct']:.1f} of {n} ops",
             f"as run: {n / t['raw_busy_s']:.6g} ops/s, median op "
             f"{1e3 * t['raw_p50_s']:.6g} ms",
             f"fail_ratio {failed / n:.6g} ratio (failed {failed} of {n})"]
    if p["h_star_rel_err_max"] is not None:
        notes.append(f"h_star_rel_err_max {p['h_star_rel_err_max']:.6g} ratio"
                     " (largest |h* - t| / t over located cycles)")
    return values, notes


def per_layer(main, setups):
    values = dict(main["metrics"])
    values["import.pwlienard_s"] = statistics.median(
        s["import_s"] for s in setups)
    values["import.scipy_integrate_s"] = statistics.median(
        import_probe("scipy.integrate") for _ in range(IMPORT_PROBES))
    unwrapped = values["op.self_ms"] / values["trace.op_ms"]
    notes = [f"compiled kernel: {main['compiled_kernel']}",
             f"op.self_ms, op time outside every wrapper, is {unwrapped:.4g}"
             " of the traced op time",
             f"spans: {main['spans']}"]
    return values, notes


def measure(args):
    """One workload: returns (report lines, result line, full result)."""
    # set-ups before and after the measuring worker, so that their median
    # samples the host over the whole run
    before = (SETUPS - 1) // 2
    setups = [run_worker(args, "setup") for _ in range(before)]
    main = run_worker(args, "run")
    setups.append(main)
    setups += [run_worker(args, "setup") for _ in range(SETUPS - 1 - before)]
    env = dict(main["env"], commit=git_commit())
    counted = main["passes"] + [s["warmup"] for s in setups]
    failed_by_kind, errors = Counter(), {}
    for p in counted:
        failed_by_kind.update(p["failed"])
        for kind, msg in p["errors"].items():
            errors.setdefault(kind, msg)
    setup_times = [s["setup_s"] for s in setups]
    if args.trace:
        values, notes = per_layer(main, setups)
    else:
        values, notes = end_to_end(main, setup_times)
    units = spec_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"seconds {args.seconds}  trace {args.trace}",
             "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
             *notes]
    for kind in sorted(set().union(*(p["attempted"] for p in counted))):
        tried = sum(p["attempted"].get(kind, 0) for p in counted)
        lines.append(f"  {kind}: {failed_by_kind[kind]} of {tried} ops failed"
                     + (f" ({errors[kind]})" if kind in errors else ""))
    width = max(map(len, metrics))
    lines += [f"{name:<{width}}  {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    failed = sum(failed_by_kind.values())
    result = {"correct": failed == 0,
              "attempted": sum(sum(p["attempted"].values()) for p in counted),
              "failed": failed, "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "setup_s_all": setup_times, "failed_by_kind": failed_by_kind,
            "errors": errors, "passes": main["passes"],
            "timing": main.get("timing"), "notes": notes,
            "result": result}
    return lines, result, full


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pwlienard" / "__init__.py").exists():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            args.workload = name
            lines, result, full = measure(args)
            print("\n".join(lines), flush=True)
            with open(OUT / f"result-{name}-trace{args.trace}.json", "w") as fh:
                json.dump(full, fh, indent=1)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update(
                {prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
