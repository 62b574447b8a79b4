"""One benchmark process: fresh import, input generation and one warm-up op
(the set-up), then, in ``run`` mode, the closed-loop measurement.

``run.py`` starts this script, one child at a time, and reads the JSON
object on its last line of stdout:

    python3 perfbench/worker.py --workload W --seed N --mode setup|run
        --seconds S --trace 0|1 --out DIR

With ``--trace 1`` every op runs twice, plain and with the timing wrappers
of ``tracing.py``; the traced pass gives the per-layer numbers and the
ratio of the two passes the tracing overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

TAIL_BEYOND = 10  # samples above the reported tail percentile
# The reference loop (about 1 ms) is timed this often during a run.  The
# host's speed drifts by up to 2x within a minute, and an op's time
# divided by the reference time beside it cancels most of that drift.  Of
# the loops tried, a sum of fractions (allocation-heavy object code)
# tracked all three workloads best; an integer loop tracked them worse.
REF_TERMS = 400
PROBE_EVERY_S = 0.1

# bench_backends.py's two fixed returns of the example1 preset
FIXED_RETURNS = {"r=2.0 tol 1e-10": (2.0, 1e-10),
                 "r=6.0 tol 1e-12": (6.0, 1e-12)}
FIXED_REPEATS = {"python": 3, "compiled": 200}
PARITY_DXY = 1e-13  # end-point agreement the kernel parity test asks for


def tail(durations):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count); with too few samples the
    maximum stands in and the percentile reads 100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def make_workload(name, seed):
    """(specs, op) for one workload; specs repeat round-robin."""
    import workloads as w  # not at the top: it imports the package

    rng = random.Random(seed)
    size = w.POOL_SIZE[name]
    if name == "exact":
        return w.gen_exact(rng, size), w.op_exact
    if name == "verify":
        return w.gen_verify(rng, size), w.op_verify
    return w.gen_cycles(rng, size), w.op_cycles


class Pass:
    """Attempted and failed ops of a sequence of ops, and their times."""

    def __init__(self):
        # only numbers and counters: a growing heap of tracked objects would
        # make the garbage collector slower as the run goes on
        self.durations = []
        self.attempted, self.failed, self.errors = Counter(), Counter(), {}
        self.h_star_rel_err_max = None

    def run(self, op, spec):
        """Runs one op, counts it and returns its wall time in seconds."""
        kind = spec["kind"]
        t0 = perf_counter()
        try:
            seen = op(spec)
        except Exception as exc:  # a failing op is data, not the end of the run
            self.failed[kind] += 1
            self.errors.setdefault(kind, f"{type(exc).__name__}: {exc}"[:300])
        else:
            err = seen.get("h_star_rel_err_max")
            if err is not None:
                self.h_star_rel_err_max = max(err, self.h_star_rel_err_max or 0.0)
        took = perf_counter() - t0
        self.durations.append(took)
        self.attempted[kind] += 1
        return took

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors,
                "h_star_rel_err_max": self.h_star_rel_err_max}


def reference_s():
    """Best of two timings of a fixed sum of fractions: the host's current
    speed, which the op times are measured against."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        total = Fraction(0)
        for j in range(1, REF_TERMS + 1):
            total += Fraction(j, j + 3)
        best = min(best, perf_counter() - t0)
    return best


def run_plain(specs, op, seconds):
    """Closed loop: the next op starts when the previous one has ended.
    A failing op is counted and the loop goes on.

    Every PROBE_EVERY_S the reference loop is timed, and each op's time is
    divided by the mean of the probes before and after it.  Inputs repeat
    round-robin, and each op counts at its input's median in these units.
    """
    acc = Pass()
    by_input = defaultdict(list)  # op times in reference units
    pending = []
    refs = [reference_s()]
    probed = perf_counter()
    deadline = probed + seconds
    i = 0
    while True:
        done = perf_counter() >= deadline
        if done or perf_counter() - probed >= PROBE_EVERY_S:
            refs.append(reference_s())
            ref = (refs[-2] + refs[-1]) / 2
            for key, took in pending:
                by_input[key].append(took / ref)
            pending.clear()
            probed = perf_counter()
        if done:
            break
        key = i % len(specs)
        pending.append((key, acc.run(op, specs[key])))
        i += 1
    typical = sorted(statistics.median(times)
                     for times in by_input.values() for _ in times)
    value, pct, n = tail(typical)
    return acc, {"n": n, "typical_busy_ref": sum(typical),
                 "p50_ref": statistics.median(typical),
                 "tail_ref": value, "tail_pct": pct,
                 "min_repeats": min(map(len, by_input.values())),
                 "ref_ms": 1e3 * statistics.median(refs),
                 "raw_busy_s": sum(acc.durations),
                 "raw_p50_s": statistics.median(acc.durations)}


def run_traced(specs, op, seconds, tracer):
    """Each op runs twice, once plain and once traced, in alternating order,
    so both passes see the same inputs and the same drift of the machine."""
    plain, traced = Pass(), Pass()
    traced_op = tracer.wrap("op", op)
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        spec = specs[i % len(specs)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.run(op, spec)
                continue
            tracer.op_id = i
            tracer.install()
            try:
                traced.run(traced_op, spec)
            finally:
                tracer.uninstall()
        i += 1
    return plain, traced, i


def environment():
    import numpy
    import scipy

    import pwlienard

    try:
        importlib.import_module("pwlienard._kernel_cy")
        cy = True
    except ImportError:
        cy = False
    return {"backend": pwlienard.BACKEND, "kernel_cy_imports": cy,
            "PWLIENARD_BACKEND": os.environ.get("PWLIENARD_BACKEND", ""),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def _load_compiled():
    """The compiled twin and a note, or None and why it is missing."""
    try:
        return importlib.import_module("pwlienard._kernel_cy"), "imports"
    except ImportError as exc:
        return None, f"does not import ({exc}); its rows read 0"


def kernel_rows(rows):
    """Per-return time of both kernel twins on the fixed returns, and the
    largest |dx| + |dy| between their end points, into ``rows``.  Raises
    CheckFailed when a return fails or the twins disagree."""
    from pwlienard import _kernel_py
    from pwlienard.systems import load_preset
    from workloads import CheckFailed

    fc = load_preset("example1").float_coeffs()
    compiled, _ = _load_compiled()
    kernels = {"python": _kernel_py}
    if compiled is not None:
        kernels["compiled"] = compiled
    times = {name: [] for name in kernels}
    parity = 0.0
    for label, (r, tol) in FIXED_RETURNS.items():
        args = (0, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"], 0.02,
                4e-4, r, 0.0, tol, 1e-12, 2_000_000, 1e-3, 50.0)
        ends = {}
        for name, mod in kernels.items():
            repeats, best = FIXED_REPEATS[name], float("inf")
            for _ in range(3):
                t0 = perf_counter()
                for _ in range(repeats):
                    result = mod.integrate_return(*args)
                best = min(best, (perf_counter() - t0) / repeats)
            if result[0] != 0:
                raise CheckFailed(f"{name} kernel status {result[0]} on {label}")
            times[name].append(best)
            ends[name] = result
        if "compiled" in ends:
            py, cy = ends["python"], ends["compiled"]
            parity = max(parity, abs(py[1] - cy[1]) + abs(py[2] - cy[2]))
    rows["kernel.python.return_ms"] = 1e3 * statistics.fmean(times["python"])
    if "compiled" in times:
        rows["kernel.compiled.return_ms"] = \
            1e3 * statistics.fmean(times["compiled"])
    rows["kernel.parity_dxy"] = parity
    if parity > PARITY_DXY:
        raise CheckFailed(f"kernel twins differ by |dx| + |dy| = {parity:.3e}")
    return {}


def cli_rows(seed, out_dir):
    """Wall time of one fresh CLI child per subcommand, each checked like an
    op; returns the rows and the pass that counts their failures."""
    import workloads as w

    specs = w.gen_cli(random.Random(seed), os.path.join(out_dir, "cli_inputs"))
    env = dict(os.environ)
    acc = Pass()
    for spec in specs:
        acc.run(lambda s: w.op_cli(s, env), spec)
    return {f"cli.{spec['command']}.ms": 1e3 * took
            for spec, took in zip(specs, acc.durations)}, acc


LAYERS = ("algebra", "melnikov", "roots", "design", "oracle", "simulator",
          "kernel", "systems")


def layer_metrics(tracer, n_ops, traced, specs):
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def per_call(name, scale):
        row = summary.get(name)
        return scale * row["total_s"] / row["calls"] if row else 0.0

    returns = calls("simulator.advance_to_section")
    kernel_returns = calls("kernel.integrate_return")
    out = {
        "melnikov.expand.calls": calls("melnikov.expand") / n_ops,
        "melnikov.expand.ms_per_call": per_call("melnikov.expand", 1e3),
        "algebra.eval.calls": calls("algebra.eval") / n_ops,
        "algebra.eval.us_per_call": per_call("algebra.eval", 1e6),
        "roots.isolate.calls": calls("roots.isolate") / n_ops,
        "roots.isolate.ms_per_call": per_call("roots.isolate", 1e3),
        "roots.certified": counts["roots.certified"] / n_ops,
        "roots.suspected": counts["roots.suspected"] / n_ops,
        "design.calls": calls("design.design") / n_ops,
        "design.ms_per_call": per_call("design.design", 1e3),
        "design.no_convergence": counts["design.no_convergence"],
        "design.verify.ms_per_call": per_call("design.verify", 1e3),
        "oracle.quad_I.calls": calls("oracle.quad_I") / n_ops,
        "oracle.quad_I.ms_per_call": per_call("oracle.quad_I", 1e3),
        "oracle.quadrature_failures": counts["oracle.quadrature_failures"],
        "oracle.integration_warnings": counts["oracle.integration_warnings"],
        "simulator.find_cycles.ms_per_call":
            per_call("simulator.find_cycles", 1e3),
        "simulator.returns": returns / n_ops,
        "simulator.returns_per_cycle":
            returns / counts["simulator.cycles"]
            if counts["simulator.cycles"] else 0.0,
        "simulator.increment.ms_per_call": per_call("simulator.increment", 1e3),
        "kernel.returns": kernel_returns / n_ops,
        "kernel.return_ms": per_call("kernel.integrate_return", 1e3),
        "kernel.crossings_per_return":
            counts["kernel.crossings"] / kernel_returns if kernel_returns else 0.0,
        "kernel.status_nonzero": counts["kernel.status_nonzero"],
        "systems.float_coeffs.calls": calls("systems.float_coeffs") / n_ops,
        "systems.float_coeffs.us_per_call":
            per_call("systems.float_coeffs", 1e6),
        "op.self_ms": 1e3 * summary["op"]["self_s"] / n_ops,
        "trace.op_ms": 1e3 * summary["op"]["total_s"] / n_ops,
    }
    layer_self = Counter()
    for name, row in summary.items():
        if name != "op":
            layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer in LAYERS:
        out[f"self.{layer}.ms_per_op"] = 1e3 * layer_self[layer] / n_ops
    kinds = {i: specs[i % len(specs)]["kind"] for i in range(n_ops)}
    out["cycles.h_star_rel_err_max"] = traced.h_star_rel_err_max or 0.0
    return out, kinds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    t0 = perf_counter()
    import pwlienard  # noqa: F401  (the fresh import being timed)
    import_s = perf_counter() - t0
    specs, op = make_workload(args.workload, args.seed)
    warm = Pass()
    warm.run(op, specs[0])
    result = {"setup_s": perf_counter() - T_START, "import_s": import_s,
              "warmup": warm.summary()}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    result["env"] = environment()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        plain, traced, n_ops = run_traced(specs, op, args.seconds, tracer)
        metrics, kinds = layer_metrics(tracer, n_ops, traced, specs)
        metrics["trace.overhead_ratio"] = \
            sum(traced.durations) / sum(plain.durations) - 1.0
        rows = dict.fromkeys(("kernel.python.return_ms",
                              "kernel.compiled.return_ms",
                              "kernel.parity_dxy"), 0.0)
        fixed = Pass()
        fixed.run(lambda _: kernel_rows(rows), {"kind": "kernel_fixed"})
        metrics.update(rows)
        rows, cli = cli_rows(args.seed, args.out)
        metrics.update(rows)
        spans_path = os.path.join(args.out, f"spans-{args.workload}.jsonl")
        tracer.write_jsonl(spans_path, kinds)
        result.update(metrics=metrics, compiled_kernel=_load_compiled()[1],
                      spans=spans_path,
                      passes=[plain.summary(), traced.summary(),
                              fixed.summary(), cli.summary()])
    else:
        acc, timing = run_plain(specs, op, args.seconds)
        result.update(passes=[acc.summary()], timing=timing)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
