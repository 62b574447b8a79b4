"""Compares the compiled and pure-Python trajectory kernels on identical
workloads and reports per-return timings plus the agreement of results.

Run:  python3 benchmarks/bench_backends.py [n_repeats]
"""

import sys
import time

from pwlienard.systems import load_preset


def bench(mod, args, repeats):
    best = float("inf")
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            result = mod.integrate_return(*args)
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best, result


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    from pwlienard import _kernel_py
    try:
        from pwlienard import _kernel_c
    except ImportError:
        _kernel_c = None

    sys_ = load_preset("example1")
    fc = sys_.float_coeffs()
    workloads = {
        "return r=2.0, tol 1e-10": (
            0, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"], 0.02, 4e-4,
            2.0, 0.0, 1e-10, 1e-12, 2_000_000, 1e-3, 50.0),
        "return r=6.0, tol 1e-12": (
            0, fc["a0"], fc["a1"], fc["b0"], fc["b1"], fc["c"], 0.02, 4e-4,
            6.0, 0.0, 1e-12, 1e-12, 2_000_000, 1e-3, 50.0),
    }
    for name, args in workloads.items():
        t_py, r_py = bench(_kernel_py, args, repeats)
        line = f"{name}: python {t_py * 1e3:8.3f} ms"
        if _kernel_c is not None:
            t_c, r_c = bench(_kernel_c, args, repeats)
            agree = abs(r_py[1] - r_c[1]) + abs(r_py[2] - r_c[2])
            line += (f" | compiled {t_c * 1e3:8.3f} ms"
                     f" | speedup {t_py / t_c:6.1f}x | |dxy| = {agree:.2e}")
        else:
            line += " | compiled kernel not built"
        print(line)


if __name__ == "__main__":
    main()
