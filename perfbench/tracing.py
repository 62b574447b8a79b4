"""In-memory spans around the package's layer boundaries, for traced runs.

``install`` replaces module and class attributes of the package with timing
wrappers; nothing inside the package changes.  Each span records its name,
start, end, parent span and op id.  Self time is a span's duration minus
the durations of its direct children, so the self times of one op's spans
add up to the op's duration.
"""

from __future__ import annotations

import functools
import json
import types
import warnings
from collections import Counter, defaultdict
from time import perf_counter

from pwlienard import design, melnikov, oracle, roots, simulator
from pwlienard.algebra import HalfPowerPoly
from pwlienard.errors import NoConvergence, QuadratureFailure
from pwlienard.systems import LienardSystem

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.stack = []
        self.counts = Counter()
        self.op_id = -1
        self._patches = []  # (owner, attribute, original, wrapper)
        self._build()

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(result)`` counts."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            spans.append(None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # a tuple of atoms, which the garbage collector stops tracking
                spans[idx] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attr, name, after=None, fn=None):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig,
                              self.wrap(name, fn or orig, after)))

    def _build(self):
        """Wrappers for the public entry points and the hot internal
        boundaries; ``install`` puts them in place."""
        counts = self.counts
        self._patch(melnikov, "expand", "melnikov.expand")
        self._patch(HalfPowerPoly, "eval", "algebra.eval")

        def count_roots(report):
            counts["roots.certified"] += report.certified_count()
            counts["roots.suspected"] += len(report.suspected)

        self._patch(roots, "isolate_positive_roots", "roots.isolate",
                    count_roots)
        for attr in ("design_case_y", "design_case_x"):
            orig = getattr(design, attr)

            def counted(*args, _orig=orig, **kwargs):
                try:
                    return _orig(*args, **kwargs)
                except NoConvergence:
                    counts["design.no_convergence"] += 1
                    raise

            self._patch(design, attr, "design.design", fn=counted)
        self._patch(design, "verify_design", "design.verify")

        quad_i = oracle.quad_I

        def quad_counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    return quad_i(*args, **kwargs)
                except QuadratureFailure:
                    counts["oracle.quadrature_failures"] += 1
                    raise
                finally:
                    counts["oracle.integration_warnings"] += sum(
                        w.category.__name__ == "IntegrationWarning"
                        for w in caught)

        self._patch(oracle, "quad_I", "oracle.quad_I", fn=quad_counted)
        self._patch(oracle, "oracle_m0", "oracle.oracle_m0")
        self._patch(oracle, "oracle_m1", "oracle.oracle_m1")

        def count_cycles(scan):
            counts["simulator.cycles"] += len(scan.cycles)

        self._patch(simulator, "find_cycles", "simulator.find_cycles",
                    count_cycles)
        self._patch(simulator, "advance_to_section",
                    "simulator.advance_to_section")
        self._patch(simulator, "bifurcation_increment", "simulator.increment")

        def count_return(result):
            counts["kernel.crossings"] += len(result[4])
            counts["kernel.status_nonzero"] += result[0] != 0

        kernel = simulator._kernel
        self._patches.append((simulator, "_kernel", kernel, types.SimpleNamespace(
            BACKEND_NAME=kernel.BACKEND_NAME,
            integrate_return=self.wrap("kernel.integrate_return",
                                       kernel.integrate_return, count_return))))
        self._patch(LienardSystem, "float_coeffs", "systems.float_coeffs")

    def install(self):
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _wrapper in self._patches:
            setattr(owner, attr, orig)

    def write_jsonl(self, path, kinds):
        """One span per line; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START] - t0,
                    "end": rec[END] - t0, "parent": rec[PARENT],
                    "op": rec[OP], "kind": kinds.get(rec[OP])}) + "\n")

    def summary(self):
        """Per span name: calls, total and self seconds."""
        self_time = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                self_time[rec[PARENT]] -= rec[END] - rec[START]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for rec, own in zip(self.spans, self_time):
            row = out[rec[NAME]]
            row["calls"] += 1
            row["total_s"] += rec[END] - rec[START]
            row["self_s"] += own
        return dict(out)
