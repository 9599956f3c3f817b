"""Workload process: call ``diracctx.cli.main`` in a closed loop and time each call.

Run by ``run.py`` as ``python3 worker.py <spec.json>``; the spec names the CLI
arguments, the time budget, whether to trace and the output directory. Each
call writes its report to ``report-<i>.<ext>`` there, and the process ends by
writing ``summary.json`` (per-call timings and exit codes, the environment,
and in traced mode the per-layer totals) and, when traced, ``spans.jsonl``.

Tracing wraps the package's public functions from this file by rebinding
module attributes at run time; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import diracctx.cli
from diracctx.hydrogen import SpinorField
from diracctx.spindensity import QuadratureError
from calibrate import calibrate
from layers import FIELD_EVAL, RESULT_SPANS, ROOT, TRACED_FUNCTIONS


class Tracer:
    """Spans and counters for the traced functions.

    A span is (id, parent id, name, call, result, start ns, end ns), where
    ``call`` numbers the traced CLI calls and ``result`` is the index of the
    report row the span works towards (the number of rows already finished in
    that call). Self time is a span's duration minus its child spans'.
    """

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.call = 0
        self.results = 0
        self._stack = []  # [span id, name, child ns] of the open spans
        self._patched = []  # (owner, attribute, original)

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "diracctx" or k.startswith("diracctx.")]
        for module_name, fn_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"diracctx.{module_name}"], fn_name)
            traced = self.wrap(f"{module_name}.{fn_name}", original)
            # modules import by name, so rebind every binding of the original
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, traced)
        self._patch(SpinorField, "__call__", self.wrap(FIELD_EVAL, SpinorField.__call__))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def span(self, name, fn, *args, **kwargs):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        result = self.results
        frame = [span_id, name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except QuadratureError:
            if name == "spindensity.reduce":
                self.counts["quadrature_errors"] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][2] += duration
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[2]
            self.spans.append((span_id, parent, name, self.call, result, start, end))
        self._count(name, args, out)
        return out

    def _count(self, name, args, out):
        if name == FIELD_EVAL:
            points = np.broadcast(*args[1:4]).size
            self.counts["field_points"] += points
            if any(f[1] == "spindensity.reduce" for f in self._stack):
                self.counts["reduce_points"] += points
        elif name == "cli.render":
            self.counts["render_bytes"] += len(out.encode())
        elif name in RESULT_SPANS:
            self.results += 1

    def main(self, argv):
        """One traced CLI call, with ``cli.main`` as the root span."""
        self.results = 0
        try:
            return self.span(ROOT, diracctx.cli.main, argv)
        finally:
            self.call += 1


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def timed_calls(argv, out_dir: Path, ext: str, budget_s: float, records: list,
                call=diracctx.cli.main, traced: bool = False) -> None:
    """Closed loop, appending one record per call: start the next call only
    while it is predicted to end within the budget; always make at least one.

    A machine-speed probe follows every call, and a call's record keeps the
    mean of the probes on either side of it. The process's first call runs
    before any probe, so the peak RSS read after it is that of a fresh
    one-call CLI process.
    """
    start = time.perf_counter()
    before_s = records[-1]["probe_after_s"] if records else None
    while True:
        path = out_dir / f"report-{len(records)}.{ext}"
        t0 = time.perf_counter()
        try:
            code = call(list(argv) + ["--output", str(path)])
        except Exception:  # a crash is a failed call; record it and go on
            traceback.print_exc()
            code = 1
        run_s = time.perf_counter() - t0
        record = {"run_s": run_s, "exit": code, "report": path.name, "traced": traced}
        if not records:
            record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        after_s = calibrate()
        record["probe_after_s"] = after_s
        record["probe_s"] = after_s if before_s is None else (before_s + after_s) / 2
        records.append(record)
        before_s = after_s
        if time.perf_counter() - start + run_s + after_s > budget_s:
            return


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(spec["out_dir"])
    argv, ext, seconds = spec["argv"], spec["ext"], spec["seconds"]
    calls = []
    summary = {"env": environment(), "calls": calls}
    if not spec["trace"]:
        timed_calls(argv, out_dir, ext, seconds, calls)
    else:
        # half the budget untraced, half traced: their ratio is the overhead
        timed_calls(argv, out_dir, ext, seconds / 2, calls)
        with Tracer() as tracer:
            timed_calls(argv, out_dir, ext, seconds / 2, calls, tracer.main, traced=True)
        summary["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": {k: v / 1e9 for k, v in tracer.self_ns.items()},
            "counts": dict(tracer.counts),
            "traced_calls": tracer.call,
        }
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (out_dir / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
