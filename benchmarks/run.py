"""diracctx benchmark: three CLI workloads, timed end to end and layer by layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload hydrogen-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are a
human-readable table and the environment. Every report the program writes is
checked by ``gate.py``. Run outputs go to ``.bench_out/`` in the checkout.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from layers import LAYER_NAMES, ROOT  # noqa: E402

REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"

BLAS_THREADS = 1  # single-threaded closed loop; never above nproc
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0
# time.monotonic is the system-wide CLOCK_MONOTONIC on Linux, so the spawn
# instant passed in argv and the child's reading share one clock
SETUP_PROBE = (
    "import sys, time; import diracctx.cli; t = time.monotonic() - float(sys.argv[1]); "
    "sys.path.insert(0, sys.argv[2]); from calibrate import calibrate; print(t, calibrate())"
)


@dataclass(frozen=True)
class Workload:
    """CLI arguments for one workload, its report suffix and its gate."""

    argv: Callable[[int], list]
    ext: str
    check: Callable[[str, int], gate.Verdict]


def hydrogen_sweep(n_max: int) -> Workload:
    return Workload(
        argv=lambda seed: ["sweep", "--n-max", str(n_max), "--format", "csv"],
        ext="csv",
        check=lambda text, seed: gate.check_sweep(text, n_max),
    )


def peres_mermin(n_max: int) -> Workload:
    return Workload(
        argv=lambda seed: ["peres-mermin", "--n-max", str(n_max), "--seed", str(seed)],
        ext="json",
        check=lambda text, seed: gate.check_peres_mermin(text, n_max, seed),
    )


def free_curve(count: int) -> Workload:
    return Workload(
        argv=lambda seed: ["free-electron", "--beta-grid", f"0:0.999:{count}"],
        ext="json",
        check=lambda text, seed: gate.check_free_curve(text, 0.0, 0.999, count),
    )


WORKLOADS = {
    "hydrogen-sweep": hydrogen_sweep(8),
    "peres-mermin": peres_mermin(4),
    "free-curve": free_curve(20000),
}

# name -> unit, in output order
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
PER_LAYER = {}
for _name in LAYER_NAMES:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    f"{ROOT}.self_s": "s",
    "spindensity.reduce.nodes": "count",
    "spindensity.reduce.field_mb": "MB",
    "spindensity.nodes_per_result": "count",
    "specfun.node_builds_per_state": "count",
    "spindensity.quadrature_errors": "count",
    "cli.render.mb": "MB",
    "traced_run_s": "s",
    "trace_overhead_frac": "fraction",
})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def source_id() -> dict:
    """The commit when the checkout is a git repository, and always a digest
    of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "diracctx").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (REPO / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure_setup(env: dict) -> list:
    """Fresh interpreters that import diracctx.cli: for each, the seconds from
    just before its spawn until the import finished, and the machine-speed
    probe it ran afterwards. One unrecorded probe first so bytecode caches exist."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(time.monotonic()), str(HERE)],
                              env=env, cwd=REPO, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if i:
            samples.append([float(x) for x in proc.stdout.split()])
    return samples


def run_worker(spec: dict, env: dict, out_dir: Path) -> int:
    """Run the workload process to its end; return its exit code."""
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(out_dir / "worker.err", "wb") as err:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)], env=env,
                              cwd=REPO, stdout=subprocess.DEVNULL, stderr=err,
                              timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the reference machine speed (see calibrate.py)."""
    return seconds * REFERENCE_S / probe_s


def accuracy_digits(max_rel_err: float) -> float:
    """-log10 of the largest relative gap, floored at double precision's unit
    roundoff so an exact match reads as ~15.95 digits rather than infinity."""
    if not math.isfinite(max_rel_err):
        return 0.0
    return -math.log10(max(max_rel_err, 2.0**-53))


def layer_metrics(trace: dict, rows: int, plain_s: list, traced_s: list, speed: float) -> dict:
    """Per-layer figures per traced CLI call, from the worker's totals; times
    are multiplied by ``speed`` to put them at the reference machine speed."""
    calls = trace["calls"]
    self_s = {k: v * speed for k, v in trace["self_s"].items()}
    counts = trace["counts"]
    per = max(trace["traced_calls"], 1)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = calls.get(name, 0) / per
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / per
    reduce_nodes = ratio(counts.get("reduce_points", 0), calls.get("spindensity.reduce", 0))
    metrics.update({
        f"{ROOT}.self_s": self_s.get(ROOT, 0.0) / per,
        "spindensity.reduce.nodes": reduce_nodes,
        "spindensity.reduce.field_mb": 4 * reduce_nodes * 16 / 1e6,
        "spindensity.nodes_per_result": ratio(counts.get("field_points", 0), rows * per),
        "specfun.node_builds_per_state": ratio(calls.get("specfun.radial_nodes", 0),
                                               calls.get("hydrogen.eigenstate", 0)),
        "spindensity.quadrature_errors": counts.get("quadrature_errors", 0) / per,
        "cli.render.mb": ratio(counts.get("render_bytes", 0), calls.get("cli.render", 0)) / 1e6,
        "traced_run_s": statistics.median(traced_s),
        "trace_overhead_frac": statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
    })
    return metrics


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result document."""
    env = child_env()
    out_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup = measure_setup(env)
    spec = {"argv": workload.argv(seed), "ext": workload.ext, "seconds": seconds,
            "trace": trace, "out_dir": str(out_dir)}
    code = run_worker(spec, env, out_dir)
    if code != 0:
        sys.stderr.write((out_dir / "worker.err").read_text(errors="replace")[-4000:])
        raise RuntimeError(f"workload process exited with {code}")
    summary = json.loads((out_dir / "summary.json").read_text())

    attempted = failed = 0
    max_rel_err = 0.0
    for record in summary["calls"]:
        report = out_dir / record["report"]
        text = report.read_text() if report.exists() else ""
        verdict = workload.check(text, seed)
        attempted += verdict.expected
        # a non-zero exit fails every result the call should have produced
        failed += verdict.expected if record["exit"] != 0 else verdict.failed
        max_rel_err = max(max_rel_err, verdict.max_rel_err)
        report.unlink(missing_ok=True)

    rows = verdict.expected
    plain = [r for r in summary["calls"] if not r["traced"]]
    plain_s = [scaled(r["run_s"], r["probe_s"]) for r in plain]
    if trace:
        traced = [r for r in summary["calls"] if r["traced"]]
        speed = REFERENCE_S / statistics.fmean(r["probe_s"] for r in traced)
        values = layer_metrics(summary["trace"], rows, plain_s, [r["run_s"] * speed for r in traced],
                               speed)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median([scaled(t, p) for t, p in setup]),
            "run_s": statistics.median(plain_s),
            "results_per_s": statistics.median([rows / s for s in plain_s]),
            "peak_rss_mb": summary["calls"][0]["peak_rss_kb"] * 1024 / 1e6,
            "accuracy_digits": accuracy_digits(max_rel_err),
        }
        units = END_TO_END
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {**summary["env"], **source_id(), "argv": spec["argv"]},
        "wall": {"setup_s": statistics.median([t for t, _ in setup]),
                 "run_s": statistics.median([r["run_s"] for r in plain])},
        "samples": {"setup": setup, "calls": summary["calls"]},
        "max_rel_err": max_rel_err,
        "failed_frac": failed / attempted,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def print_table(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"calls {len(result['samples']['calls'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["wall"].items():
        print(f"  {name + ' (unscaled wall)':<40} {value:>14.6g} s")
    print(f"  {'max_rel_err':<40} {result['max_rel_err']:>14.6g} 1")
    print(f"  {'failed_frac':<40} {result['failed_frac']:>14.6g} 1"
          f"   ({result['failed']} of {result['attempted']} results)")
    print("  env " + json.dumps(result["env"], sort_keys=True))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diracctx" / "cli.py").is_file():
        print(f"no diracctx sources under {SRC}; run from a diracctx checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_table(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
