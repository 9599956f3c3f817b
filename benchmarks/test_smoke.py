"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that a run emits exactly the metric names BENCHMARK.json declares,
that the gate flags a result perturbed past its tolerance and a call that
exits non-zero, and that the runner refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "hydrogen-sweep": run.hydrogen_sweep(2),
    "peres-mermin": run.peres_mermin(2),
    "free-curve": run.free_curve(50),
}
DECLARED = json.loads((run.REPO / "BENCHMARK.json").read_text())


def cli_report(argv):
    proc = subprocess.run([sys.executable, "-m", "diracctx.cli", *argv], env=run.child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted(name, trace):
    result = run.measure(f"smoke-{name}", TINY[name], seed=5, seconds=0.2, trace=trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_declared_workloads_match_the_runner():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(run.WORKLOADS)


def test_gate_flags_a_sweep_value_past_tolerance():
    text = cli_report(TINY["hydrogen-sweep"].argv(0))
    assert TINY["hydrogen-sweep"].check(text, 0).failed == 0
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[6] = repr(float(cells[6]) * (1 + 1e-7))
    perturbed = "\n".join([header, ",".join(cells), *rest]) + "\n"
    verdict = TINY["hydrogen-sweep"].check(perturbed, 0)
    assert verdict.failed == 1 and verdict.max_rel_err > 1e-8


@pytest.mark.parametrize("name, delta", [("peres-mermin", 1e-9), ("free-curve", 1e-11)])
def test_gate_flags_a_json_value_past_tolerance(name, delta):
    workload = TINY[name]
    text = cli_report(workload.argv(3))
    assert workload.check(text, 3).failed == 0
    doc = json.loads(text)
    doc["results"][-1]["value"] += delta
    assert workload.check(json.dumps(doc), 3).failed == 1
    doc["results"].pop()
    assert workload.check(json.dumps(doc), 3).failed == 1


def test_gate_fails_every_result_of_a_call_that_exits_nonzero():
    broken = run.Workload(argv=lambda seed: ["sweep", "--n-max", "2", "--alpha", "2"],
                          ext="csv", check=TINY["hydrogen-sweep"].check)
    result = run.measure("smoke-broken", broken, seed=0, seconds=0.2, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *DECLARED["command"][1:], "--workload", "free-curve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
