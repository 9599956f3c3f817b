import json
import os
import subprocess
import sys
from pathlib import Path

from diracctx.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_all_prints_every_section():
    stdout = _run_script("reproduce_all.py", "--n-max", "2")
    sections = (
        "exact algebra audit: 84 checks, max residual 0.0, passed=True",
        "--- ground states, dedicated observables ---",
        "--- eigenstate sweep n <= 2 at optimal xi ---",
        "10 states; worst relative gap to 2 sqrt(mu^2 + X^2)",
        "--- Peres-Mermin square, noncontextual bound 4 ---",
        "111 states (eigenstates, random spinors, maximally mixed): value = 6",
        "--- free Dirac electron, value = 2 sqrt(2 - beta^2) ---",
        "beta=0.999  value = 2.001998001997",
        "--- measurability contrast at beta = 0.5 ---",
        "observable D': negative-energy weights per eigenvector",
        "done in",
    )
    for line in sections:
        assert line in stdout


def test_violation_curve_tabulates_the_closed_form(tmp_path):
    # 1,100 points are three report blocks
    for points in (3, 1100):
        header, *rows = _run_script("violation_curve.py", "--points", str(points)).splitlines()
        assert header == "beta,theta,value,closed_form,violated"
        table = [row.split(",") for row in rows]
        if points == 3:
            assert [float(row[0]) for row in table] == [0.0, 0.4995, 0.999]
        for _, _, value, closed_form, violated in table:
            assert abs(float(value) - float(closed_form)) <= 1e-12
            assert violated == "true"
        # each row is the row of the CLI's JSON report on the same grid
        report = tmp_path / f"curve-{points}.json"
        assert main(["free-electron", "--beta-grid", f"0.0:0.999:{points}",
                     "--output", str(report)]) == EXIT_OK
        results = json.loads(report.read_text())["results"]
        assert len(table) == len(results) == points
        for (beta, theta, value, closed_form, violated), r in zip(table, results):
            p = r["parameters"]
            assert (float(beta), float(theta), float(value), float(closed_form)) == (
                p["beta_v"], p["theta"], r["value"], p["closed_form"])
            assert (violated == "true") is r["violated"]
