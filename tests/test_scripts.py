import os
import subprocess
import sys
from pathlib import Path

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

