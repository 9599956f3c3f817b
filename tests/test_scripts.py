import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_all_prints_every_section():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_all.py"), "--n-max", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sections = (
        "exact algebra audit: 84 checks, max residual 0.0, passed=True",
        "--- ground states, dedicated observables ---",
        "--- eigenstate sweep n <= 2 at optimal xi ---",
        "10 states; worst quadrature/closed-form relative gap",
        "--- Peres-Mermin square, noncontextual bound 4 ---",
        "111 states (eigenstates, random spinors, maximally mixed): value = 6",
        "--- free Dirac electron, value = 2 sqrt(2 - beta^2) ---",
        "beta=0.999  value = 2.001998001997",
        "--- measurability contrast at beta = 0.5 ---",
        "observable D': negative-energy weights per eigenvector",
        "done in",
    )
    for line in sections:
        assert line in proc.stdout
