import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bound_states import valid_states
from diracctx import __version__
from diracctx.cli import (
    COMMANDS,
    CONVERGE_BOUND,
    EXIT_OK,
    EXIT_QUADRATURE,
    EXIT_USAGE,
    REPORT_BLOCK,
    RunConfig,
    build_parser,
    execute,
    _digits15,
    _float_texts,
    _row_fields,
    _parse_beta_grid,
    main,
    render,
    report_pieces,
)
from diracctx.clifford import build_family
from diracctx.clifford import PERES_MERMIN_LINES
from diracctx.contextuality import chsh_value, excited_observables, optimal_xi, peres_mermin_value
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA, QuantumNumbers, eigenstate, sommerfeld_mu
from diracctx.spindensity import (
    QuadratureError,
    analytic_densities,
    pure_density,
    state_label,
)
from report_blocks import assert_same_text, block_lists, block_rows, report_rows


def _run(command, **kwargs):
    """execute's document with its one-shot results read into a list of blocks."""
    doc = execute(RunConfig(command=command, **kwargs))
    return {**doc, "results": list(doc["results"])}


def _rows(command, **kwargs):
    """The report rows of one command, read back from its blocks."""
    return report_rows(_run(command, **kwargs)["results"])


def _document(command, params, results):
    """A report document as execute returns it."""
    return {"command": command, "params": params, "results": results, "version": __version__}


def _columns(states, a=FINE_STRUCTURE_ALPHA):
    """The closed-form inputs (kappa, 2 m_j, delta) of the states, as lists."""
    return (
        [qn.kappa for qn in states],
        [2 * qn.m_j for qn in states],
        [sommerfeld_mu(qn.n, qn.kappa, a) for qn in states],
    )


# --- command behaviour ----------------------------------------------------------

def test_ground_reproduces_headline_value():
    doc = _run("ground")
    (result,) = report_rows(doc["results"])
    assert round(result["value"], 5) == 2.82839
    assert result["violated"] is True
    assert result["bound"] == 2.0
    assert doc["version"] == __version__


def test_ground_kramers_partner():
    (result,) = _rows("ground", mj=-0.5)
    assert result["value"] == pytest.approx(2.828389469851504, abs=5e-5)


def test_sweep_all_rows_violated():
    rows = _rows("sweep", n_max=3)
    assert len(rows) == 2 * (1 + 4 + 9)
    assert all(r["violated"] for r in rows)
    assert all(r["value"] > 2.0 for r in rows)


def test_xi_family_stops_violating_at_large_alpha(capsys):
    # sweep evaluates n = 1 with the xi family: 2 sqrt(mu^2 + (mu + 2)^2 / 9) > 2
    # exactly when 10 mu^2 + 4 mu - 5 > 0, that is for alpha below 0.8449;
    # ground uses its own observables, sqrt(2)(1 + mu), and still violates there
    def sweep_rows(*argv):
        assert main(["sweep", "--format", "csv", *argv]) == EXIT_OK
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    rows = sweep_rows("--n-max", "8", "--alpha", "0.6")
    assert sum(row["violated"] == "false" for row in rows) == 24
    assert {row["violated"] for row in sweep_rows("--n-max", "1", "--alpha", "0.84")} == {"true"}
    assert {row["violated"] for row in sweep_rows("--n-max", "1", "--alpha", "0.85")} == {"false"}
    assert main(["ground", "--alpha", "0.9"]) == EXIT_OK
    ground = json.loads(capsys.readouterr().out)["results"][0]
    assert ground["violated"] is True and ground["value"] > 2.0


def test_excited_uses_optimal_xi_by_default():
    (result,) = _rows("excited", n=2, kappa=-1, mj=0.5)
    assert result["parameters"]["xi"] == result["parameters"]["xi_star"]
    assert result["value"] == pytest.approx(result["parameters"]["closed_form"], rel=1e-8)


def test_excited_xi_override():
    (result,) = _rows("excited", n=2, kappa=1, mj=0.5, xi=0.0)
    assert result["parameters"]["xi"] == 0.0
    assert abs(result["value"]) <= 2.0 + 1e-12
    # at xi = 0 the closed form 2(c cos xi + s sin xi) is 2c = -2X
    mu = sommerfeld_mu(2, 1, FINE_STRUCTURE_ALPHA)
    assert result["parameters"]["closed_form"] == pytest.approx(-2.0 * (mu + 2.0) / 3.0)


@pytest.mark.parametrize("kappa,mj", [(1, 0.5), (-1, -0.5), (2, 1.5), (-2, -1.5)])
def test_excited_closed_form_at_a_given_xi_is_its_value(kappa, mj):
    for xi in (-3.0, -1.2, 0.0, 0.4, math.pi / 2.0, 2.5):
        (result,) = _rows("excited", n=3, kappa=kappa, mj=mj, xi=xi)
        assert result["parameters"]["xi"] == xi
        assert abs(result["value"] - result["parameters"]["closed_form"]) < 1e-12


def test_free_electron_at_rest():
    (result,) = _rows("free-electron", beta=0.0)
    assert result["value"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)


def test_free_electron_grid():
    rows = _rows("free-electron", beta_grid="0:0.9:3")
    assert len(rows) == 3
    for beta, r in zip((0.0, 0.45, 0.9), rows):
        assert r["parameters"]["beta_v"] == beta
        assert r["value"] == pytest.approx(2.0 * math.sqrt(2.0 - beta**2), rel=1e-12)


def test_audit_command_reports_zero_residual():
    (result,) = _rows("audit")
    assert result["kind"] == "algebra_audit"
    assert result["value"] == 0.0
    assert result["violated"] is False
    assert result["terms"]["pm col 3 product"] == 0.0


@pytest.mark.parametrize("residuals, value", [
    # Python's max would return 0.0 here, as nan compares false
    ({"first": 0.0, "second": math.nan, "third": 0.0}, math.nan),
    ({"first": 0.0, "second": 2.0, "third": 0.0}, 2.0),
])
def test_audit_value_keeps_a_failed_residual(monkeypatch, residuals, value):
    import diracctx.cli as cli_module

    monkeypatch.setattr(cli_module, "audit_algebra", lambda: residuals)
    (row,) = _rows("audit")
    assert row["value"] == value or math.isnan(value) and math.isnan(row["value"])
    assert row["violated"] is True
    assert list(row["terms"]) == list(residuals)


def test_peres_mermin_command_is_state_independent():
    rows = _rows("peres-mermin", n_max=2, seed=42)
    # 10 hydrogen states + 100 random spinors + maximally mixed
    assert len(rows) == 10 + 100 + 1
    assert all(abs(r["value"] - 6.0) < 1e-10 for r in rows)
    assert all(r["bound"] == 4.0 for r in rows)


def test_measurability_contrast():
    blocks = _run("measurability", beta=0.5, n_max=10)["results"]
    # one one-row block per check, so each block has one kind
    assert [block["kind"] for block in blocks] == [
        ["hydrogen_spectrum_positivity"],
        *([f"negative_energy_mixing_{name}"] for name in "ABCD"),
    ]
    spectrum, *mixing = report_rows(blocks)
    assert spectrum["kind"] == "hydrogen_spectrum_positivity"
    assert spectrum["value"] > 0.0 and spectrum["violated"]
    assert len(mixing) == 4
    for row in mixing:
        assert row["violated"]  # every observable mixes energy signs
        assert 0.0 < row["value"] <= 0.5 + 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.999, 0.999999])
def test_measurability_margins_are_their_closed_forms(beta):
    # (1 - beta)/2 for A' and C', (1 - beta/s)/2 = (1 - beta^2)/(s (s + beta))
    # for B' and D', s = sqrt(2 - beta^2): the margin min(w) never forms 1 - w,
    # which cancelled to 1.0e-9 relative at beta = 0.999999
    s = math.sqrt(2.0 - beta * beta)
    ac, bd = (1.0 - beta) / 2.0, (1.0 - beta) * (1.0 + beta) / (s * (s + beta))
    mixing = _rows("measurability", beta=beta, n_max=1)[1:]
    for row, expected in zip(mixing, (ac, bd, ac, bd), strict=True):
        assert abs(row["value"] - expected) <= (5e-10 * expected if beta > 0.9 else 1e-14)


def test_converge_ground_sits_at_rounding_floor():
    (row,) = _rows("converge")
    assert row["terms"]["radial_nodes"] == 1.0
    assert row["value"] < 1e-12


def test_converge_excited_sits_at_rounding_floor():
    # one integration, on the exact count n_tilde + 1; the one-node-short rule
    # fails the entry gap (test_spindensity)
    (row,) = _rows("converge", n=4, kappa=-2)
    assert row["terms"]["radial_nodes"] == 3.0
    assert row["value"] < 1e-12
    assert not row["violated"]


def test_converge_at_tiny_alpha(capsys):
    # mu rounds to 1.0 here; the radial pair must neither divide by zero nor cancel
    assert main(["converge", "--alpha", "1e-8"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)["results"]
    assert row["value"] < 1e-12 and not row["violated"]


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
@pytest.mark.parametrize("kwargs", [{}, {"n": 3, "kappa": -2}])
@pytest.mark.parametrize("error", ["identity", "off-diagonal"])
def test_converge_flags_a_wrong_density(monkeypatch, capsys, eps, kwargs, error):
    # every Gamma_a Gamma'_b is traceless, so eps * I moves no CHSH value, and
    # neither error moves a block weight by more than 2 eps; the entry gap sees
    # both, and converge writes no report
    import diracctx.cli as cli_module

    shift = eps * np.eye(4, dtype=complex)
    if error == "off-diagonal":
        shift = np.zeros((4, 4), dtype=complex)
        shift[0, 3], shift[3, 0] = 1j * eps, -1j * eps
    exact_reduce = cli_module.reduce
    monkeypatch.setattr(cli_module, "reduce", lambda state: exact_reduce(state) + shift)
    argv = [f"--{name}={value}" for name, value in kwargs.items()]
    assert main(["converge", *argv]) == EXIT_QUADRATURE
    out, err = capsys.readouterr()
    n, kappa = kwargs.get("n", 1), kwargs.get("kappa", 1)
    assert out == "" and err == (
        f"quadrature failure: {state_label(n, kappa, 0.5)}: the density departs from its "
        f"closed form by {eps:.3e} > {CONVERGE_BOUND} on {n - abs(kappa) + 1} radial nodes\n")


def test_converge_flags_a_nan_density(monkeypatch, capsys):
    import diracctx.cli as cli_module

    monkeypatch.setattr(cli_module, "reduce", lambda state: np.full((4, 4), np.nan))
    assert main(["converge"]) == EXIT_QUADRATURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"quadrature failure: n=1 kappa=1 mj=0.5: the density departs from its "
                   f"closed form by nan > {CONVERGE_BOUND} on 1 radial nodes\n")


def _cli_env():
    """The environment of a CLI subprocess, with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _converge_process(n, kappa, *python_flags):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "diracctx.cli", "converge", "--n", str(n),
         "--kappa", str(kappa)], capture_output=True, text=True, env=_cli_env(), timeout=120)


@pytest.mark.parametrize("n, kappa", [(85, 85), (200, -199)])
def test_converge_exits_3_when_the_normalization_overflows(n, kappa):
    # the radial pair f, g overflows at large |kappa|: a numerical failure, not
    # a usage error; in a subprocess, since pytest turns the overflow
    # RuntimeWarning into an error in process
    proc = _converge_process(n, kappa)
    assert proc.returncode == EXIT_QUADRATURE
    assert proc.stdout == ""
    assert "quadrature failure: normalization must be positive and finite" in proc.stderr


def test_converge_at_n_188_has_finite_weights():
    # the radial rule's weights are formed in log space: at n = 188, kappa = 1
    # e^rho / total once overflowed to inf and converge exited 3; now no
    # warning is raised, even as an error
    proc = _converge_process(188, 1, "-W", "error")
    assert proc.returncode == EXIT_OK, proc.stderr
    (row,) = json.loads(proc.stdout)["results"]
    assert row["terms"]["radial_nodes"] == 188.0
    assert row["value"] <= CONVERGE_BOUND and not row["violated"]


@pytest.mark.parametrize("argv, label", [
    ([], "n=1 kappa=1 mj=0.5"), (["--n", "4", "--kappa", "-2"], "n=4 kappa=-2 mj=0.5")])
def test_converge_catches_swapped_clebsch_gordan_weights(monkeypatch, capsys, argv, label):
    # the lower block's two weights exchanged in the closed form: every block
    # trace stays (1 +- mu)/2, yet two diagonal entries move by (1 - mu)/2
    # times the weights' difference, 4.4e-6 for the ground state
    import diracctx.cli as cli_module

    exact = cli_module.analytic_densities

    def swapped(*columns):
        densities = exact(*columns)
        densities[..., [2, 3], [2, 3]] = densities[..., [3, 2], [3, 2]]
        return densities

    monkeypatch.setattr(cli_module, "analytic_densities", swapped)
    assert main(["converge", *argv]) == EXIT_QUADRATURE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"quadrature failure: {label}: ")


def test_excited_at_its_optimal_xi_is_the_sweep_row():
    # one xi-family row path: the one-state table of excited and the rows of
    # sweep's blocks, on both sides of the first block edge
    sweep = _rows("sweep", n_max=12, alpha=0.3)
    assert len(sweep) == 1300
    for i in (0, 1, REPORT_BLOCK - 2, REPORT_BLOCK - 1, REPORT_BLOCK, REPORT_BLOCK + 1, 1299):
        p = sweep[i]["parameters"]
        (row,) = _rows("excited", alpha=0.3, n=p["n"], kappa=p["kappa"], mj=p["mj"])
        assert row == sweep[i]


@st.composite
def _domain_states(draw):
    """One bound state (n, kappa, m_j) with n <= 40."""
    n = draw(st.integers(1, 40))
    abs_kappa = draw(st.integers(1, n))
    kappa = abs_kappa if abs_kappa == n else draw(st.sampled_from((abs_kappa, -abs_kappa)))
    return n, kappa, draw(st.integers(-abs_kappa, abs_kappa - 1)) + 0.5


# alpha next to both ends of (0, 1): the smallest subnormal, 1e-8 (where mu
# rounds to 1), and the two where the ground state's mu is 1.4e-3 and 1.5e-8
DOMAIN_EDGES = (5e-324, 1e-8, 0.999999, 1.0 - 2.0**-53)


def _with_domain_edges(test):
    for alpha in DOMAIN_EDGES:
        for state in ((1, 1, -0.5), (40, 1, 0.5), (40, -39, 20.5), (40, 40, -39.5)):
            test = example(state, alpha)(test)
    return test


@_with_domain_edges
@given(_domain_states(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_documented_domain_through_execute(state, alpha):
    n, kappa, mj = state
    (ground,) = _rows("ground", alpha=alpha, mj=math.copysign(0.5, mj))
    (excited,) = _rows("excited", alpha=alpha, n=n, kappa=kappa, mj=mj)
    for row in (ground, excited):
        closed_form = row["parameters"]["closed_form"]
        assert abs(row["value"] - closed_form) <= 2e-15 * closed_form
    (converge,) = _rows("converge", alpha=alpha, n=n, kappa=kappa, mj=mj)
    assert converge["bound"] == CONVERGE_BOUND == 1e-12
    assert converge["value"] <= CONVERGE_BOUND and not converge["violated"]


def test_sweep_n_max_12_matches_closed_forms(capsys):
    assert main(["sweep", "--n-max", "12", "--format", "csv"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == sum(2 * n * n for n in range(1, 13))
    for row in rows:
        qn = QuantumNumbers(int(row[0]), int(row[1]), float(row[2]))
        assert float(row[6]) == pytest.approx(optimal_xi(*_columns([qn]))[1][0], rel=1e-8)


def test_excited_at_n40_matches_its_closed_form(capsys):
    assert main(["excited", "--n", "40", "--kappa", "1", "--alpha", "0.5"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert result["value"] == pytest.approx(result["parameters"]["closed_form"], rel=1e-8)


# the number of distinct (n, |kappa|) among the bound states each command
# evaluates: mu depends on nothing else, and state_table (sweep, peres-mermin)
# and _one_state (ground, excited) evaluate it once for each
MU_VALUES_EVALUATED = {"ground": 1, "excited": 1, "sweep": 36, "peres-mermin": 6}


@pytest.mark.parametrize("argv", [
    ["ground"],
    ["excited", "--n", "3", "--kappa", "-2"],
    ["sweep", "--n-max", "8"],
    ["peres-mermin", "--n-max", "3"],
])
def test_reports_take_the_closed_form_density(monkeypatch, capsys, argv):
    import diracctx.cli as cli_module
    import diracctx.hydrogen as hydrogen
    from diracctx.hydrogen import SpinorField

    def boom(*args, **kwargs):
        raise AssertionError("report path integrated a spinor field")

    monkeypatch.setattr(cli_module, "reduce", boom)
    monkeypatch.setattr(cli_module, "eigenstate", boom)
    monkeypatch.setattr(SpinorField, "__call__", boom)
    # count every call where the report path makes it: sommerfeld_mu in
    # hydrogen.state_table and cli._one_state, _spinor_terms in hydrogen
    calls = Counter()
    for module, name in ((hydrogen, "sommerfeld_mu"), (cli_module, "sommerfeld_mu"),
                         (hydrogen, "_spinor_terms")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert main(argv) == EXIT_OK
    # delta = mu once per distinct (n, |kappa|), and no Clebsch-Gordan square roots
    assert calls["sommerfeld_mu"] == MU_VALUES_EVALUATED[argv[0]]
    assert calls["_spinor_terms"] == 0


def _reference_density(qn, a):
    """Per-state reference: one state's diagonal density, built on its own
    from the block weights (1 +- mu)/2 and the rational Clebsch-Gordan weights."""
    l, m = qn.l, round(qn.m_j - 0.5)
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    up, down = (1.0 + mu) / 2.0, (1.0 - mu) / 2.0
    part_a = ((l + m + 1) / (2 * l + 1), (l - m) / (2 * l + 1))
    part_b = ((l - m + 1) / (2 * l + 3), (l + m + 2) / (2 * l + 3))
    upper, lower = (part_a, part_b) if qn.kappa > 0 else (part_b, part_a)
    diagonal = [up * upper[0], up * upper[1], down * lower[0], down * lower[1]]
    return np.diag(diagonal).astype(complex)


def _reference_sweep_row(qn, a):
    """Per-state reference: the four terms as traces of single 4x4 products,
    and their signed sum."""
    gamma, gamma_prime = build_family("Gamma"), build_family("GammaPrime")
    xi = optimal_xi(*_columns([qn], a))[0].item()
    b = -math.sin(xi) * gamma_prime["y"] + math.cos(xi) * gamma_prime["z"]
    d = math.sin(xi) * gamma_prime["y"] + math.cos(xi) * gamma_prime["z"]
    rho = _reference_density(qn, a)
    pairs = {"AB": (gamma["y"], b), "BC": (b, gamma["z"]), "CD": (gamma["z"], d), "DA": (d, gamma["y"])}
    terms = {k: float(np.trace(rho @ o1 @ o2).real) for k, (o1, o2) in pairs.items()}
    return terms, terms["AB"] + terms["BC"] + terms["CD"] - terms["DA"]


@pytest.mark.parametrize("alpha", [1.0 / 137.036, 0.6])
def test_sweep_rows_equal_per_state_evaluation(alpha):
    rows = _rows("sweep", n_max=8, alpha=alpha)
    states = list(valid_states(8))
    assert len(rows) == len(states)
    for qn, row in zip(states, rows):
        assert (row["parameters"]["n"], row["parameters"]["kappa"]) == (qn.n, qn.kappa)
        # the stacked row is the one-row evaluation of its state, bit for bit
        assert _rows("excited", n=qn.n, kappa=qn.kappa, mj=qn.m_j, alpha=alpha) == [row]
        # the plane's correlators round differently from the products of the
        # multiplied-out B and D, by at most 2.2e-16 a term and 8.9e-16 a value
        terms, value = _reference_sweep_row(qn, alpha)
        assert all(abs(row["terms"][name] - terms[name]) <= 1e-15 for name in terms)
        assert abs(row["value"] - value) <= 2e-15


def test_peres_mermin_stack_equals_per_density_evaluation():
    products = [a @ b @ c for _, (a, b, c), _ in PERES_MERMIN_LINES]
    rng = np.random.default_rng(11)
    states = list(valid_states(8))
    spinors = rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4))
    stack = np.concatenate([analytic_densities(*_columns(states)),
                            [pure_density(u) for u in spinors]])
    labels = [state_label(qn.n, qn.kappa, qn.m_j) for qn in states]
    labels += [f"random-{i}" for i in range(500)]
    reports = block_rows(peres_mermin_value(stack, labels))
    assert len(reports) == len(stack) == len(states) + 500
    for matrix, label, report in zip(stack, labels, reports):
        # per-density reference: one 4x4 trace per line product
        terms = [float(np.trace(matrix @ product).real) for product in products]
        assert list(report["terms"].values()) == terms
        assert report["value"] == terms[0] + terms[1] + terms[2] + terms[3] + terms[4] - terms[5]
        assert report["parameters"] == {"state": label}
        assert block_rows(peres_mermin_value(matrix[None], [label])) == [report]


def test_sweep_checks_each_observable_once(monkeypatch, capsys):
    import diracctx.contextuality as contextuality_module

    calls = []
    original = contextuality_module.checked_observable
    monkeypatch.setattr(contextuality_module, "checked_observable",
                        lambda name, o: calls.append(name) or original(name, o))
    assert main(["sweep", "--n-max", "8", "--format", "csv"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 408
    assert calls == ["A", "C", "P", "Q"]


# --- rendering -------------------------------------------------------------------

def test_render_json_schema_and_round_trip():
    doc = _run("ground")
    text = render(doc, "json")
    payload = json.loads(text)
    assert set(payload) == {"command", "params", "results", "version"}
    assert payload["results"][0]["bound"] == 2.0
    assert payload["results"][0]["violated"] is True
    assert render(_run("ground"), "json") == text


def test_render_empty_results_is_valid():
    doc = _document("audit", {}, [])
    payload = json.loads(render(doc, "json"))
    assert payload["results"] == []


def test_sweep_csv_header_and_rows():
    doc = _run("sweep", n_max=2, output_format="csv")
    text = render(doc, "csv")
    lines = text.strip().split("\n")
    # the header benchmarks/gate.py compares literally
    assert lines[0] == "n,kappa,mj,sign,mu,xi_star,value,bound,violated"
    assert len(lines) == 1 + len(report_rows(doc["results"]))
    first = lines[1].split(",")
    assert first[0] == "1" and first[-1] == "true"


def test_generic_csv_header():
    # peres-mermin rows lead with their state
    doc = _run("peres-mermin", n_max=1, seed=0)
    lines = render(doc, "csv").strip().split("\n")
    assert lines[0] == "state,value,bound,violated"
    assert lines[1] == "n=1 kappa=1 mj=-0.5,6.0,4.0,true"
    assert len(lines) == 1 + 2 + 100 + 1
    # a command without CSV labels leads each row with its kind
    doc = _run("measurability")
    header, *rows = render(doc, "csv").strip().split("\n")
    assert header == "kind,value,bound,violated"
    assert len(rows) == 5
    assert [row.split(",")[0] for row in rows] == [r["kind"] for r in report_rows(doc["results"])]


def test_free_electron_csv_tabulates_the_closed_form(tmp_path, capsys):
    # 1,100 points are three report blocks
    for points in (3, 1100):
        grid = f"0:0.999:{points}"
        assert main(["free-electron", "--beta-grid", grid, "--format", "csv"]) == EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "beta_v,theta,closed_form,value,bound,violated"
        table = [row.split(",") for row in rows]
        if points == 3:
            assert [float(row[0]) for row in table] == [0.0, 0.4995, 0.999]
        for _, _, closed_form, value, bound, violated in table:
            assert abs(float(value) - float(closed_form)) <= 1e-12
            assert (bound, violated) == ("2.0", "true")
        # each row is the row of the JSON report on the same grid
        report = tmp_path / f"curve-{points}.json"
        assert main(["free-electron", "--beta-grid", grid, "--output", str(report)]) == EXIT_OK
        results = json.loads(report.read_text())["results"]
        assert len(table) == len(results) == points
        for (beta, theta, closed_form, value, _, violated), r in zip(table, results):
            p = r["parameters"]
            assert (float(beta), float(theta), float(closed_form), float(value)) == (
                p["beta_v"], p["theta"], p["closed_form"], r["value"])
            assert (violated == "true") is r["violated"]


@pytest.mark.parametrize("argv, header", [
    (["ground", "--mj", "-0.5"], "n,kappa,mj,sign,mu,closed_form,value,bound,violated"),
    *((argv, "n,kappa,mj,sign,mu,xi,xi_star,closed_form,value,bound,violated") for argv in (
        ["excited", "--n", "3", "--kappa", "-2"],
        ["excited", "--n", "3", "--kappa", "2", "--xi", "0.3"])),
], ids=["ground", "excited-optimal-xi", "excited-given-xi"])
def test_state_csv_rows_lead_with_their_state(argv, header, tmp_path, capsys):
    assert main([*argv, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    # each row is the row of the JSON report, its labels read from the parameters
    report = tmp_path / "report.json"
    assert main([*argv, "--output", str(report)]) == EXIT_OK
    results = json.loads(report.read_text())["results"]
    assert len(lines) == 1 + len(results) == 2
    labels = header.split(",")[:-3]
    for line, r in zip(lines[1:], results):
        *fields, violated = line.split(",")
        want = [r["parameters"][key] for key in labels] + [r["value"], r["bound"]]
        assert [float(field) for field in fields] == want
        assert (violated == "true") is r["violated"]


def test_render_floats_capped_at_15_significant_digits():
    doc = _document("audit", {"alpha": 1.0 / 137.036}, [])
    payload = json.loads(render(doc, "json"))
    assert payload["params"]["alpha"] == float(f"{1.0 / 137.036:.15g}")


def test_byte_identical_output_for_identical_config():
    cfg = RunConfig(command="peres-mermin", n_max=1, seed=7)
    assert render(execute(cfg), "json") == render(execute(cfg), "json")


def test_timing_never_serialized():
    doc = _run("ground")
    assert list(doc) == ["command", "params", "results", "version"]
    assert "timing" not in render(doc, "json")


def _sig15(x):
    """Reference writer: floats rounded to 15 significant digits, then json.dumps."""
    if isinstance(x, float):
        return float(f"{x:.15g}")
    if isinstance(x, dict):
        return {k: _sig15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig15(v) for v in x]
    return x


def _reference_json(doc, rows=None):
    """The document with its results as rows, by default those read back from
    its blocks, through the reference writer."""
    rows = report_rows(doc["results"]) if rows is None else rows
    return json.dumps(_sig15({**doc, "results": rows}), indent=2) + "\n"


FLOAT_EDGES = (
    0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 123456789012345.0,
    1e15, 9.99999999999999e15, 1e16, 1.7976931348623157e308,
)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@settings(max_examples=500)
def test_float_text_is_the_json_of_the_rounded_float(x):
    assert _float_texts([x])[0] == json.dumps(float(f"{x:.15g}"))


@pytest.mark.parametrize("x", FLOAT_EDGES + tuple(-x for x in FLOAT_EDGES))
def test_float_text_at_edges(x):
    assert _float_texts([x])[0] == json.dumps(float(f"{x:.15g}"))


def _texts_by_digits(floats):
    """The text of each float with 1e-4 <= |x| < 1e14 from one _digits15
    pass, as the writers build it: a "-" for a negative float, then
    "%d.%0*d" of its digits."""
    digits = zip(*(column.tolist() for column in _digits15(np.array(floats))))
    return ["-" * (x < 0) + "%d.%0*d" % d for x, d in zip(floats, digits)]


def _with_neighbours(floats):
    """Each float between its two neighbouring doubles."""
    return [float(y) for x in floats
            for y in (np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf))]


PLAIN_EDGES = (
    # exact decimal ties of 16 digits (d + j / 2**15 has 15 fraction digits),
    # rounded half to even: down and up
    5.000030517578125, 5.000091552734375,
    *(d + j * 2.0**-15 for d in (1, 8) for j in (1, 5, 7, 32767)),
    *(10.0 + j * 2.0**-14 for j in (1, 3)),
    # the double nearest a 16-digit tie (m + 0.5) / 10**k, and its neighbours
    *_with_neighbours([(m + 0.5) / 10**k for k in (3, 8, 13, 18)
                       for m in (123456789012345, 555555555555555, 987654321098765)]),
    # powers of ten, of which 1e-4 is the smallest plain float, and their
    # neighbours: the double below 0.1, 0.01 and 0.001 carries into the next
    # decade, since its 15 digits round up to 1e15
    *_with_neighbours([1e-3, 1e-2, 1e-1]), 1e-4, float(np.nextafter(1e-4, 1.0)),
    0.099999999999999995, 0.0099999999999999995,
    # 15 nonzero digits within 1e-12 of a power of ten, on either side
    0.0999999999999912345, 0.1000000000000123, 0.000100000000000123, 999.99999999876,
    1000.00000000123,
    # the largest plain floats: 1e-13 |x| < 0.5 keeps them below 5e12
    4999999999999.5, 3999999999999.5, 1234567890123.45,
    # fractions with leading zeros
    3.05, 0.000123, 1.0001, 7.000000000001, 123.000456, 0.10000000000001,
)


@pytest.mark.parametrize("x", PLAIN_EDGES, ids=repr)
def test_digits_at_edges(x):
    floats = [x, -x]
    # the CSV writes the column from its digits, not from its %.15g texts
    assert _row_fields([np.array(floats)], "csv")[0] != ["%s"]
    assert _texts_by_digits(floats) == ["%.15g" % y for y in floats]


def test_digits_of_exact_ties_round_half_to_even():
    assert _texts_by_digits([5.000030517578125, -5.000091552734375]) == [
        "5.00003051757812", "-5.00009155273438"]


def test_digits_of_every_edge_in_one_pass():
    floats = [y for x in PLAIN_EDGES for y in (x, -x)]
    assert _texts_by_digits(floats) == ["%.15g" % y for y in floats]


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_digits_place_the_decade_whatever_log10_gives(monkeypatch, offset):
    # a log10 that misses by 1e-12 puts every float that near a power of ten
    # in the wrong decade; the scaled product moves it back
    floats = [y for x in PLAIN_EDGES for y in (x, -x)]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + offset)
    assert _texts_by_digits(floats) == ["%.15g" % y for y in floats]


def _plain(x):
    """Whether %.15g writes x with a fraction and no exponent."""
    return 1e-4 <= abs(x) < 1e14 and "." in "%.15g" % x


# plain floats of both signs: any double in range, the double nearest a
# 15-digit decimal, and the double nearest a 16-digit tie of one
_plain_floats = st.builds(
    lambda size, negative: -size if negative else size,
    st.one_of(
        st.floats(1e-4, 1e14, exclude_max=True),
        st.builds(lambda m, k, tie: (m + tie) / 10**k,
                  st.integers(10**14, 10**15 - 1), st.integers(2, 18), st.sampled_from([0, 0.5]))),
    st.booleans(),
).filter(_plain)


@given(st.lists(_plain_floats, min_size=1, max_size=40))
@settings(max_examples=300)
def test_digits_are_the_15_significant_digits(floats):
    assert _texts_by_digits(floats) == ["%.15g" % x for x in floats]


# floats whose 15 digits may round to an integer: integers of up to 14 digits
# a few ulps away, of both signs
_near_integers = st.builds(
    lambda whole, ulps, negative: (-1.0) ** negative * (whole + ulps * math.ulp(whole)),
    st.integers(1, 10**14 - 1), st.integers(-4, 4), st.booleans(),
).filter(lambda x: abs(x) < 1e14)


@given(st.lists(st.one_of(_plain_floats, _near_integers), min_size=1, max_size=40))
@settings(max_examples=300)
@example([0.9999999999999998, 6.000000000000001, -1.0000000000000002, 2.0, 99999999999999.98])
def test_digits_of_integral_texts_are_their_json(floats):
    # %.15g writes an integral W; its digits are "W.0", the JSON of the rounded float
    assert _texts_by_digits(floats) == [json.dumps(float("%.15g" % x)) for x in floats]


_keys = st.text(max_size=8)
# each leaf kind with the dtype of its columns; numpy's str dtype drops a
# trailing NUL, which no result text ends in
_LEAF_KINDS = {
    "float": (st.floats(), float),
    "float64": (st.floats().map(np.float64), float),
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "bool": (st.booleans(), bool),
    "str": (st.text(max_size=4).filter(lambda text: not text.endswith("\x00")), str),
}
# a params echo: a dict of leaves and dicts, written from its Python values;
# a leaf may be None, its ints may lie past int64, as a large --seed does, and
# its texts may end in NUL
_trees = st.recursive(
    st.one_of(st.none(), st.integers(), st.text(max_size=4),
              *(leaf for leaf, _ in _LEAF_KINDS.values())),
    lambda inner: st.dictionaries(_keys, inner, max_size=4), max_leaves=12)
# the shape of a block: a leaf kind for each column, and a dict of shapes
# (an empty one too) for each nested block; its top level holds a column
_kinds = st.sampled_from(sorted(_LEAF_KINDS))
_nested = st.recursive(
    _kinds, lambda inner: st.dictionaries(_keys, inner, min_size=1, max_size=4) | st.just({}),
    max_leaves=8)
_shapes = st.builds(
    lambda rest, key, kind: {**rest, key: kind},
    st.dictionaries(_keys, _nested, max_size=4), _keys, _kinds)


def _block_of(draw, shape, count):
    """A block of count rows of the shape: an array of count values of its
    kind for each leaf, and a nested block for each dict."""
    if isinstance(shape, str):
        leaf, dtype = _LEAF_KINDS[shape]
        return np.array(draw(st.lists(leaf, min_size=count, max_size=count)), dtype=dtype)
    return {key: _block_of(draw, item, count) for key, item in shape.items()}


@st.composite
def _tables(draw, shapes):
    """Up to three blocks of 0 to 20 rows, with the rows the test builds from
    them; shapes draws the shape of each block."""
    blocks, rows = [], []
    for _ in range(draw(st.integers(0, 3))):
        count = draw(st.integers(0, 20))
        block = _block_of(draw, draw(shapes), count)
        blocks.append(block)
        rows += block_rows(block, count)
    return blocks, rows


@given(st.text(max_size=8), st.dictionaries(_keys, _trees, max_size=3), _tables(_shapes))
@settings(max_examples=100)
def test_render_json_matches_reference_writer(command, params, table):
    # each block of its own shape
    blocks, rows = table
    doc = _document(command, params, blocks)
    assert render(doc, "json") == _reference_json(doc, rows)


def test_render_json_head_texts_ending_in_nul_match_reference_writer():
    # the head is written from its Python values, so no numpy str drops a trailing NUL;
    # keys and texts that hold NUL and % beside the NUL that marks each column
    # and the results in the writer's templates
    params = {"label": "a\x00", "nested": {"x": "\x00\x00"}, "%\x00k": "%d\x00"}
    block = {"kind": np.array(["t", "u"]), "\x00%s": {"%\x00": np.array([0.5, 1.5])}}
    doc = _document("\x00", params, [block])
    assert render(doc, "json") == _reference_json(doc)
    assert json.loads(render(doc, "json"))["command"] == "\x00"


@given(st.data())
@settings(max_examples=100)
def test_render_json_of_tables_matches_reference_writer(data):
    # every block of one shape, as a command streams them
    shape = data.draw(_shapes)
    blocks, rows = data.draw(_tables(st.just(shape)))
    doc = _document("table", {}, blocks)
    assert render(doc, "json") == _reference_json(doc, rows)


def test_render_json_of_float_edges_in_one_column():
    # in both formats, which write a float alike: NaN and Infinity in CSV too
    column = [*FLOAT_EDGES, *(-x for x in FLOAT_EDGES), math.inf, -math.inf, math.nan]
    count = len(column)
    block = {"kind": np.full(count, "edge"), "value": np.array(column),
             "bound": np.full(count, 2.0), "violated": np.zeros(count, dtype=bool)}
    doc = _document("edges", {}, [block])
    assert render(doc, "json") == _reference_json(doc)
    assert render(doc, "csv") == _reference_csv(doc)
    assert "\nedge,NaN,2.0,false\n" in render(doc, "csv")


@pytest.mark.parametrize("column", [
    # constant columns: folded only when every entry has the same bits
    [0.0, -0.0], [-0.0, -0.0, -0.0], [2.0] * 3, [1e-5] * 3, [math.nan] * 2, [math.inf] * 2,
    ["a%b"] * 2, [True] * 2,
    # plain floats, mixed with entries at the edge of the plain rule
    *([0.5, x] for x in (9.999999999999999e-05, 1e-4, 0.9999999999999999,
                         2.0000000000000004, 99999999999999.98, 1e14,
                         # subnormal and past 1e14, where %.15g is not the JSON text
                         5e-324, -1.5e-310, 123456789012345.67)),
    # the edge values on their own
    [9.999999999999999e-05, 1e-4], [0.9999999999999999, 2.0000000000000004],
    [99999999999999.98, 1e14], [-1e-4, -0.25, -99999999999999.9],
    # one row
    [0.3],
    # strided views, as the sweep's columns are: plain entries beside 0.0, and
    # a constant -0.0
    np.arange(8.0)[::2], np.full(8, -0.0)[::2],
    # float32: 0.0 and -0.0 differ in float64 bits too
    np.array([0.0, -0.0], dtype=np.float32),
], ids=repr)
def test_render_json_of_folded_and_plain_columns(column):
    # the column beside a plain column and a column of other texts, in a
    # block, in the head's params, and under a key that holds %
    column = np.asarray(column)
    count = len(column)
    plain = [0.25 + i for i in range(count)]
    labels = [f"s%{i}" for i in range(count)]
    block = {"kind": column, "terms": {"%s": np.array(plain), "x%%": column},
             "state": np.array(labels)}
    head = {"p%": column[0].item(), "q": {"r%d": column[-1].item()}}
    doc = _document("edges", head, [block, block])
    rows = block_rows(block, count) * 2
    assert_same_text(render(doc, "json"), _reference_json(doc, rows))


def test_render_json_of_blocks_without_columns():
    # the head's empty params, and a block whose only entry is an empty block
    doc = _document("empty", {}, [{"terms": {}}])
    assert_same_text(render(doc, "json"), _reference_json(doc, [{"terms": {}}]))


@pytest.mark.parametrize("column", [
    *(np.array(entries, dtype=object) for entries in ([True, 1], [1.0, 1], [1, True, True])),
    # a list is no column, though it holds one type
    [2.0, 2.0],
])
def test_render_json_checks_the_column_type_before_folding(column):
    # True == 1 and 1.0 == 1: a column that folded first would be written
    doc = _document("mixed", {}, [{"value": column}])
    with pytest.raises(TypeError, match="is not JSON serializable|is a 1-D numpy array"):
        render(doc, "json")


def test_render_json_rejects_columns_of_different_lengths():
    doc = _document("ragged", {}, [{"value": np.array([1.5, 2.5]), "bound": np.array([2.0])}])
    with pytest.raises(ValueError):
        render(doc, "json")


@pytest.mark.parametrize("command, kwargs", [
    ("audit", {}),
    ("ground", {}),
    ("excited", {"n": 4, "kappa": -1}),
    ("sweep", {"n_max": 3}),
    ("peres-mermin", {"n_max": 2, "seed": 1}),
    ("free-electron", {"beta_grid": "0:0.999:2000"}),
    ("measurability", {}),
    ("converge", {"n": 3, "kappa": -2}),
])
def test_render_json_of_every_command_matches_reference_writer(command, kwargs):
    doc = _run(command, **kwargs)
    assert_same_text(render(doc, "json"), _reference_json(doc))


@pytest.mark.parametrize("payload", [
    {"params": {1: 0.5}},
    {"params": {"x": np.int64(3)}},
    {"params": {"x": {2.0, 3.0}}},
    {"params": {"x": [2.0, 3.0]}},
    {"params": {"x": (2.0, 3.0)}},
    # a column is a 1-D array of one JSON type, and a list is no column
    {"results": [{"value": [1.0, None]}]},
    {"results": [{"violated": [True, 1]}]},
    {"results": [{"terms": {"x": [[2.0, 3.0]]}}]},
    {"results": [{"value": np.array([1.0, None])}]},
    {"results": [{"terms": {"x": np.array([[2.0, 3.0]])}}]},
    {"results": [{"value": np.array(2.0)}]},
    {"results": [{"value": np.array([1j, 2j])}]},
    {"results": [{"kind": np.array([b"x", b"x"])}]},
    # an object column, empty or not, though each entry has a JSON text
    {"results": [{"value": np.array([None, None])}]},
    {"results": [{"value": np.array([1, 2], dtype=object)}]},
    {"results": [{"value": np.array([], dtype=object)}]},
])
def test_render_json_rejects_what_json_cannot_hold(payload):
    doc = {**_document("audit", {}, []), **payload}
    with pytest.raises(TypeError):
        render(doc, "json")


def _reference_csv(doc):
    """Reference writer: the whole CSV from one csv.writer, row after row of
    the rows read back from the blocks, each led by its command's labels."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    state = ["n", "kappa", "mj", "sign", "mu"]
    labels = {"ground": state + ["closed_form"],
              "excited": state + ["xi", "xi_star", "closed_form"],
              "sweep": state + ["xi_star"],
              "free-electron": ["beta_v", "theta", "closed_form"],
              "peres-mermin": ["state"]}.get(doc["command"])
    writer.writerow((labels or ["kind"]) + ["value", "bound", "violated"])
    for r in report_rows(doc["results"]):
        p = r.get("parameters")
        # an int parameter (n, kappa, sign) or a str one (state) is written as
        # it is, a float as the JSON reference writes it
        head = [p[key] if isinstance(p[key], (int, str)) else json.dumps(float(f"{p[key]:.15g}"))
                for key in labels] if labels else [r["kind"]]
        writer.writerow(head + [json.dumps(float(f"{r[key]:.15g}")) for key in ("value", "bound")]
                        + ["true" if r["violated"] else "false"])
    return buf.getvalue()


def _float_field_blocks():
    """The blocks of an excited-shaped report of REPORT_BLOCK + 4 rows, cut at
    the block edge and into one last one-row block, whose float columns take
    every field of the writers. value is plain of both signs up to the edge,
    and then near-integers (digits "W.0" in JSON, %s of "W" in CSV) and 2.5;
    mj plain with the whole part 2 and none to three leading fraction zeros,
    three in every row after the edge; mu plain, negative and below 1; the
    term CD negative with the prefix -0.00; xi with the prefix 0. up to the
    edge and then 0.0, an exponent form and plain floats; xi_star constant
    after the edge only; closed_form, bound and the term BC (-0.0) constant."""
    count = REPORT_BLOCK + 4
    i = np.arange(count)
    value = np.where(i % 3, 1.0, -1.0) * (0.125 + i / 7.0)
    value[REPORT_BLOCK:] = [6.000000000000001, -1.0, 0.9999999999999998, 2.5]
    params = {
        "n": np.full(count, 3), "kappa": np.where(i % 2, -2, 2), "mj": 2.0 + 1.0 / (i + 3.0),
        "sign": np.where(i % 2, -1, 1), "mu": -1.0 / (i + 3.0),
        "xi": np.concatenate([0.5 + i[:REPORT_BLOCK] / 1e4, [0.0, 1e-5, 0.75, 0.5]]),
        "xi_star": np.where(i < REPORT_BLOCK, 1.0 / (i + 1.5), 1.5),
        "closed_form": np.full(count, 2.5),
    }
    block = {"kind": np.full(count, "chsh_nc"),
             "terms": {"AB": value / 4.0, "BC": np.full(count, -0.0),
                       "CD": -1e-3 - 1e-3 / (i + 3.0)},
             "value": value, "bound": np.full(count, 2.0),
             "violated": (i % 3 > 0) | (i >= REPORT_BLOCK), "parameters": params}

    def cut(entry, rows):
        if isinstance(entry, dict):
            return {key: cut(column, rows) for key, column in entry.items()}
        return entry[rows]

    edges = (0, REPORT_BLOCK, count - 1, count)
    return [cut(block, slice(start, stop)) for start, stop in zip(edges, edges[1:])]


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_render_of_every_float_field_across_a_block_edge(output_format):
    doc = _document("excited", {"alpha": 0.5}, _float_field_blocks())
    reference = _reference_json if output_format == "json" else _reference_csv
    assert_same_text(render(doc, output_format), reference(doc))


def test_plain_float_fields_are_a_prefix_then_the_fraction_digits():
    # each plain entry is its prefix (sign, whole part, "." and leading
    # fraction zeros), then %d of its fraction digits: a prefix shared by the
    # column is written into the field, any other column is "%s%d" of prefix
    # bytes, here with a mixed sign, whole part and count of leading zeros
    columns = [[2.25, 2.5], [-0.25, -0.5], [0.025, 0.0625], [0.25, -0.5],
               [-12.25, -3.5], [0.25, 0.05], [0.0, 0.5], [1.5, 1.5], [1e-5, 0.5],
               [-1.0, 0.9999999999999998], [6.000000000000001, 6.0]]
    # both formats write a float as the JSON text: 15 digits that round to an
    # integer W are the prefix "W." and 0
    for output_format in ("json", "csv"):
        fields, entries, count = _row_fields([np.array(c) for c in columns], output_format)
        assert count == 2
        assert fields == ["2.%d", "-0.%d", "0.0%d", "%s%d", "%s%d", "%s%d", "%s", "1.5", "%s",
                          "%s%d", "6.%d"]
        assert entries == [[25, 5], [25, 5], [25, 625], [b"0.", b"-0."], [25, 5],
                           [b"-12.", b"-3."], [25, 5], [b"0.", b"0.0"], [25, 5],
                           [b"0.0", b"0.5"], [b"1e-05", b"0.5"], [b"-1.", b"1."], [0, 0], [0, 0]]


@st.composite
def _prefixed_columns(draw):
    """A column of 2 to 40 floats with 1e-4 <= |x| < 1e14, each the double
    nearest sign whole.zeros digits; the entries share their sign, whole part
    and count of leading fraction zeros, or each draws its own. The digits
    include powers of ten, as in 2.001 and 7.000000000001."""
    def prefix():
        return (draw(st.sampled_from(["", "-"])), draw(st.integers(0, 10**6)),
                draw(st.integers(0, 12)))

    shared = prefix() if draw(st.booleans()) else None
    column = []
    for _ in range(draw(st.integers(2, 40))):
        sign, whole, zeros = shared or prefix()
        digits = draw(st.one_of(st.integers(1, 10**15), st.sampled_from([1, 10, 100, 31])))
        x = float(f"{sign}{whole}.{'0' * zeros}{digits}")
        column.append(x if abs(x) >= 1e-4 else float(f"{sign}0.0001{digits}"))
    return column


@given(_prefixed_columns())
@settings(max_examples=300)
@example([2.0031, 2.0047])
@example([0.000123, 0.000456])
@example([2.001, 2.002])
@example([7.000000000001, 7.000000000002])
@example([-0.5, -0.25])
@example([-3.0625, -3.5, 0.125])
@example([-0.25, 0.5, 0.125])
@example([2.5, 12.5, 2.25])
@example([0.5, 0.25, 0.05])
def test_plain_columns_with_shared_and_mixed_prefixes_are_their_texts(column):
    # in a block beside a plain column, as the rows of the CSV and the JSON
    count = len(column)
    block = {"kind": np.full(count, "t"), "value": np.array(column),
             "bound": np.arange(count) + 0.5, "violated": np.ones(count, dtype=bool)}
    doc = _document("table", {}, [block])
    rows = render(doc, "csv").splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [json.dumps(float("%.15g" % x)) for x in column]
    assert_same_text(render(doc, "json"), _reference_json(doc))


@pytest.mark.parametrize("argv", [
    # one block of 1 and 511 to 513 rows, and each side of the block edges
    *(["free-electron", "--beta-grid", f"0:0.999:{count}"]
      for count in (1, 511, 512, 513, REPORT_BLOCK - 1, REPORT_BLOCK, REPORT_BLOCK + 1,
                    2 * REPORT_BLOCK + 1)),
    ["sweep", "--n-max", "8"],
    ["ground", "--mj", "-0.5"],
    ["excited", "--n", "3", "--kappa", "-2"],
    ["excited", "--n", "3", "--kappa", "2", "--xi", "0.3"],
    ["audit"],
    ["measurability"],
    ["converge", "--n", "3", "--kappa", "-2"],
    ["peres-mermin", "--n-max", "2"],
    # 1,113 rows, two blocks, the edge among the random spinors
    ["peres-mermin", "--n-max", "11"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_streamed_report_equals_the_whole_report(argv, output_format, tmp_path, capsys):
    argv = [*argv, "--format", output_format]
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    pieces = list(report_pieces(execute(config), output_format))
    doc = execute(config)
    doc["results"] = list(doc["results"])
    # json: the head goes with the first block, then the tail; csv: the
    # header, then the blocks
    assert len(pieces) == len(doc["results"]) + 1
    text = "".join(pieces)
    assert_same_text(text, render(doc, output_format))
    reference = _reference_json if output_format == "json" else _reference_csv
    assert_same_text(text, reference(doc))
    assert main(argv) == EXIT_OK
    assert_same_text(capsys.readouterr().out, text)
    assert main([*argv, "--output", str(tmp_path / "report")]) == EXIT_OK
    assert_same_text((tmp_path / "report").read_text(encoding="utf-8"), text)


def test_assert_same_text_names_the_first_difference():
    text = "x" * 5_000_000 + "abc"
    assert_same_text(text, "x" * 5_000_000 + "abc")
    with pytest.raises(AssertionError, match="^texts differ: 5000003 against 5000003 characters, "
                                             "first at offset 5000001: 'xabc' against 'xaXb'$"):
        assert_same_text(text, "x" * 5_000_000 + "aXb", context=2)
    # one text a prefix of the other: the offset is the shorter length
    with pytest.raises(AssertionError, match="first at offset 5000000: 'xx' against 'xxab'$"):
        assert_same_text(text[:-3], text, context=2)


SCHEMA = ("kind", "terms", "value", "bound", "violated", "parameters")
# the dtype kind of each column by its key: U str, b bool, i int; every other
# column (each term, value, bound and the other parameters) is f float
COLUMN_KINDS = {"kind": "U", "violated": "b", "state": "U", "n": "i", "kappa": "i", "sign": "i"}


def _columns_of(block):
    """Every column of a block with its key, nested blocks included."""
    for key, entry in block.items():
        yield from _columns_of(entry) if isinstance(entry, dict) else [(key, entry)]


@pytest.mark.parametrize("command, kwargs", [
    *((command, {}) for command in COMMANDS),
    ("sweep", {"n_max": 12}),
    ("peres-mermin", {"n_max": 11}),
    ("free-electron", {"beta_grid": "0:0.999:1025"}),
])
def test_every_block_keeps_the_block_contract(command, kwargs):
    blocks = _run(command, **kwargs)["results"]
    assert blocks
    for block in blocks:
        count = len(block["kind"])
        assert 1 <= count <= REPORT_BLOCK
        # the schema's keys in its order; only the few-row checks have no parameters
        assert list(block) == list(SCHEMA[:len(block)]) and len(block) >= 5
        for key, column in _columns_of(block):
            assert type(column) is np.ndarray and column.shape == (count,)
            assert column.dtype.kind == COLUMN_KINDS.get(key, "f"), key


def _joined(blocks):
    """The blocks as one block: each column the concatenation of theirs."""
    first = blocks[0]
    return {
        key: _joined([b[key] for b in blocks]) if isinstance(entry, dict)
        else np.concatenate([b[key] for b in blocks])
        for key, entry in first.items()
    }


@pytest.mark.parametrize("command, kwargs, source", [
    ("ground", {}, "chsh_value"),
    ("excited", {"n": 3, "kappa": -2}, "chsh_value"),
    ("sweep", {"n_max": 3}, "chsh_value"),
    ("free-electron", {"beta_grid": "0:0.9:1100"}, "chsh_value"),
    ("peres-mermin", {"n_max": 2}, "peres_mermin_value"),
    # every runner's blocks come from the one constructor
    ("audit", {}, "report_block"),
    ("measurability", {}, "report_block"),
    ("converge", {}, "report_block"),
    ("sweep", {"n_max": 9}, "report_block"),
    ("peres-mermin", {"n_max": 2}, "report_block"),
])
def test_report_rows_are_the_rows_built_once(monkeypatch, command, kwargs, source):
    # the blocks the kernel returns are the blocks the writer formats, uncopied
    import diracctx.cli as cli_module
    import diracctx.contextuality as contextuality_module

    built, written = [], []
    original = getattr(contextuality_module, source)

    def recorded(*args, **kw):
        built.append(original(*args, **kw))
        return built[-1]

    for key, module in list(sys.modules.items()):
        if key.startswith("diracctx") and getattr(module, source, None) is original:
            monkeypatch.setattr(module, source, recorded)
    json_block = cli_module._json_block

    def writes(block, indent):
        if indent == "    ":  # the result blocks, not the params of the head
            written.append(block)
        return json_block(block, indent)

    monkeypatch.setattr(cli_module, "_json_block", writes)
    render(execute(RunConfig(command=command, **kwargs)), "json")
    assert len(written) == len(built) > 0
    assert all(block is made for block, made in zip(written, built))


def _random_spinors(seed):
    """The 100 random spinors of peres-mermin, drawn one spinor at a time:
    the real part, then the imaginary part."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(100)]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_random_spinors_are_one_draw_in_the_order_of_one_at_a_time(seed):
    parts = np.random.default_rng(seed).normal(size=(100, 2, 4))
    assert np.array_equal(parts[:, 0] + 1j * parts[:, 1], _random_spinors(seed))
    # the report's random rows are those of the spinors drawn one at a time
    rows = [r for r in _rows("peres-mermin", n_max=1, seed=seed)
            if r["parameters"]["state"].startswith("random-")]
    oracle = peres_mermin_value(pure_density(_random_spinors(seed)),
                                [f"random-{idx}" for idx in range(100)])
    assert rows == block_rows(oracle)


def _stacked_block(command, n_max):
    """The block of the whole table at the default alpha and seed, from one
    stacked chsh_value or peres_mermin_value pass; the sweep block carries no
    report parameters."""
    states = list(valid_states(n_max))
    kappa, twice_mj, delta = _columns(states)
    densities = analytic_densities(kappa, twice_mj, delta)
    if command == "sweep":
        observables = excited_observables(optimal_xi(kappa, twice_mj, delta)[0])
        return chsh_value(densities, *observables, {})
    spinors = _random_spinors(0)
    stack = np.concatenate([densities, [pure_density(u) for u in spinors], [np.eye(4) / 4.0]])
    labels = [state_label(qn.n, qn.kappa, qn.m_j) for qn in states]
    labels += [f"random-{idx}" for idx in range(100)] + ["maximally-mixed"]
    return peres_mermin_value(stack, labels)


@pytest.mark.parametrize("command, n_max, source", [
    # block edges among the states: 1,300 and 2,480 sweep rows (two and three
    # blocks), 1,300 states + 101
    ("sweep", 12, "chsh_value"),
    ("sweep", 15, "chsh_value"),
    ("peres-mermin", 12, "peres_mermin_value"),
    # the edge at 1,024 falls among the random spinors: 1,012 states + 101
    ("peres-mermin", 11, "peres_mermin_value"),
])
def test_streamed_blocks_equal_one_stacked_pass(monkeypatch, command, n_max, source):
    import diracctx.contextuality as contextuality_module

    calls = []
    original = getattr(contextuality_module, source)

    def recorded(densities, *args, **kw):
        calls.append(len(densities))
        return original(densities, *args, **kw)

    for key, module in list(sys.modules.items()):
        if key.startswith("diracctx") and getattr(module, source, None) is original:
            monkeypatch.setattr(module, source, recorded)
    results = execute(RunConfig(command=command, n_max=n_max))["results"]
    # nothing is evaluated until the report reads the blocks
    assert calls == []
    streamed = block_lists(_joined(list(results)))
    monkeypatch.undo()
    whole = block_lists(_stacked_block(command, n_max))
    count = len(whole["value"])
    assert count > REPORT_BLOCK
    assert calls == [min(REPORT_BLOCK, count - start) for start in range(0, count, REPORT_BLOCK)]
    if command == "peres-mermin":
        assert streamed == whole
        return
    assert {key: streamed[key] for key in SCHEMA[:5]} == {key: whole[key] for key in SCHEMA[:5]}
    states = list(valid_states(n_max))
    xi_star, value_star = optimal_xi(*_columns(states))
    p = streamed["parameters"]
    assert list(zip(p["n"], p["kappa"], p["mj"])) == [(qn.n, qn.kappa, qn.m_j) for qn in states]
    assert p["mu"] == _columns(states)[2]
    assert p["xi_star"] == xi_star.tolist()
    assert p["closed_form"] == value_star.tolist()


def test_free_curve_report_memory_stays_bounded(tmp_path):
    # the 20,000-point curve: one block of 1,024 rows and their texts at a
    # time peaks near 2.3 MB; building every block before the first byte is
    # written peaks near 19 MB
    _assert_report_memory_bounded(
        ["free-electron", "--beta-grid", "0:0.999:20000"], 8_000_000, tmp_path)


@pytest.mark.parametrize("argv, min_bytes", [
    # 5,740 states: near 1.2 MB streamed, 2.0 MB with every block held
    (["sweep", "--n-max", "20", "--format", "csv"], 400_000),
    # 5,740 states + 101: near 2.7 MB streamed, 5.3 MB with every block held
    (["peres-mermin", "--n-max", "20"], 1_500_000),
], ids=["sweep", "peres-mermin"])
def test_state_report_memory_stays_bounded(argv, min_bytes, tmp_path):
    _assert_report_memory_bounded(argv, min_bytes, tmp_path)


def _assert_report_memory_bounded(argv, min_bytes, tmp_path):
    out = tmp_path / "report"
    tracemalloc.start()
    try:
        assert main([*argv, "--output", str(out)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > min_bytes
    assert peak < 6e6


# --- argument parsing and exit codes ----------------------------------------------

def test_parser_builds_config():
    parser = build_parser()
    args = parser.parse_args(
        ["excited", "--n", "3", "--kappa", "-2", "--mj", "-0.5", "--format", "csv"]
    )
    cfg = RunConfig(**vars(args))
    assert cfg.command == "excited"
    assert cfg.kappa == -2
    assert cfg.mj == -0.5
    assert cfg.output_format == "csv"


def test_parser_namespace_is_the_run_config():
    # argparse writes RunConfig's own field names, so main builds the config
    # from the namespace as it is, for every command
    parser = build_parser()
    for name in COMMAND_NAMES:
        assert RunConfig(**vars(parser.parse_args([name]))) == RunConfig(command=name)
    args = parser.parse_args(["sweep", "--format", "csv", "--output", "x"])
    assert (args.output_format, args.output_path) == ("csv", "x")
    config = RunConfig(**vars(args))
    assert (config.output_format, config.output_path) == ("csv", "x")
    # built once per process
    assert build_parser() is parser


def test_beta_grid_parsing():
    parser = build_parser()
    args = parser.parse_args(["free-electron", "--beta-grid", "0:0.9:4"])
    cfg = RunConfig(**vars(args))
    assert cfg.beta_grid == "0:0.9:4"
    assert _parse_beta_grid(cfg.beta_grid).tolist() == [0.0, 0.3, 0.6, 0.9]
    with pytest.raises(ValueError):
        execute(RunConfig(**vars(parser.parse_args(["free-electron", "--beta-grid", "oops"]))))


def test_beta_grid_is_one_checked_float64_array(capsys):
    grid = _parse_beta_grid("0:0.999:2000")
    assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
    assert grid.tobytes() == np.linspace(0.0, 0.999, 2000).tobytes()
    # NaN is outside [0, 1) too; the message names the first bad point
    for text, first_bad in (("0:nan:3", "nan"), ("-0.5:0.5:3", "-0.5")):
        assert main(["free-electron", f"--beta-grid={text}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"velocity ratio must lie in [0, 1), got {first_bad}" in captured.err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_beta_grid_without_points_exits_2(count, capsys):
    assert main(["free-electron", "--beta-grid", f"0:0.5:{count}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--beta-grid" in captured.err
    with pytest.raises(ValueError, match="--beta-grid"):
        _run("free-electron", beta_grid=f"0:0.5:{count}")


def test_beta_with_beta_grid_exits_2(capsys):
    assert main(["free-electron", "--beta", "0.9", "--beta-grid", "0:0.5:2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--beta and --beta-grid" in captured.err
    with pytest.raises(ValueError, match="--beta and --beta-grid"):
        RunConfig(command="free-electron", beta=0.0, beta_grid="0:0.5:2")


def test_beta_grid_echo_is_the_text(capsys):
    assert main(["free-electron", "--beta-grid", "0:0.999:5"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["params"] == {"beta": None, "beta_grid": "0:0.999:5"}
    assert [r["parameters"]["beta_v"] for r in report["results"]] == list(
        _parse_beta_grid("0:0.999:5"))


def test_beta_grid_echoes_null_beta(capsys):
    # the grid replaces --beta, so the report echoes no beta it did not evaluate
    assert main(["free-electron", "--beta-grid", "0:0.5:2"]) == EXIT_OK
    assert '"beta": null,' in capsys.readouterr().out.splitlines()[3]
    assert RunConfig(command="free-electron", beta_grid="0:0.5:2").beta is None
    assert RunConfig(command="free-electron").params == {"beta": 0.0, "beta_grid": None}
    assert RunConfig(command="measurability").beta == 0.5


COMMAND_NAMES = (
    "audit", "ground", "excited", "sweep", "peres-mermin",
    "free-electron", "measurability", "converge",
)


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_library_and_cli_defaults_agree(command, capsys):
    assert main([command]) == EXIT_OK
    assert_same_text(capsys.readouterr().out, render(execute(RunConfig(command=command)), "json"))


def test_command_rejects_flag_it_does_not_read(capsys):
    for argv in (
        ["sweep", "--seed", "1"],
        ["audit", "--alpha", "0.5"],
        ["free-electron", "--alpha", "0.5"],
        ["excited", "--sign", "-1"],
        ["converge", "--sign", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    for command, kwargs in (
        ("sweep", {"seed": 1}),
        ("audit", {"alpha": 0.5}),
        ("free-electron", {"alpha": 0.5}),
    ):
        with pytest.raises(ValueError, match=f"{command} does not take --"):
            RunConfig(command=command, **kwargs)
    # --sign has no RunConfig field at all: the sign rides on kappa
    for command in ("excited", "converge"):
        with pytest.raises(TypeError):
            RunConfig(command=command, sign=-1)


def test_params_echo_is_the_subparser_flags():
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert tuple(subparsers.choices) == COMMAND_NAMES
    for name, subparser in subparsers.choices.items():
        dests = [
            action.dest for action in subparser._actions
            if action.dest not in ("help", "output_format", "output_path")
        ]
        assert list(RunConfig(command=name).params) == dests, name


@pytest.mark.parametrize("xi", ["nan", "inf", "-inf"])
def test_non_finite_xi_exits_2(xi, capsys):
    assert main(["excited", f"--xi={xi}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--xi must be finite" in captured.err


@pytest.mark.parametrize("command", ["ground", "excited"])
@pytest.mark.parametrize("mj", ["inf", "-inf", "nan"])
def test_non_finite_mj_exits_2(command, mj, capsys):
    assert main([command, f"--mj={mj}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m_j must be finite" in captured.err


@pytest.mark.parametrize("command", ["peres-mermin"])
def test_negative_seed_exits_2(command, capsys):
    assert main([command, "--seed", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be non-negative, got -1" in captured.err


def test_seed_past_int64_is_echoed_exactly(capsys):
    # the head is written from its Python values: json.dumps takes any int
    assert main(["peres-mermin", "--n-max", "1", "--seed", str(10**23)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["params"]["seed"] == 10**23


@pytest.mark.parametrize("command", ["sweep", "peres-mermin", "measurability"])
@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_n_max_below_one_exits_2(command, n_max, capsys):
    assert main([command, "--n-max", n_max]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-max must be at least 1" in captured.err


def test_main_success_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["ground", "--output", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["command"] == "ground"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "completed ground" in captured.err


def test_main_writes_to_stdout_by_default(capsys):
    assert main(["audit"]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == "audit"


def test_main_invalid_quantum_numbers_exit_2(capsys):
    code = main(["excited", "--n", "2", "--kappa", "5"])
    assert code == EXIT_USAGE
    assert "invalid configuration" in capsys.readouterr().err


def test_main_invalid_alpha_exit_2(capsys):
    assert main(["ground", "--alpha", "2.0"]) == EXIT_USAGE


def test_main_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["ground", "--bogus"])
    assert exc.value.code == 2


def test_main_quadrature_failure_exit_3(monkeypatch, capsys):
    import diracctx.cli as cli_module

    def boom(*args, **kwargs):
        raise QuadratureError("forced")

    monkeypatch.setattr(cli_module, "reduce", boom)
    assert main(["converge"]) == EXIT_QUADRATURE
    assert "quadrature failure" in capsys.readouterr().err


def test_converge_on_nan_rule_weights_exits_3(monkeypatch, capsys):
    # the state's own rule with nan weights: the nan density gives a nan entry
    # gap, which fails converge's check, so it exits 3 instead of reporting it
    import diracctx.cli as cli_module

    def nan_weights(qn, a):
        state = eigenstate(qn, a)
        rho, w = state.rule
        return dataclasses.replace(state, rule=(rho, w * np.nan))

    monkeypatch.setattr(cli_module, "eigenstate", nan_weights)
    assert main(["converge"]) == EXIT_QUADRATURE
    assert "quadrature failure" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert main(["ground", "--output", str(target)]) == EXIT_USAGE
    assert "cannot write report" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("argv, first_bad", [
    # point 1,333 is the first at or past 1, in the grid's third block
    (["free-electron", "--beta-grid", "0:1.5:2000"], float(np.linspace(0.0, 1.5, 2000)[1333])),
    (["free-electron", "--beta", "1.5"], 1.5),
], ids=["beta-grid", "beta"])
def test_velocity_out_of_range_exits_2_before_the_first_byte(argv, first_bad, tmp_path, capsys):
    assert np.linspace(0.0, 1.5, 2000)[1332] < 1.0 <= first_bad
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"velocity ratio must lie in [0, 1), got {first_bad}" in captured.err
    target = tmp_path / "report.json"
    assert main([*argv, "--output", str(target)]) == EXIT_USAGE
    assert not target.exists()


def test_closed_stdout_exits_1_without_a_traceback():
    # the 8 MB report overflows the pipe long before it is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "diracctx.cli", "free-electron", "--beta-grid", "0:0.999:20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b'{\n  "command": "free-electron"')
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "completed" not in err


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="nope")
    with pytest.raises(ValueError):
        RunConfig(command="ground", alpha=1.5)
    with pytest.raises(ValueError):
        RunConfig(command="ground", output_format="xml")
