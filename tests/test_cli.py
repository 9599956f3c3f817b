import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracctx import __version__
from diracctx.cli import (
    EXIT_OK,
    EXIT_QUADRATURE,
    EXIT_USAGE,
    GENERIC_CSV_HEADER,
    ReportDocument,
    RunConfig,
    SWEEP_CSV_HEADER,
    build_parser,
    config_from_args,
    execute,
    _float_text,
    _parse_beta_grid,
    main,
    render,
)
from diracctx.contextuality import closed_form_value
from diracctx.hydrogen import FINE_STRUCTURE_ALPHA, QuantumNumbers
from diracctx.spindensity import QuadratureError


def _run(command, **kwargs):
    return execute(RunConfig(command=command, **kwargs))


# --- command behaviour ----------------------------------------------------------

def test_ground_reproduces_headline_value():
    doc = _run("ground")
    result = doc.results[0]
    assert round(result["value"], 5) == 2.82839
    assert result["violated"] is True
    assert result["bound"] == 2.0
    assert doc.version == __version__


def test_ground_kramers_partner():
    doc = _run("ground", m_j=-0.5)
    assert doc.results[0]["value"] == pytest.approx(2.828389469851504, abs=5e-5)


def test_sweep_all_rows_violated():
    doc = _run("sweep", n_max=3)
    assert len(doc.results) == 2 * (1 + 4 + 9)
    assert all(r["violated"] for r in doc.results)
    assert all(r["value"] > 2.0 for r in doc.results)


def test_excited_uses_optimal_xi_by_default():
    doc = _run("excited", n=2, kappa=-1, m_j=0.5)
    result = doc.results[0]
    assert result["parameters"]["xi"] == result["parameters"]["xi_star"]
    assert result["value"] == pytest.approx(result["parameters"]["closed_form"], rel=1e-8)


def test_excited_xi_override():
    doc = _run("excited", n=2, kappa=1, m_j=0.5, xi=0.0)
    assert doc.results[0]["parameters"]["xi"] == 0.0
    assert abs(doc.results[0]["value"]) <= 2.0 + 1e-12


def test_free_electron_at_rest():
    doc = _run("free-electron", beta=0.0)
    assert doc.results[0]["value"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)


def test_free_electron_grid():
    doc = _run("free-electron", beta_grid=(0.0, 0.5, 0.9))
    assert len(doc.results) == 3
    for beta, r in zip((0.0, 0.5, 0.9), doc.results):
        assert r["parameters"]["beta_v"] == beta
        assert r["value"] == pytest.approx(2.0 * math.sqrt(2.0 - beta**2), rel=1e-12)


def test_audit_command_reports_zero_residual():
    doc = _run("audit")
    result = doc.results[0]
    assert result["kind"] == "algebra_audit"
    assert result["value"] == 0.0
    assert result["violated"] is False
    assert result["terms"]["pm col 3 product"] == 0.0


def test_peres_mermin_command_is_state_independent():
    doc = _run("peres-mermin", n_max=2, seed=42)
    # 10 hydrogen states + 100 random spinors + maximally mixed
    assert len(doc.results) == 10 + 100 + 1
    assert all(abs(r["value"] - 6.0) < 1e-10 for r in doc.results)
    assert all(r["bound"] == 4.0 for r in doc.results)


def test_measurability_contrast():
    doc = _run("measurability", beta=0.5, n_max=10)
    spectrum = doc.results[0]
    assert spectrum["kind"] == "hydrogen_spectrum_positivity"
    assert spectrum["value"] > 0.0 and spectrum["violated"]
    mixing = doc.results[1:]
    assert len(mixing) == 4
    for row in mixing:
        assert row["violated"]  # every observable mixes energy signs
        assert 0.0 < row["value"] <= 0.5 + 1e-12


def test_converge_ground_sits_at_rounding_floor():
    doc = _run("converge")
    assert doc.results[0]["terms"]["radial_nodes"] == 1.0
    assert all(r["value"] < 1e-12 for r in doc.results)


def test_converge_excited_decreases_to_floor():
    # the ladder starts at the exact count n_tilde + 1, so every rung already
    # sits at the floor; the one-node-short rule is the guard test's case
    doc = _run("converge", n=4, kappa=-2)
    nodes = [r["terms"]["radial_nodes"] for r in doc.results]
    assert nodes[0] == 3.0 and nodes == sorted(set(nodes))
    assert all(r["value"] < 1e-12 for r in doc.results)
    assert all(not r["violated"] for r in doc.results)


def test_sweep_n_max_12_matches_closed_forms(capsys):
    assert main(["sweep", "--n-max", "12", "--format", "csv"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == sum(2 * n * n for n in range(1, 13))
    for row in rows:
        qn = QuantumNumbers(int(row[0]), int(row[1]), float(row[2]))
        assert float(row[6]) == pytest.approx(closed_form_value(qn, FINE_STRUCTURE_ALPHA), rel=1e-8)


def test_excited_at_n40_is_right_or_exits_3(capsys):
    code = main(["excited", "--n", "40", "--kappa", "1", "--alpha", "0.5"])
    assert code in (EXIT_OK, EXIT_QUADRATURE)
    if code == EXIT_OK:
        result = json.loads(capsys.readouterr().out)["results"][0]
        assert result["value"] == pytest.approx(result["parameters"]["closed_form"], rel=1e-8)


# --- rendering -------------------------------------------------------------------

def test_render_json_schema_and_round_trip():
    doc = _run("ground")
    text = render(doc, "json")
    payload = json.loads(text)
    assert set(payload) == {"command", "params", "results", "version"}
    assert payload["results"][0]["bound"] == 2.0
    assert payload["results"][0]["violated"] is True
    restored = ReportDocument.from_dict(payload)
    assert render(restored, "json") == text


def test_render_empty_results_is_valid():
    doc = ReportDocument(command="audit", params={}, results=[])
    payload = json.loads(render(doc, "json"))
    assert payload["results"] == []


def test_sweep_csv_header_and_rows():
    doc = _run("sweep", n_max=2, output_format="csv")
    text = render(doc, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
    assert len(lines) == 1 + len(doc.results)
    first = lines[1].split(",")
    assert first[0] == "1" and first[-1] == "true"


def test_generic_csv_header():
    doc = _run("free-electron", beta=0.0)
    lines = render(doc, "csv").strip().split("\n")
    assert lines[0] == ",".join(GENERIC_CSV_HEADER)
    assert lines[1].startswith("chsh_nc,2.82842712474619,2,true")


def test_render_floats_capped_at_15_significant_digits():
    doc = ReportDocument(
        command="audit", params={"alpha": 1.0 / 137.036}, results=[]
    )
    payload = json.loads(render(doc, "json"))
    assert payload["params"]["alpha"] == float(f"{1.0 / 137.036:.15g}")


def test_byte_identical_output_for_identical_config():
    cfg = RunConfig(command="peres-mermin", n_max=1, seed=7)
    assert render(execute(cfg), "json") == render(execute(cfg), "json")


def test_timing_never_serialized():
    doc = _run("ground")
    assert doc.timing_seconds is not None
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


def _reference_json(doc):
    return json.dumps(_sig15(doc.to_dict()), indent=2) + "\n"


FLOAT_EDGES = (
    0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 123456789012345.0,
    1e15, 9.99999999999999e15, 1e16, 1.7976931348623157e308,
)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@settings(max_examples=500)
def test_float_text_is_the_json_of_the_rounded_float(x):
    assert _float_text(x) == json.dumps(float(f"{x:.15g}"))


@pytest.mark.parametrize("x", FLOAT_EDGES + tuple(-x for x in FLOAT_EDGES))
def test_float_text_at_edges(x):
    assert _float_text(x) == json.dumps(float(f"{x:.15g}"))


_keys = st.text(max_size=8)
_leaves = (
    st.text(max_size=8) | st.integers() | st.booleans() | st.none()
    | st.floats() | st.floats().map(np.float64)
)
_trees = st.recursive(
    _leaves,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=12,
)


@given(
    st.text(max_size=8),
    st.dictionaries(_keys, _trees, max_size=3),
    st.lists(st.dictionaries(_keys, _trees, max_size=3), max_size=3),
)
@settings(max_examples=100)
def test_render_json_matches_reference_writer(command, params, results):
    doc = ReportDocument(command=command, params=params, results=results)
    assert render(doc, "json") == _reference_json(doc)


@pytest.mark.parametrize("command, kwargs", [
    ("audit", {}),
    ("ground", {}),
    ("excited", {"n": 4, "kappa": -1}),
    ("sweep", {"n_max": 3}),
    ("peres-mermin", {"n_max": 2, "seed": 1}),
    ("free-electron", {"beta_grid": _parse_beta_grid("0:0.999:2000")}),
    ("measurability", {}),
    ("converge", {"n": 3, "kappa": -2}),
])
def test_render_json_of_every_command_matches_reference_writer(command, kwargs):
    doc = _run(command, **kwargs)
    assert render(doc, "json") == _reference_json(doc)


@pytest.mark.parametrize("payload", [{1: 0.5}, {"x": np.int64(3)}, {"x": {2.0, 3.0}}])
def test_render_json_rejects_what_json_cannot_hold(payload):
    doc = ReportDocument(command="audit", params=payload, results=[])
    with pytest.raises(TypeError):
        render(doc, "json")


# --- argument parsing and exit codes ----------------------------------------------

def test_parser_builds_config():
    parser = build_parser()
    args = parser.parse_args(
        ["excited", "--n", "3", "--kappa", "2", "--sign", "-1", "--mj", "-0.5",
         "--format", "csv"]
    )
    cfg = config_from_args(args)
    assert cfg.command == "excited"
    assert cfg.kappa == -2
    assert cfg.m_j == -0.5
    assert cfg.output_format == "csv"


def test_beta_grid_parsing():
    parser = build_parser()
    args = parser.parse_args(["free-electron", "--beta-grid", "0:0.9:4"])
    cfg = config_from_args(args)
    assert cfg.beta_grid == (0.0, 0.3, 0.6, 0.9)
    with pytest.raises(ValueError):
        config_from_args(parser.parse_args(["free-electron", "--beta-grid", "oops"]))


@pytest.mark.parametrize("count", ["0", "-2"])
def test_beta_grid_without_points_exits_2(count, capsys):
    assert main(["free-electron", "--beta-grid", f"0:0.5:{count}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--beta-grid" in captured.err


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
    assert main(["ground"]) == EXIT_QUADRATURE
    assert "quadrature failure" in capsys.readouterr().err


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="nope")
    with pytest.raises(ValueError):
        RunConfig(command="ground", alpha=1.5)
    with pytest.raises(ValueError):
        RunConfig(command="ground", output_format="xml")
