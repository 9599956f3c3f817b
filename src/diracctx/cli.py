"""Command-line entry point: run each reproduction scenario and emit
machine-readable JSON or CSV reports.

Output is deterministic for a fixed configuration (including the seed);
wall-clock timing goes to stderr only, never into the rendered report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .clifford import audit_algebra
from .contextuality import (
    chsh_value,
    excited_observables,
    ground_observables,
    optimal_xi,
    peres_mermin_value,
)
from .freeparticle import energy_split, free_chsh, free_observables
from .hydrogen import (
    FINE_STRUCTURE_ALPHA,
    QuantumNumbers,
    eigenstate,
    sommerfeld_mu,
    valid_states,
)
from .spindensity import QuadratureError, ReducedSpinDensity, reduce

COMMANDS = (
    "audit", "ground", "excited", "sweep", "peres-mermin",
    "free-electron", "measurability", "converge",
)
SWEEP_CSV_HEADER = ("n", "kappa", "mj", "sign", "mu", "xi_star", "value", "bound", "violated")
GENERIC_CSV_HEADER = ("kind", "value", "bound", "violated")
MIXING_THRESHOLD = 1e-10

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_QUADRATURE = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus every knob it may consume."""

    command: str
    alpha: float = FINE_STRUCTURE_ALPHA
    n: int = 1
    kappa: int = 1
    m_j: float = 0.5
    xi: float | None = None
    n_max: int | None = None
    beta: float = 0.0
    beta_grid: tuple | None = None
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"--alpha must lie in (0, 1), got {self.alpha}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"--format must be json or csv, got {self.output_format}")


@dataclass
class ReportDocument:
    """Tool version, config echo, and the result payloads of one run.

    timing_seconds is informational only and excluded from render() so that
    identical configs produce byte-identical reports.
    """

    command: str
    params: dict
    results: list
    version: str = __version__
    timing_seconds: float | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": dict(self.params),
            "results": [dict(r) for r in self.results],
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReportDocument":
        return cls(
            command=payload["command"],
            params=dict(payload["params"]),
            results=[dict(r) for r in payload["results"]],
            version=payload["version"],
        )


def _sig15(x):
    """Floats rounded to 15 significant digits for stable serialization."""
    if isinstance(x, float):
        return float(f"{x:.15g}")
    if isinstance(x, dict):
        return {k: _sig15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig15(v) for v in x]
    return x


def render(document: ReportDocument, output_format: str) -> str:
    """Serialize to the fixed JSON schema or the fixed-header CSV."""
    if output_format == "json":
        return json.dumps(_sig15(document.to_dict()), indent=2) + "\n"
    if output_format != "csv":
        raise ValueError(f"format must be json or csv, got {output_format!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if document.command == "sweep":
        writer.writerow(SWEEP_CSV_HEADER)
        for r in document.results:
            p = r["parameters"]
            writer.writerow([
                p["n"], p["kappa"], f"{p['mj']:.15g}", p["sign"], f"{p['mu']:.15g}",
                f"{p['xi_star']:.15g}", f"{r['value']:.15g}", f"{r['bound']:.15g}",
                "true" if r["violated"] else "false",
            ])
    else:
        writer.writerow(GENERIC_CSV_HEADER)
        for r in document.results:
            writer.writerow([
                r["kind"], f"{r['value']:.15g}", f"{r['bound']:.15g}",
                "true" if r["violated"] else "false",
            ])
    return buf.getvalue()


def _params_echo(config: RunConfig) -> dict:
    params = {"alpha": config.alpha, "seed": config.seed}
    if config.command in ("ground", "excited", "converge"):
        params.update(n=config.n, kappa=config.kappa, mj=config.m_j)
    if config.command == "excited":
        params["xi"] = config.xi
    if config.command in ("sweep", "peres-mermin", "measurability"):
        params["n_max"] = config.n_max
    if config.command in ("free-electron", "measurability"):
        params["beta"] = config.beta
    if config.command == "free-electron" and config.beta_grid is not None:
        params["beta_grid"] = list(config.beta_grid)
    return params


def _state_parameters(qn: QuantumNumbers, a: float) -> dict:
    return {
        "a": a,
        "n": qn.n,
        "kappa": qn.kappa,
        "mj": qn.m_j,
        "sign": qn.sign,
        "mu": sommerfeld_mu(qn.n, qn.kappa, a),
    }


def _chsh_on_state(qn: QuantumNumbers, a: float, observables, extra_params: dict) -> dict:
    density = reduce(eigenstate(qn, a))
    params = _state_parameters(qn, a)
    params.update(extra_params)
    return chsh_value(density, *observables, parameters=params).to_dict()


def _run_audit(config: RunConfig) -> list:
    audit = audit_algebra()
    terms = {c.name: c.residual for c in audit.checks}
    return [{
        "kind": "algebra_audit",
        "terms": terms,
        "value": audit.max_residual,
        "bound": 0.0,
        "violated": not audit.passed,
    }]


def _run_ground(config: RunConfig) -> list:
    qn = QuantumNumbers(n=1, kappa=1, m_j=config.m_j)
    obs, closed_form = _scenario(qn, config.alpha)
    return [_chsh_on_state(qn, config.alpha, obs, {"closed_form": closed_form})]


def _run_excited(config: RunConfig) -> list:
    qn = QuantumNumbers(n=config.n, kappa=config.kappa, m_j=config.m_j)
    xi_star, value_star = optimal_xi(qn, config.alpha)
    xi = config.xi if config.xi is not None else xi_star
    extra = {"xi": xi, "xi_star": xi_star, "closed_form": value_star}
    return [_chsh_on_state(qn, config.alpha, excited_observables(xi), extra)]


def _run_sweep(config: RunConfig) -> list:
    n_max = config.n_max if config.n_max is not None else 3
    results = []
    for qn in valid_states(n_max):
        xi_star, value_star = optimal_xi(qn, config.alpha)
        extra = {"xi": xi_star, "xi_star": xi_star, "closed_form": value_star}
        results.append(_chsh_on_state(qn, config.alpha, excited_observables(xi_star), extra))
    return results


def _run_peres_mermin(config: RunConfig) -> list:
    n_max = config.n_max if config.n_max is not None else 3
    results = []
    for qn in valid_states(n_max):
        density = reduce(eigenstate(qn, config.alpha))
        results.append(peres_mermin_value(density).to_dict())
    rng = np.random.default_rng(config.seed)
    for idx in range(100):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        density = ReducedSpinDensity.from_pure(raw, label=f"random-{idx}")
        results.append(peres_mermin_value(density).to_dict())
    results.append(peres_mermin_value(ReducedSpinDensity.maximally_mixed()).to_dict())
    return results


def _run_free_electron(config: RunConfig) -> list:
    betas = config.beta_grid if config.beta_grid is not None else (config.beta,)
    return [free_chsh(b).to_dict() for b in betas]


def _run_measurability(config: RunConfig) -> list:
    n_max = config.n_max if config.n_max is not None else 10
    mus = [sommerfeld_mu(qn.n, qn.kappa, config.alpha) for qn in valid_states(n_max)]
    results = [{
        "kind": "hydrogen_spectrum_positivity",
        "terms": {"min_mu": min(mus), "max_mu": max(mus)},
        "value": min(mus),
        "bound": 0.0,
        "violated": min(mus) > 0.0,
    }]
    for name, obs in zip("ABCD", free_observables(config.beta)):
        split = energy_split(config.beta, obs)
        terms = {
            f"weight_{i}": float(w) for i, w in enumerate(split.negative_weights)
        }
        # mixing margin: how far the most mixed eigenvector sits inside (0, 1)
        margin = float(max(min(w, 1.0 - w) for w in split.negative_weights))
        results.append({
            "kind": f"negative_energy_mixing_{name}",
            "terms": terms,
            "value": margin,
            "bound": MIXING_THRESHOLD,
            "violated": margin > MIXING_THRESHOLD,
        })
    return results


def _scenario(qn: QuantumNumbers, alpha: float):
    """Observables and closed-form value for one state: the ground states use
    the dedicated observable choice, everything else the optimal xi family."""
    if qn.n == 1:
        return ground_observables(qn.m_j), math.sqrt(2.0) * (1.0 + sommerfeld_mu(1, 1, alpha))
    xi_star, value_star = optimal_xi(qn, alpha)
    return excited_observables(xi_star), value_star


def _run_converge(config: RunConfig) -> list:
    # n_tilde + 1 radial nodes already integrate the density exactly, so every
    # rung of the ladder sits at the rounding floor of the closed form
    qn = QuantumNumbers(n=config.n, kappa=config.kappa, m_j=config.m_j)
    observables, reference = _scenario(qn, config.alpha)
    state = eigenstate(qn, config.alpha)
    results = []
    for extra in (0, 1, 2, 4, 8, 16, 32):
        count = qn.n_tilde + 1 + extra
        value = chsh_value(reduce(state, count), *observables).value
        delta = abs(value - reference)
        results.append({
            "kind": "convergence",
            "terms": {"value": value, "reference": reference, "radial_nodes": float(count)},
            "value": delta,
            "bound": 5e-5,
            "violated": delta > 5e-5,
        })
    return results


_RUNNERS = {
    "audit": _run_audit,
    "ground": _run_ground,
    "excited": _run_excited,
    "sweep": _run_sweep,
    "peres-mermin": _run_peres_mermin,
    "free-electron": _run_free_electron,
    "measurability": _run_measurability,
    "converge": _run_converge,
}


def execute(config: RunConfig) -> ReportDocument:
    """Dispatch one command; deterministic given the config (incl. seed)."""
    start = time.perf_counter()
    results = _RUNNERS[config.command](config)
    return ReportDocument(
        command=config.command,
        params=_params_echo(config),
        results=results,
        timing_seconds=time.perf_counter() - start,
    )


def _parse_beta_grid(text: str) -> tuple:
    try:
        start, stop, count = text.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except Exception as exc:
        raise ValueError(f"--beta-grid must be start:stop:count, got {text!r}") from exc
    return tuple(float(b) for b in grid)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracctx",
        description="Noncontextuality-inequality reproductions for relativistic spin-1/2 states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "audit": "exact gamma/family algebra and Peres-Mermin structure audit",
        "ground": "ground-state four-correlator violation (full quadrature pipeline)",
        "excited": "one eigenstate with the xi-family observables",
        "sweep": "all eigenstates up to --n-max at their optimal xi",
        "peres-mermin": "state-independent Peres-Mermin value on states and random spinors",
        "free-electron": "free Dirac electron violation curve",
        "measurability": "positive-spectrum vs negative-energy-mixing report",
        "converge": "radial node-count ladder from the exact n_tilde + 1 upward",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--alpha", type=float, default=FINE_STRUCTURE_ALPHA,
                       help="fine structure constant (default 1/137.036)")
        p.add_argument("--seed", type=int, default=0, help="seed for random-state checks")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        if name in ("ground", "excited", "converge"):
            p.add_argument("--mj", type=float, default=0.5)
        if name in ("excited", "converge"):
            p.add_argument("--n", type=int, default=2 if name == "excited" else 1)
            p.add_argument("--kappa", type=int, default=1)
            p.add_argument("--sign", type=int, choices=(1, -1), default=None,
                           help="overrides the sign of --kappa")
        if name == "excited":
            p.add_argument("--xi", type=float, default=None,
                           help="observable angle; defaults to the optimal xi*")
        if name in ("sweep", "peres-mermin", "measurability"):
            default_n_max = {"sweep": 3, "peres-mermin": 3, "measurability": 10}[name]
            p.add_argument("--n-max", type=int, default=default_n_max)
        if name in ("free-electron", "measurability"):
            p.add_argument("--beta", type=float, default=0.5 if name == "measurability" else 0.0)
        if name == "free-electron":
            p.add_argument("--beta-grid", type=str, default=None,
                           help="start:stop:count grid of velocity ratios")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kappa = getattr(args, "kappa", 1)
    sign = getattr(args, "sign", None)
    if sign is not None:
        kappa = sign * abs(kappa)
    beta_grid = getattr(args, "beta_grid", None)
    return RunConfig(
        command=args.command,
        alpha=args.alpha,
        n=getattr(args, "n", 1),
        kappa=kappa,
        m_j=getattr(args, "mj", 0.5),
        xi=getattr(args, "xi", None),
        n_max=getattr(args, "n_max", None),
        beta=getattr(args, "beta", 0.0),
        beta_grid=_parse_beta_grid(beta_grid) if beta_grid is not None else None,
        seed=args.seed,
        output_format=args.format,
        output_path=args.output,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        document = execute(config)
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = render(document, config.output_format)
    if config.output_path is not None:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"completed {config.command} in {document.timing_seconds:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
