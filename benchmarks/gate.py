"""Correctness gate: check one CLI report against closed forms computed here.

Every closed form is re-derived in this file from the workload's inputs, not
taken from the report or from the package, so a change that breaks both the
program and its own closed-form helper still fails the gate. The tolerances
are the ones ``tests/test_acceptance.py`` states for the same scenario.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

ALPHA = 1.0 / 137.036  # the CLI's default --alpha; the workloads never pass one

SWEEP_REL_TOL = 1e-8  # criterion 3: relative gap to 2 sqrt(mu^2 + X^2)
PERES_MERMIN_ABS_TOL = 1e-10  # criterion 5: |value - 6|
FREE_ABS_TOL = 1e-12  # criterion 6: |value - 2 sqrt(2 - beta^2)|
BETA_ECHO_TOL = 1e-12  # reports carry 15 significant digits

SWEEP_HEADER = ["n", "kappa", "mj", "sign", "mu", "xi_star", "value", "bound", "violated"]


class Verdict(NamedTuple):
    """Outcome of one report: results expected, results failed, and the largest
    relative gap to the closed form among the results that could be checked."""

    expected: int
    failed: int
    max_rel_err: float


def bound_states(n_max: int) -> list[tuple[int, int, float]]:
    """Every (n, kappa, m_j) with n <= n_max."""
    states = []
    for n in range(1, n_max + 1):
        for abs_k in range(1, n + 1):
            for sign in ((1,) if abs_k == n else (1, -1)):
                for twice_mj in range(-(2 * abs_k - 1), 2 * abs_k, 2):
                    states.append((n, sign * abs_k, twice_mj / 2.0))
    return states


def chsh_closed_form(n: int, kappa: int, m_j: float, a: float = ALPHA) -> float:
    """Optimal-angle four-correlator value 2 sqrt(mu^2 + X^2) of one bound state."""
    nu = math.sqrt(kappa * kappa - a * a)
    mu = (1.0 + (a / (n - abs(kappa) + nu)) ** 2) ** -0.5
    l = abs(kappa) - 1
    m = round(m_j - 0.5)
    denom = 4 * l * l + 8 * l + 3
    if kappa > 0:
        x = (2 * m + 1) * (mu + 2 * l + 2) / denom
    else:
        x = (2 * m + 1) * (2 * l + 2 - mu) / denom
    return 2.0 * math.sqrt(mu * mu + x * x)


def linspace(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def _tally(expected: int, rows: int, gaps: list, ok: list) -> Verdict:
    """Failed = results missing or extra, plus checked results that failed."""
    failed = abs(expected - rows) + sum(1 for good in ok if not good)
    max_rel = max(gaps) if gaps else math.inf
    return Verdict(expected, min(failed, expected), max_rel)


def check_sweep(text: str, n_max: int) -> Verdict:
    """``sweep --format csv``: one row per bound state, each violating at its
    closed-form value."""
    expected = {(n, k, mj): chsh_closed_form(n, k, mj) for n, k, mj in bound_states(n_max)}
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return Verdict(len(expected), len(expected), math.inf)
    gaps, ok, seen = [], [], set()
    for row in rows[1:]:
        try:
            key = (int(row[0]), int(row[1]), float(row[2]))
            value, bound, violated = float(row[6]), float(row[7]), row[8]
        except (IndexError, ValueError):
            ok.append(False)
            continue
        closed = expected.get(key)
        if closed is None or key in seen:
            ok.append(False)
            continue
        seen.add(key)
        gap = abs(value - closed) / closed
        gaps.append(gap)
        ok.append(gap < SWEEP_REL_TOL and violated == "true" and bound == 2.0)
    return _tally(len(expected), len(rows) - 1, gaps, ok)


def check_peres_mermin(text: str, n_max: int, seed: int) -> Verdict:
    """``peres-mermin``: every bound state, 100 seeded spinors and the maximally
    mixed state all give 6 against the bound 4."""
    expected = len(bound_states(n_max)) + 100 + 1
    try:
        doc = json.loads(text)
        results = doc["results"]
        if doc["params"]["seed"] != seed:
            results = []
    except (ValueError, KeyError, TypeError):
        return Verdict(expected, expected, math.inf)
    gaps, ok = [], []
    for r in results:
        try:
            gap = abs(r["value"] - 6.0)
            good = gap < PERES_MERMIN_ABS_TOL and r["violated"] is True and r["bound"] == 4.0
        except (KeyError, TypeError):
            ok.append(False)
            continue
        gaps.append(gap / 6.0)
        ok.append(good)
    return _tally(expected, len(results), gaps, ok)


def check_free_curve(text: str, start: float, stop: float, count: int) -> Verdict:
    """``free-electron --beta-grid``: one result per grid velocity, in grid order,
    each violating at 2 sqrt(2 - beta^2)."""
    grid = linspace(start, stop, count)
    try:
        results = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        return Verdict(count, count, math.inf)
    gaps, ok = [], []
    for beta, r in zip(grid, results):
        try:
            closed = 2.0 * math.sqrt(2.0 - beta * beta)
            gap = abs(r["value"] - closed)
            good = (
                gap < FREE_ABS_TOL
                and abs(r["parameters"]["beta_v"] - beta) < BETA_ECHO_TOL
                and r["violated"] is True
                and r["bound"] == 2.0
            )
        except (KeyError, TypeError):
            ok.append(False)
            continue
        gaps.append(gap / closed)
        ok.append(good)
    return _tally(count, len(results), gaps, ok)
