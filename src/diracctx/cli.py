"""Command-line entry point: run each reproduction scenario and emit
machine-readable JSON or CSV reports.

Output is deterministic for a fixed configuration (including the seed);
wall-clock timing goes to stderr only, never into the rendered report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .clifford import audit_algebra
from .contextuality import (
    chsh_value,
    correlation_diagonal,
    excited_observables,
    ground_observables,
    optimal_xi,
    peres_mermin_value,
    report_block,
)
from .freeparticle import (
    check_betas,
    energy_split,
    free_chsh,
    free_observables,
)
from .hydrogen import (
    FINE_STRUCTURE_ALPHA,
    QuantumNumbers,
    eigenstate,
    sommerfeld_mu,
    state_table,
)
from .spindensity import QuadratureError, analytic_densities, pure_density, reduce, state_label

# the parameter columns that lead each command's CSV rows, before value,
# bound and violated; any other command's rows lead with the block's kind
CSV_LABELS = {
    "ground": ("n", "kappa", "mj", "sign", "mu", "closed_form"),
    "excited": ("n", "kappa", "mj", "sign", "mu", "xi", "xi_star", "closed_form"),
    "sweep": ("n", "kappa", "mj", "sign", "mu", "xi_star"),
    "free-electron": ("beta_v", "theta", "closed_form"),
    "peres-mermin": ("state",),
}
MIXING_THRESHOLD = 1e-10
# converge's largest accepted entry gap between the integrated density and its
# closed form: on the exact rule every state of the documented domain sits at
# the rounding floor, about 4e-14 at worst; a larger or nan gap exits 3
CONVERGE_BOUND = 1e-12
# the most rows of a report block, evaluated and written as one piece of the
# streamed report; bounds the columns, stacks and texts held at once
REPORT_BLOCK = 1024

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_USAGE = 2
EXIT_QUADRATURE = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus the flags it takes.

    A flag left at None takes its command's default from COMMANDS; a flag the
    command does not take must stay None.
    """

    command: str
    alpha: float | None = None
    n: int | None = None
    kappa: int | None = None
    mj: float | None = None
    xi: float | None = None
    n_max: int | None = None
    beta: float | None = None
    beta_grid: str | None = None
    seed: int | None = None
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        flags = COMMANDS[self.command].flags
        for name in FLAGS:
            if name not in flags and getattr(self, name) is not None:
                raise ValueError(f"{self.command} does not take --{name.replace('_', '-')}")
        if self.beta is not None and self.beta_grid is not None:
            raise ValueError("--beta and --beta-grid exclude each other; pass one of them")
        for name, default in flags.items():
            # a grid replaces --beta, which then stays None and echoes null
            if getattr(self, name) is None and (name != "beta" or self.beta_grid is None):
                object.__setattr__(self, name, default)
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"--alpha must lie in (0, 1), got {self.alpha}")
        if self.beta is not None:
            check_betas(self.beta)
        if self.xi is not None and not math.isfinite(self.xi):
            raise ValueError(f"--xi must be finite, got {self.xi}")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"--n-max must be at least 1, got {self.n_max}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {self.seed}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"--format must be json or csv, got {self.output_format}")

    @property
    def params(self) -> dict:
        """The command's flags with their effective values, in table order."""
        return {name: getattr(self, name) for name in COMMANDS[self.command].flags}


def _float_texts(column: list) -> list[str]:
    """Each float at 15 significant digits, as json.dumps writes float(f"{x:.15g}").

    .15g uses fixed notation only for decimal exponents -4 to 14. Every double
    there is normal, so a decimal of at most 15 digits round-trips (DBL_DIG)
    and repr, which also uses fixed notation there, prints the same digits:
    the text is already the JSON of the rounded float, missing only ".0" on
    integral values. Exponent forms (subnormals, 1e15 <= |x| < 1e16, overflow
    to inf) and nan/inf contain an "e" or an "n" and take the exact path.
    The whole column is formatted by one %; only a column that holds a text
    to fix is then gone through text by text.
    """
    text = "\n".join(["%.15g"] * len(column)) % tuple(column)
    texts = text.split("\n") if column else []
    if "e" in text or "n" in text or text.count(".") < len(texts):
        texts = [
            json.dumps(float(s)) if "e" in s or "n" in s else s if "." in s else s + ".0"
            for s in texts
        ]
    return texts


def _json_texts(column: np.ndarray) -> list[str]:
    """The JSON text of each entry of a column, as json.dumps writes it with
    floats at 15 significant digits, by its dtype kind: float, str, bool or
    else int."""
    kind, values = column.dtype.kind, column.tolist()
    if kind == "f":
        return _float_texts(values)
    if kind == "U":
        return list(map(encode_basestring_ascii, values))
    if kind == "b":
        return ["true" if value else "false" for value in values]
    return list(map(str, values))


def _csv_texts(column: np.ndarray) -> list[str]:
    """The CSV text of each entry of a column: a str as it is, any other
    entry as in JSON; a number or a fixed word, so no field needs quoting."""
    return column.tolist() if column.dtype.kind == "U" else _json_texts(column)


# 10**k, an exact double for k <= 22, and as an int64
_POW10 = np.array([float(10**k) for k in range(20)])
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.int64)


def _halves(floats: np.ndarray) -> tuple:
    """Veltkamp's split: hi + lo is each float exactly, each half of at most
    26 significant bits, so a product of two halves is an exact double."""
    scaled = 134217729.0 * floats  # 2**27 + 1
    hi = scaled - (scaled - floats)
    return hi, floats - hi


def _digits15(floats: np.ndarray) -> tuple:
    """The 15 significant digits of each float x with 1e-4 <= |x| < 1e14 as
    three int64 columns: the whole part of |x|, and the fraction digits with
    their trailing zeros stripped, as their count and their value; so whole,
    "." and frac zero-padded to width digits are "%.15g" % abs(x), byte for
    byte, when the digits have a fraction. Digits that round to an integer W
    have frac 0 of width 1, the text "W.0": the JSON of the rounded float,
    where %.15g writes W.

    The digits are m = |x| 10**(14 - e) rounded half to even, in [1e14, 1e15)
    for e the decimal exponent of |x|. Both factors are exact doubles, and the
    product p lies where its ulp is at most 1/8, so every half integer there
    is a double and p falls on the same side of it as the exact product; only
    a p that is itself a half integer needs its rounding error, which Dekker's
    exact product gives. log10 may miss e by one next to a power of ten; p
    outside [1e14, 1e15) moves it. A rounding up to 1e15 carries into e.
    """
    size = np.abs(floats)
    e = np.floor(np.log10(size)).astype(np.int64)
    product = size * _POW10[14 - e]
    e += (product >= 1e15).astype(np.int64) - (product < 1e14)
    scale = _POW10[14 - e]
    product = size * scale
    digits = np.rint(product)
    # Dekker's exact product: the halves of the factors multiply exactly, so
    # error is the exact product minus p; an exact tie stays even
    ties = np.flatnonzero(np.abs(product - digits) == 0.5)
    (a_hi, a_lo), (b_hi, b_lo), p = _halves(size[ties]), _halves(scale[ties]), product[ties]
    error = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    digits[ties] = np.where(error == 0.0, digits[ties], np.floor(p) + (error > 0.0))
    carry = digits == 1e15
    digits[carry] = 1e14
    width = 14 - (e + carry)
    whole, frac = np.divmod(digits.astype(np.int64), _POW10_INT[width])
    # strip the trailing zeros, 8, 4, 2 and 1 at a time: a nonzero frac is
    # below 1e15, so it ends in at most 14
    zeros = np.flatnonzero((frac % 10 == 0) & (frac != 0))
    for step in (8, 4, 2, 1):
        cut = zeros[frac[zeros] % 10**step == 0]
        frac[cut] //= 10**step
        width[cut] -= step
    width[frac == 0] = 1
    return whole, width, frac


def _float_fields(table: np.ndarray) -> list:
    """The field and the entry lists of each row of a (k, N) float table,
    N >= 1: a block's float columns that are not constant, in one pass.

    A plain row is written from the exact digits of _digits15: every entry
    is finite with 1e-4 <= |x| < 1e14, where %.15g writes no exponent. Each
    plain entry is its prefix (sign, whole part, "." and the fraction's
    leading zeros), then %d of its stripped fraction digits: a row whose
    entries share one prefix writes it into the field, as in "0.%d",
    "-2.00%d" or "6.%d" of 0 (digits that round to an integer W are "W.0",
    the JSON text), and any other plain row is "%s%d" of prefix bytes. Any
    other row is %s of its texts.
    """
    size = np.abs(table)
    # the range test keeps nan and inf out of the digits
    rows = np.flatnonzero(((size >= 1e-4) & (size < 1e14)).all(axis=1))
    candidates = table[rows]
    digits = _digits15(candidates.ravel())
    whole, width, frac = (column.reshape(candidates.shape) for column in digits)
    # the fraction's leading zeros: its width less its digit count, 1 for 0
    zeros = width - np.maximum(np.searchsorted(_POW10_INT, frac, side="right"), 1)
    # each entry's prefix as one int64: the whole part, the leading zeros (at
    # most 14, in five bits) and the sign (the low bit)
    keys = (whole * 32 + zeros) * 2 + (candidates < 0.0)
    shared = (keys == keys[:, :1]).all(axis=1).tolist()
    parts = [None] * len(table)
    for r, i in enumerate(rows.tolist()):
        # a shared row's one key is its first; only a mixed row runs np.unique
        row = keys[r]
        unique, inverse = (row[:1], None) if shared[r] else np.unique(row, return_inverse=True)
        prefixes = [b"-" * (key & 1) + b"%d." % (key >> 6) + b"0" * (key >> 1 & 31)
                    for key in unique.tolist()]
        if shared[r]:
            parts[i] = (prefixes[0].decode() + "%d", [frac[r].tolist()])
        else:
            parts[i] = ("%s%d", [np.array(prefixes, object)[inverse].tolist(), frac[r].tolist()])
    return [part or ("%s", [list(map(str.encode, _json_texts(row)))])
            for part, row in zip(parts, table)]


def _row_fields(columns: list, output_format: str) -> tuple[list, list, int]:
    """The field of each column in its block's row template, the entry lists
    the block's % takes for them, in order, and the block's row count (1 for
    no columns), in the report format, json or csv; a %s entry is bytes.

    A constant column (a float one by its float64 bits: 0.0 and -0.0 differ)
    is its one text, written into the template; the other float columns take
    their fields from one _float_fields pass. An int column is %d of its ints,
    the text of an int in either format. Any other column is %s of its texts.
    A column that is not a 1-D numpy array of float, int, bool or str raises
    TypeError before any folding (True == 1); ragged columns raise ValueError.
    """
    texts = _json_texts if output_format == "json" else _csv_texts
    parts, floats, counts = [], [], set()
    for column in columns:
        if not isinstance(column, np.ndarray) or column.ndim != 1:
            raise TypeError(f"a report column is a 1-D numpy array, got {type(column).__name__}")
        if column.dtype.kind not in "biufU":
            raise TypeError(f"a report column of dtype {column.dtype} is not JSON serializable")
        counts.add(len(column))
        # a copy, so that a strided column has its bits too
        values = column.astype(float).view(np.uint64) if column.dtype.kind == "f" else column
        if len(column) and (values == values[0]).all():
            parts.append((texts(column[:1])[0].replace("%", "%%"), []))
        elif column.dtype.kind == "f":
            floats.append(len(parts))
            parts.append(column)
        elif column.dtype.kind in "iu":
            parts.append(("%d", [column.tolist()]))
        else:
            parts.append(("%s", [list(map(str.encode, texts(column)))]))
    if len(counts) > 1:
        raise ValueError(f"a report block has columns of {sorted(counts)} entries")
    count = counts.pop() if counts else 1
    if floats:
        table = np.array([parts[i] for i in floats], dtype=float)
        fields = _float_fields(table) if count else [("%s", [[]])] * len(floats)
        for i, part in zip(floats, fields):
            parts[i] = part
    entries = [entry for _, lists in parts for entry in lists]
    return [field for field, _ in parts], entries, count


def _filled(row: str, separator: str, entries: list, count: int) -> str:
    """count copies of the row template, joined by separator and filled by
    one % on bytes from the entry lists, interleaved row by row. An entry
    list of another length raises ValueError."""
    flat = [None] * (len(entries) * count)
    for i, column in enumerate(entries):
        flat[i::len(entries)] = column
    return (separator.encode().join([row.encode()] * count) % tuple(flat)).decode()


def _json_text(value, indent: str, leaf: Callable) -> str:
    """The JSON text of value at this indent level, as json.dumps(...,
    indent=2) writes it: a dict of str keys member by member, any other key
    raising TypeError, and any other value leaf(value)."""
    if not isinstance(value, dict):
        return leaf(value)
    inner = indent + "  "
    items = []
    for key, entry in value.items():
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, got {type(key).__name__}")
        items.append(encode_basestring_ascii(key) + ": " + _json_text(entry, inner, leaf))
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}" if items else "{}"


def _head_leaf(value) -> str:
    """The JSON text of a head value (the command, the version, a params
    entry), straight from its Python value: a float by _float_texts, None,
    an int, a bool or a str by json.dumps; any other value (a numpy integer,
    a list) raises TypeError."""
    if isinstance(value, float):
        return _float_texts([value])[0]
    if value is None or isinstance(value, (int, str)):
        return json.dumps(value)
    raise TypeError(f"a report head of {type(value).__name__} is not JSON serializable")


def _json_block(block: dict, indent: str) -> str:
    """The JSON text of the rows of a block at this indent level, joined by
    "," and a new line: one row's text, each column a NUL (which no JSON text
    holds raw) replaced by its field, is the row template, repeated once per
    row and filled by one %. A block without columns is one row, as the
    head's empty params is; a block of no rows is ""."""
    columns = []
    text = _json_text(block, indent, lambda column: columns.append(column) or "\x00")
    fields, entries, count = _row_fields(columns, "json")
    pieces = text.replace("%", "%%").split("\x00")
    row = pieces[0] + "".join(field + piece for field, piece in zip(fields, pieces[1:]))
    return _filled(row, ",\n" + indent, entries, count)


def _json_pieces(document: dict):
    """The JSON report in pieces: the text up to the results, the results a
    block at a time, then the rest. The document is written once, with a NUL
    for the results, and split there."""
    results = document["results"]
    text = _json_text(document, "", lambda value: "\x00" if value is results else _head_leaf(value))
    head, tail = text.split("\x00")
    separator = ",\n    "
    prefix = head + "[\n    "
    for block in results:
        rows = _json_block(block, "    ")
        if rows:
            yield prefix + rows
            prefix = separator
    # the prefix is still the opening bracket when the results were empty
    yield ("\n  ]" if prefix is separator else head + "[]") + tail + "\n"


def report_pieces(document: dict, output_format: str):
    """The report as consecutive texts: the head, the results a block at a
    time, then the tail; their concatenation is the fixed JSON schema or the
    CSV, whose rows lead with the command's CSV_LABELS columns."""
    if output_format == "json":
        yield from _json_pieces(document)
        return
    if output_format != "csv":
        raise ValueError(f"format must be json or csv, got {output_format!r}")
    labels = CSV_LABELS.get(document["command"], ())
    yield ",".join(labels or ("kind",)) + ",value,bound,violated\n"
    for block in document["results"]:
        head = [block["parameters"][key] for key in labels] or [block["kind"]]
        columns = [*head, block["value"], block["bound"], block["violated"]]
        fields, entries, count = _row_fields(columns, "csv")
        yield _filled(",".join(fields) + "\n", "", entries, count)


def render(document: dict, output_format: str) -> str:
    """Serialize to the fixed JSON schema or the CSV."""
    return "".join(report_pieces(document, output_format))


def _one_state(qn: QuantumNumbers, a: float) -> tuple:
    """The one-row state table (n, kappa, 2 m_j, delta) of a validated state,
    in the columns of hydrogen.state_table."""
    mu = sommerfeld_mu(qn.n, qn.kappa, a)
    return np.array([qn.n]), np.array([qn.kappa]), np.array([round(2 * qn.m_j)]), np.array([mu])


def _in_blocks(count: int, block_of: Callable[[slice], dict]) -> Iterable[dict]:
    """The blocks of count rows, one-shot: block_of(entries) makes the block of
    each REPORT_BLOCK slice of entries when the report reads it."""
    return (block_of(slice(start, start + REPORT_BLOCK)) for start in range(0, count, REPORT_BLOCK))


def _chsh_on_states(table: tuple, a: float, observables, extra_params: dict) -> dict:
    """One chsh_value pass over the closed-form densities of the states of
    the table; the report parameters gain the columns of extra_params."""
    n, kappa, twice_mj, mu = table
    params = {
        "a": np.full(len(n), a), "n": n, "kappa": kappa, "mj": twice_mj / 2.0,
        "sign": np.where(kappa > 0, 1, -1), "mu": mu, **extra_params,
    }
    return chsh_value(analytic_densities(kappa, twice_mj, mu), *observables, parameters=params)


def _run_audit(config: RunConfig) -> list:
    residuals = audit_algebra()
    # a check passes only at exactly 0; np.max keeps a nan residual, which fails too
    return [report_block("algebra_audit", {name: [r] for name, r in residuals.items()},
                         [np.max(list(residuals.values()))], 0.0,
                         [any(r != 0.0 for r in residuals.values())])]


def _xi_rows(table: tuple, a: float, xi: float | None = None) -> dict:
    """The xi-family block of the states of the table: each at its optimal
    xi*, or, given xi, all at xi with the closed form 2(c cos xi - delta sin xi)."""
    xi_star, closed_forms = optimal_xi(*table[1:])
    xis = xi_star
    if xi is not None:
        _, delta, c = correlation_diagonal(*table[1:])
        xis = np.full(len(xi_star), xi)
        closed_forms = 2.0 * (c * math.cos(xi) - delta * math.sin(xi))
    extras = {"xi": xis, "xi_star": xi_star, "closed_form": closed_forms}
    return _chsh_on_states(table, a, excited_observables(xis), extras)


def _run_ground(config: RunConfig) -> list:
    table = _one_state(QuantumNumbers(n=1, kappa=1, m_j=config.mj), config.alpha)
    # the (t_x, c) pair of T's diagonal at 45 degrees: sqrt 2 |t_x - c| = sqrt 2 (1 + mu)
    t_x, _, c = correlation_diagonal(*table[1:])
    extra = {"closed_form": math.sqrt(2.0) * np.abs(t_x - c)}
    return [_chsh_on_states(table, config.alpha, ground_observables(config.mj), extra)]


def _run_excited(config: RunConfig) -> list:
    qn = QuantumNumbers(n=config.n, kappa=config.kappa, m_j=config.mj)
    return [_xi_rows(_one_state(qn, config.alpha), config.alpha, config.xi)]


def _run_sweep(config: RunConfig) -> Iterable[dict]:
    table = state_table(config.n_max, config.alpha)
    return _in_blocks(
        len(table[0]),
        lambda states: _xi_rows(tuple(column[states] for column in table), config.alpha))


def _run_peres_mermin(config: RunConfig) -> Iterable[dict]:
    """The bound states, then the 100 seeded random spinors, then the
    maximally mixed state, a block at a time."""
    n, kappa, twice_mj, delta = state_table(config.n_max, config.alpha)
    rng = np.random.default_rng(config.seed)
    # spinor i is parts[i, 0] + i parts[i, 1]: the draw order of one spinor at a time
    parts = rng.normal(size=(100, 2, 4))
    spinors = parts[:, 0] + 1j * parts[:, 1]
    others = np.concatenate([pure_density(spinors), [np.eye(4) / 4.0]])
    other_labels = [f"random-{idx}" for idx in range(100)] + ["maximally-mixed"]
    count = len(n)

    def block(entries: slice) -> dict:
        # the slice of the states clamps to them; the rest is what follows
        states = n[entries], kappa[entries], twice_mj[entries]
        rest = slice(max(entries.start - count, 0), max(entries.stop - count, 0))
        # state_label formats Python scalars, not numpy's, at a third of the time
        labels = [state_label(m, k, t / 2.0) for m, k, t in zip(*(c.tolist() for c in states))]
        stack = np.concatenate([analytic_densities(*states[1:], delta[entries]), others[rest]])
        return peres_mermin_value(stack, labels + other_labels[rest])

    return _in_blocks(count + len(others), block)


def _run_free_electron(config: RunConfig) -> Iterable[dict]:
    betas = (config.beta,) if config.beta_grid is None else _parse_beta_grid(config.beta_grid)
    return _in_blocks(len(betas), lambda points: free_chsh(betas[points]))


def _run_measurability(config: RunConfig) -> list:
    mus = state_table(config.n_max, config.alpha)[3]
    spectrum = report_block("hydrogen_spectrum_positivity",
                            {"min_mu": [mus.min()], "max_mu": [mus.max()]},
                            [mus.min()], 0.0, [mus.min() > 0.0])
    # one row per observable, each with the weights of its four eigenvectors
    weights = np.array([energy_split(config.beta, obs) for obs in free_observables(config.beta)])
    # mixing margin min(w): each eigenspace carries w and 1 - w, so 1 - w never cancels
    margins = weights.min(axis=1)
    # one one-row block per observable, so that each block has one kind
    mixing = (
        report_block(f"negative_energy_mixing_{name}",
                     {f"weight_{i}": [w] for i, w in enumerate(row)},
                     [margin], MIXING_THRESHOLD, [margin > MIXING_THRESHOLD])
        for name, row, margin in zip("ABCD", weights, margins))
    return [spectrum, *mixing]


def _run_converge(config: RunConfig) -> list:
    # the one command that integrates spinor fields, on the state's exact rule;
    # its value is the largest entry of the density minus its closed form
    qn = QuantumNumbers(n=config.n, kappa=config.kappa, m_j=config.mj)
    state = eigenstate(qn, config.alpha)
    closed_form = analytic_densities(*_one_state(qn, config.alpha)[1:])[0]
    gap = float(np.abs(reduce(state) - closed_form).max())
    nodes = len(state.rule[0])
    # the quadrature oracle's one check; np.max keeps a nan, which fails it too
    if not gap <= CONVERGE_BOUND:
        raise QuadratureError(
            f"{state_label(qn.n, qn.kappa, qn.m_j)}: the density departs from its closed "
            f"form by {gap:.3e} > {CONVERGE_BOUND} on {nodes} radial nodes")
    return [report_block("convergence", {"radial_nodes": [float(nodes)]}, [gap],
                         CONVERGE_BOUND, [False])]


@dataclass(frozen=True)
class Command:
    """One subcommand: its runner, its help line and its flags with their
    defaults, in the order the report echoes them."""

    run: Callable[[RunConfig], Iterable[dict]]
    help: str
    flags: dict


# flag -> (type, help); the option is --flag with "_" written "-", and the
# RunConfig field and the params key are the flag itself
FLAGS = {
    "alpha": (float, "fine structure constant a, in (0, 1)"),
    "seed": (int, "non-negative seed of the 100 random spinors"),
    "n": (int, "principal quantum number"),
    "kappa": (int, "Dirac quantum number: nonzero, |kappa| <= n, its sign picks the branch"),
    "mj": (float, "magnetic quantum number m_j, a half-odd integer with |m_j| <= j"),
    "xi": (float, "observable angle of the xi family; defaults to the optimal xi*"),
    "n_max": (int, "evaluate every bound state with n up to this"),
    "beta": (float, "velocity ratio v/c, in [0, 1)"),
    "beta_grid": (str, "start:stop:count grid of velocity ratios, evaluated instead of --beta"),
}

COMMANDS = {
    "audit": Command(
        _run_audit, "exact gamma/family algebra and Peres-Mermin structure audit", {}),
    "ground": Command(
        _run_ground, "ground-state four-correlator violation",
        {"alpha": FINE_STRUCTURE_ALPHA, "mj": 0.5}),
    "excited": Command(
        _run_excited, "one eigenstate with the xi-family observables",
        {"alpha": FINE_STRUCTURE_ALPHA, "n": 2, "kappa": 1, "mj": 0.5, "xi": None}),
    "sweep": Command(
        _run_sweep, "all eigenstates up to --n-max at their optimal xi",
        {"alpha": FINE_STRUCTURE_ALPHA, "n_max": 3}),
    "peres-mermin": Command(
        _run_peres_mermin, "state-independent Peres-Mermin value on states and random spinors",
        {"alpha": FINE_STRUCTURE_ALPHA, "seed": 0, "n_max": 3}),
    "free-electron": Command(
        _run_free_electron, "free Dirac electron violation curve",
        {"beta": 0.0, "beta_grid": None}),
    "measurability": Command(
        _run_measurability, "positive-spectrum vs negative-energy-mixing report",
        {"alpha": FINE_STRUCTURE_ALPHA, "n_max": 10, "beta": 0.5}),
    "converge": Command(
        _run_converge, "one state's density integrated on its exact rule, against its closed form",
        {"alpha": FINE_STRUCTURE_ALPHA, "n": 1, "kappa": 1, "mj": 0.5}),
}


def execute(config: RunConfig) -> dict:
    """Dispatch one command and return the report document: the tool
    version, the config echo and the results, as the dict the report
    serializes. Deterministic given the config (incl. seed). The set-up
    runs here; the results are a one-shot iterable of report blocks of at
    most REPORT_BLOCK rows, every column a 1-D numpy array (see
    contextuality.report_block), each block evaluated as it is read."""
    return {
        "command": config.command,
        "params": config.params,
        "results": COMMANDS[config.command].run(config),
        "version": __version__,
    }


def _parse_beta_grid(text: str) -> np.ndarray:
    """The float64 grid of a start:stop:count text, checked in one pass."""
    try:
        start, stop, count = text.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except Exception as exc:
        raise ValueError(f"--beta-grid must be start:stop:count, got {text!r}") from exc
    if len(grid) < 1:
        raise ValueError(f"--beta-grid needs a count of at least 1, got {text!r}")
    check_betas(grid)
    return grid


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use: its options write the RunConfig fields."""
    parser = argparse.ArgumentParser(
        prog="diracctx",
        description="Noncontextuality-inequality reproductions for relativistic spin-1/2 states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, default in command.flags.items():
            kind, text = FLAGS[flag]
            if default is not None:
                text = f"{text} (default {default:g})"
            # an unset flag parses to None, which RunConfig fills from the table
            p.add_argument("--" + flag.replace("_", "-"), type=kind, help=text)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       dest="output_format", help="report format (default json)")
        p.add_argument("--output", dest="output_path", metavar="OUTPUT",
                       help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
        start = time.perf_counter()
        # the rows are evaluated as the report is written: the time covers both
        pieces = report_pieces(execute(config), config.output_format)
        if config.output_path is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        seconds = time.perf_counter() - start
    except BrokenPipeError:
        # evaluate no further block; with stdout on devnull the interpreter's
        # last flush cannot fail again (the recipe of the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("report output closed by its reader", file=sys.stderr)
        return EXIT_CLOSED_OUTPUT
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"completed {config.command} in {seconds:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
