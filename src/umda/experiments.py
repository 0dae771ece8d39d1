"""Experiment harness: lambda sweeps, scaling studies, phase-transition probes.

Every experiment hands its runs to ``run_batch`` as (setting, UmdaConfig)
pairs, one template config per swept value; run k of a setting is its
template on stream derive_stream(setting, k), so the streams depend only on
(master seed, setting, run index).  Every check precedes the first run:
UmdaConfig checks each template, its population size lambda * n included,
then ``run_batch`` the run count, thread count and streams.  The runs go to
a worker pool and come back in run-index order, so results never depend on
scheduling.
``summarize`` reduces each setting's batch to one SettingSummary (verdict
shares and success-only means and medians), and the sweep, the scaling
study and the phase probe all return these rows; ``log_log_slope`` fits the
scaling study's slope from them.

Every experiment's output layout, on stdout and in files, is built here from
the rows, decimals at 6 significant digits in fixed notation: the
semicolon-separated ``sweep_lines`` (lambda, average evaluations, average
lower-border hits, success fraction, average generations, under an optional
header) and ``scaling_lines`` (n, mu, lambda, median generations, median
evaluations, success fraction), and the stdout ``scaling_report`` and
``phase_lines``.  The CLI only chooses where lines go.
"""

from __future__ import annotations

import ast
import math
import operator
import os
from concurrent import futures
from dataclasses import MISSING, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .core import UmdaConfig, run
from .rng import derive_stream


# ---------------------------------------------------------------------------
# number formatting / output layouts


def format_decimal(x: float) -> str:
    """Fixed-notation decimal with 6 significant digits, e.g. 41000.0."""
    return np.format_float_positional(x, precision=6, unique=False, fractional=False, trim="0")


def format_row(head, decimals) -> str:
    """One output line: the ``head`` cells verbatim, then each of ``decimals``
    through format_decimal, all separated by semicolons."""
    return ";".join([str(c) for c in head] + [format_decimal(x) for x in decimals])


def write_lines(path: str, lines) -> None:
    """Write each line with a "\\n" terminator, whatever the platform."""
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


CSV_HEADER = "lambda;avg_evaluations;avg_lower_border_hits;success_fraction;avg_generations"


def sweep_lines(rows, header: bool = False) -> list[str]:
    """The sweep's output lines, one per row after an optional CSV_HEADER."""
    head = [CSV_HEADER] if header else []
    return head + [
        format_row([r.lam], [r.avg_evaluations, r.avg_lower_border_hits,
                             r.success_fraction, r.avg_generations])
        for r in rows
    ]


def scaling_lines(rows) -> list[str]:
    """The scaling study's output lines: n, mu, lambda, then the medians and
    the success fraction."""
    return [
        format_row([r.n, r.mu, r.lam],
                   [r.median_generations, r.median_evaluations, r.success_fraction])
        for r in rows
    ]


def scaling_report(rows) -> list[str]:
    """The scaling study's stdout: one line per n, then the log-log slope."""
    slope = log_log_slope(rows)
    return [
        f"n={r.n} mu={r.mu} lambda={r.lam} success={format_decimal(r.success_fraction)} "
        f"median_generations={format_decimal(r.median_generations)} "
        f"median_evaluations={format_decimal(r.median_evaluations)}"
        for r in rows
    ] + ["slope: undefined (fewer than two problem sizes with a finite median)"
         if slope is None
         else f"log-log slope of median generations: {format_decimal(slope)}"]


def phase_lines(rows) -> list[str]:
    """The phase probe's stdout: the verdict shares below and above the transition."""
    return [
        f"{label}: mu={r.mu} lambda={r.lam} stagnated={format_decimal(r.stagnated_fraction)} "
        f"success={format_decimal(r.success_fraction)} "
        f"budget_exhausted={format_decimal(r.budget_fraction)}"
        for label, r in zip(("below", "above"), rows)
    ]


# ---------------------------------------------------------------------------
# parameter rules (small arithmetic expressions over n and lam)

_RULE_FUNCTIONS = {
    "sqrt": math.sqrt,
    "log": math.log,
    "log2": math.log2,
    "ceil": math.ceil,
    "floor": math.floor,
    "min": min,
    "max": max,
}

_RULE_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Pow: math.pow,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}


def evaluate_rule(expr: str, **variables: float) -> float:
    """Evaluate a parameter rule like ``"3*sqrt(n)*log(n)"`` or ``"lam/2"``.

    Only numeric literals, the given variables, sqrt/log/log2/ceil/floor/
    min/max, and the basic arithmetic operators are allowed.  Every failure,
    from parsing to a non-finite value, is a ValueError that names the rule.
    """

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        # type(), not isinstance(): True and False are ints too
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in variables:
                return variables[node.id]
            raise ValueError(f"unknown name {node.id!r}")
        op = _RULE_OPERATORS.get(type(getattr(node, "op", None)))
        if isinstance(node, ast.BinOp) and op:
            return op(ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and op:
            return op(ev(node.operand))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _RULE_FUNCTIONS.get(node.func.id)
            if fn is None or node.keywords:
                raise ValueError("unsupported call")
            return fn(*[ev(a) for a in node.args])
        raise ValueError("unsupported syntax")

    try:
        value = float(ev(ast.parse(expr, mode="eval")))
        if not math.isfinite(value):
            raise ValueError(f"not finite: {value}")
    # RecursionError: a rule nested or chained too deep to parse or to walk
    except (SyntaxError, ValueError, ArithmeticError, TypeError, RecursionError) as exc:
        raise ValueError(f"cannot evaluate rule {expr!r}: {exc}") from exc
    return value


def int_rule(expr: str, **variables: float) -> int:
    """Rule value as an integer: exact integers kept, fractions rounded up."""
    value = evaluate_rule(expr, **variables)
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(value))


# ---------------------------------------------------------------------------
# sweep


@dataclass
class SweepConfig:
    """A lambda sweep: for each lambda, runs_per_setting independent runs.
    Construction checks the lambda range; ``run_sweep`` checks the runs."""

    n: int
    lambda_values: tuple[int, int, int]  # (start, stop, step), stop inclusive
    mu_rule: str = "lam/2"
    borders: bool = True
    runs_per_setting: int = 100
    master_seed: int = 0
    max_generations: int | None = None
    output_path: str | None = None

    def __post_init__(self):
        start, stop, step = self.lambda_values
        if step < 1:
            raise ValueError(f"lambda step must be >= 1, got {step}")
        if start > stop:
            raise ValueError(f"empty lambda range {self.lambda_values}")

    def settings(self) -> list[tuple[int, UmdaConfig]]:
        """One (lambda, UmdaConfig) pair per swept lambda, mu from mu_rule.
        The last lambda's stream is checked first: it bounds the others, and
        a range ending at 2**31 or more would otherwise build every setting
        before ``run_batch`` rejects it."""
        start, stop, step = self.lambda_values
        derive_stream(range(start, stop + 1, step)[-1], 0)
        return [
            (lam, UmdaConfig(
                n=self.n, mu=int_rule(self.mu_rule, lam=lam, n=self.n), lam=lam,
                borders=self.borders, max_generations=self.max_generations,
                master_seed=self.master_seed,
            ))
            for lam in range(start, stop + 1, step)
        ]


class RunSummary(NamedTuple):
    verdict: str
    generations: int
    evaluations: int
    lower_border_hits: int


def _run_summary(cfg: UmdaConfig) -> RunSummary:
    result = run(cfg)
    return RunSummary(
        result.verdict,
        result.generations,
        result.evaluations,
        result.telemetry.total_lower_border_hits,
    )


def run_batch(settings, runs: int, threads: int | None) -> list[list[RunSummary]]:
    """``runs`` telemetry-free runs of each (setting, UmdaConfig) pair, on one pool.

    Run k of a setting is its template config with run_index set to
    derive_stream(setting, k) and record_telemetry off; the template's own
    values of those two fields are ignored.  The summaries come back split
    by setting, in order, each in run-index order.  Before building a run
    it checks ``runs``, ``threads`` and each setting's last stream (it
    bounds the others); each template, built before, checked its own
    lam * n.  No more workers start than ``threads``, the runs or the CPUs
    this process may run on.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    for setting, _ in settings:
        derive_stream(setting, runs - 1)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    configs = [
        replace(cfg, run_index=derive_stream(setting, k), record_telemetry=False)
        for setting, cfg in settings
        for k in range(runs)
    ]
    workers = min(threads or cpus, cpus, len(configs))
    try:
        if workers <= 1:
            summaries = [_run_summary(cfg) for cfg in configs]
        else:
            chunk = max(1, len(configs) // (8 * workers))
            with futures.ProcessPoolExecutor(max_workers=workers) as pool:
                summaries = list(pool.map(_run_summary, configs, chunksize=chunk))
    except ValueError as exc:  # every input was checked above: a fault
        raise RuntimeError(f"a run failed: {exc}") from exc
    return [summaries[k * runs : (k + 1) * runs] for k in range(len(settings))]


@dataclass(frozen=True)
class SettingSummary:
    """One setting's batch reduced to what the experiments report: its n, mu
    and lambda, the share of runs ending in each verdict, and means and
    medians over the runs that found the optimum (nan when none did)."""

    n: int
    mu: int
    lam: int
    success_fraction: float
    stagnated_fraction: float
    budget_fraction: float
    avg_generations: float
    avg_evaluations: float
    avg_lower_border_hits: float
    median_generations: float
    median_evaluations: float

    @classmethod
    def of(cls, cfg: UmdaConfig, batch: list[RunSummary]) -> "SettingSummary":
        verdicts = [s.verdict for s in batch]
        won = [s for s in batch if s.verdict == "optimum_found"]

        def over_won(stat, field: str) -> float:
            return float(stat([getattr(s, field) for s in won])) if won else math.nan

        return cls(
            n=cfg.n, mu=cfg.mu, lam=cfg.lam,
            success_fraction=verdicts.count("optimum_found") / len(batch),
            stagnated_fraction=verdicts.count("stagnated") / len(batch),
            budget_fraction=verdicts.count("budget_exhausted") / len(batch),
            avg_generations=over_won(np.mean, "generations"),
            avg_evaluations=over_won(np.mean, "evaluations"),
            avg_lower_border_hits=over_won(np.mean, "lower_border_hits"),
            median_generations=over_won(np.median, "generations"),
            median_evaluations=over_won(np.median, "evaluations"),
        )


def summarize(settings, runs: int, threads: int | None) -> list[SettingSummary]:
    """The one driver of every experiment: run_batch over the (setting,
    UmdaConfig) pairs, then one SettingSummary per setting, in order."""
    batches = run_batch(settings, runs, threads)
    return [SettingSummary.of(cfg, batch) for (_, cfg), batch in zip(settings, batches)]


def run_sweep(cfg: SweepConfig, threads: int | None = None) -> list[SettingSummary]:
    """Execute the sweep and summarize each lambda's runs.

    Runs that end without sampling the optimum (budget exhausted, or
    stagnated in borderless mode) are excluded from the averages and show up
    in success_fraction instead.
    """
    return summarize(cfg.settings(), cfg.runs_per_setting, threads)


# ---------------------------------------------------------------------------
# scaling study


def run_scaling_study(
    n_values,
    mu_rule: str,
    runs: int = 50,
    master_seed: int = 0,
    borders: bool = True,
    max_generations: int | None = None,
    threads: int | None = None,
) -> list[SettingSummary]:
    """One row per problem size, with lambda = 2 * mu."""
    n_values = list(n_values)
    if not n_values:
        raise ValueError("n_values is empty")
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ValueError(f"n_values must be strictly increasing, got {n_values}")
    mus = [int_rule(mu_rule, n=n) for n in n_values]
    settings = [
        (n, UmdaConfig(n=n, mu=mu, lam=2 * mu, borders=borders,
                       max_generations=max_generations, master_seed=master_seed))
        for n, mu in zip(n_values, mus)
    ]
    return summarize(settings, runs, threads)


def log_log_slope(rows) -> float | None:
    """Least-squares slope of log(median generations) against log(n) over
    the rows with a finite median; None when fewer than two have one."""
    finite = [(r.n, r.median_generations) for r in rows if math.isfinite(r.median_generations)]
    if len(finite) < 2:
        return None
    xs, ys = (np.log(column) for column in zip(*finite))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# phase-transition probe (borderless variant)


def run_phase_transition_probe(
    n: int,
    mu_small: int,
    mu_large: int,
    runs: int = 100,
    master_seed: int = 0,
    max_generations: int | None = None,
    threads: int | None = None,
) -> list[SettingSummary]:
    """Borderless-run verdict fractions at a small and a large parent count,
    with lambda = 2 * mu.

    Below the phase transition nearly every run stagnates with a frequency
    stuck at the wrong absorbing value; above it, most runs find the optimum.
    """
    if not mu_small < mu_large:
        raise ValueError("need mu_small < mu_large")
    settings = [
        (mu, UmdaConfig(n=n, mu=mu, lam=2 * mu, borders=False,
                        max_generations=max_generations, master_seed=master_seed))
        for mu in (mu_small, mu_large)
    ]
    return summarize(settings, runs, threads)


# ---------------------------------------------------------------------------
# settings as text (config files and command-line flags)


def _parse_lambda_values(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    return tuple(int(p) for p in parts)


def _parse_borders(text: str) -> bool:
    if text in ("restricted", "unrestricted"):
        return text == "restricted"
    raise ValueError(f"expected restricted or unrestricted, got {text!r}")


#: Parser of every experiment setting from its text in a config file or on
#: the command line: each SweepConfig field and each parameter of
#: run_scaling_study and run_phase_transition_probe except threads.  The
#: CLI stores its flags as text under these keys.
SETTINGS = {
    "n": int,
    "lambda_values": _parse_lambda_values,
    "mu_rule": str,
    "borders": _parse_borders,
    "runs_per_setting": int,
    "master_seed": int,
    "max_generations": lambda s: int(s) if s else None,
    "output_path": str,
    "n_values": lambda s: [int(x) for x in s.split(",")],
    "runs": int,
    "mu_small": int,
    "mu_large": int,
}


def parse_settings(mapping: dict[str, str]) -> dict:
    """Each value of ``mapping`` parsed by its key's SETTINGS parser; a value
    that does not parse is a ValueError that names the key."""
    parsed = {}
    for key, value in mapping.items():
        try:
            parsed[key] = SETTINGS[key](value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return parsed


def parse_config_file(path: str) -> dict[str, str]:
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in mapping:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            mapping[key] = value
    return mapping


def sweep_config_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    """Build a SweepConfig from its fields' text, as in a config file."""
    unknown = set(mapping) - {f.name for f in fields(SweepConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    required = [f.name for f in fields(SweepConfig) if f.default is MISSING]
    if not set(required) <= set(mapping):
        raise ValueError(f"config requires at least {required}")
    return SweepConfig(**parse_settings(mapping))
