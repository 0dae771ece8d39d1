"""Experiment harness: lambda sweeps, scaling studies, phase-transition probes.

Output files are semicolon-separated with a fixed column layout (lambda,
average evaluations, average lower-border hits, success fraction, average
generations); decimals carry 6 significant digits in fixed notation.  Every
experiment hands its runs to ``run_batch``, which dispatches them to a
worker pool; per-run streams are derived from (master seed, setting, run
index) and results come back in run-index order, so they never depend on
scheduling.
"""

from __future__ import annotations

import ast
import math
import os
from concurrent import futures
from dataclasses import MISSING, dataclass, fields
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .core import UmdaConfig, run
from .rng import derive_stream
from .telemetry import RunTelemetry


# ---------------------------------------------------------------------------
# number formatting / CSV layout


def format_decimal(x: float) -> str:
    """Fixed-notation decimal with 6 significant digits, e.g. 41000.0."""
    if not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    s = f"{x:.6g}"
    if "e" in s or "E" in s:
        s = format(Decimal(s), "f")
    if "." not in s:
        s += ".0"
    return s


def format_row(head, decimals) -> str:
    """One output line: the ``head`` cells verbatim, then each of ``decimals``
    through format_decimal, all separated by semicolons."""
    return ";".join([str(c) for c in head] + [format_decimal(x) for x in decimals])


def write_lines(path: str, lines) -> None:
    """Write each line with a "\\n" terminator, whatever the platform."""
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated outcome for one lambda; averages cover successful runs."""

    lam: int
    avg_evaluations: float
    avg_lower_border_hits: float
    success_fraction: float
    avg_generations: float

    def line(self) -> str:
        return format_row(
            [self.lam],
            [self.avg_evaluations, self.avg_lower_border_hits,
             self.success_fraction, self.avg_generations],
        )


CSV_HEADER = "lambda;avg_evaluations;avg_lower_border_hits;success_fraction;avg_generations"


def emit_csv(rows, path: str, header: bool = False) -> None:
    """Write sweep rows as semicolon-separated lines, column 0 = lambda."""
    head = [CSV_HEADER] if header else []
    write_lines(path, head + [row.line() for row in rows])


def export_trajectory(telemetry: RunTelemetry, path: str) -> None:
    """Write captured frequency snapshots as semicolon-separated rows.

    Each row is the generation index followed by the n frequencies, printed
    with 6 significant digits.
    """
    write_lines(path, [format_row([t], values) for t, values in telemetry.trajectory])


# ---------------------------------------------------------------------------
# parameter rules (small arithmetic expressions over n / lam / mu)

_RULE_FUNCTIONS = {
    "sqrt": math.sqrt,
    "log": math.log,
    "log2": math.log2,
    "ceil": math.ceil,
    "floor": math.floor,
    "min": min,
    "max": max,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow)


def evaluate_rule(expr: str, **variables: float) -> float:
    """Evaluate a parameter rule like ``"3*sqrt(n)*log(n)"`` or ``"lam/2"``.

    Only numeric literals, the given variables, sqrt/log/log2/ceil/floor/
    min/max, and the basic arithmetic operators are allowed.
    """

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in variables:
                return variables[node.id]
            raise ValueError(f"unknown name {node.id!r} in rule {expr!r}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            left, right = ev(node.left), ev(node.right)
            op = node.op
            if isinstance(op, ast.Add):
                return left + right
            if isinstance(op, ast.Sub):
                return left - right
            if isinstance(op, ast.Mult):
                return left * right
            if isinstance(op, ast.Div):
                return left / right
            if isinstance(op, ast.FloorDiv):
                return left // right
            return left**right
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = ev(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _RULE_FUNCTIONS.get(node.func.id)
            if fn is None or node.keywords:
                raise ValueError(f"unsupported call in rule {expr!r}")
            return fn(*[ev(a) for a in node.args])
        raise ValueError(f"unsupported syntax in rule {expr!r}")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse rule {expr!r}: {exc}") from exc
    return float(ev(tree))


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
    """A lambda sweep: for each lambda, runs_per_setting independent runs."""

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
        if self.runs_per_setting < 1:
            raise ValueError("runs_per_setting must be >= 1")
        for lam in self.lambdas():
            mu = self.mu_for(lam)
            if not 1 <= mu < lam:
                raise ValueError(
                    f"mu rule {self.mu_rule!r} gives mu={mu} for lambda={lam}"
                )

    def lambdas(self) -> list[int]:
        start, stop, step = self.lambda_values
        return list(range(start, stop + 1, step))

    def mu_for(self, lam: int) -> int:
        return int_rule(self.mu_rule, lam=lam, n=self.n)


def _parse_lambda_values(text: str) -> tuple[int, int, int]:
    parts = text.replace(",", ":").split(":")
    if len(parts) != 3:
        raise ValueError(f"lambda_values must be start:stop:step, got {text!r}")
    start, stop, step = (int(p) for p in parts)
    return start, stop, step


def _parse_borders(text: str) -> bool:
    value = text.strip().lower()
    if value in ("restricted", "true", "on", "1"):
        return True
    if value in ("unrestricted", "false", "off", "0"):
        return False
    raise ValueError(f"borders must be restricted or unrestricted, got {text!r}")


#: Parser of each SweepConfig field from its text in a config file or on the
#: command line; the CLI's sweep flags are stored under the same keys.
SWEEP_SETTINGS = {
    "n": int,
    "lambda_values": _parse_lambda_values,
    "mu_rule": str,
    "borders": _parse_borders,
    "runs_per_setting": int,
    "master_seed": int,
    "max_generations": lambda s: int(s) if s else None,
    "output_path": str,
}


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


def run_batch(
    settings, runs: int, master_seed: int, threads: int | None, **shared
) -> list[list[RunSummary]]:
    """``runs`` telemetry-free runs per (setting, params) pair, on one pool.

    Run k of a setting takes its config fields from ``shared`` and
    ``params`` and draws from stream derive_stream(setting, k).  The
    summaries come back split by setting, in the order of ``settings`` and,
    within each, in run-index order.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    configs = [
        UmdaConfig(
            **shared,
            **params,
            master_seed=master_seed,
            run_index=derive_stream(setting, k),
            record_telemetry=False,
        )
        for setting, params in settings
        for k in range(runs)
    ]
    threads = threads if threads is not None else (os.cpu_count() or 1)
    if threads <= 1 or len(configs) <= 1:
        summaries = [_run_summary(cfg) for cfg in configs]
    else:
        chunk = max(1, len(configs) // (8 * threads))
        with futures.ProcessPoolExecutor(max_workers=threads) as pool:
            summaries = list(pool.map(_run_summary, configs, chunksize=chunk))
    return [summaries[k * runs : (k + 1) * runs] for k in range(len(settings))]


def _mean_over(values, mask) -> float:
    picked = [v for v, keep in zip(values, mask) if keep]
    return float(np.mean(picked)) if picked else float("nan")


def run_sweep(cfg: SweepConfig, threads: int | None = None) -> list[SweepRow]:
    """Execute the sweep and aggregate one row per lambda.

    Runs that end without sampling the optimum (budget exhausted, or
    stagnated in borderless mode) are excluded from the averages and show up
    in success_fraction instead.
    """
    lambdas = cfg.lambdas()
    batches = run_batch(
        [(lam, {"mu": cfg.mu_for(lam), "lam": lam}) for lam in lambdas],
        cfg.runs_per_setting,
        cfg.master_seed,
        threads,
        n=cfg.n,
        borders=cfg.borders,
        max_generations=cfg.max_generations,
    )
    rows = []
    for lam, batch in zip(lambdas, batches):
        ok = [s.verdict == "optimum_found" for s in batch]
        rows.append(
            SweepRow(
                lam=lam,
                avg_evaluations=_mean_over([s.evaluations for s in batch], ok),
                avg_lower_border_hits=_mean_over([s.lower_border_hits for s in batch], ok),
                success_fraction=float(np.mean(ok)),
                avg_generations=_mean_over([s.generations for s in batch], ok),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# scaling study


@dataclass(frozen=True)
class ScalingRow:
    n: int
    mu: int
    lam: int
    runs: int
    success_fraction: float
    median_generations: float
    median_evaluations: float

    def line(self) -> str:
        return format_row(
            [self.n, self.mu, self.lam],
            [self.median_generations, self.median_evaluations, self.success_fraction],
        )


@dataclass(frozen=True)
class ScalingResult:
    rows: list[ScalingRow]
    #: Least-squares slope of log(median generations) vs log(n); None when
    #: fewer than two problem sizes produced a finite median.
    slope_generations: float | None


def run_scaling_study(
    n_values,
    mu_rule: str,
    lambda_rule: str = "2*mu",
    runs: int = 50,
    master_seed: int = 0,
    borders: bool = True,
    max_generations: int | None = None,
    threads: int | None = None,
) -> ScalingResult:
    """Median generations per problem size plus a log-log slope fit."""
    n_values = list(n_values)
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ValueError(f"n_values must be strictly increasing, got {n_values}")
    settings = []
    for n in n_values:
        mu = int_rule(mu_rule, n=n)
        settings.append((n, {"n": n, "mu": mu, "lam": int_rule(lambda_rule, n=n, mu=mu)}))
    batches = run_batch(
        settings, runs, master_seed, threads, borders=borders, max_generations=max_generations
    )
    rows = []
    for (n, params), batch in zip(settings, batches):
        ok = [s.verdict == "optimum_found" for s in batch]
        gens = [s.generations for s, good in zip(batch, ok) if good]
        evals = [s.evaluations for s, good in zip(batch, ok) if good]
        rows.append(
            ScalingRow(
                n=n,
                mu=params["mu"],
                lam=params["lam"],
                runs=runs,
                success_fraction=float(np.mean(ok)),
                median_generations=float(np.median(gens)) if gens else float("nan"),
                median_evaluations=float(np.median(evals)) if evals else float("nan"),
            )
        )
    finite = [
        (row.n, row.median_generations)
        for row in rows
        if math.isfinite(row.median_generations)
    ]
    slope = None
    if len(finite) >= 2:
        xs = np.log([f[0] for f in finite])
        ys = np.log([f[1] for f in finite])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ScalingResult(rows=rows, slope_generations=slope)


# ---------------------------------------------------------------------------
# phase-transition probe (borderless variant)


@dataclass(frozen=True)
class PhaseOutcome:
    mu: int
    lam: int
    runs: int
    stagnated_fraction: float
    success_fraction: float
    budget_fraction: float


def run_phase_transition_probe(
    n: int,
    mu_small: int,
    mu_large: int,
    runs: int = 100,
    master_seed: int = 0,
    max_generations: int | None = None,
    threads: int | None = None,
) -> tuple[PhaseOutcome, PhaseOutcome]:
    """Borderless-run verdict fractions at a small and a large parent count,
    with lambda = 2 * mu.

    Below the phase transition nearly every run stagnates with a frequency
    stuck at the wrong absorbing value; above it, most runs find the optimum.
    """
    if not mu_small < mu_large:
        raise ValueError("need mu_small < mu_large")
    settings = [(mu, {"mu": mu, "lam": 2 * mu}) for mu in (mu_small, mu_large)]
    batches = run_batch(
        settings, runs, master_seed, threads,
        n=n, borders=False, max_generations=max_generations,
    )
    outcomes = []
    for (mu, params), batch in zip(settings, batches):
        verdicts = [s.verdict for s in batch]
        outcomes.append(
            PhaseOutcome(
                mu=mu,
                lam=params["lam"],
                runs=runs,
                stagnated_fraction=verdicts.count("stagnated") / runs,
                success_fraction=verdicts.count("optimum_found") / runs,
                budget_fraction=verdicts.count("budget_exhausted") / runs,
            )
        )
    return outcomes[0], outcomes[1]


# ---------------------------------------------------------------------------
# curve diagnostics


def moving_average(values, window: int = 5) -> np.ndarray:
    """Centered moving average; output is len(values) - window + 1 long."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1 or window > values.size:
        raise ValueError(f"window {window} invalid for {values.size} points")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


def has_interior_min_then_max(values) -> bool:
    """True when a strict interior local minimum precedes a strict interior
    local maximum, the multimodality signature of the runtime-vs-lambda curve.
    """
    y = np.asarray(values, dtype=np.float64)
    first_min = None
    for i in range(1, y.size - 1):
        if first_min is None and y[i] < y[i - 1] and y[i] < y[i + 1]:
            first_min = i
        elif first_min is not None and y[i] > y[i - 1] and y[i] > y[i + 1]:
            return True
    return False


# ---------------------------------------------------------------------------
# config files (one `key = value` per line)


def parse_config_file(path: str) -> dict[str, str]:
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def sweep_config_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    """Build a SweepConfig from config-file keys, each parsed by SWEEP_SETTINGS."""
    unknown = set(mapping) - set(SWEEP_SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    required = [f.name for f in fields(SweepConfig) if f.default is MISSING]
    if not set(required) <= set(mapping):
        raise ValueError(f"config requires at least {required}")
    return SweepConfig(**{key: SWEEP_SETTINGS[key](value) for key, value in mapping.items()})
