"""The benchmark workloads: what one pass runs, how its outputs are checked,
and which exact counts the traced pass must reproduce.

All workloads are closed loops: one caller waits for each pass to finish
before it starts the next.  Every input is derived from the ``--seed``
argument, so the same seed runs the same simulations.
"""

from __future__ import annotations

import inspect
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from layers import VERIFY_CHECKS

#: Golden digests are pinned at this seed; other seeds are held out and get
#: only the checks that hold for any random stream.
DEFAULT_SEED = 0

N = 2000


@dataclass
class Outcome:
    """Checked result of one pass."""

    attempted: int
    failed: int
    evaluations: int             # simulated fitness evaluations (lambda per row)
    record: list                 # JSON-able summary hashed for the golden digest
    counts: dict = field(default_factory=dict)  # exact counts from the results


def _failure(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


def run_violations(result, cfg) -> list[str]:
    """Invariants of one UMDA run that hold for any random stream."""
    bad = []
    if result.verdict != "optimum_found":
        bad.append(f"verdict {result.verdict}")
    if result.evaluations != cfg.lam * result.generations:
        bad.append("evaluations != lambda * generations")
    v = result.final_frequencies.values
    on_grid = np.round(v * cfg.mu) / cfg.mu == v
    if cfg.borders:
        on_grid |= (v == 1.0 / cfg.n) | (v == 1.0 - 1.0 / cfg.n)
    if not on_grid.all():
        bad.append("final frequency off the grid {k/mu} + borders")
    tel = result.telemetry
    if cfg.record_telemetry:
        records = tel.per_generation
        if len(records) != result.generations:
            bad.append("telemetry record count != generations")
        if sum(r.lower_border_hits for r in records) != tel.total_lower_border_hits:
            bad.append("lower border hit total != record sum")
        if sum(r.upper_border_hits for r in records) != tel.total_upper_border_hits:
            bad.append("upper border hit total != record sum")
    return bad


def simulator_counts(tracer, outcomes) -> list[tuple[str, int, int]]:
    """Traced calls per generation against the runs' own accounting."""
    calls = {name: v[0] for name, v in tracer.summarize().items()}
    c = tracer.counters

    def total(key):
        return sum(o.counts[key] for o in outcomes)

    gens = total("generations")
    return [
        ("core.run calls == runs", calls.get("core.run", 0), total("runs")),
        ("core.generations == run generations", c["core.generations"], gens),
        ("sample_population calls == generations",
         calls.get("bitmodel.sample_population", 0), gens),
        ("select_mu_best calls == generations", calls.get("core.select_mu_best", 0), gens),
        ("update_frequencies calls == generations",
         calls.get("core.update_frequencies", 0), gens),
        ("record_generation calls == telemetry records",
         calls.get("telemetry.record_generation", 0), total("records")),
        ("sampled rows == evaluations", c["bitmodel.rows"], sum(o.evaluations for o in outcomes)),
        ("traced lower hits == run lower hits", c["core.lower_hits"], total("lower_hits")),
    ]


class Workload:
    name = ""
    #: Modules the workload imports, and the one-generation warm-up run that
    #: grows the lazy PCG32 step tables to the workload's largest block.
    modules: tuple[str, ...] = ()
    warmup: dict = {}
    #: Passes hashed into the golden digest; at least this many always run.
    golden_passes = 1
    #: Name of the pass span under which the layer functions run in-process.
    layer_span = "pass.traced"
    #: u32 drawn per generation by the dense sampler plus selection keys,
    #: lambda*n + 2*lambda; None where the workload has no fixed lambda.
    dense_u32_per_gen: int | None = None
    #: Workload whose one pass the traced run adds, to measure the layers
    #: this workload does not exercise; None for no companion.
    companion: type[Workload] | None = None

    def __init__(self, umda, seed: int, threads: int):
        self.umda = umda
        self.seed = seed
        self.threads = threads

    def warm_up(self) -> None:
        core = self.umda.core
        core.run(core.UmdaConfig(**self.warmup))

    @classmethod
    def setup_snippet(cls, src: str) -> str:
        """Python source for a fresh process: imports plus the warm-up."""
        imports = "".join(f"import {m}; " for m in cls.modules)
        return (
            f"import sys; sys.path.insert(0, {src!r}); {imports}"
            f"from umda.core import UmdaConfig, run; run(UmdaConfig(**{cls.warmup!r}))"
        )

    def execute(self, i: int):
        """Pass ``i`` itself, the part that is timed."""
        raise NotImplementedError

    def inspect(self, raw) -> Outcome:
        """Check the outputs of one pass."""
        raise NotImplementedError

    def traced_pass(self, i: int, tracer) -> list[tuple[str, object]]:
        """Pass ``i`` under the tracer, as (pass span name, raw result) pairs."""
        with tracer.span("pass.traced"):
            return [("pass.traced", self.execute(i))]

    def expected_counts(self, tracer, outcomes: list[Outcome]) -> list[tuple[str, int, int]]:
        """(what, traced count, exact count) for the instrumentation check;
        ``outcomes`` are those of the passes run under ``layer_span``."""
        raise NotImplementedError


class RunLam20(Workload):
    name = "run_n2000_lam20"
    mu, lam = 10, 20
    modules = ("umda", "umda.core")
    warmup = {"n": N, "mu": 10, "lam": 20, "max_generations": 1}
    golden_passes = 3
    dense_u32_per_gen = lam * N + 2 * lam

    def config(self, i: int):
        return self.umda.core.UmdaConfig(
            n=N, mu=self.mu, lam=self.lam, master_seed=self.seed, run_index=i
        )

    def execute(self, i: int):
        cfg = self.config(i)
        try:
            return cfg, self.umda.core.run(cfg)
        except Exception as exc:  # a raising run is a failed operation
            return cfg, exc

    def inspect(self, raw) -> Outcome:
        cfg, result = raw
        if isinstance(result, Exception):
            _failure(result)
            return Outcome(1, 1, 0, ["raised"])
        bad = run_violations(result, cfg)
        for problem in bad:
            print(f"run {cfg.run_index}: {problem}", file=sys.stderr)
        tel = result.telemetry
        return Outcome(
            attempted=1,
            failed=int(bool(bad)),
            evaluations=result.evaluations,
            record=[
                result.verdict,
                result.generations,
                result.evaluations,
                tel.total_lower_border_hits,
                tel.total_upper_border_hits,
            ],
            counts={
                "runs": 1,
                "generations": result.generations,
                "lower_hits": tel.total_lower_border_hits,
                "upper_hits": tel.total_upper_border_hits,
                "records": len(tel.per_generation),
            },
        )

    def expected_counts(self, tracer, outcomes):
        return simulator_counts(tracer, outcomes) + [
            ("traced upper hits == telemetry totals", tracer.counters["core.upper_hits"],
             sum(o.counts["upper_hits"] for o in outcomes)),
        ]


class SweepLam300(Workload):
    name = "sweep_n2000_lam300"
    lam = 300
    runs_per_pass = 4
    modules = ("umda", "umda.experiments")
    warmup = {"n": N, "mu": 150, "lam": 300, "max_generations": 1, "record_telemetry": False}
    layer_span = "pass.serial"
    dense_u32_per_gen = lam * N + 2 * lam

    def config(self, i: int):
        return self.umda.experiments.SweepConfig(
            n=N,
            lambda_values=(self.lam, self.lam, 1),
            mu_rule="lam/2",
            borders=True,
            runs_per_setting=self.runs_per_pass,
            master_seed=self.seed * 1_000_000 + i,
        )

    def execute(self, i: int, threads: int | None = None):
        try:
            return self.umda.experiments.run_sweep(self.config(i), threads or self.threads)
        except Exception as exc:
            return exc

    def inspect(self, rows) -> Outcome:
        k = self.runs_per_pass
        if isinstance(rows, Exception):
            _failure(rows)
            return Outcome(k, k, 0, ["raised"])
        row = rows[0] if len(rows) == 1 else None
        if row is None or row.lam != self.lam or not row.success_fraction > 0:
            print(f"sweep: unexpected rows {rows!r}", file=sys.stderr)
            return Outcome(k, k, 0, ["bad rows"])
        ok = round(row.success_fraction * k)
        evaluations = round(row.avg_evaluations * ok)
        generations = round(row.avg_generations * ok)
        failed = k - ok
        if failed:
            print(f"sweep: {failed} of {k} runs did not find the optimum", file=sys.stderr)
        if evaluations != self.lam * generations:
            print("sweep: evaluations != lambda * generations", file=sys.stderr)
            failed = k
        return Outcome(
            attempted=k,
            failed=failed,
            evaluations=evaluations,
            record=[row.lam, row.avg_evaluations, row.avg_lower_border_hits,
                    row.success_fraction, row.avg_generations],
            counts={
                "runs": k,
                "generations": generations,
                "lower_hits": round(row.avg_lower_border_hits * ok),
                "records": 0,  # the sweep runs with telemetry off
            },
        )

    def traced_pass(self, i, tracer):
        # The pool workers' spans stay in the workers, so the same configs
        # run again in-process (threads=1) to trace the layers.
        with tracer.span("pass.traced"):
            parallel = self.execute(i)
        with tracer.span("pass.serial"):
            serial = self.execute(i, threads=1)
        return [("pass.traced", parallel), ("pass.serial", serial)]

    def expected_counts(self, tracer, outcomes):
        return simulator_counts(tracer, outcomes)


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


class VerifySuite(Workload):
    name = "verify_suite"
    modules = ("umda", "umda.verification")
    # the largest block of the suite: lambda=120, n=200 in the decomposition grid
    warmup = {"n": 200, "mu": 60, "lam": 120, "max_generations": 1, "record_telemetry": False}

    def __init__(self, umda, seed, threads):
        super().__init__(umda, seed, threads)
        v = umda.verification
        # Each check's own default seed at DEFAULT_SEED, shifted otherwise.
        self.kwargs = [
            {"seed": _default(fn, "seed") + 1000 * (seed - DEFAULT_SEED)}
            if "seed" in inspect.signature(fn).parameters else {}
            for fn in (getattr(v, name) for name in VERIFY_CHECKS)
        ]
        dec, dom, drift = (v.check_decomposition_invariants, v.check_dominance,
                           v.check_drift_sign)
        grid = _default(dec, "grid")
        per_cell = -(-_default(dec, "generations") // len(grid))
        self.generations_checked = per_cell * len(grid)
        self.focal_trials = (len(_default(dom, "x_values")) * _default(dom, "trials")
                             + _default(drift, "trials"))
        #: sampled individuals per pass: decomposition grid, dominance, drift
        self.evaluations = (
            per_cell * sum(lam for _, _, lam in grid)
            + len(_default(dom, "x_values")) * _default(dom, "trials") * _default(dom, "lam")
            + _default(drift, "trials") * _default(drift, "lam")
        )

    def execute(self, i: int):
        # Look each check up by name at call time, so a traced pass calls
        # the wrapped binding.
        v = self.umda.verification
        results = []
        for fn, kwargs in zip(VERIFY_CHECKS, self.kwargs):
            try:
                results.append(getattr(v, fn)(**kwargs))
            except Exception as exc:
                results.append(exc)
        return results

    def inspect(self, results) -> Outcome:
        failed = 0
        record = []
        for expected, result in zip(VERIFY_CHECKS.values(), results):
            if isinstance(result, Exception):
                _failure(result)
                failed += 1
                record.append([expected, "raised"])
                continue
            if not result.passed or result.name != expected:
                print(f"verify: {result.summary()}", file=sys.stderr)
                failed += 1
            record.append([result.name, bool(result.passed),
                           {k: float(v) for k, v in result.measured.items()}])
        checked = sum(
            int(r.measured.get("generations_checked", 0))
            for r in results if not isinstance(r, Exception)
        )
        return Outcome(
            attempted=len(results),
            failed=failed,
            evaluations=self.evaluations,
            record=record,
            counts={"generations_checked": checked, "failed_checks": failed},
        )

    def expected_counts(self, tracer, outcomes):
        s = tracer.summarize()
        c = tracer.counters
        calls = {k: v[0] for k, v in s.items()}
        passes = len(outcomes)
        rows = [(f"verification.{fn} calls == passes", calls.get(f"verification.{fn}", 0),
                 passes) for fn in VERIFY_CHECKS]
        return rows + [
            ("decompose calls == generations_checked", calls.get("levels.decompose", 0),
             sum(o.counts["generations_checked"] for o in outcomes)),
            ("decompose calls == default grid size", calls.get("levels.decompose", 0),
             self.generations_checked * passes),
            ("focal trials == default trials", c["levels.focal_trials"],
             self.focal_trials * passes),
            ("sampled rows == evaluations", c["bitmodel.rows"], self.evaluations * passes),
            ("select_mu_best calls == decomposition + focal steps",
             calls.get("core.select_mu_best", 0),
             (self.generations_checked + self.focal_trials) * passes),
            ("core.run calls == 0", calls.get("core.run", 0), 0),
        ]


# The verify suite is not a gated workload: its small-block, interpreter-bound
# passes swing two to three times as much with host speed as the simulators
# do, too much for its bound.  The traced run of run_n2000_lam20 runs one
# pass of it, so the levels, oracles and verification layers are still
# measured.
RunLam20.companion = VerifySuite

WORKLOADS = {w.name: w for w in (RunLam20, SweepLam300)}
