#!/usr/bin/env python3
"""Benchmark of the umda simulator: end-to-end metrics per workload, or the
per-layer metrics of a separate traced pass.

    python3 bench/run.py --workload run_n2000_lam20 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run it from the root of a source checkout; it imports ``umda`` from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  ``--workload all`` runs every workload untraced and traced and adds
the paper-sweep CPU projection.  METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

SETUP_PROBES = 15

# paper sweep: n=2000, lambda = 14, 16, ..., 350, 3000 runs per lambda
PAPER_LAMBDAS = range(14, 351, 2)
PAPER_RUNS = 3000


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_umda(modules):
    if not (SRC / "umda" / "__init__.py").is_file():
        sys.exit(f"error: no umda sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    for name in modules:
        importlib.import_module(name)
    umda = sys.modules["umda"]
    if Path(umda.__file__).resolve().parent != SRC / "umda":
        sys.exit(f"error: imported umda from {umda.__file__}, not from {SRC}")
    return umda


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest child's peak."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def keep_going(i: int, started: float, walls, seconds: float, minimum: int) -> bool:
    """Closed loop: start another pass until the next one would end, on
    average, past the deadline (at least ``minimum`` passes)."""
    if i < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * statistics.fmean(walls) < seconds


def measure_setup(wl_cls) -> list[float]:
    """Wall seconds of fresh processes that import umda and warm up."""
    snippet = wl_cls.setup_snippet(str(SRC))
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet], check=True, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
    return walls


def golden_line(wl, seed: int, records) -> str:
    from workloads import DEFAULT_SEED

    got = digest(records)
    if seed != DEFAULT_SEED:
        return (f"golden {wl.name}: not compared (seed {seed} is held out; the default "
                f"seed is {DEFAULT_SEED}); digest {got}")
    with open(BENCH / "golden.json") as fh:
        expected = json.load(fh).get(wl.name)
    verdict = "match" if got == expected else f"MISMATCH (expected {expected})"
    return f"golden {wl.name}: {verdict}; digest {got}"


def emit(correct, attempted, failed, metrics, units) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def end_to_end(wl, wl_cls, seed, seconds, spec) -> None:
    wl.warm_up()
    walls, cpus, rates, outcomes = [], [], [], []
    started = time.perf_counter()
    i = 0
    while keep_going(i, started, walls, seconds, wl.golden_passes):
        c0, t0 = cpu_seconds(), time.perf_counter()
        raw = wl.execute(i)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        outcome = wl.inspect(raw)
        walls.append(wall)
        cpus.append(cpu)
        rates.append(outcome.evaluations / wall)
        outcomes.append(outcome)
        i += 1
    peak = peak_rss_mb()  # before the setup probes become children too
    setups = measure_setup(wl_cls)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    series = {
        "pass_s": walls,
        "evals_per_s": rates,
        "cpu_s": cpus,
        "peak_rss_mb": [peak],
        "setup_s": setups,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{wl.name} seed {seed}: {len(walls)} passes in "
          f"{time.perf_counter() - started:.1f} s, closed loop with one caller")
    metrics = {}
    for name in units:
        q1, med, q3 = quartiles(series[name])
        metrics[name] = med
        print(f"  {name:<12} {med:14.6g} {units[name]:<6} median of {len(series[name])}"
              f" (q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  error_rate   {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    print("  pass walls   " + " ".join(f"{w:.3f}" for w in walls))
    print(golden_line(wl, seed, [o.record for o in outcomes[: wl.golden_passes]]))
    emit(failed == 0, attempted, failed, metrics, units)


@dataclass
class TracedLoop:
    """Outputs of the traced passes of one workload, under its own tracer."""

    wl: object
    tracer: object
    references: list = field(default_factory=list)   # untraced passes
    outcomes: list = field(default_factory=list)     # traced passes
    layer_outcomes: list = field(default_factory=list)
    overheads: list = field(default_factory=list)
    fractions: list = field(default_factory=list)
    audited: int = 0
    mismatched: int = 0


def traced_loop(wl, umda, started, seconds) -> TracedLoop:
    """Pairs of pass i untraced (the reference) and pass i traced, until the
    deadline; the traced outputs must equal the reference outputs."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer, umda)
    tracer.disable()
    wl.warm_up()
    run = TracedLoop(wl, tracer)
    walls = []
    i = 0
    while keep_going(i, started, walls, seconds, wl.golden_passes):
        t0 = time.perf_counter()
        raw = wl.execute(i)
        untraced = time.perf_counter() - t0
        reference = wl.inspect(raw)
        tracer.enable()
        try:
            pairs = wl.traced_pass(i, tracer)
        finally:
            tracer.disable()
        walls.append(time.perf_counter() - t0)
        a, b = tracer.audit_generators()
        run.audited += a
        run.mismatched += b
        overhead = tracer.durations("pass.traced")[-1] - untraced
        run.overheads.append(overhead)
        run.fractions.append(overhead / untraced)
        run.references.append(reference)
        for span, raw in pairs:
            outcome = wl.inspect(raw)
            run.outcomes.append(outcome)
            if span == wl.layer_span:
                run.layer_outcomes.append(outcome)
            if outcome.record != reference.record:
                print(f"{wl.name} pass {i}: traced ({span}) and untraced outputs differ",
                      file=sys.stderr)
                outcome.failed = outcome.attempted
        i += 1
    return run


def traced(wl, seed, seconds, spec, umda) -> None:
    import layers

    started = time.perf_counter()
    loops = []
    if wl.companion is not None:
        # One pass of the companion first; the workload's own passes then
        # fill the rest of the run.
        loops.append(traced_loop(wl.companion(umda, seed, wl.threads), umda, started, 0.0))
    main = traced_loop(wl, umda, started, seconds)
    loops.insert(0, main)

    OUT.mkdir(exist_ok=True)
    incomplete = False
    for run in loops:
        tag = wl.name if run is main else f"{wl.name}-{run.wl.name}"
        trace_path = OUT / f"trace-{tag}-seed{seed}.npz"
        run.tracer.save(str(trace_path))
        checks = run.wl.expected_counts(run.tracer, run.layer_outcomes) + [
            ("rng generators whose state != counted draws", run.mismatched, 0),
        ]
        print(f"{run.wl.name} seed {seed}: {len(run.references)} traced passes "
              f"({len(run.layer_outcomes)} in-process layer passes); spans written to "
              f"{trace_path.relative_to(ROOT)}")
        print(f"instrumentation completeness ({run.audited} rng generators audited):")
        for what, got, want in checks:
            print(f"  {'ok ' if got == want else 'BAD'} {what}: traced {got}, exact {want}")
        incomplete |= run.audited == 0 or any(got != want for _, got, want in checks)
    if incomplete:
        sys.exit("error: traced counts do not match the results; a layer binding "
                 "was not wrapped")

    def metrics_of(run):
        failed_checks = sum(o.counts.get("failed_checks", 0) for o in run.layer_outcomes)
        return layers.layer_metrics(run.tracer, len(run.layer_outcomes), failed_checks,
                                    wl.threads)

    m = metrics_of(main)
    for run in loops[1:]:
        # Only the layers the workload itself leaves untouched come from
        # the companion, so its rng/bitmodel/core calls do not mix in.
        m.update({k: v for k, v in metrics_of(run).items()
                  if k.startswith(layers.COMPANION_LAYERS)})
    m["tracing.overhead_s"] = statistics.median(main.overheads)
    m["tracing.overhead_frac"] = statistics.median(main.fractions)
    if wl.dense_u32_per_gen is not None:
        holds = m["rng.u32_per_gen"] == wl.dense_u32_per_gen
        print(f"dense-sampler identity rng.u32_per_gen == lambda*n + 2*lambda "
              f"({wl.dense_u32_per_gen}): {'holds' if holds else 'does not hold'}"
              " (informational; a sparse sampler changes it)")
        run_s = m["core.us_per_gen"] * m["core.generations"] * 1e-6
        print(f"self-time split of core.run ({run_s:.4g} s per layer pass):")
        for part, sec in layers.generation_split(m):
            print(f"  {part:<20} {sec:10.4g} s {100 * sec / run_s:6.1f}%")
        share = m["rng.busy_s"] + m["bitmodel.sample_self_s"] + m["bitmodel.freqvec_s"]
        print(f"  rng + bitmodel share: {100 * share / run_s:.1f}%")
    units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    for name in units:
        print(f"  {name:<55} {m[name]:14.6g} {units[name]}")
    done = [o for run in loops for o in run.references + run.outcomes]
    attempted = sum(o.attempted for o in done)
    failed = sum(o.failed for o in done)
    print(f"  error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for run in loops:
        print(golden_line(run.wl, seed,
                          [o.record for o in run.references[: run.wl.golden_passes]]))
    emit(failed == 0, attempted, failed, m, units)


def projection(results: dict) -> None:
    """Paper-sweep CPU hours, per-run CPU interpolated linearly in lambda."""
    from workloads import RunLam20, SweepLam300

    lo = results[RunLam20.name]["cpu_s"]["value"]
    hi = results[SweepLam300.name]["cpu_s"]["value"] / SweepLam300.runs_per_pass
    lam_lo, lam_hi = RunLam20.lam, SweepLam300.lam
    per_run = [lo + (hi - lo) * (lam - lam_lo) / (lam_hi - lam_lo) for lam in PAPER_LAMBDAS]
    cpu_h = PAPER_RUNS * sum(per_run) / 3600.0
    print(f"paper_sweep_cpu_h (projection, not a gated metric): {cpu_h:.4g} CPU-h "
          f"= {cpu_h / 24:.3g} CPU-days")
    print(f"  = {PAPER_RUNS} runs x sum over lambda in 14..350 step 2 "
          f"({len(PAPER_LAMBDAS)} values) of c(lambda) / 3600, "
          f"c(lambda) = c20 + (c300 - c20) (lambda - 20) / 280, "
          f"c20 = {lo:.4g} s, c300 = {hi:.4g} s per run")


def run_all(seed, seconds) -> int:
    from workloads import WORKLOADS, RunLam20, SweepLam300

    results, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                status = proc.returncode
            elif trace == 0:
                results[name] = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    if {RunLam20.name, SweepLam300.name} <= results.keys():
        projection(results)
    return status


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    wl_cls = WORKLOADS[args.workload]
    modules = ["umda.verification"] if args.trace else wl_cls.modules
    umda = import_umda(modules)
    wl = wl_cls(umda, args.seed, len(os.sched_getaffinity(0)))
    if args.trace:
        traced(wl, args.seed, args.seconds, spec, umda)
    else:
        end_to_end(wl, wl_cls, args.seed, args.seconds, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
