"""Which public functions of each umda layer are traced, and how the
per-layer metrics are derived from the recorded spans and counters."""

from __future__ import annotations

import numpy as np

from tracer import BOOKKEEPING, Tracer

#: The verification checks in the order ``verification.run_all_checks`` runs
#: them, each with the name its ``CheckResult`` carries.  Their spans are
#: named ``verification.<function>``.
VERIFY_CHECKS = {
    "check_capped_binomial_bound": "capped_binomial_expectation_bound",
    "check_pmf_properties": "poisson_binomial_pmf_properties",
    "check_chunk_property": "poisson_binomial_chunk_probability",
    "check_decomposition_invariants": "level_decomposition_invariants",
    "check_dominance": "selection_dominance_over_binomial",
    "check_drift_sign": "positive_one_step_drift",
}

RNG_SPANS = ("rng.next_u32_block", "rng.next_u64_block", "rng.next_u32")

#: Metric prefixes of the layers that only the verify suite exercises; a
#: workload's traced pass takes these from its companion verify pass.
COMPANION_LAYERS = ("levels.", "oracles.", "verification.")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def install(tracer: Tracer, umda) -> None:
    """Wrap the traced functions of every layer module of ``umda``."""
    c = tracer.counters

    def u32_block(args, kwargs):
        count = _arg(args, kwargs, 1, "count")
        if count > 0:
            tracer.note_draws(args[0], count)
            c["rng.u32"] += count

    def u32_scalar(args, kwargs):
        tracer.note_draws(args[0], 1)
        c["rng.u32_scalar"] += 1

    drawn_before = [0]

    def sampling(args, kwargs):
        drawn_before[0] = c["rng.u32"] + c["rng.u32_scalar"]

    def sampled(args, kwargs, pop):
        p = _arg(args, kwargs, 0, "p")
        v = p.values
        interior = np.count_nonzero((v > p.lower_limit) & (v < p.upper_limit))
        c["bitmodel.rows"] += len(pop)
        c["bitmodel.draws"] += c["rng.u32"] + c["rng.u32_scalar"] - drawn_before[0]
        c["bitmodel.interior_draws"] += len(pop) * int(interior)

    def updated(args, kwargs, upd):
        c["core.lower_hits"] += int(np.count_nonzero(upd.lower_hits))
        c["core.upper_hits"] += int(np.count_nonzero(upd.upper_hits))

    def ran(args, kwargs, result):
        c["core.runs"] += 1
        c["core.generations"] += result.generations

    def focal(args, kwargs, result):
        c["levels.focal_trials"] += len(result)

    def pmf(args, kwargs, table):
        m = table.probabilities.size
        c["oracles.pmf_ops"] += m * (m + 3) // 2

    rng_cls = umda.rng.Pcg32
    fv_cls = umda.bitmodel.FrequencyVector
    targets = [
        (rng_cls, "next_u32_block", "rng.next_u32_block", {"before": u32_block}),
        (rng_cls, "next_u64_block", "rng.next_u64_block", {}),
        (rng_cls, "next_u32", "rng.next_u32", {"before": u32_scalar}),
        (fv_cls, "__post_init__", "bitmodel.FrequencyVector.__post_init__", {}),
        (umda.bitmodel, "sample_population", "bitmodel.sample_population",
         {"before": sampling, "after": sampled, "bookkeeping": True}),
        (umda.core, "run", "core.run", {"after": ran}),
        (umda.core, "select_mu_best", "core.select_mu_best", {}),
        (umda.core, "update_frequencies", "core.update_frequencies",
         {"after": updated, "bookkeeping": True}),
        (umda.telemetry, "record_generation", "telemetry.record_generation", {}),
        (umda.levels, "decompose", "levels.decompose", {}),
        (umda.levels, "focal_one_counts", "levels.focal_one_counts", {"after": focal}),
        (umda.oracles, "poisson_binomial_pmf", "oracles.poisson_binomial_pmf", {"after": pmf}),
        (umda.oracles, "empirical_step_drift", "oracles.empirical_step_drift", {}),
        (umda.experiments, "run_sweep", "experiments.run_sweep", {}),
    ]
    targets += [
        (umda.verification, name, f"verification.{name}", {}) for name in VERIFY_CHECKS
    ]
    tracer.install("umda", targets)


def layer_metrics(
    tracer: Tracer, layer_passes: int, failed_checks: int, threads: int
) -> dict[str, float]:
    """Per-layer metrics; extensive ones are per pass that exercised the layers."""
    s = tracer.summarize()
    c = tracer.counters
    P = max(layer_passes, 1)

    def count(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return s.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    u32 = c["rng.u32"]
    samples = count("bitmodel.sample_population")
    gens = c["core.generations"]
    sweep = tracer.durations("experiments.run_sweep", "pass.traced")
    serial = tracer.durations("experiments.run_sweep", "pass.serial")
    sweep_s = float(np.mean(sweep)) if sweep else 0.0
    serial_s = float(np.mean(serial)) if serial else 0.0
    m = {
        "rng.busy_s": sum(own(n) for n in RNG_SPANS) / P,
        "rng.ns_per_u32": ratio(total("rng.next_u32_block") * 1e9, u32),
        "rng.block_calls": count("rng.next_u32_block") / P,
        "rng.block_u32_mean": ratio(u32, count("rng.next_u32_block")),
        "rng.u32_per_gen": ratio(u32 + c["rng.u32_scalar"], samples),
        "bitmodel.sample_self_s": own("bitmodel.sample_population") / P,
        "bitmodel.sample_calls": samples / P,
        "bitmodel.freqvec_s": own("bitmodel.FrequencyVector.__post_init__") / P,
        "bitmodel.freqvec_calls": count("bitmodel.FrequencyVector.__post_init__") / P,
        "bitmodel.interior_frac": ratio(c["bitmodel.interior_draws"], c["bitmodel.draws"]),
        "core.generations": gens / P,
        "core.us_per_gen": ratio(total("core.run") * 1e6, gens),
        "core.select_s": own("core.select_mu_best") / P,
        "core.update_s": own("core.update_frequencies") / P,
        "core.run_self_s": own("core.run") / P,
        "core.lower_hits": c["core.lower_hits"] / P,
        "core.upper_hits": c["core.upper_hits"] / P,
        "telemetry.records": count("telemetry.record_generation") / P,
        "telemetry.record_s": own("telemetry.record_generation") / P,
        "levels.decompose_calls": count("levels.decompose") / P,
        "levels.decompose_s": total("levels.decompose") / P,
        "levels.focal_trials": c["levels.focal_trials"] / P,
        "levels.focal_self_s": own("levels.focal_one_counts") / P,
        "oracles.pmf_calls": count("oracles.poisson_binomial_pmf") / P,
        "oracles.pmf_ops": c["oracles.pmf_ops"] / P,
        "oracles.pmf_s": total("oracles.poisson_binomial_pmf") / P,
        "oracles.drift_s": total("oracles.empirical_step_drift") / P,
        "verification.checks_failed": failed_checks / P,
        "experiments.sweep_s": sweep_s,
        "experiments.serial_s": serial_s,
        "experiments.pool_efficiency": ratio(serial_s, threads * sweep_s),
        "experiments.dispatch_s": sweep_s - serial_s / threads if sweep else 0.0,
        "tracing.bookkeeping_s": total(BOOKKEEPING) / P,
    }
    for fn, result_name in VERIFY_CHECKS.items():
        m[f"verification.check_s.{result_name}"] = total(f"verification.{fn}") / P
    return m


def generation_split(m: dict[str, float]) -> list[tuple[str, float]]:
    """Self-time partition of ``core.run`` time per pass, largest first."""
    parts = [
        ("rng", m["rng.busy_s"]),
        ("bitmodel.sample", m["bitmodel.sample_self_s"]),
        ("bitmodel.freqvec", m["bitmodel.freqvec_s"]),
        ("core.select", m["core.select_s"]),
        ("core.update", m["core.update_s"]),
        ("telemetry.record", m["telemetry.record_s"]),
        ("core.run loop", m["core.run_self_s"]),
        ("tracing.bookkeeping", m["tracing.bookkeeping_s"]),
    ]
    return sorted(parts, key=lambda kv: -kv[1])
