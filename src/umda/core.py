"""The UMDA generation loop and run-to-optimum driver.

One generation: sample lambda offspring from the frequency vector, keep the
mu fittest (ties broken uniformly at random via fresh 64-bit keys), set each
frequency to the relative occurrence of 1s among the kept individuals, and
cap into [1/n, 1 - 1/n] when borders are on.  Without borders (the UMDA*
variant) a frequency that reaches 0 or 1 can never change again; a run is
declared stagnated as soon as some frequency is absorbed at 0, which makes
the all-ones optimum unsampleable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .bitmodel import FrequencyVector, Population, sample_population
from .rng import Pcg32
from .telemetry import RunTelemetry, record_generation

Verdict = Literal["optimum_found", "stagnated", "budget_exhausted"]

#: Generation budget when the config leaves max_generations unset,
#: comfortably above the O(n) generation regime at desk scale.
DEFAULT_BUDGET_PER_BIT = 200


@dataclass
class UmdaConfig:
    """Parameters of one run; (master_seed, run_index) pins the randomness."""

    n: int
    mu: int
    lam: int
    borders: bool = True
    max_generations: int | None = None
    master_seed: int = 0
    run_index: int = 0
    record_telemetry: bool = True
    #: When > 0, snapshot the full frequency vector every k generations.
    trajectory_every: int = 0

    def __post_init__(self):
        if not 1 <= self.mu < self.lam:
            raise ValueError(f"need 1 <= mu < lambda, got mu={self.mu} lambda={self.lam}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.borders and self.n < 2:
            raise ValueError("borders [1/n, 1 - 1/n] need n >= 2")

    @property
    def budget(self) -> int:
        if self.max_generations is not None:
            return self.max_generations
        return DEFAULT_BUDGET_PER_BIT * self.n

    def make_rng(self) -> Pcg32:
        return Pcg32(self.master_seed, self.run_index)


class UpdateResult(NamedTuple):
    frequencies: FrequencyVector
    lower_hits: np.ndarray  # bool mask: raw value strictly below 1/n
    upper_hits: np.ndarray  # bool mask: raw value strictly above 1 - 1/n


class StepResult(NamedTuple):
    population: Population  # the lambda sampled offspring
    selected: Population    # the mu kept for the update
    update: UpdateResult


@dataclass
class RunResult:
    """Outcome of a run: verdict, runtime accounting, telemetry."""

    verdict: Verdict
    generations: int          # 1-indexed generation count executed
    evaluations: int          # lambda * generations
    telemetry: RunTelemetry
    final_frequencies: FrequencyVector


def select_mu_best(pop: Population, mu: int, rng: Pcg32) -> Population:
    """The mu fittest individuals, ties broken uniformly at random.

    Sorts on (fitness descending, fresh uniform 64-bit key), so within the
    fitness class at the cutoff every subset of the required size is equally
    likely.  With all fitness values distinct the result is the exact top-mu
    set regardless of the keys.
    """
    if mu > len(pop):
        raise ValueError(f"mu={mu} exceeds population size {len(pop)}")
    keys = rng.next_u64_block(len(pop))
    order = np.lexsort((keys, -pop.fitness))
    chosen = order[:mu]
    return Population(bits=pop.bits[chosen], fitness=pop.fitness[chosen])


def update_frequencies(
    selected: Population, mu: int, borders: bool, n: int
) -> UpdateResult:
    """Set each frequency to (ones at the position among selected) / mu.

    Border hits are detected on the raw counts with exact integer
    comparisons (count * n < mu, count * n > mu * (n - 1)) before capping.
    """
    if len(selected) != mu:
        raise ValueError(f"expected exactly mu={mu} individuals, got {len(selected)}")
    counts = selected.bits.sum(axis=0, dtype=np.int64)
    lower_hits = counts * n < mu
    upper_hits = counts * n > mu * (n - 1)
    values = counts / mu
    if borders:
        np.clip(values, 1.0 / n, 1.0 - 1.0 / n, out=values)
    return UpdateResult(FrequencyVector(values, borders, n), lower_hits, upper_hits)


def step(p: FrequencyVector, mu: int, lam: int, rng: Pcg32) -> StepResult:
    """One generation from ``p``: sample lam offspring, keep the mu best, and
    update the frequencies, with the borders and n of ``p``.

    This is the only place the three stages are chained; the run loop, the
    level decomposition and the one-step oracles all go through it.
    """
    pop = sample_population(p, lam, rng)
    selected = select_mu_best(pop, mu, rng)
    return StepResult(pop, selected, update_frequencies(selected, mu, p.borders, p.n))


def run(cfg: UmdaConfig) -> RunResult:
    """Iterate generations until the optimum is sampled, the model stagnates
    (borderless mode only), or the generation budget runs out.

    The verdict generation T is the first whose sampled population contains
    the optimum; evaluations = lambda * T.  The generation's selection and
    update still complete, so telemetry covers every generation executed.
    """
    rng = cfg.make_rng()
    p = FrequencyVector.uniform(cfg.n, cfg.borders)
    telemetry = RunTelemetry()
    if cfg.trajectory_every > 0:
        telemetry.trajectory.append((0, p.values.copy()))
    verdict: Verdict = "budget_exhausted"
    t = 0
    for t in range(1, cfg.budget + 1):
        pop, _, upd = step(p, cfg.mu, cfg.lam, rng)
        p = upd.frequencies
        telemetry.total_lower_border_hits += int(np.count_nonzero(upd.lower_hits))
        telemetry.total_upper_border_hits += int(np.count_nonzero(upd.upper_hits))
        if cfg.record_telemetry:
            telemetry.per_generation.append(
                record_generation(p, upd.lower_hits, upd.upper_hits, pop, t)
            )
        if cfg.trajectory_every > 0 and t % cfg.trajectory_every == 0:
            telemetry.trajectory.append((t, p.values.copy()))
        if int(pop.fitness.max()) == cfg.n:
            verdict = "optimum_found"
            break
        if not cfg.borders and np.any(p.values == 0.0):
            verdict = "stagnated"
            break
    return RunResult(
        verdict=verdict,
        generations=t,
        evaluations=cfg.lam * t,
        telemetry=telemetry,
        final_frequencies=p,
    )
