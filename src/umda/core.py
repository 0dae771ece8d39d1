"""The UMDA generation kernel and run-to-optimum driver.

One generation in two halves: ``sample_and_select`` samples lambda offspring,
keeps the mu fittest (ties broken uniformly at random by 64-bit keys) and
counts the ones at each position among them; ``update_frequencies``, which
draws nothing, sets each frequency to its count over mu, capped into
[1/n, 1 - 1/n] when borders are on.  A generation makes one generator call
per row block of the population, and the last one also draws the 2*lambda
key words that follow the population in the stream.  The update gathers the
next model and its sampling thresholds from ``level_table(n, mu, borders)``,
a vector the checked constructor built once, so a generation forms no float
threshold and checks no range.  Without borders (the UMDA* variant) a
frequency that reaches 0 or 1 can never change again; a run is declared
stagnated as soon as some frequency is absorbed at 0, making the all-ones
optimum unsampleable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .bitmodel import FrequencyVector, count_ones, level_table, sample_population
from .rng import Pcg32
from .telemetry import RunTelemetry, record_generation

Verdict = Literal["optimum_found", "stagnated", "budget_exhausted"]

#: Generation budget when the config leaves max_generations unset,
#: comfortably above the O(n) generation regime at desk scale.
DEFAULT_BUDGET_PER_BIT = 200

#: The largest lambda * n a run admits: one population's bool matrix, in bytes.
MAX_POPULATION_BYTES = 2**31


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

    def __post_init__(self):
        if not 1 <= self.mu < self.lam:
            raise ValueError(f"need 1 <= mu < lambda, got mu={self.mu} lambda={self.lam}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.borders and self.n < 2:
            raise ValueError("borders [1/n, 1 - 1/n] need n >= 2")
        if self.lam * self.n > MAX_POPULATION_BYTES:
            raise ValueError(f"need lam * n <= {MAX_POPULATION_BYTES}, got {self.lam} * {self.n}")
        if self.max_generations is not None and self.max_generations < 0:
            raise ValueError(f"max_generations must be >= 0, got {self.max_generations}")
        # Pcg32 keeps the low 64 bits of the seed and 63 bits of the stream
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if not 0 <= self.run_index < 1 << 63:
            raise ValueError(f"run_index must be in [0, 2**63), got {self.run_index}")

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


@dataclass
class RunResult:
    """Outcome of a run: verdict, runtime accounting, telemetry."""

    verdict: Verdict
    generations: int          # 1-indexed generation count executed
    evaluations: int          # lambda * generations
    telemetry: RunTelemetry
    final_frequencies: FrequencyVector


def select_mu_best(fitness: np.ndarray, mu: int, words: np.ndarray) -> np.ndarray:
    """Indices of the mu largest ``fitness`` values, ties broken uniformly at random.

    Row i's tie-break key is the 64-bit word pair (words[2i], words[2i+1]),
    high word first.  Sorts on (fitness descending, high word, low word), the
    order of the packed keys, so within the fitness class at the cutoff every
    subset of the required size is equally likely.  With all fitness values
    distinct the result is the exact top-mu set regardless of the keys.
    Negating in int64 keeps unsigned fitness exact.
    """
    if mu > fitness.size:
        raise ValueError(f"mu={mu} exceeds population size {fitness.size}")
    return np.lexsort((words[1::2], words[0::2], -fitness.astype(np.int64)))[:mu]


def update_frequencies(counts: np.ndarray, mu: int, borders: bool) -> UpdateResult:
    """Set each frequency to counts[i] / mu, capped into [1/n, 1 - 1/n] with
    borders, where counts[i] in [0, mu] is the number of ones at position i
    among the mu selected and n = counts.size.  The vector is gathered from
    ``level_table(n, mu, borders)``: a count above mu raises IndexError, a
    negative one ValueError.

    Border hits are exact integer tests on the raw counts before capping:
    count * n < mu is count < ceil(mu / n), and count * n > mu * (n - 1) is
    count > floor(mu * (n - 1) / n), so no count is widened to multiply.
    """
    if counts.dtype.kind != "u" and counts.min() < 0:
        raise ValueError(f"one-counts must be >= 0, got {counts.min()}")
    n = counts.size
    lower_hits = counts < -(-mu // n)
    upper_hits = counts > mu * (n - 1) // n
    index = counts.astype(np.intp)  # take() would cast a narrow index per gather
    return UpdateResult(level_table(n, mu, borders).take(index, borders), lower_hits, upper_hits)


def sample_and_select(
    p: FrequencyVector, mu: int, lam: int, rng: Pcg32
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first half of a generation: (bits, fitness, counts) of lam offspring
    sampled from ``p``, counts being the ones at each position among the mu
    best.  The 2*lam key words follow the population in the stream.  The only
    place fitness is formed and selected rows become counts.
    """
    words = np.empty(2 * lam, dtype=np.uint32)
    bits = sample_population(p, lam, rng, words)
    fitness = count_ones(bits, axis=1)
    return bits, fitness, count_ones(bits[select_mu_best(fitness, mu, words)], axis=0)


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
    verdict: Verdict = "budget_exhausted"
    t = 0
    for t in range(1, cfg.budget + 1):
        _, fitness, counts = sample_and_select(p, cfg.mu, cfg.lam, rng)
        upd = update_frequencies(counts, cfg.mu, cfg.borders)
        p = upd.frequencies
        lower = int(np.count_nonzero(upd.lower_hits))
        upper = int(np.count_nonzero(upd.upper_hits))
        best = int(fitness.max())
        telemetry.total_lower_border_hits += lower
        telemetry.total_upper_border_hits += upper
        if cfg.record_telemetry:
            telemetry.per_generation.append(record_generation(p, lower, upper, best))
        if best == cfg.n:
            verdict = "optimum_found"
            break
        if not cfg.borders and counts.min() == 0:
            verdict = "stagnated"
            break
    return RunResult(
        verdict=verdict,
        generations=t,
        evaluations=cfg.lam * t,
        telemetry=telemetry,
        final_frequencies=p,
    )
