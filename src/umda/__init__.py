"""UMDA/UMDA* simulator on OneMax with exact probabilistic oracles.

Modules
-------
rng           deterministic PCG32 generation (scalar and vectorized blocks), stream ids
bitmodel      frequency vectors, sampling to a read-only bit matrix, one-counts
core          sample_and_select -> bits, fitness, one-counts -> update_frequencies; run driver
telemetry     per-generation sampling variance / potential / border hits
levels        ranking by all-but-one bits: cut level, candidates, classes
oracles       exact Poisson-binomial and capped-binomial computations
experiments   batch driver, sweeps, scaling studies, phase probes, CSV emission
verification  oracle-backed check suite behind the `verify` CLI subcommand
"""

from .bitmodel import FrequencyVector, sample_population
from .core import (
    RunResult,
    UmdaConfig,
    run,
    sample_and_select,
    select_mu_best,
    update_frequencies,
)
from .rng import Pcg32
from .telemetry import GenerationStats, RunTelemetry, potential, sampling_variance

__all__ = [
    "FrequencyVector",
    "GenerationStats",
    "Pcg32",
    "RunResult",
    "RunTelemetry",
    "UmdaConfig",
    "potential",
    "run",
    "sample_and_select",
    "sample_population",
    "sampling_variance",
    "select_mu_best",
    "update_frequencies",
]
