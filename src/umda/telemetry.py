"""Per-generation measurement of the model's analytical quantities.

Two scalars drive the runtime analysis: the sampling variance
sum_i p_i (1 - p_i) of an offspring's fitness, and the potential
n - 1 - sum_i p_i, the total distance of the frequencies from the upper
border.  Border hits count raw updates that fell strictly outside
[1/n, 1 - 1/n] before capping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitmodel import FrequencyVector


def sampling_variance(p: FrequencyVector) -> float:
    """sum_i p_i (1 - p_i): variance of one offspring's fitness."""
    v = p.values
    return float(np.sum(v * (1.0 - v)))


def potential(p: FrequencyVector) -> float:
    """n - 1 - sum_i p_i: zero when every frequency sits at 1 - 1/n."""
    return float(p.n - 1 - np.sum(p.values))


@dataclass(frozen=True)
class GenerationStats:
    """Telemetry record for one generation (after the frequency update)."""

    sampling_variance: float
    potential: float
    lower_border_hits: int
    upper_border_hits: int
    min_frequency: float
    max_frequency: float
    at_lower_border: int
    at_upper_border: int
    best_fitness: int


@dataclass
class RunTelemetry:
    """Accumulated per-run telemetry.  The totals cover every generation and
    equal the record sums when records are kept (``record_telemetry``)."""

    per_generation: list[GenerationStats] = field(default_factory=list)
    total_lower_border_hits: int = 0
    total_upper_border_hits: int = 0


def record_generation(
    p_next: FrequencyVector, lower_hits: int, upper_hits: int, best_fitness: int
) -> GenerationStats:
    """The record of one generation from its updated vector and counts; O(n)."""
    v = p_next.values
    return GenerationStats(
        sampling_variance=sampling_variance(p_next),
        potential=potential(p_next),
        lower_border_hits=lower_hits,
        upper_border_hits=upper_hits,
        min_frequency=float(v.min()),
        max_frequency=float(v.max()),
        at_lower_border=int(np.count_nonzero(v == p_next.lower_limit)),
        at_upper_border=int(np.count_nonzero(v == p_next.upper_limit)),
        best_fitness=best_fitness,
    )
