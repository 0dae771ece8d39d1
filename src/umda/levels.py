"""Ranking of a sampled population by all bits except one focal position.

An individual's *level* is its fitness counted over the other n - 1 bits, so
sampling the focal bit can lift it by at most one level.  The cut level is
the topmost level such that strictly more than mu individuals lie in the
level below it or above; individuals strictly above the cut are selected no
matter what their focal bit is (1st class), while members of the level just
below the cut (the 2nd-class candidates) compete for the remaining slots and
are therefore biased toward a 1 at the focal position.

The decomposition is a pure observer: it recomputes the ranking from the raw
population and never influences the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmodel import FrequencyVector, Population
from .core import sample_and_select
from .rng import Pcg32


@dataclass(frozen=True)
class LevelDecomposition:
    """Level counts and selection-bias bookkeeping for one population."""

    level_counts: np.ndarray        # C_i for level i in [0, n-1]
    counts_at_or_above: np.ndarray  # sum of level_counts from level i up
    cut_level: int                  # topmost level with > mu strictly below-or-at-cut mass
    count_at_or_above_cut: int
    #: Selection slots left for the candidate level once every individual
    #: above the cut is taken; clamped at 0 in the degenerate top-level case.
    open_slots: int
    candidate_count: int            # individuals exactly one level below the cut
    #: counts_at_or_above[cut_level - 1] - mu; always >= 1 by definition of
    #: the cut, and equals candidate_count - open_slots outside degeneracy.
    surplus_candidates: int
    first_class_ids: np.ndarray     # row indices with level > cut_level
    candidate_ids: np.ndarray       # row indices at level cut_level - 1
    #: True when more than mu individuals sit at the top level (only then can
    #: the guarantee count_at_or_above_cut <= mu fail).
    degenerate: bool


def decompose(pop: Population, mu: int, focal_bit: int) -> LevelDecomposition:
    """Rank ``pop`` by fitness-without-the-focal-bit and locate the cut."""
    lam, n = pop.bits.shape
    if lam <= mu:
        raise ValueError(f"need lambda > mu, got lambda={lam} mu={mu}")
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
    levels = pop.fitness - pop.bits[:, focal_bit]
    level_counts = np.bincount(levels, minlength=n)
    at_or_above = np.cumsum(level_counts[::-1])[::-1]
    # cut = max{i : at_or_above[i-1] > mu}, capped at the top level n-1
    above_mu = np.nonzero(at_or_above > mu)[0]
    cut = min(int(above_mu[-1]) + 1, n - 1)
    count_above_cut = int(at_or_above[cut])
    return LevelDecomposition(
        level_counts=level_counts,
        counts_at_or_above=at_or_above,
        cut_level=cut,
        count_at_or_above_cut=count_above_cut,
        open_slots=max(0, mu - count_above_cut),
        candidate_count=int(level_counts[cut - 1]),
        surplus_candidates=int(at_or_above[cut - 1]) - mu,
        first_class_ids=np.nonzero(levels > cut)[0],
        candidate_ids=np.nonzero(levels == cut - 1)[0],
        degenerate=count_above_cut > mu,
    )


def focal_one_counts(
    p: FrequencyVector,
    mu: int,
    lam: int,
    focal_bit: int,
    trials: int,
    rng: Pcg32,
) -> np.ndarray:
    """Ones at the focal position among the mu selected, per single step.

    Each trial runs one independent ``sample_and_select`` from ``p``, with
    no update; the result is the next-generation one-count X_{t+1} whose
    distribution the dominance and drift checks examine.
    """
    out = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        out[i] = sample_and_select(p, mu, lam, rng)[1][focal_bit]
    return out
