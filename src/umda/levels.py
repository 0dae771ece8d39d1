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

from .bitmodel import FrequencyVector, count_ones
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


def decompose(bits: np.ndarray, mu: int, focal_bit: int) -> LevelDecomposition:
    """Rank the rows of ``bits`` by fitness-without-the-focal-bit and locate the cut."""
    lam, n = bits.shape
    if lam <= mu:
        raise ValueError(f"need lambda > mu, got lambda={lam} mu={mu}")
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
    levels = count_ones(bits, axis=1) - bits[:, focal_bit]  # >= 0: the count includes it
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
    x_t: int,
    trials: int,
    rng: Pcg32,
) -> np.ndarray:
    """Samples of X_{t+1} given X_t = x_t: the ones at position 0 among the
    mu selected, one independent ``sample_and_select`` per trial, no update.

    Position 0 of a copy of ``p`` is pinned to x_t / mu and the others keep
    their values; on OneMax the positions are exchangeable, so position 0
    stands for any.  The dominance and drift checks examine this output.
    """
    if not 0 <= x_t <= mu:
        raise ValueError(f"need 0 <= x_t <= mu, got x_t={x_t} mu={mu}")
    values = p.values.copy()
    values[0] = x_t / mu
    pinned = FrequencyVector(values, p.borders)
    out = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        out[i] = sample_and_select(pinned, mu, lam, rng)[2][0]
    return out
