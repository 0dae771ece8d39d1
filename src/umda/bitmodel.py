"""Bit strings, OneMax fitness, frequency vectors, and population sampling.

A population is a read-only bool matrix, one row per individual, whose row
sums are the OneMax fitness; the sampler draws one u32 per bit from the run's
PCG32 stream in row-major order, so a population equals the same number of
individually sampled bit strings.  The draws are compared in row blocks of at
most BLOCK_DRAWS, so no generation holds all lam*n of them at once; the last
block's generator call also draws the caller's ``tail`` words that follow the
population in the stream (the selection keys).

A vector carries the uint32 thresholds the sampler compares against, formed
by its one checked constructor.  Inside a run every frequency is a capped
k/mu, so ``level_table`` builds the mu + 1 possible values once as such a
vector, and each update gathers its vector from that table with ``take``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rng import CHUNK, Pcg32, TWO_POW_32

#: Most draws compared per block of rows: a 256 kB uint32 temporary.  A
#: population of lam*n <= BLOCK_DRAWS draws is sampled in one block, and a
#: row longer than it is a block of its own.
BLOCK_DRAWS = 4 * CHUNK

#: The largest p whose threshold ceil(p * 2^32) fits in uint32.
ONE_BELOW = 1 - 1 / TWO_POW_32


@dataclass(frozen=True)
class FrequencyVector:
    """The probabilistic model: per-position probabilities of sampling a 1.

    With ``borders=True`` every value is confined to [1/n, 1 - 1/n]; without
    borders values may reach the absorbing states 0 and 1.  ``thresholds``
    holds the sampler's uint32 thresholds ceil(p_i * 2^32), clamped at
    2^32 - 1.
    """

    values: np.ndarray
    borders: bool
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a private copy: the caller's array is neither frozen nor aliased
        values = np.array(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"expected a non-empty 1-d array, got shape {values.shape}")
        lo, hi = self.lower_limit, self.upper_limit
        # min() and max() are NaN when any value is, which fails both tests
        if not (values.min() >= lo and values.max() <= hi):
            raise ValueError(f"frequencies outside [{lo}, {hi}]")
        threshold = np.minimum(np.ceil(values * TWO_POW_32), TWO_POW_32 - 1)
        self._freeze(values, threshold.astype(np.uint32))

    def _freeze(self, values: np.ndarray, thresholds: np.ndarray) -> None:
        for name, array in (("values", values), ("thresholds", thresholds)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def take(self, index: np.ndarray, borders: bool) -> "FrequencyVector":
        """The vector of values[index] and their thresholds, with ``borders``.
        It is not checked again: its values are this checked vector's."""
        p = object.__new__(FrequencyVector)
        object.__setattr__(p, "borders", borders)
        p._freeze(self.values.take(index), self.thresholds.take(index))
        return p

    @classmethod
    def uniform(cls, n: int, borders: bool = True) -> "FrequencyVector":
        """The starting model: every frequency at 1/2."""
        return cls(np.full(n, 0.5), borders)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def lower_limit(self) -> float:
        return 1.0 / self.n if self.borders else 0.0

    @property
    def upper_limit(self) -> float:
        return 1.0 - 1.0 / self.n if self.borders else 1.0


@lru_cache(maxsize=64)
def level_table(n: int, mu: int, borders: bool) -> FrequencyVector:
    """The mu + 1 frequencies a run's update can set, indexed by one-count,
    built once per (n, mu, borders) in a process.  Level k applies the float
    operations of counts / mu and the caps, so it equals that value bit for
    bit; the levels are a borderless vector, checked by its constructor."""
    values = np.arange(mu + 1) / mu
    if borders:
        if n < 2:
            raise ValueError("borders [1/n, 1 - 1/n] need n >= 2")
        np.maximum(values, 1.0 / n, out=values)
        np.minimum(values, 1.0 - 1.0 / n, out=values)
    return FrequencyVector(values, borders=False)


def sample_population(
    p: FrequencyVector, lam: int, rng: Pcg32, tail: np.ndarray | None = None
) -> np.ndarray:
    """Sample ``lam`` independent individuals from the product distribution,
    as a read-only bool matrix of shape (lam, n).

    Bit (j, i) is 1 iff draw u_{j*n+i} / 2^32 < p_i, consuming lam*n
    consecutive u32 values from ``rng`` in blocks of whole rows, at most
    BLOCK_DRAWS draws or one row each.  For an integer u that is
    u < ceil(p_i * 2^32), compared in uint32 with ``p.thresholds``; a
    threshold of 2^32, which p_i > 1 - 2^-32 without borders gives, does not
    fit and makes its column all ones.  A uint32 ``tail`` array is filled
    with the tail.size draws that follow the population, drawn by the last
    block's generator call.
    """
    if lam < 1:
        raise ValueError(f"population size must be >= 1, got {lam}")
    n = p.n
    extra = 0 if tail is None else tail.size
    bits = np.empty((lam, n), dtype=bool)
    rows = max(1, BLOCK_DRAWS // n)
    for j in range(0, lam, rows):
        block = bits[j : j + rows]
        last = j + rows >= lam
        draws = rng.next_u32_block(block.size + (extra if last else 0))
        np.less(draws[: block.size].reshape(block.shape), p.thresholds, out=block)
        if last and extra:
            tail[:] = draws[block.size :]
        # freed before the next block is drawn, so that block reuses its pages
        del draws
    # with borders every p_i <= 1 - 1/n, so only a borderless column is all ones
    if not p.borders and p.values.max() > ONE_BELOW:
        bits[:, p.values > ONE_BELOW] = True
    bits.flags.writeable = False
    return bits


def count_ones(bits: np.ndarray, axis: int) -> np.ndarray:
    """Ones along ``axis``, summed as uint8 into the smallest dtype that holds the axis length."""
    return bits.view(np.uint8).sum(axis=axis, dtype=np.min_scalar_type(bits.shape[axis]))
