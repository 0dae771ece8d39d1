"""Bit strings, OneMax fitness, frequency vectors, and population sampling.

A population is a read-only bool matrix, one row per individual, whose row
sums are the OneMax fitness; the sampler draws one u32 per bit from the run's
PCG32 stream in row-major order, so a population equals the same number of
individually sampled bit strings.  The draws are compared in row blocks of at
most BLOCK_DRAWS, so no generation holds all lam*n of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import CHUNK, Pcg32, TWO_POW_32

#: Most draws compared per block of rows: a 256 kB uint32 temporary.  A
#: population of lam*n <= BLOCK_DRAWS draws is sampled in one block, and a
#: row longer than it is a block of its own.
BLOCK_DRAWS = 4 * CHUNK


@dataclass(frozen=True)
class FrequencyVector:
    """The probabilistic model: per-position probabilities of sampling a 1.

    With ``borders=True`` every value is confined to [1/n, 1 - 1/n]; without
    borders values may reach the absorbing states 0 and 1.
    """

    values: np.ndarray
    borders: bool

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
        values.flags.writeable = False

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


def sample_population(p: FrequencyVector, lam: int, rng: Pcg32) -> np.ndarray:
    """Sample ``lam`` independent individuals from the product distribution,
    as a read-only bool matrix of shape (lam, n).

    Bit (j, i) is 1 iff draw u_{j*n+i} / 2^32 < p_i, consuming lam*n
    consecutive u32 values from ``rng`` in blocks of whole rows, at most
    BLOCK_DRAWS draws or one row each.  For an integer u that is
    u < ceil(p_i * 2^32), compared in uint32; a threshold of 2^32, which
    p_i = 1 without borders gives, does not fit and makes its column all ones.
    """
    if lam < 1:
        raise ValueError(f"population size must be >= 1, got {lam}")
    n = p.n
    threshold = np.ceil(p.values * TWO_POW_32)
    below = np.minimum(threshold, TWO_POW_32 - 1).astype(np.uint32)
    bits = np.empty((lam, n), dtype=bool)
    rows = max(1, BLOCK_DRAWS // n)
    for j in range(0, lam, rows):
        block = bits[j : j + rows]
        np.less(rng.next_u32_block(block.size).reshape(block.shape), below, out=block)
    if threshold.max() == TWO_POW_32:
        bits[:, threshold == TWO_POW_32] = True
    bits.flags.writeable = False
    return bits


def count_ones(bits: np.ndarray, axis: int) -> np.ndarray:
    """Ones along ``axis``, summed as uint8 into the smallest dtype that holds the axis length."""
    return bits.view(np.uint8).sum(axis=axis, dtype=np.min_scalar_type(bits.shape[axis]))
