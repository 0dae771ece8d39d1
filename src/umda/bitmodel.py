"""Bit strings, OneMax fitness, frequency vectors, and population sampling.

A population is a read-only bool matrix, one row per individual, whose row
sums are the OneMax fitness; the sampler draws one u32 per bit from the run's
PCG32 stream in row-major order, so a population equals the same number of
individually sampled bit strings.  The draws are compared in row blocks of at
most BLOCK_DRAWS, so no generation holds all lam*n of them at once; the last
block's generator call also draws the caller's ``tail`` words that follow the
population in the stream (the selection keys).

A vector carries the uint32 thresholds the sampler compares against.  Built
from outside, its values are checked and the thresholds formed from them;
inside a run every frequency is a capped k/mu, so ``level_table`` forms the
mu + 1 possible values and thresholds once, checked once, and each update
gathers its vector from that table by the integer counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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
    borders values may reach the absorbing states 0 and 1.  ``thresholds``
    holds the sampler's uint32 thresholds ceil(p_i * 2^32), clamped at
    2^32 - 1, and ``ones`` marks the columns sampled as all ones, whose
    threshold 2^32 does not fit (p_i = 1); None stands for no such column.
    """

    values: np.ndarray
    borders: bool
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)
    ones: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a private copy: the caller's array is neither frozen nor aliased
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"expected a non-empty 1-d array, got shape {values.shape}")
        _check_range(values, values.size, self.borders)
        thresholds, ones = _thresholds(values)
        self._freeze(values, thresholds, ones if ones.any() else None)

    def _freeze(self, values, thresholds, ones) -> None:
        for name, array in (("values", values), ("thresholds", thresholds), ("ones", ones)):
            if array is not None:
                array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def uniform(cls, n: int, borders: bool = True) -> "FrequencyVector":
        """The starting model: every frequency at 1/2."""
        return cls(np.full(n, 0.5), borders)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def lower_limit(self) -> float:
        return _limits(self.n, self.borders)[0]

    @property
    def upper_limit(self) -> float:
        return _limits(self.n, self.borders)[1]


def _limits(n: int, borders: bool) -> tuple[float, float]:
    return (1.0 / n, 1.0 - 1.0 / n) if borders else (0.0, 1.0)


def _check_range(values: np.ndarray, n: int, borders: bool) -> None:
    lo, hi = _limits(n, borders)
    # min() and max() are NaN when any value is, which fails both tests
    if not (values.min() >= lo and values.max() <= hi):
        raise ValueError(f"frequencies outside [{lo}, {hi}]")


def _thresholds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 thresholds ceil(v * 2^32) clamped at 2^32 - 1, and the mask
    of the values whose threshold 2^32 does not fit."""
    threshold = np.ceil(values * TWO_POW_32)
    return np.minimum(threshold, TWO_POW_32 - 1).astype(np.uint32), threshold == TWO_POW_32


class LevelTable(NamedTuple):
    """The mu + 1 frequencies a run's update can set, indexed by one-count:
    level k holds k/mu after the caps, its uint32 threshold and its all-ones
    flag (set only at k = mu without borders)."""

    values: np.ndarray
    thresholds: np.ndarray
    ones: np.ndarray
    borders: bool

    def vector(self, counts: np.ndarray) -> FrequencyVector:
        """The vector of the one-counts ``counts``, gathered from the levels,
        which were checked once when the table was built.  A count above mu
        raises IndexError; a negative one raises ValueError."""
        if counts.dtype.kind != "u" and counts.min() < 0:
            raise ValueError(f"one-counts must be >= 0, got {counts.min()}")
        index = counts.astype(np.intp)  # take() would cast a narrow index per call
        p = object.__new__(FrequencyVector)
        object.__setattr__(p, "borders", self.borders)
        # the levels rise with k, so only the top one can be flagged
        ones = index == self.ones.size - 1 if self.ones[-1] else None
        p._freeze(self.values.take(index), self.thresholds.take(index),
                  ones if ones is not None and ones.any() else None)
        return p


@lru_cache(maxsize=64)
def level_table(n: int, mu: int, borders: bool) -> LevelTable:
    """The table of (n, mu, borders), built once per process and range-checked
    once.  It applies the float operations of counts / mu and the caps to
    every k in 0..mu, so each level equals that value bit for bit."""
    values = np.arange(mu + 1) / mu
    if borders:
        np.maximum(values, 1.0 / n, out=values)
        np.minimum(values, 1.0 - 1.0 / n, out=values)
    _check_range(values, n, borders)
    thresholds, ones = _thresholds(values)
    for array in (values, thresholds, ones):
        array.flags.writeable = False
    return LevelTable(values, thresholds, ones, borders)


def sample_population(
    p: FrequencyVector, lam: int, rng: Pcg32, tail: np.ndarray | None = None
) -> np.ndarray:
    """Sample ``lam`` independent individuals from the product distribution,
    as a read-only bool matrix of shape (lam, n).

    Bit (j, i) is 1 iff draw u_{j*n+i} / 2^32 < p_i, consuming lam*n
    consecutive u32 values from ``rng`` in blocks of whole rows, at most
    BLOCK_DRAWS draws or one row each.  For an integer u that is
    u < ceil(p_i * 2^32), compared in uint32 with ``p.thresholds``; a
    threshold of 2^32, which p_i = 1 without borders gives, does not fit and
    makes its column all ones.  A uint32 ``tail`` array is filled with the
    tail.size draws that follow the population, drawn by the last block's
    generator call.
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
    if p.ones is not None:
        bits[:, p.ones] = True
    bits.flags.writeable = False
    return bits


def count_ones(bits: np.ndarray, axis: int) -> np.ndarray:
    """Ones along ``axis``, summed as uint8 into the smallest dtype that holds the axis length."""
    return bits.view(np.uint8).sum(axis=axis, dtype=np.min_scalar_type(bits.shape[axis]))
