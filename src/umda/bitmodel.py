"""Bit strings, OneMax fitness, frequency vectors, and population sampling.

Populations are stored as a boolean matrix (one row per individual) with a
cached fitness vector; the sampler draws one u32 per bit from the run's PCG32
stream in row-major order, so a population equals the same number of
individually sampled bit strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Pcg32, TWO_POW_32


def onemax(x) -> int:
    """Number of 1-bits in x."""
    return int(np.count_nonzero(np.asarray(x)))


@dataclass(frozen=True)
class FrequencyVector:
    """The probabilistic model: per-position probabilities of sampling a 1.

    With ``borders=True`` every value is confined to [1/n, 1 - 1/n]; without
    borders values may reach the absorbing states 0 and 1.
    """

    values: np.ndarray
    borders: bool
    n: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (self.n,):
            raise ValueError(f"expected {self.n} frequencies, got {values.shape}")
        if self.borders:
            lo, hi = 1.0 / self.n, 1.0 - 1.0 / self.n
            if np.any(values < lo) or np.any(values > hi):
                raise ValueError("frequencies outside [1/n, 1 - 1/n]")
        elif np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("frequencies outside [0, 1]")
        values.flags.writeable = False

    @classmethod
    def uniform(cls, n: int, borders: bool = True) -> "FrequencyVector":
        """The starting model: every frequency at 1/2."""
        return cls(np.full(n, 0.5), borders, n)

    @property
    def lower_limit(self) -> float:
        return 1.0 / self.n if self.borders else 0.0

    @property
    def upper_limit(self) -> float:
        return 1.0 - 1.0 / self.n if self.borders else 1.0


@dataclass(frozen=True)
class Population:
    """Offspring of one generation: bit matrix plus cached fitness vector."""

    bits: np.ndarray      # bool, shape (lambda, n)
    fitness: np.ndarray   # int64, shape (lambda,)

    def __post_init__(self):
        self.bits.flags.writeable = False
        self.fitness.flags.writeable = False

    def __len__(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]


def sample_population(p: FrequencyVector, lam: int, rng: Pcg32) -> Population:
    """Sample ``lam`` independent individuals from the product distribution.

    Bit (j, i) is 1 iff draw u_{j*n+i} / 2^32 < p_i, consuming lam*n
    consecutive u32 values from ``rng``.
    """
    if lam < 1:
        raise ValueError(f"population size must be >= 1, got {lam}")
    u = rng.next_u32_block(lam * p.n).reshape(lam, p.n)
    bits = u < p.values * TWO_POW_32
    return Population(bits=bits, fitness=bits.sum(axis=1, dtype=np.int64))
