"""Exact reference computations for the probabilistic machinery.

These oracles are independent of the simulator: the Poisson-binomial PMF is
built by direct O(m^2) convolution, capped-binomial expectations by exact
summation.  Monte Carlo helpers measure one-step selection effects (drift of
the focal one-count) against those exact baselines.

Asymptotic lower-bound claims are checked as frozen numeric floors: the
instance-wise constant is computed once over a calibration grid and the
observed minimum, rounded down, becomes a regression bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmodel import FrequencyVector
from .levels import focal_one_counts
from .rng import Pcg32


@dataclass(frozen=True)
class PmfTable:
    """Exact distribution of a sum of independent Bernoulli trials."""

    probabilities: np.ndarray  # p_1..p_m
    pmf: np.ndarray            # length m + 1
    mean: float                # sum p_i
    variance: float            # sum p_i (1 - p_i)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    def sf(self) -> np.ndarray:
        """Upper tail: sf[i] = P(X >= i), summed from the top for accuracy."""
        return np.cumsum(self.pmf[::-1])[::-1]


@dataclass(frozen=True)
class ChunkBounds:
    """Central chunk [k_lo, k_hi] cutting tail mass ell below and u above."""

    k_lo: int
    k_hi: int


def poisson_binomial_pmf(p) -> PmfTable:
    """Exact PMF of sum of Bernoulli(p_i) by iterative convolution."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("expected a 1-d probability sequence")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    m = p.size
    pmf = np.zeros(m + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        head = pmf[: i + 2]
        shifted = head[:-1] * pi
        head *= 1.0 - pi
        head[1:] += shifted
    return PmfTable(
        probabilities=p,
        pmf=pmf,
        mean=float(p.sum()),
        variance=float((p * (1.0 - p)).sum()),
    )


def chunk_bounds(table: PmfTable, ell: float, u: float) -> ChunkBounds:
    """k_lo = min{i : P(X <= i) >= ell}, k_hi = max{i : P(X >= i) >= u}."""
    if not (0.0 < ell < 1.0 and 0.0 < u < 1.0 and ell + u < 1.0):
        raise ValueError(f"need ell, u in (0,1) with ell + u < 1, got {ell}, {u}")
    k_lo = int(np.argmax(table.cdf() >= ell))
    sf = table.sf()
    k_hi = int(np.nonzero(sf >= u)[0][-1])
    return ChunkBounds(k_lo=k_lo, k_hi=k_hi)


def chunk_coverage(table: PmfTable, bounds: ChunkBounds) -> float:
    """P(k_lo <= X <= k_hi); at least 1 - ell - u by construction."""
    return float(table.pmf[bounds.k_lo : bounds.k_hi + 1].sum())


def verify_chunk_lower_bound(table: PmfTable, bounds: ChunkBounds) -> float:
    """min over the chunk of pmf(k) * max(1, sigma).

    A uniform positive floor for this quantity across instances witnesses
    that every chunk point carries probability on the order of 1/sigma.
    """
    chunk = table.pmf[bounds.k_lo : bounds.k_hi + 1]
    return float(chunk.min() * max(1.0, table.sigma))


def binomial_pmf(d: int, p: float) -> np.ndarray:
    """Exact Binomial(d, p) PMF via the same convolution oracle."""
    return poisson_binomial_pmf(np.full(d, p)).pmf


def expected_min_capped_binomial(c: int, d: int, p: float) -> float:
    """Exact E[min(c, X)] for X ~ Binomial(d, p)."""
    if not 1 <= c <= d:
        raise ValueError(f"need 1 <= c <= d, got c={c} d={d}")
    pmf = binomial_pmf(d, p)
    k = np.minimum(np.arange(d + 1), c)
    return float(np.dot(k, pmf))


def capped_binomial_lower_bound(c: int, d: int, p: float) -> float:
    """Closed-form floor c*p + p(1-p) min(c, d-c) / 4 for E[min(c, X)]."""
    if not 1 <= c <= d:
        raise ValueError(f"need 1 <= c <= d, got c={c} d={d}")
    return c * p + 0.25 * p * (1.0 - p) * min(c, d - c)


def empirical_step_drift(
    p: FrequencyVector,
    mu: int,
    lam: int,
    focal_bit: int,
    x_t: int,
    trials: int,
    rng: Pcg32,
) -> tuple[float, float]:
    """(mean, stderr) of X_{t+1} - X_t over single sample-and-select steps.

    The focal frequency is pinned to x_t / mu; all other positions keep the
    values from ``p``.  X_{t+1} counts ones at the focal position among the
    mu selected offspring.
    """
    if not 0 <= x_t <= mu:
        raise ValueError(f"need 0 <= x_t <= mu, got x_t={x_t} mu={mu}")
    values = p.values.copy()
    values[focal_bit] = x_t / mu
    pinned = FrequencyVector(values, p.borders)
    x_next = focal_one_counts(pinned, mu, lam, focal_bit, trials, rng)
    deltas = x_next - x_t
    mean = float(deltas.mean())
    stderr = float(deltas.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
