"""Exact reference computations for the probabilistic machinery.

The exact oracles are independent of the simulator: the Poisson-binomial PMF
is built by direct O(m^2) convolution, its central chunk is read off the PMF,
and capped-binomial expectations come from exact summation.  One Monte Carlo
helper, ``empirical_step_drift``, does run the simulator (through
``levels.focal_one_counts``) to measure the one-step drift of the one-count
at position 0 against those exact baselines; on OneMax the positions are
exchangeable, so position 0 stands for any.

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


def poisson_binomial_pmf(p) -> PmfTable:
    """Exact PMF of sum of Bernoulli(p_i) by iterative convolution."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("expected a 1-d probability sequence")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both compares
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


def chunk_bounds(table: PmfTable, ell: float, u: float) -> tuple[int, int]:
    """The central chunk (k_lo, k_hi) cutting tail mass ell below and u above:
    k_lo = min{i : P(X <= i) >= ell}, k_hi = max{i : P(X >= i) >= u}."""
    if not (0.0 < ell < 1.0 and 0.0 < u < 1.0 and ell + u < 1.0):
        raise ValueError(f"need ell, u in (0,1) with ell + u < 1, got {ell}, {u}")
    k_lo = int(np.argmax(np.cumsum(table.pmf) >= ell))
    sf = np.cumsum(table.pmf[::-1])[::-1]  # P(X >= i), summed from the top
    k_hi = int(np.nonzero(sf >= u)[0][-1])
    return k_lo, k_hi


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
    x_t: int,
    trials: int,
    rng: Pcg32,
) -> tuple[float, float]:
    """(mean, stderr) of X_{t+1} - X_t over single sample-and-select steps,
    with X_{t+1} drawn by ``focal_one_counts`` at position 0, which stands
    for any position."""
    deltas = focal_one_counts(p, mu, lam, x_t, trials, rng) - x_t
    mean = float(deltas.mean())
    stderr = float(deltas.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
