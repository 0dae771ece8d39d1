"""The exact one-generation law of ``sample_and_select``, as a stream-free oracle.

At lam * n <= 20 every population can be enumerated: all 2^(lam*n) bit
matrices, each weighted by the product of q_i or 1 - q_i over its bits, where
q_i = ceil(p_i * 2^32) / 2^32 is the probability that the dense sampler's
u32 draw falls below its threshold.  Selection is spread uniformly over the
tie class at the cutoff: a set S of mu rows is a valid top-mu set when its
least fitness is at least the greatest fitness outside it, and every valid S
is equally likely (with c rows in the cutoff class and m of them needed,
there are C(c, m) of them).  Summing the selected rows gives the exact law of
the count vector that ``sample_and_select`` returns.

The law does not depend on how the stream is consumed, so any sampler must
pass these chi-square tests at their fixed seeds, whatever its draw order.
Breaking ties by row index instead of uniformly leaves the law unchanged
(rows are i.i.d.), so the tie-break tests in test_core.py stay.
"""

from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from umda.bitmodel import FrequencyVector
from umda.core import sample_and_select
from umda.rng import Pcg32

#: Significance level of each chi-square test; the seeds are fixed, so a
#: correct sampler passes or fails deterministically.
ALPHA = 1e-3
#: Generations sampled per case, about 1 s each.
DRAWS = 20_000
SEED = 2017
#: Populations enumerated per numpy pass.
POPULATIONS_PER_PASS = 1 << 14


def exact_law(p: FrequencyVector, mu: int, lam: int) -> np.ndarray:
    """Probability of each count vector c, indexed by sum_i c_i (mu + 1)^i."""
    return exact_joint_law(p, mu, lam).sum(axis=0)


def exact_joint_law(p: FrequencyVector, mu: int, lam: int) -> np.ndarray:
    """exact_law split by whether the population held the optimum: row 1 of
    the (2, (mu + 1)^n) result holds the populations with an all-ones row."""
    n = p.n
    if lam * n > 20:
        raise ValueError(f"lam * n = {lam * n} is too many bits to enumerate")
    q = np.ceil(p.values * 2.0**32) / 2.0**32
    # per row pattern r (bit i of r is position i): probability, fitness, and
    # its count vector's index, which is additive over the selected rows
    row_bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    row_prob = np.where(row_bits == 1, q, 1 - q).prod(axis=1)
    row_fitness = row_bits.sum(axis=1)
    row_index = row_bits @ (mu + 1) ** np.arange(n)
    # every mu-subset of the lam rows, as a (lam, subsets) membership matrix
    subsets = np.array([[j in s for s in combinations(range(lam), mu)] for j in range(lam)],
                       dtype=np.int64)
    size = (mu + 1) ** n
    law = np.zeros(2 * size)
    total = 1 << (lam * n)  # population code: row j in bits [j*n, (j+1)*n)
    for start in range(0, total, POPULATIONS_PER_PASS):
        codes = np.arange(start, min(start + POPULATIONS_PER_PASS, total))
        rows = (codes[:, None] >> (n * np.arange(lam))) & ((1 << n) - 1)
        weight = row_prob[rows].prod(axis=1)
        fitness = row_fitness[rows]
        cutoff = np.sort(fitness, axis=1)[:, [lam - mu]]  # the mu-th largest
        above = (fitness > cutoff).astype(np.int64)
        # a valid top-mu set holds every row above the cutoff and no row below it
        valid = ((fitness >= cutoff).astype(np.int64) @ subsets == mu) & (
            above @ subsets == above.sum(axis=1, keepdims=True))
        share = weight[:, None] * valid / valid.sum(axis=1, keepdims=True)
        optimum = (fitness == n).any(axis=1, keepdims=True)
        law += np.bincount((row_index[rows] @ subsets + size * optimum).ravel(),
                           weights=share.ravel(), minlength=law.size)
    return law.reshape(2, size)


def sampled_law(p: FrequencyVector, mu: int, lam: int, stream: int) -> np.ndarray:
    """Observed count-vector frequencies of DRAWS generations, indexed as in exact_law."""
    rng = Pcg32(SEED, stream)
    radix = (mu + 1) ** np.arange(p.n)
    index = [int(sample_and_select(p, mu, lam, rng)[2] @ radix) for _ in range(DRAWS)]
    return np.bincount(index, minlength=(mu + 1) ** p.n)


def chi_square_pvalue(observed: np.ndarray, law: np.ndarray) -> float:
    """Goodness of fit of ``observed`` to ``law``, the bins expecting fewer
    than 5 pooled with the next smallest until the pool expects 5 or more."""
    assert not observed[law == 0].any(), "sampled a count vector of probability 0"
    order = np.flatnonzero(law)[np.argsort(law[law > 0], kind="stable")]
    expected, seen = law[order] * observed.sum(), observed[order]
    k = np.count_nonzero(expected < 5)
    if 0 < k < expected.size and expected[:k].sum() < 5:
        k += 1
    if k > 1:
        expected = np.append(expected[:k].sum(), expected[k:])
        seen = np.append(seen[:k].sum(), seen[k:])
    return float(stats.chisquare(seen, expected).pvalue)


# (n, mu, lam, borders, p): borders on and off, an absorbed column at each
# end, classes of equal p, and, at every size here, ties at the cutoff
CASES = {
    "borders": (3, 2, 4, True, [1 / 3, 1 / 2, 2 / 3]),
    "borders-at-limits": (4, 2, 5, True, [0.25, 0.75, 0.75, 0.5]),
    "absorbed": (4, 2, 4, False, [0.0, 1.0, 0.5, 0.3]),
    "equal-p": (4, 2, 5, False, [0.3, 0.3, 0.3, 0.6]),
    "cutoff-ties": (3, 3, 6, False, [0.4, 0.5, 0.6]),
    # the best of two samples of one fair bit is a one with probability 3/4
    "one-bit": (1, 1, 2, False, [0.5]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_sampled_counts_follow_the_exact_law(case):
    n, mu, lam, borders, values = CASES[case]
    p = FrequencyVector(np.array(values), borders)
    law = exact_law(p, mu, lam)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    pvalue = chi_square_pvalue(sampled_law(p, mu, lam, list(CASES).index(case)), law)
    assert pvalue > ALPHA, f"{case}: chi-square p = {pvalue:.3g}"


def test_enumeration_matches_closed_forms():
    # one position, the best of two rows: a one is selected unless both rows are zero
    q = 0.3
    law = exact_law(FrequencyVector(np.array([q]), False), mu=1, lam=2)
    assert law == pytest.approx([(1 - q) ** 2, 1 - (1 - q) ** 2])
    # equal p: the law is symmetric under swapping the two positions
    law = exact_law(FrequencyVector(np.array([0.3, 0.3, 0.6]), False), mu=2, lam=4)
    swapped = law.reshape(3, 3, 3).transpose(0, 2, 1).ravel()
    assert law == pytest.approx(swapped)
    # 1/3 is not a multiple of 2^-32: the column uses the rounded-up threshold
    q = np.ceil(2.0**32 / 3) / 2.0**32
    law = exact_law(FrequencyVector(np.array([1 / 3]), False), mu=1, lam=2)
    assert law[1] == pytest.approx(1 - (1 - q) ** 2, rel=1e-15)
    assert law[1] != pytest.approx(1 - (2 / 3) ** 2, rel=1e-15)
