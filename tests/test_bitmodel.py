import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sstats

from umda.bitmodel import BLOCK_DRAWS, FrequencyVector, count_ones, sample_population
from umda.core import sample_and_select
from umda.oracles import poisson_binomial_pmf
from umda.rng import CHUNK, TWO_POW_32, Pcg32


def onemax(bits) -> int:
    """OneMax fitness of ``bits``, as sampled from the borderless 0/1 model
    that can only produce them."""
    p = FrequencyVector(np.asarray(bits, dtype=np.float64), borders=False)
    ind, fitness, _ = sample_and_select(p, 1, 1, Pcg32(0, 0))
    assert ind[0].tolist() == [bool(b) for b in bits]
    return int(fitness[0])


def test_onemax_basics():
    assert onemax([1] * 8) == 8
    assert onemax([0] * 8) == 0
    assert onemax([1, 0, 1, 1, 0]) == 3


@given(bits=st.lists(st.booleans(), min_size=1, max_size=64))
def test_onemax_counts_ones(bits):
    assert onemax(bits) == sum(bits)


class TestFrequencyVector:
    def test_uniform_start(self):
        p = FrequencyVector.uniform(10)
        assert np.all(p.values == 0.5)
        assert p.borders

    def test_restricted_bounds_enforced(self):
        with pytest.raises(ValueError):
            FrequencyVector(np.array([0.0, 0.5]), borders=True)
        with pytest.raises(ValueError):
            FrequencyVector(np.array([0.5, 1.0]), borders=True)

    def test_unrestricted_allows_absorbing_values(self):
        p = FrequencyVector(np.array([0.0, 1.0, 0.5]), borders=False)
        assert p.lower_limit == 0.0
        assert p.upper_limit == 1.0

    def test_unrestricted_bounds_enforced(self):
        with pytest.raises(ValueError):
            FrequencyVector(np.array([-0.1, 0.5]), borders=False)

    @pytest.mark.parametrize("borders", [True, False])
    def test_nan_rejected(self, borders):
        with pytest.raises(ValueError):
            FrequencyVector(np.array([np.nan, 0.5]), borders=borders)
        with pytest.raises(ValueError):
            FrequencyVector(np.array([0.5, np.nan]), borders=borders)

    def test_values_must_be_a_nonempty_row(self):
        with pytest.raises(ValueError):
            FrequencyVector(np.full((2, 3), 0.5), borders=False)
        with pytest.raises(ValueError):
            FrequencyVector(np.array([]), borders=False)

    def test_values_read_only(self):
        p = FrequencyVector.uniform(4)
        with pytest.raises(ValueError):
            p.values[0] = 0.9

    def test_callers_array_stays_writeable(self):
        v = np.full(4, 0.5)
        FrequencyVector(v, borders=True)
        v[0] = 0.9
        assert v.flags.writeable

    def test_values_do_not_alias_a_view(self):
        w = np.full(4, 0.5)
        q = FrequencyVector(w[:], borders=True)
        w[0] = 0.9
        w[1] = np.nan
        assert q.values.tolist() == [0.5] * 4


@pytest.mark.parametrize("n", [255, 256, 65535, 65536])
def test_count_ones_of_a_full_row_at_dtype_boundaries(n):
    bits = np.ones((2, n), dtype=bool)
    bits[1, ::3] = False
    assert count_ones(bits, axis=1).tolist() == bits.sum(axis=1, dtype=np.int64).tolist()


@pytest.mark.parametrize("mu", [255, 256])
def test_count_ones_of_full_columns_at_dtype_boundaries(mu):
    bits = np.ones((mu, 5), dtype=bool)
    bits[::2, 1] = False
    bits[:, 2] = False
    assert count_ones(bits, axis=0).tolist() == bits.sum(axis=0, dtype=np.int64).tolist()


def test_fitness_is_the_row_sums_of_the_bits():
    bits, fitness, _ = sample_and_select(FrequencyVector.uniform(300), 2, 4, Pcg32(2, 0))
    assert fitness.dtype == np.uint16  # the narrowest that holds n = 300
    assert fitness.tolist() == bits.sum(axis=1).tolist()


def test_sampled_bits_are_read_only():
    bits = sample_population(FrequencyVector.uniform(8), 3, Pcg32(2, 0))
    with pytest.raises(ValueError):
        bits[0, 0] = not bits[0, 0]


def test_sample_all_ones_and_all_zeros():
    p1 = FrequencyVector(np.ones(12), borders=False)
    ind = sample_population(p1, 1, Pcg32(1, 0))
    assert ind.sum() == 12 and np.all(ind)
    p0 = FrequencyVector(np.zeros(12), borders=False)
    ind = sample_population(p0, 1, Pcg32(1, 0))
    assert ind.sum() == 0 and not np.any(ind)


def test_sample_mean_fitness_near_half_n():
    p = FrequencyVector.uniform(100)
    pop = sample_population(p, 10**4, Pcg32(5, 0))
    assert abs(float(pop.sum(axis=1).mean()) - 50.0) <= 1.5


def test_population_matches_sequential_individuals():
    p = FrequencyVector(np.linspace(0.1, 0.9, 20), borders=False)
    pop = sample_population(p, 7, Pcg32(9, 3))
    solo = Pcg32(9, 3)
    for j in range(7):
        ind = sample_population(p, 1, solo)
        assert np.array_equal(pop[j], ind[0])
        assert count_ones(pop, axis=1)[j] == count_ones(ind, axis=1)[0]


def test_multi_chunk_population_matches_single_rows():
    # 20 rows of n=2000 draw 40k u32, several chunks of one block
    p = FrequencyVector(np.linspace(0.05, 0.95, 2000), borders=False)
    pop = sample_population(p, 20, Pcg32(10, 7))
    solo = Pcg32(10, 7)
    for j in range(20):
        row = sample_population(p, 1, solo)
        assert np.array_equal(pop[j], row[0])
        assert count_ones(pop, axis=1)[j] == count_ones(row, axis=1)[0]


def whole_block(p, lam, seed, stream):
    """The population compared against one lam*n block of draws, and the
    generator after it."""
    rng = Pcg32(seed, stream)
    u = rng.next_u32_block(lam * p.n).reshape(lam, p.n)
    threshold = np.ceil(p.values * TWO_POW_32)
    bits = u < np.minimum(threshold, TWO_POW_32 - 1).astype(np.uint32)
    bits[:, threshold == TWO_POW_32] = True
    return bits, rng.state


@pytest.mark.parametrize(
    "lam, n",
    [
        (7, BLOCK_DRAWS // 3 + 1),  # two rows a block, a one-row last block
        (3, BLOCK_DRAWS + CHUNK + 5),  # n > BLOCK_DRAWS > CHUNK: one row a block
        (BLOCK_DRAWS // 1024, 1024),  # lam*n == BLOCK_DRAWS: one block, no remainder
        (BLOCK_DRAWS // 1024 + 1, 1024),  # one row past it
    ],
)
def test_row_blocks_equal_one_whole_block(lam, n):
    p = FrequencyVector(np.linspace(0.02, 0.98, n), borders=False)
    rng = Pcg32(14, 5)
    bits = sample_population(p, lam, rng)
    expected, state = whole_block(p, lam, 14, 5)
    assert np.array_equal(bits, expected)
    assert rng.state == state


def seed_drawing_all_ones_at(pos, stream):
    """A seed whose stream's draw ``pos`` is 2^32 - 1, the one draw that the
    uint32 threshold 2^32 - 1 of a p = 1 column would turn into a 0.

    XSH-RR gives all ones when bits 27..58 of s ^ (s >> 18) are; that map is
    inverted by xoring in the shifts by 18, 36 and 54.  The LCG is stepped
    back ``pos`` times from that state, then back through the constructor.
    """
    mult, mask = 6364136223846793005, (1 << 64) - 1
    inv = pow(mult, -1, 1 << 64)
    inc = ((stream << 1) | 1) & mask
    y = ((1 << 32) - 1) << 27
    state = y ^ (y >> 18) ^ (y >> 36) ^ (y >> 54)
    for _ in range(pos):
        state = (state - inc) * inv & mask
    return ((state - inc) * inv - inc) & mask


def test_borderless_one_columns_across_blocks():
    n = 3000
    values = np.linspace(0.0, 1.0, n)
    values[::7] = 1.0
    p = FrequencyVector(values, borders=False)
    rows = BLOCK_DRAWS // n
    lam = 3 * rows + 2
    # an all-ones draw in a p = 1 column of the third block
    row, col = 2 * rows + 1, 700
    seed = seed_drawing_all_ones_at(row * n + col, 2)
    assert Pcg32(seed, 2).next_u32_block(row * n + col + 1)[-1] == 2**32 - 1
    rng = Pcg32(seed, 2)
    bits = sample_population(p, lam, rng)
    expected, state = whole_block(p, lam, seed, 2)
    assert np.array_equal(bits, expected)
    assert rng.state == state
    assert bits[:, ::7].all()


def test_sampling_memory_is_bounded_by_the_row_block():
    p, lam, rng = FrequencyVector.uniform(2000), 300, Pcg32(16, 0)
    sample_population(p, lam, rng)  # the generator's chunk scratch
    tracemalloc.start()
    try:
        sample_population(p, lam, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bool matrix plus twice a uint32 block, not a lam*n uint32 block
    assert peak < lam * p.n + 2 * 4 * BLOCK_DRAWS


def test_sample_population_deterministic():
    p = FrequencyVector.uniform(30)
    a = sample_population(p, 50, Pcg32(2, 2))
    b = sample_population(p, 50, Pcg32(2, 2))
    assert np.array_equal(a, b)


def test_sample_population_rejects_empty():
    with pytest.raises(ValueError):
        sample_population(FrequencyVector.uniform(4), 0, Pcg32(0, 0))


def test_fitness_symmetric_around_half():
    # all p = 1/2: fitness - n/2 is symmetric; a sign test must not reject
    p = FrequencyVector.uniform(99)
    pop = sample_population(p, 2000, Pcg32(6, 1))
    diffs = pop.sum(axis=1) - 49.5
    above = int(np.count_nonzero(diffs > 0))
    result = sstats.binomtest(above, n=2000, p=0.5)
    assert result.pvalue > 0.001


def test_per_position_frequencies():
    values = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    p = FrequencyVector(values, borders=False)
    pop = sample_population(p, 20000, Pcg32(8, 0))
    freq = pop.mean(axis=0)
    # 5 sigma of Bernoulli(p) / sqrt(20000)
    bound = 5 * np.sqrt(values * (1 - values) / 20000)
    assert np.all(np.abs(freq - values) <= bound)


def test_onemax_distribution_matches_poisson_binomial():
    rng = Pcg32(123, 0)
    values = np.array([0.12, 0.3, 0.5, 0.44, 0.81, 0.66, 0.25, 0.9, 0.5, 0.37])
    p = FrequencyVector(values, borders=False)
    pop = sample_population(p, 10**5, rng)
    observed = np.bincount(pop.sum(axis=1), minlength=11).astype(float)
    expected = poisson_binomial_pmf(values).pmf * 10**5
    # merge sparse tail bins so the chi-square approximation is valid
    keep = expected >= 5
    obs, exp = observed[keep], expected[keep]
    if not np.all(keep):
        obs = np.append(obs, observed[~keep].sum())
        exp = np.append(exp, expected[~keep].sum())
    result = sstats.chisquare(obs, f_exp=exp, sum_check=False)
    assert result.pvalue > 0.001
