import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sstats

from umda.bitmodel import FrequencyVector, count_ones, sample_population
from umda.oracles import poisson_binomial_pmf
from umda.rng import Pcg32


def onemax(bits) -> int:
    """OneMax fitness of ``bits``, as sampled from the borderless 0/1 model
    that can only produce them."""
    p = FrequencyVector(np.asarray(bits, dtype=np.float64), borders=False)
    ind = sample_population(p, 1, Pcg32(0, 0))
    assert ind.bits[0].tolist() == [bool(b) for b in bits]
    return int(ind.fitness[0])


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


def test_fitness_is_int64():
    pop = sample_population(FrequencyVector.uniform(300), 4, Pcg32(2, 0))
    assert pop.fitness.dtype == np.int64
    assert pop.fitness.tolist() == pop.bits.sum(axis=1).tolist()


def test_sample_all_ones_and_all_zeros():
    p1 = FrequencyVector(np.ones(12), borders=False)
    ind = sample_population(p1, 1, Pcg32(1, 0))
    assert ind.fitness[0] == 12 and np.all(ind.bits)
    p0 = FrequencyVector(np.zeros(12), borders=False)
    ind = sample_population(p0, 1, Pcg32(1, 0))
    assert ind.fitness[0] == 0 and not np.any(ind.bits)


def test_sample_mean_fitness_near_half_n():
    p = FrequencyVector.uniform(100)
    pop = sample_population(p, 10**4, Pcg32(5, 0))
    assert abs(float(pop.fitness.mean()) - 50.0) <= 1.5


def test_population_matches_sequential_individuals():
    p = FrequencyVector(np.linspace(0.1, 0.9, 20), borders=False)
    pop = sample_population(p, 7, Pcg32(9, 3))
    solo = Pcg32(9, 3)
    for j in range(7):
        ind = sample_population(p, 1, solo)
        assert np.array_equal(pop.bits[j], ind.bits[0])
        assert pop.fitness[j] == ind.fitness[0]


def test_multi_chunk_population_matches_single_rows():
    # 20 rows of n=2000 draw 40k u32, several chunks of one block
    p = FrequencyVector(np.linspace(0.05, 0.95, 2000), borders=False)
    pop = sample_population(p, 20, Pcg32(10, 7))
    solo = Pcg32(10, 7)
    for j in range(20):
        row = sample_population(p, 1, solo)
        assert np.array_equal(pop.bits[j], row.bits[0])
        assert pop.fitness[j] == row.fitness[0]


def test_sample_population_deterministic():
    p = FrequencyVector.uniform(30)
    a = sample_population(p, 50, Pcg32(2, 2))
    b = sample_population(p, 50, Pcg32(2, 2))
    assert np.array_equal(a.bits, b.bits)


def test_sample_population_rejects_empty():
    with pytest.raises(ValueError):
        sample_population(FrequencyVector.uniform(4), 0, Pcg32(0, 0))


def test_fitness_symmetric_around_half():
    # all p = 1/2: fitness - n/2 is symmetric; a sign test must not reject
    p = FrequencyVector.uniform(99)
    pop = sample_population(p, 2000, Pcg32(6, 1))
    diffs = pop.fitness - 49.5
    above = int(np.count_nonzero(diffs > 0))
    result = sstats.binomtest(above, n=2000, p=0.5)
    assert result.pvalue > 0.001


def test_per_position_frequencies():
    values = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    p = FrequencyVector(values, borders=False)
    pop = sample_population(p, 20000, Pcg32(8, 0))
    freq = pop.bits.mean(axis=0)
    # 5 sigma of Bernoulli(p) / sqrt(20000)
    bound = 5 * np.sqrt(values * (1 - values) / 20000)
    assert np.all(np.abs(freq - values) <= bound)


def test_onemax_distribution_matches_poisson_binomial():
    rng = Pcg32(123, 0)
    values = np.array([0.12, 0.3, 0.5, 0.44, 0.81, 0.66, 0.25, 0.9, 0.5, 0.37])
    p = FrequencyVector(values, borders=False)
    pop = sample_population(p, 10**5, rng)
    observed = np.bincount(pop.fitness, minlength=11).astype(float)
    expected = poisson_binomial_pmf(values).pmf * 10**5
    # merge sparse tail bins so the chi-square approximation is valid
    keep = expected >= 5
    obs, exp = observed[keep], expected[keep]
    if not np.all(keep):
        obs = np.append(obs, observed[~keep].sum())
        exp = np.append(exp, expected[~keep].sum())
    result = sstats.chisquare(obs, f_exp=exp, sum_check=False)
    assert result.pvalue > 0.001
