import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from umda.bitmodel import FrequencyVector
from umda.oracles import (
    binomial_pmf,
    capped_binomial_lower_bound,
    chunk_bounds,
    chunk_coverage,
    empirical_step_drift,
    expected_min_capped_binomial,
    poisson_binomial_pmf,
    verify_chunk_lower_bound,
)
from umda.rng import Pcg32


def enumerated_pmf(probabilities):
    """Brute-force oracle: iterate all 2^m outcomes."""
    m = len(probabilities)
    pmf = [0.0] * (m + 1)
    for outcome in product((0, 1), repeat=m):
        weight = 1.0
        for bit, p in zip(outcome, probabilities):
            weight *= p if bit else 1.0 - p
        pmf[sum(outcome)] += weight
    return np.array(pmf)


class TestPoissonBinomialPmf:
    def test_two_fair_coins(self):
        table = poisson_binomial_pmf([0.5, 0.5])
        assert np.allclose(table.pmf, [0.25, 0.5, 0.25])

    def test_forced_trial(self):
        table = poisson_binomial_pmf([1.0, 0.3])
        assert np.allclose(table.pmf, [0.0, 0.7, 0.3])

    def test_three_trials_hand_values(self):
        table = poisson_binomial_pmf([0.2, 0.4, 0.6])
        assert table.pmf[0] == pytest.approx(0.192, abs=1e-15)
        assert table.pmf[3] == pytest.approx(0.048, abs=1e-15)
        assert np.allclose(table.pmf, enumerated_pmf([0.2, 0.4, 0.6]), atol=1e-15)

    def test_moments_stored(self):
        table = poisson_binomial_pmf([0.2, 0.4, 0.6])
        assert table.mean == pytest.approx(1.2)
        assert table.variance == pytest.approx(0.16 + 0.24 + 0.24)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, 1.2])

    @given(
        p=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, p):
        table = poisson_binomial_pmf(p)
        assert np.allclose(table.pmf, enumerated_pmf(p), atol=1e-12)

    @given(
        p=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=100)
    )
    @settings(max_examples=60, deadline=None)
    def test_distribution_properties(self, p):
        table = poisson_binomial_pmf(p)
        assert np.all(table.pmf >= -1e-15)
        assert abs(table.pmf.sum() - 1.0) <= 1e-12
        ks = np.arange(len(p) + 1)
        assert float(ks @ table.pmf) == pytest.approx(table.mean, abs=1e-9)
        assert float((ks - table.mean) ** 2 @ table.pmf) == pytest.approx(
            table.variance, abs=1e-9
        )
        # unimodal around the mean
        lo, hi = math.floor(table.mean), math.ceil(table.mean)
        assert np.all(np.diff(table.pmf[: lo + 1]) >= -1e-14)
        assert np.all(np.diff(table.pmf[hi:]) <= 1e-14)


class TestChunkBounds:
    def test_two_fair_coins_quartiles(self):
        table = poisson_binomial_pmf([0.5, 0.5])
        bounds = chunk_bounds(table, 0.25, 0.25)
        assert bounds.k_lo == 0
        assert bounds.k_hi == 2
        assert chunk_coverage(table, bounds) >= 0.5

    def test_degenerate_all_ones(self):
        table = poisson_binomial_pmf([1.0] * 6)
        bounds = chunk_bounds(table, 0.25, 0.25)
        assert bounds.k_lo == bounds.k_hi == 6

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_symmetric_pmf_mirror(self, m):
        table = poisson_binomial_pmf([0.5] * m)
        bounds = chunk_bounds(table, 0.25, 0.25)
        assert bounds.k_lo + bounds.k_hi == m

    def test_rejects_bad_tail_masses(self):
        table = poisson_binomial_pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            chunk_bounds(table, 0.6, 0.5)
        with pytest.raises(ValueError):
            chunk_bounds(table, 0.0, 0.5)

    @given(
        p=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=50),
        ell=st.floats(0.05, 0.45),
        u=st.floats(0.05, 0.45),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_ordered_and_chunk_covers(self, p, ell, u):
        table = poisson_binomial_pmf(p)
        bounds = chunk_bounds(table, ell, u)
        assert bounds.k_lo <= bounds.k_hi
        assert chunk_coverage(table, bounds) >= 1.0 - ell - u - 1e-12


class TestChunkLowerBound:
    def test_single_fair_trial(self):
        table = poisson_binomial_pmf([0.5])
        bounds = chunk_bounds(table, 0.25, 0.25)
        assert verify_chunk_lower_bound(table, bounds) == pytest.approx(0.5)

    def test_large_uniform_instance(self):
        # near-normal regime: sigma * pmf around the mode is ~0.4; the chunk
        # edges sit at ~0.67 sigma where the value measured 0.312
        table = poisson_binomial_pmf([0.5] * 400)
        value = verify_chunk_lower_bound(table, chunk_bounds(table, 0.25, 0.25))
        assert value >= 0.3


class TestCappedBinomial:
    def test_cap_equal_to_trials(self):
        for d, p in [(3, 0.3), (7, 0.8)]:
            assert expected_min_capped_binomial(d, d, p) == pytest.approx(d * p)
            assert capped_binomial_lower_bound(d, d, p) == pytest.approx(d * p)

    def test_enumerated_examples(self):
        assert expected_min_capped_binomial(1, 2, 0.5) == pytest.approx(0.75)
        assert expected_min_capped_binomial(2, 4, 0.5) == pytest.approx(26 / 16)

    def test_bound_hand_value(self):
        assert capped_binomial_lower_bound(2, 4, 0.5) == pytest.approx(1.125)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_probability(self, p):
        assert capped_binomial_lower_bound(3, 6, p) == pytest.approx(3 * p)
        assert expected_min_capped_binomial(3, 6, p) == pytest.approx(3 * p)

    def test_rejects_bad_cap(self):
        for func in (expected_min_capped_binomial, capped_binomial_lower_bound):
            with pytest.raises(ValueError):
                func(0, 4, 0.5)
            with pytest.raises(ValueError):
                func(5, 4, 0.5)

    def test_matches_direct_summation(self):
        for c, d, p in [(2, 5, 0.3), (4, 9, 0.62), (1, 12, 0.05)]:
            direct = sum(
                min(c, k) * math.comb(d, k) * p**k * (1 - p) ** (d - k)
                for k in range(d + 1)
            )
            assert expected_min_capped_binomial(c, d, p) == pytest.approx(direct)

    @given(
        d=st.integers(1, 12),
        c_frac=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150)
    def test_expectation_dominates_bound(self, d, c_frac, p):
        c = 1 + int(c_frac * (d - 1))
        assert expected_min_capped_binomial(c, d, p) >= (
            capped_binomial_lower_bound(c, d, p) - 1e-12
        )


class TestEmpiricalStepDrift:
    def test_absorbed_at_one_has_zero_drift(self):
        p = FrequencyVector(np.full(20, 0.5), borders=False)
        mean, stderr = empirical_step_drift(
            p, mu=5, lam=10, focal_bit=0, x_t=5, trials=200, rng=Pcg32(41, 0)
        )
        assert mean == 0.0 and stderr == 0.0

    def test_absorbed_at_zero_has_zero_drift(self):
        p = FrequencyVector(np.full(20, 0.5), borders=False)
        mean, stderr = empirical_step_drift(
            p, mu=5, lam=10, focal_bit=0, x_t=0, trials=200, rng=Pcg32(42, 0)
        )
        assert mean == 0.0 and stderr == 0.0

    def test_drift_positive_at_half(self):
        n = 50
        p = FrequencyVector(np.full(n, 0.5), borders=True)
        mean, stderr = empirical_step_drift(
            p, mu=50, lam=100, focal_bit=0, x_t=25, trials=2000, rng=Pcg32(43, 0)
        )
        assert mean / stderr >= 5.0

    def test_rejects_x_t_out_of_range(self):
        p = FrequencyVector.uniform(10)
        with pytest.raises(ValueError):
            empirical_step_drift(p, 4, 8, 0, x_t=5, trials=10, rng=Pcg32(0, 0))


def test_binomial_pmf_matches_scipy():
    for d, p in [(10, 0.5), (25, 0.13), (40, 0.9)]:
        ours = binomial_pmf(d, p)
        ref = sstats.binom.pmf(np.arange(d + 1), d, p)
        assert np.allclose(ours, ref, atol=1e-12)
