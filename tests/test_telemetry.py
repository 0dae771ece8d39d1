import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from umda.bitmodel import FrequencyVector
from umda.core import UmdaConfig, run
from umda.telemetry import potential, record_generation, sampling_variance


def vector(values, borders=False):
    values = np.asarray(values, dtype=float)
    return FrequencyVector(values, borders=borders)


def test_sampling_variance_hand_values():
    assert sampling_variance(vector([0.5] * 100)) == pytest.approx(25.0)
    assert sampling_variance(vector([0.0, 1.0, 1.0])) == 0.0
    assert sampling_variance(vector([0.2, 0.4, 0.6])) == pytest.approx(0.64)


def test_potential_hand_values():
    n = 8
    assert potential(vector([1 - 1 / n] * n)) == pytest.approx(0.0)
    assert potential(vector([0.5] * n)) == pytest.approx(n / 2 - 1)
    assert potential(vector([0.25, 0.5, 0.75, 1.0])) == pytest.approx(0.5)


frequency_vectors = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=60
).map(vector)


@given(p=frequency_vectors)
def test_variance_at_most_potential_plus_one(p):
    # sum p(1-p) <= sum (1-p) since every p <= 1
    assert sampling_variance(p) <= potential(p) + 1.0 + 1e-12


@given(p=frequency_vectors)
def test_variance_within_quarter_n(p):
    assert 0.0 <= sampling_variance(p) <= p.n / 4 + 1e-12


def make_stats(p, lower=0, upper=0, best=3):
    return record_generation(p, lower, upper, best)


def test_record_initialization_values():
    n = 10
    stats = make_stats(FrequencyVector.uniform(n))
    assert stats.potential == pytest.approx(n / 2 - 1)
    assert stats.sampling_variance == pytest.approx(n / 4)
    assert stats.lower_border_hits == 0
    assert stats.upper_border_hits == 0


def test_record_counts_border_events():
    n = 10
    values = np.full(n, 0.5)
    values[3] = 1 / n
    p = FrequencyVector(values, borders=True)
    stats = make_stats(p, lower=1)
    assert stats.lower_border_hits == 1
    assert stats.at_lower_border == 1
    assert stats.at_upper_border == 0
    assert stats.min_frequency == pytest.approx(1 / n)


def test_run_telemetry_invariants():
    cfg = UmdaConfig(n=30, mu=6, lam=18, master_seed=21)
    result = run(cfg)
    n = cfg.n
    for stats in result.telemetry.per_generation:
        assert 0.0 <= stats.sampling_variance <= n / 4 + 1e-12
        # borders keep every position's variance contribution positive
        assert stats.sampling_variance >= (1 - 1 / n) - 1e-12
        assert -1.0 < stats.potential <= n - 1
        assert stats.sampling_variance <= stats.potential + 1.0 + 1e-12


@pytest.mark.parametrize("borders", [True, False])
def test_telemetry_free_twin_matches_the_recorded_run(borders):
    # the sweeps run with record_telemetry=False; the totals still count
    on, off = (
        run(UmdaConfig(n=40, mu=8, lam=24, borders=borders, master_seed=1,
                       run_index=3, record_telemetry=record))
        for record in (True, False)
    )
    assert on.generations > 2 and on.telemetry.total_lower_border_hits > 0
    assert len(on.telemetry.per_generation) == on.generations
    assert off.telemetry.per_generation == []
    for result in (on, off):
        assert result.verdict == on.verdict
        assert (result.generations, result.evaluations) == (on.generations, on.evaluations)
        assert result.telemetry.total_lower_border_hits == sum(
            s.lower_border_hits for s in on.telemetry.per_generation)
        assert result.telemetry.total_upper_border_hits == sum(
            s.upper_border_hits for s in on.telemetry.per_generation)
        assert np.array_equal(result.final_frequencies.values, on.final_frequencies.values)


def test_phi_drift_floor_above_quarter():
    # Desk-scale drift regression: with every frequency at least 1/4, the
    # potential falls by at least 0.2 * sqrt(phi) per generation on average
    # (floor frozen from a one-time measurement of ~0.69).
    n = 400
    mu = math.ceil(3 * math.sqrt(n) * math.log(n))
    ratios = []
    for k in range(3):
        cfg = UmdaConfig(n=n, mu=mu, lam=2 * mu, master_seed=203, run_index=k)
        result = run(cfg)
        gens = result.telemetry.per_generation
        phis = [n / 2 - 1] + [g.potential for g in gens]
        for t in range(len(gens)):
            prev_min = 0.5 if t == 0 else gens[t - 1].min_frequency
            if prev_min >= 0.25 and phis[t] > 0:
                ratios.append((phis[t] - phis[t + 1]) / math.sqrt(phis[t]))
    ratios = np.asarray(ratios)
    assert ratios.size >= 60
    assert ratios.mean() >= 0.2
    # every batch of 25 consecutive qualifying steps clears the floor too
    for i in range(0, ratios.size - 24, 25):
        assert ratios[i : i + 25].mean() >= 0.2
