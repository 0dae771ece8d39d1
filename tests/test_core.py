from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from umda.bitmodel import FrequencyVector, Population
from umda.core import (
    UmdaConfig,
    run,
    select_mu_best,
    step,
    update_frequencies,
)
from umda.rng import Pcg32
from umda.telemetry import record_generation


def make_population(rows, fitness=None, width=None):
    """Population from 0/1 rows, zero-padded on the right to ``width``."""
    bits = np.array(rows, dtype=bool)
    if width is not None and width > bits.shape[1]:
        pad = np.zeros((bits.shape[0], width - bits.shape[1]), dtype=bool)
        bits = np.hstack([bits, pad])
    if fitness is None:
        fitness = bits.sum(axis=1)
    return Population(bits=bits, fitness=np.asarray(fitness, dtype=np.int64))


class TestSelection:
    def test_distinct_fitness_selects_top_set(self):
        pop = make_population(
            [[1, 1, 1], [1, 1, 0], [1, 0, 0], [0, 0, 0]]
        )
        for seed in range(5):
            selected = select_mu_best(pop, 2, Pcg32(seed, 0))
            assert sorted(selected.fitness.tolist()) == [2, 3]

    def test_mu_equals_lambda_returns_everyone(self):
        pop = make_population([[1, 0], [0, 1], [1, 1]])
        selected = select_mu_best(pop, 3, Pcg32(0, 0))
        assert sorted(selected.fitness.tolist()) == sorted(pop.fitness.tolist())

    def test_mu_larger_than_population_rejected(self):
        pop = make_population([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            select_mu_best(pop, 3, Pcg32(0, 0))

    def test_tie_breaking_uniform_over_pairs(self):
        # four identical individuals, identified by their row index
        bits = np.eye(4, dtype=bool)
        pop = Population(bits=bits, fitness=np.ones(4, dtype=np.int64))
        rng = Pcg32(42, 0)
        trials = 10**5
        counts = {pair: 0 for pair in combinations(range(4), 2)}
        for _ in range(trials):
            selected = select_mu_best(pop, 2, rng)
            ids = tuple(sorted(int(np.argmax(row)) for row in selected.bits))
            counts[ids] += 1
        for pair, count in counts.items():
            assert abs(count / trials - 1 / 6) <= 0.02, (pair, count)
        result = sstats.chisquare(list(counts.values()))
        assert result.pvalue > 0.001


class TestUpdate:
    def test_relative_occurrence(self):
        rows = [[1, 0]] * 3 + [[0, 0]] * 7
        upd = update_frequencies(
            make_population(rows, width=100), 10, borders=True, n=100
        )
        assert upd.frequencies.values[0] == pytest.approx(0.3)
        assert not upd.lower_hits[0]

    def test_lower_border_capped_and_recorded(self):
        rows = [[0, 1]] * 10
        upd = update_frequencies(
            make_population(rows, width=20), 10, borders=True, n=20
        )
        assert upd.frequencies.values[0] == pytest.approx(1 / 20)
        assert upd.lower_hits[0] and not upd.upper_hits[0]
        # the all-ones column overshoots 1 - 1/20 and is capped there
        assert upd.frequencies.values[1] == pytest.approx(1 - 1 / 20)
        assert upd.upper_hits[1]

    def test_unrestricted_keeps_absorbing_value(self):
        rows = [[0, 1]] * 10
        upd = update_frequencies(
            make_population(rows, width=20), 10, borders=False, n=20
        )
        assert upd.frequencies.values[0] == 0.0
        assert upd.frequencies.values[1] == 1.0

    def test_exact_border_value_is_not_a_hit(self):
        # raw value exactly 1/n (count * n == mu) stays put and counts no hit
        rows = [[1]] + [[0]] * 19
        upd = update_frequencies(
            make_population(rows, width=20), 20, borders=True, n=20
        )
        assert upd.frequencies.values[0] == pytest.approx(1 / 20)
        assert not upd.lower_hits[0]

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(ValueError):
            update_frequencies(make_population([[1], [0]]), 3, borders=True, n=4)


class TestStep:
    def test_deterministic(self):
        p = FrequencyVector.uniform(20)
        a = step(p, 10, 20, Pcg32(5, 1))
        b = step(p, 10, 20, Pcg32(5, 1))
        assert np.array_equal(a.update.frequencies.values, b.update.frequencies.values)
        assert np.array_equal(a.population.bits, b.population.bits)

    def test_frequencies_are_multiples_of_one_over_mu_or_borders(self):
        cfg = UmdaConfig(n=20, mu=10, lam=20, master_seed=6)
        p = FrequencyVector.uniform(20)
        for t in range(1, 30):
            result = step(p, cfg.mu, cfg.lam, cfg.make_rng())
            p = result.update.frequencies
            v = p.values
            at_border = (v == p.lower_limit) | (v == p.upper_limit)
            steps = v[~at_border] * 10
            assert np.allclose(steps, np.round(steps), atol=1e-12)

    def test_stats_describe_updated_vector(self):
        cfg = UmdaConfig(n=15, mu=5, lam=15, master_seed=7)
        p = FrequencyVector.uniform(15)
        pop, _, upd = step(p, cfg.mu, cfg.lam, cfg.make_rng())
        stats = record_generation(upd.frequencies, upd.lower_hits, upd.upper_hits, pop, t=1)
        v = upd.frequencies.values
        assert stats.sampling_variance == pytest.approx(float(np.sum(v * (1 - v))))
        assert stats.best_fitness == int(pop.fitness.max())

    def test_selected_are_mu_of_the_sampled(self):
        p = FrequencyVector.uniform(16)
        pop, selected, upd = step(p, 4, 12, Pcg32(8, 0))
        assert len(pop) == 12 and len(selected) == 4
        sampled = {row.tobytes() for row in pop.bits}
        assert all(row.tobytes() in sampled for row in selected.bits)
        assert np.allclose(
            upd.frequencies.values,
            np.clip(selected.bits.mean(axis=0), 1 / 16, 1 - 1 / 16),
        )

    def test_step_loop_reproduces_run(self):
        cfg = UmdaConfig(n=30, mu=6, lam=18, master_seed=9, run_index=4)
        result = run(cfg)
        rng = cfg.make_rng()
        p = FrequencyVector.uniform(cfg.n)
        lower = upper = t = 0
        while True:
            t += 1
            pop, _, upd = step(p, cfg.mu, cfg.lam, rng)
            p = upd.frequencies
            lower += int(upd.lower_hits.sum())
            upper += int(upd.upper_hits.sum())
            if pop.fitness.max() == cfg.n:
                break
        assert result.verdict == "optimum_found"
        assert result.generations == t
        assert np.array_equal(result.final_frequencies.values, p.values)
        assert result.telemetry.total_lower_border_hits == lower
        assert result.telemetry.total_upper_border_hits == upper


class TestRun:
    def test_single_bit_success_probability(self):
        # two samples of one Bernoulli(1/2) bit: optimum in generation 1
        # with probability 3/4
        hits = 0
        trials = 10**5
        for k in range(trials):
            # n=1 admits no border interval, so the borderless variant
            # runs this example; generation 1 samples identically either way
            cfg = UmdaConfig(
                n=1, mu=1, lam=2, borders=False, master_seed=99, run_index=k,
                max_generations=1, record_telemetry=False,
            )
            result = run(cfg)
            hits += result.verdict == "optimum_found" and result.generations == 1
        assert abs(hits / trials - 0.75) <= 0.01

    def test_runtime_accounting(self):
        cfg = UmdaConfig(n=30, mu=10, lam=20, master_seed=11)
        result = run(cfg)
        assert result.verdict == "optimum_found"
        assert result.evaluations == 20 * result.generations
        assert result.telemetry.per_generation[-1].best_fitness == 30
        # optimum was never sampled in an earlier generation
        assert all(
            s.best_fitness < 30 for s in result.telemetry.per_generation[:-1]
        )

    def test_determinism_full_result(self):
        cfg = UmdaConfig(n=40, mu=8, lam=16, master_seed=12, run_index=34)
        a, b = run(cfg), run(cfg)
        assert a.verdict == b.verdict
        assert a.generations == b.generations
        assert np.array_equal(a.final_frequencies.values, b.final_frequencies.values)
        assert len(a.telemetry.per_generation) == len(b.telemetry.per_generation)
        assert (
            a.telemetry.total_lower_border_hits == b.telemetry.total_lower_border_hits
        )

    def test_unrestricted_stagnates_on_wrong_absorption(self):
        # mu=1 copies one sampled individual into the model: any 0 bit
        # absorbs at the wrong value immediately
        cfg = UmdaConfig(
            n=20, mu=1, lam=2, borders=False, master_seed=13, run_index=0
        )
        result = run(cfg)
        assert result.verdict == "stagnated"
        assert result.generations == 1
        assert np.any(result.final_frequencies.values == 0.0)

    def test_restricted_never_stagnates(self):
        for k in range(10):
            cfg = UmdaConfig(
                n=12, mu=2, lam=6, master_seed=14, run_index=k,
                max_generations=50, record_telemetry=False,
            )
            assert run(cfg).verdict in ("optimum_found", "budget_exhausted")

    def test_budget_exhaustion(self):
        cfg = UmdaConfig(n=64, mu=10, lam=20, master_seed=15, max_generations=2)
        result = run(cfg)
        assert result.verdict == "budget_exhausted"
        assert result.generations == 2
        assert result.evaluations == 40

    def test_zero_budget(self):
        cfg = UmdaConfig(n=20, mu=5, lam=10, master_seed=15, max_generations=0)
        result = run(cfg)
        assert result.verdict == "budget_exhausted"
        assert result.generations == 0
        assert result.evaluations == 0

    def test_frequency_support_invariant_restricted(self):
        cfg = UmdaConfig(n=25, mu=5, lam=15, master_seed=16)
        result = run(cfg)
        lo, hi = 1 / 25, 1 - 1 / 25
        for stats in result.telemetry.per_generation:
            assert stats.min_frequency >= lo - 1e-15
            assert stats.max_frequency <= hi + 1e-15

    def test_default_budget(self):
        cfg = UmdaConfig(n=50, mu=2, lam=4, master_seed=17)
        assert cfg.budget == 200 * 50

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            UmdaConfig(n=10, mu=5, lam=5)
        with pytest.raises(ValueError):
            UmdaConfig(n=10, mu=0, lam=5)
        with pytest.raises(ValueError):
            UmdaConfig(n=1, mu=1, lam=2, borders=True)


@given(
    n=st.integers(2, 16),
    mu=st.integers(1, 6),
    extra=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    borders=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_run_invariants_random_configs(n, mu, extra, seed, borders):
    cfg = UmdaConfig(
        n=n, mu=mu, lam=mu + extra, borders=borders,
        master_seed=seed, max_generations=30,
    )
    result = run(cfg)
    if result.verdict == "stagnated":
        assert not borders
    assert result.evaluations == cfg.lam * result.generations
    assert len(result.telemetry.per_generation) == result.generations
    total = sum(s.lower_border_hits for s in result.telemetry.per_generation)
    assert total == result.telemetry.total_lower_border_hits
