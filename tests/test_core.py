import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from umda.bitmodel import FrequencyVector, count_ones, sample_population
from umda.core import (
    MAX_POPULATION_BYTES,
    UmdaConfig,
    run,
    sample_and_select,
    select_mu_best,
    update_frequencies,
)
from umda.rng import Pcg32
from umda.telemetry import record_generation


def make_population(rows):
    """Bool matrix from 0/1 rows."""
    return np.array(rows, dtype=bool)


def key_words(rng, rows):
    """The 2 * rows tie-break words that follow a population of ``rows``."""
    return rng.next_u32_block(2 * rows)


def column_counts(head, n):
    """One-counts of an n-bit model: ``head`` then zeros, as the uint8 the
    sampler sums small selections into."""
    counts = np.zeros(n, dtype=np.uint8)
    counts[: len(head)] = head
    return counts


class TestSelection:
    def test_distinct_fitness_selects_top_set(self):
        pop = make_population(
            [[1, 1, 1], [1, 1, 0], [1, 0, 0], [0, 0, 0]]
        )
        fitness = count_ones(pop, axis=1)
        for seed in range(5):
            chosen = select_mu_best(fitness, 2, key_words(Pcg32(seed, 0), 4))
            assert sorted(fitness[chosen].tolist()) == [2, 3]

    def test_mu_equals_lambda_returns_everyone(self):
        fitness = count_ones(make_population([[1, 0], [0, 1], [1, 1]]), axis=1)
        chosen = select_mu_best(fitness, 3, key_words(Pcg32(0, 0), 3))
        assert sorted(fitness[chosen].tolist()) == sorted(fitness.tolist())

    def test_mu_larger_than_population_rejected(self):
        fitness = count_ones(make_population([[1, 0], [0, 1]]), axis=1)
        with pytest.raises(ValueError):
            select_mu_best(fitness, 3, key_words(Pcg32(0, 0), 2))

    def test_narrow_unsigned_fitness_is_not_wrapped(self):
        # negating uint8 in place would rank 0 above 255 and pick rows [2, 1]
        fitness = np.array([3, 255, 0, 254], dtype=np.uint8)
        for seed in range(5):
            chosen = select_mu_best(fitness, 2, key_words(Pcg32(seed, 0), 4))
            assert sorted(chosen.tolist()) == [1, 3]

    def test_tie_breaking_uniform_over_pairs(self):
        # four identical individuals, identified by their row index
        pop = np.eye(4, dtype=bool)
        fitness = np.ones(4, dtype=np.int64)
        rng = Pcg32(42, 0)
        trials = 10**5
        counts = {pair: 0 for pair in combinations(range(4), 2)}
        for _ in range(trials):
            chosen = select_mu_best(fitness, 2, key_words(rng, 4))
            ids = tuple(sorted(int(np.argmax(row)) for row in pop[chosen]))
            counts[ids] += 1
        for pair, count in counts.items():
            assert abs(count / trials - 1 / 6) <= 0.02, (pair, count)
        result = sstats.chisquare(list(counts.values()))
        assert result.pvalue > 0.001

    @pytest.mark.parametrize("differ", ["high", "low", "both"])
    def test_two_key_words_sort_as_the_packed_u64_keys(self, differ):
        # row 0 is above the cutoff, rows 1-4 tie at it and row 5 is below,
        # so the keys alone pick two of the four tied rows
        fitness = np.array([9, 5, 5, 5, 5, 2], dtype=np.uint16)
        spread = np.array([4, 2**32 - 1, 0, 2**31, 1, 3], dtype=np.uint32)
        flat = np.full(6, 77, dtype=np.uint32)
        high, low = {
            "high": (spread, flat),
            "low": (flat, spread),
            # high words that tie in pairs, low words ordered against them
            "both": (np.array([1, 2, 1, 2, 1, 0], dtype=np.uint32), spread[::-1].copy()),
        }[differ]
        words = np.empty(12, dtype=np.uint32)
        words[0::2], words[1::2] = high, low
        packed = (high.astype(np.uint64) << np.uint64(32)) | low
        expected = np.lexsort((packed, -fitness.astype(np.int64)))[:3]
        assert select_mu_best(fitness, 3, words).tolist() == expected.tolist()


class TestUpdate:
    def test_relative_occurrence(self):
        upd = update_frequencies(column_counts([3], 100), 10, borders=True)
        assert upd.frequencies.values[0] == pytest.approx(0.3)
        assert not upd.lower_hits[0]

    def test_lower_border_capped_and_recorded(self):
        upd = update_frequencies(column_counts([0, 10], 20), 10, borders=True)
        assert upd.frequencies.values[0] == pytest.approx(1 / 20)
        assert upd.lower_hits[0] and not upd.upper_hits[0]
        # the all-ones column overshoots 1 - 1/20 and is capped there
        assert upd.frequencies.values[1] == pytest.approx(1 - 1 / 20)
        assert upd.upper_hits[1]

    def test_unrestricted_keeps_absorbing_value(self):
        upd = update_frequencies(column_counts([0, 10], 20), 10, borders=False)
        assert upd.frequencies.values[0] == 0.0
        assert upd.frequencies.values[1] == 1.0

    def test_exact_border_value_is_not_a_hit(self):
        # raw value exactly 1/n (count * n == mu) stays put and counts no hit
        upd = update_frequencies(column_counts([1], 20), 20, borders=True)
        assert upd.frequencies.values[0] == pytest.approx(1 / 20)
        assert not upd.lower_hits[0]

    @given(
        mu=st.integers(1, 500),
        n=st.integers(1, 5000),
        dtype=st.sampled_from([np.uint8, np.uint16, np.int64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_border_hits_match_the_multiply_forms(self, mu, n, dtype):
        assume(mu <= np.iinfo(dtype).max)
        # every count in 0..mu, in as many n-wide count vectors as it takes
        counts = np.arange(mu + 1)
        for start in range(0, mu + 1, n):
            column = np.resize(counts[start : start + n], n)
            upd = update_frequencies(column.astype(dtype), mu, borders=False)
            assert upd.lower_hits.tolist() == (column * n < mu).tolist()
            assert upd.upper_hits.tolist() == (column * n > mu * (n - 1)).tolist()


class TestStep:
    """One generation step: sample_and_select, then update_frequencies."""

    def test_deterministic(self):
        p = FrequencyVector.uniform(20)
        bits_a, _, counts_a = sample_and_select(p, 10, 20, Pcg32(5, 1))
        bits_b, _, counts_b = sample_and_select(p, 10, 20, Pcg32(5, 1))
        assert np.array_equal(
            update_frequencies(counts_a, 10, p.borders).frequencies.values,
            update_frequencies(counts_b, 10, p.borders).frequencies.values,
        )
        assert np.array_equal(bits_a, bits_b)

    def test_frequencies_are_multiples_of_one_over_mu_or_borders(self):
        cfg = UmdaConfig(n=20, mu=10, lam=20, master_seed=6)
        p = FrequencyVector.uniform(20)
        rng = cfg.make_rng()
        for _ in range(29):
            _, _, counts = sample_and_select(p, cfg.mu, cfg.lam, rng)
            p = update_frequencies(counts, cfg.mu, p.borders).frequencies
            v = p.values
            at_border = (v == p.lower_limit) | (v == p.upper_limit)
            steps = v[~at_border] * 10
            assert np.allclose(steps, np.round(steps), atol=1e-12)

    def test_stats_describe_updated_vector(self):
        cfg = UmdaConfig(n=15, mu=5, lam=15, master_seed=7)
        p = FrequencyVector.uniform(15)
        _, fitness, counts = sample_and_select(p, cfg.mu, cfg.lam, cfg.make_rng())
        upd = update_frequencies(counts, cfg.mu, p.borders)
        lower, upper = int(upd.lower_hits.sum()), int(upd.upper_hits.sum())
        stats = record_generation(upd.frequencies, lower, upper, int(fitness.max()))
        v = upd.frequencies.values
        assert stats.sampling_variance == pytest.approx(float(np.sum(v * (1 - v))))
        assert (stats.lower_border_hits, stats.upper_border_hits) == (lower, upper)
        assert stats.best_fitness == int(fitness.max())
        assert (stats.min_frequency, stats.max_frequency) == (v.min(), v.max())

    def test_selected_are_mu_of_the_sampled(self):
        p = FrequencyVector.uniform(16)
        rng = Pcg32(8, 0)
        pop = sample_population(p, 12, rng)
        chosen = select_mu_best(count_ones(pop, axis=1), 4, key_words(rng, 12))
        selected = pop[chosen]
        upd = update_frequencies(count_ones(selected, axis=0), 4, p.borders)
        assert len(pop) == 12 and np.unique(chosen).size == 4
        sampled = {row.tobytes() for row in pop}
        assert all(row.tobytes() in sampled for row in selected)
        assert np.allclose(
            upd.frequencies.values,
            np.clip(selected.mean(axis=0), 1 / 16, 1 - 1 / 16),
        )

    @given(
        n=st.integers(1, 40),
        mu=st.integers(1, 300),
        extra=st.integers(1, 20),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_are_column_sums_of_the_selected_rows(self, n, mu, extra, seed):
        p = FrequencyVector.uniform(n, borders=False)
        rng, twin = Pcg32(seed, 1), Pcg32(seed, 1)
        _, _, counts = sample_and_select(p, mu, mu + extra, rng)
        pop = sample_population(p, mu + extra, twin)
        # the oracle draws the key words right after the population
        chosen = select_mu_best(pop.sum(axis=1), mu, key_words(twin, mu + extra))
        expected = pop[chosen].sum(axis=0)
        assert counts.tolist() == expected.tolist()
        assert rng.state == twin.state

    def test_step_loop_reproduces_run(self):
        cfg = UmdaConfig(n=30, mu=6, lam=18, master_seed=9, run_index=4)
        result = run(cfg)
        rng = cfg.make_rng()
        p = FrequencyVector.uniform(cfg.n)
        expected = []
        while True:
            _, fitness, counts = sample_and_select(p, cfg.mu, cfg.lam, rng)
            upd = update_frequencies(counts, cfg.mu, p.borders)
            p = upd.frequencies
            expected.append(
                (int(upd.lower_hits.sum()), int(upd.upper_hits.sum()),
                 int(fitness.max()), cfg.n - 1 - p.values.sum(), p.values.min())
            )
            if fitness.max() == cfg.n:
                break
        records = [
            (r.lower_border_hits, r.upper_border_hits, r.best_fitness,
             r.potential, r.min_frequency)
            for r in result.telemetry.per_generation
        ]
        assert result.verdict == "optimum_found"
        assert result.generations == len(expected)
        assert np.array_equal(result.final_frequencies.values, p.values)
        assert records == expected
        assert result.telemetry.total_lower_border_hits == sum(e[0] for e in expected)
        assert result.telemetry.total_upper_border_hits == sum(e[1] for e in expected)


class TestRun:
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
        with pytest.raises(ValueError):
            UmdaConfig(n=10, mu=2, lam=5, max_generations=-1)
        # Pcg32 would alias these onto in-range seeds and streams
        for bad in ({"master_seed": -1}, {"master_seed": 2**64},
                    {"run_index": -1}, {"run_index": 2**63}):
            with pytest.raises(ValueError):
                UmdaConfig(n=10, mu=2, lam=5, **bad)
        UmdaConfig(n=10, mu=2, lam=5, master_seed=2**64 - 1, run_index=2**63 - 1)

    def test_population_past_the_bound_is_rejected_before_any_allocation(self):
        # one past the bound, run would sample a 2-GiB bool matrix; the config
        # refuses first, so not even 1 MiB is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"need lam \* n <= 2147483648, got 1024 \* 2097153"):
                run(UmdaConfig(n=2**21 + 1, mu=1, lam=2**10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        at_bound = UmdaConfig(n=2**21, mu=1, lam=2**10)
        assert at_bound.lam * at_bound.n == MAX_POPULATION_BYTES


@given(
    n=st.integers(1, 16),
    mu=st.integers(1, 6),
    extra=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    borders=st.booleans(),
)
@example(n=1, mu=3, extra=1, seed=0, borders=False)
@settings(max_examples=30, deadline=None)
def test_run_invariants_random_configs(n, mu, extra, seed, borders):
    assume(n >= 2 or not borders)
    cfg = UmdaConfig(
        n=n, mu=mu, lam=mu + extra, borders=borders,
        master_seed=seed, max_generations=30,
    )
    result = run(cfg)
    if result.verdict == "stagnated":
        assert not borders
    assert result.evaluations == cfg.lam * result.generations
    tel = result.telemetry
    assert len(tel.per_generation) == result.generations
    assert sum(s.lower_border_hits for s in tel.per_generation) == tel.total_lower_border_hits
    assert sum(s.upper_border_hits for s in tel.per_generation) == tel.total_upper_border_hits
    # the run's vectors come from a level table checked once, not per
    # generation, so every record must lie within the limits
    p = result.final_frequencies
    for s in tel.per_generation:
        assert p.lower_limit <= s.min_frequency <= s.max_frequency <= p.upper_limit
    v = p.values
    if not borders:
        assert (result.verdict == "stagnated") == bool((v == 0.0).any())
    on_grid = np.round(v * mu) / mu == v
    if borders:
        on_grid |= (v == 1 / n) | (v == 1 - 1 / n)
    assert on_grid.all()
