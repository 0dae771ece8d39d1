import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umda import core
from umda.bitmodel import FrequencyVector, count_ones, sample_population
from umda.core import select_mu_best
from umda.levels import decompose, focal_one_counts
from umda.rng import Pcg32


def population_with_levels(levels, n, focal_bit=0):
    """Bool rows whose fitness-without-focal equals the given levels (focal = 0)."""
    lam = len(levels)
    bits = np.zeros((lam, n), dtype=bool)
    positions = [i for i in range(n) if i != focal_bit]
    for row, level in enumerate(levels):
        assert level <= len(positions)
        for i in positions[:level]:
            bits[row, i] = True
    return bits


def test_hand_ranked_toy_one():
    # levels [3, 3, 2, 1], mu=2: cut at 3, no open slot, one candidate
    pop = population_with_levels([3, 3, 2, 1], n=6)
    dec = decompose(pop, mu=2, focal_bit=0)
    assert dec.cut_level == 3
    assert dec.open_slots == 0
    assert dec.candidate_count == 1
    assert dec.surplus_candidates == 1
    assert not dec.degenerate


def test_hand_ranked_toy_two():
    # levels [3, 2, 2, 1], mu=2: cut at 3, one open slot, two candidates
    pop = population_with_levels([3, 2, 2, 1], n=6)
    dec = decompose(pop, mu=2, focal_bit=0)
    assert dec.cut_level == 3
    assert dec.open_slots == 1
    assert dec.candidate_count == 2
    assert dec.surplus_candidates == 1


def test_level_counts_and_classes():
    pop = population_with_levels([4, 3, 3, 2, 2, 2, 0], n=6)
    dec = decompose(pop, mu=3, focal_bit=0)
    assert dec.level_counts.sum() == 7
    assert dec.counts_at_or_above[0] == 7
    # at-or-above 3 is 3 individuals = mu, at-or-above 2 is 6 > mu
    assert dec.cut_level == 3
    assert set(dec.first_class_ids) == {0}
    assert set(dec.candidate_ids) == {3, 4, 5}


def test_degenerate_top_level():
    # everyone in the top level: cut capped at n-1, open slots clamped to 0
    n = 5
    pop = population_with_levels([n - 1] * 6, n=n)
    dec = decompose(pop, mu=2, focal_bit=0)
    assert dec.degenerate
    assert dec.cut_level == n - 1
    assert dec.open_slots == 0
    assert dec.candidate_count == 0
    assert dec.surplus_candidates >= 1


def test_rejects_lambda_not_above_mu():
    pop = population_with_levels([2, 1], n=4)
    with pytest.raises(ValueError):
        decompose(pop, mu=2, focal_bit=0)


@given(
    n=st.integers(2, 12),
    mu=st.integers(1, 8),
    extra=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_invariants_on_random_populations(n, mu, extra, seed, data):
    lam = mu + extra
    focal = data.draw(st.integers(0, n - 1))
    rng = Pcg32(seed, 0)
    pvals = rng.next_u32_block(n) / 2**32
    p = FrequencyVector(pvals, borders=False)
    pop = sample_population(p, lam, rng)
    dec = decompose(pop, mu, focal)
    assert int(dec.level_counts.sum()) == lam
    assert int(dec.counts_at_or_above[0]) == lam
    assert dec.cut_level >= 1
    assert dec.surplus_candidates >= 1
    assert int(dec.counts_at_or_above[dec.cut_level - 1]) > mu
    if not dec.degenerate:
        assert dec.count_at_or_above_cut <= mu
        assert dec.open_slots == mu - dec.count_at_or_above_cut
    else:
        assert dec.cut_level == n - 1
        assert dec.open_slots == 0
    # candidate/first-class bookkeeping is consistent with the counts
    assert dec.candidate_ids.size == dec.candidate_count
    assert dec.first_class_ids.size == int(
        dec.counts_at_or_above[dec.cut_level + 1]
        if dec.cut_level + 1 < n
        else 0
    )


def test_first_class_survive_selection_with_focal_forced_to_zero():
    rng = Pcg32(77, 0)
    n, mu, lam = 20, 10, 30
    p = FrequencyVector.uniform(n)
    for trial in range(40):
        pop = sample_population(p, lam, rng)
        dec = decompose(pop, mu, focal_bit=0)
        if dec.degenerate or dec.first_class_ids.size == 0:
            continue
        forced = pop.copy()
        forced[dec.first_class_ids, 0] = False
        chosen = select_mu_best(count_ones(forced, axis=1), mu, rng.next_u32_block(2 * lam))
        assert set(dec.first_class_ids.tolist()) <= set(chosen.tolist())


def open_slots_and_surplus(p, mu, lam, trials, rng):
    """(open_slots, surplus_candidates) of ``trials`` fresh populations
    from ``p``, each decomposed at focal bit 0."""
    decs = [decompose(sample_population(p, lam, rng), mu, 0) for _ in range(trials)]
    return (
        np.array([d.open_slots for d in decs]),
        np.array([d.surplus_candidates for d in decs]),
    )


class TestSecondClassDistribution:
    def test_surplus_always_at_least_one(self):
        n, mu, lam = 30, 10, 25
        p = FrequencyVector.uniform(n)
        _, surplus = open_slots_and_surplus(p, mu, lam, trials=300, rng=Pcg32(31, 0))
        assert int(surplus.min()) >= 1

    def test_open_slot_mean_scales_with_mu_over_sigma(self):
        # frozen regression floor: measured ratio ~0.40 of mu/sigma at the
        # uniform model (one-time calibration), bound set at 0.3
        n, mu, lam = 50, 50, 100
        p = FrequencyVector(np.full(n, 0.5), borders=True)
        open_slots, _ = open_slots_and_surplus(
            p, mu, lam, trials=10_000, rng=Pcg32(201, 0)
        )
        sigma = np.sqrt(n * 0.25)
        assert float(open_slots.mean()) >= 0.3 * mu / sigma

    def test_open_slot_mean_near_border_is_linear_in_mu(self):
        # sigma = O(1) regime: mean open slots is a constant fraction of mu
        # (measured ~0.26 mu, frozen floor 0.2 mu)
        n, mu, lam = 50, 50, 100
        p = FrequencyVector(np.full(n, 1 - 1 / n), borders=True)
        open_slots, _ = open_slots_and_surplus(
            p, mu, lam, trials=10_000, rng=Pcg32(202, 0)
        )
        assert float(open_slots.mean()) >= 0.2 * mu


def test_focal_one_counts_runs_no_update(monkeypatch):
    p = FrequencyVector.uniform(20)
    expected = focal_one_counts(p, 5, 12, x_t=3, trials=30, rng=Pcg32(3, 0))

    def update(*args, **kwargs):
        raise AssertionError("a focal trial updated the frequencies")

    monkeypatch.setattr(core, "update_frequencies", update)
    counts = focal_one_counts(p, 5, 12, x_t=3, trials=30, rng=Pcg32(3, 0))
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("x_t", [-1, 6])
def test_focal_one_counts_rejects_x_t_outside_0_to_mu(x_t):
    with pytest.raises(ValueError, match="need 0 <= x_t <= mu"):
        focal_one_counts(FrequencyVector.uniform(20), 5, 12, x_t, trials=1, rng=Pcg32(3, 0))


def test_focal_one_counts_pins_a_copy():
    # position 0 is pinned at x_t / mu = 1 without borders, so every selected
    # individual carries a one there, while the caller's vector keeps 1/2
    p = FrequencyVector.uniform(20, borders=False)
    counts = focal_one_counts(p, 5, 12, x_t=5, trials=30, rng=Pcg32(3, 0))
    assert np.array_equal(counts, np.full(30, 5))
    assert np.array_equal(p.values, np.full(20, 0.5))
