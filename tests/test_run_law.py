"""The exact law of a whole run at tiny sizes, as a stream-free oracle.

test_exact_law.py checks one ``sample_and_select`` from a given model, so it
cannot see a fault that spans generations: a stale model, a state not rebuilt
after the update, a run that stops a generation late.  At tiny sizes a whole
run is a finite absorbing Markov chain (Kemeny and Snell, *Finite Markov
Chains*, 1960) whose law can be computed exactly.

A state is the model the next generation samples from: a count vector in
{0..mu}^n mapped through the update (c / mu, capped into [1/n, 1 - 1/n] when
borders are on), plus the all-1/2 start.  Count vectors that map to the same
frequencies are one state.  One step's kernel is ``exact_joint_law``: the
count vector's law with one more index bit, whether the population held the
optimum.  Without borders, a generation that does not hold the optimum and
leaves some count at 0 ends the run as stagnated.  With a budget B, a run's
outcome is (verdict, T, final state), and its exact law takes B
vector-matrix products.

The final state is part of the outcome on purpose: runs here find the
optimum within 2 to 4 generations, before the caps matter much, so the law
of T alone cannot tell the borders 1/n from 1/(n + 1).
"""

import numpy as np
import pytest

from test_exact_law import ALPHA, SEED, chi_square_pvalue, exact_joint_law
from umda.bitmodel import FrequencyVector
from umda.core import UmdaConfig, run

#: Runs sampled per case, about 5 s each.
RUNS = 20_000
VERDICTS = ("optimum_found", "stagnated", "budget_exhausted")


def model_states(n: int, mu: int, borders: bool):
    """(states, start, state_of): the distinct models as rows, the row of the
    all-1/2 start, and the row each count vector (indexed as in exact_law) maps to."""
    levels = np.arange(mu + 1) / mu
    if borders:
        levels = np.minimum(np.maximum(levels, 1.0 / n), 1.0 - 1.0 / n)
    counts = np.arange((mu + 1) ** n)[:, None] // (mu + 1) ** np.arange(n) % (mu + 1)
    models = np.vstack([np.full(n, 0.5), levels[counts]])
    states, inverse = np.unique(models, axis=0, return_inverse=True)
    inverse = inverse.ravel()  # numpy 2.0.x returns it with the input's rank
    return states, inverse[0], inverse[1:]


def exact_run_law(n: int, mu: int, lam: int, borders: bool, budget: int) -> np.ndarray:
    """P(verdict, T, final state), shape (3, budget + 1, states); T = 0 never occurs."""
    states, start, state_of = model_states(n, mu, borders)
    size = len(states)
    # without borders a frequency is 0 exactly when its count is
    stalls = (states[state_of].min(axis=1) == 0) & (not borders)
    # kernel[v, s, s']: from model s, the generation's verdict is v and the next
    # model s'; v = 2 is no verdict.  A stagnated state is never sampled from.
    kernel = np.zeros((3, size, size))
    for s in np.flatnonzero(borders | (states.min(axis=1) > 0)):
        joint = exact_joint_law(FrequencyVector(states[s], borders), mu, lam)
        for v, weights in enumerate((joint[1], joint[0] * stalls, joint[0] * ~stalls)):
            kernel[v, s] = np.bincount(state_of, weights=weights, minlength=size)
    law = np.zeros((3, budget + 1, size))
    going = np.eye(size)[start]  # the law of the model sampled next, on runs not yet ended
    for t in range(1, budget + 1):
        law[0, t], law[1, t], going = going @ kernel
    law[2, budget] = going
    return law


def sampled_run_law(n: int, mu: int, lam: int, borders: bool,
                    budget: int) -> tuple[np.ndarray, int]:
    """Observed outcome counts of RUNS runs, indexed as in exact_run_law, and
    the number of runs whose final model is none of the chain's states."""
    states, _, _ = model_states(n, mu, borders)
    state = {tuple(row): s for s, row in enumerate(states)}
    observed = np.zeros((3, budget + 1, len(states)), dtype=np.int64)
    off_chain = 0
    for r in range(RUNS):
        result = run(UmdaConfig(n, mu, lam, borders, max_generations=budget, master_seed=SEED,
                                run_index=r, record_telemetry=False))
        final = state.get(tuple(result.final_frequencies.values))
        if final is None:
            off_chain += 1
        else:
            observed[VERDICTS.index(result.verdict), result.generations, final] += 1
    return observed, off_chain


# (n, mu, lam, borders, budget B): 81 states each; without borders B = 10
# leaves a budget-exhausted share of 2e-8, so nearly every run is absorbed
CASES = {
    "borders": (4, 2, 4, True, 3),
    "borderless": (4, 2, 4, False, 10),
}


@pytest.mark.parametrize("case", list(CASES))
def test_runs_follow_the_exact_run_law(case):
    law = exact_run_law(*CASES[case])
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    observed, off_chain = sampled_run_law(*CASES[case])
    assert off_chain == 0, f"{off_chain} runs ended in a model outside the chain's states"
    pvalue = chi_square_pvalue(observed.ravel(), law.ravel())
    assert pvalue > ALPHA, f"chi-square p = {pvalue:.3g}"


def test_chain_matches_hand_counts():
    states, start, state_of = model_states(4, 2, borders=True)
    # three levels per position, the start being the all-1/2 level
    assert len(states) == 81 and states[start].tolist() == [0.5] * 4
    assert len(set(state_of.tolist())) == 81
    # without borders nearly every run ends by the optimum or stagnation
    law = exact_run_law(*CASES["borderless"])
    assert law[0].sum() == pytest.approx(0.4709, abs=5e-5)
    assert law[2].sum() < 1e-7
    # generation 1 samples the start: the optimum is in it with 1 - (1 - 2^-4)^4
    assert law[0, 1].sum() == pytest.approx(1 - (15 / 16) ** 4, rel=1e-12)
    assert law[:, 0].sum() == 0 and law[1].sum() > 0
