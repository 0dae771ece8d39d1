import numpy as np
import pytest

from umda import verification
from umda.levels import decompose
from umda.oracles import PmfTable
from umda.verification import (
    CheckResult,
    check_capped_binomial_bound,
    check_chunk_property,
    check_decomposition_invariants,
    check_dominance,
    check_drift_sign,
    check_pmf_properties,
)


def test_capped_binomial_check_passes():
    result = check_capped_binomial_bound()
    assert result.passed
    assert result.measured["min_slack"] >= -1e-12


def test_pmf_check_small():
    result = check_pmf_properties(instances=60, max_m=80, seed=101)
    assert result.passed
    assert result.measured["max_norm_error"] <= 1e-12
    assert result.measured["unimodality_violations"] == 0


def test_dominance_check_small():
    result = check_dominance(x_values=(25,), trials=2000, seed=104)
    assert result.passed


# Per check, a stand-in `verification` global that makes it miss its fixed bound.
MISSED_BOUNDS = {
    # a floor of 2 above E[min(1, Bin(d, p))] <= 1
    "capped_binomial_lower_bound": (lambda c, d, p: 2.0, check_capped_binomial_bound),
    # a flat table whose mass sums to m + 1
    "poisson_binomial_pmf": (lambda p: PmfTable(p, np.ones(p.size + 1), 0.0, 0.0),
                             lambda: check_pmf_properties(instances=5, max_m=10)),
    # a one-point chunk at k = 0, short of 1 - ell - u coverage
    "chunk_bounds": (lambda table, ell, u: (0, 0),
                     lambda: check_chunk_property(instances=5, m_range=(5, 20))),
    # one individual dropped, so the level counts sum to lambda - 1
    "decompose": (lambda bits, mu, focal_bit: decompose(bits[1:], mu, focal_bit),
                  lambda: check_decomposition_invariants(generations=6)),
    # X_{t+1} = 0 in every trial, so its empirical CDF is 1 from the start
    "focal_one_counts": (lambda p, mu, lam, x_t, trials, rng: np.zeros(trials, int),
                         lambda: check_dominance(x_values=(25,), trials=100)),
    # a positive drift at z = 0.1
    "empirical_step_drift": (lambda p, mu, lam, x_t, trials, rng: (0.1, 1.0),
                             lambda: check_drift_sign(trials=100)),
}


@pytest.mark.parametrize("name", MISSED_BOUNDS)
def test_check_fails_when_its_bound_is_missed(monkeypatch, name):
    fake, check = MISSED_BOUNDS[name]
    monkeypatch.setattr(verification, name, fake)
    assert not check().passed


def test_summary_lines():
    ok = CheckResult(name="thing", passed=True, measured={"v": 1.25}, detail="d")
    bad = CheckResult(name="thing", passed=False)
    assert ok.summary().startswith("PASS thing (v=1.25)")
    assert bad.summary().startswith("FAIL thing")
