import numpy as np
import pytest

from umda import verification
from umda.levels import decompose
from umda.oracles import (
    PmfTable,
    capped_binomial_lower_bound,
    poisson_binomial_pmf,
)
from umda.verification import (
    CheckResult,
    check_capped_binomial_bound,
    check_chunk_property,
    check_decomposition_invariants,
    check_dominance,
    check_drift_sign,
    check_pmf_properties,
)


def table_of(p, pmf):
    """A PmfTable of `pmf` with the mean and variance of `pmf`, so that only
    the pmf itself can miss a bound."""
    ks = np.arange(pmf.size)
    mean = float(np.dot(ks, pmf))
    return PmfTable(p, pmf, mean, float(np.dot((ks - mean) ** 2, pmf)))


def scaled_pmf(factor):
    """A stand-in `poisson_binomial_pmf`: the exact pmf times `factor`."""
    return lambda p: table_of(p, poisson_binomial_pmf(p).pmf * factor)


def moment_off_by(delta):
    """A stand-in `poisson_binomial_pmf` whose variance is `delta` off its pmf's."""
    def fake(p):
        table = poisson_binomial_pmf(p)
        return PmfTable(p, table.pmf, table.mean, table.variance + delta)
    return fake


def dip_at_zero(depth):
    """A stand-in `poisson_binomial_pmf`: mass `depth` at 0 and the rest at m,
    so the pmf falls by `depth` from 0 to 1, below its mean m * (1 - depth)."""
    return lambda p: table_of(p, np.r_[depth, np.zeros(p.size - 1), 1.0 - depth])


def chunk_table(*pmf):
    """A stand-in `poisson_binomial_pmf` returning one fixed table, sigma = 0."""
    return lambda p: PmfTable(p, np.array(pmf), 0.0, 0.0)


def zeros_then_mu(zeros):
    """A stand-in `focal_one_counts`: X_{t+1} = 0 in `zeros` trials, mu in the
    rest, so the empirical CDF excess over Bin(mu, x/mu) is zeros/trials
    less P(Bin = 0) <= 0.8**50."""
    return lambda p, mu, lam, x_t, trials, rng: np.repeat([0, mu], [zeros, trials - zeros])


# Per case: the `verification` global a stand-in replaces, the stand-in, the
# check it runs with, and whether that check must pass.  The first six miss
# their check's bound by far; the rest land just inside (PASS) or just past
# (FAIL) one numeric bound, at the check's defaults: 300 of the dominance
# check's 10 000 trials per x_t give an excess of exactly 0.03.
MISSED_BOUNDS = {
    # a floor of 2 above E[min(1, Bin(d, p))] <= 1
    "capped_binomial_lower_bound": ("capped_binomial_lower_bound", lambda c, d, p: 2.0,
                                    check_capped_binomial_bound, False),
    # a flat table whose mass sums to m + 1
    "poisson_binomial_pmf": ("poisson_binomial_pmf",
                             lambda p: PmfTable(p, np.ones(p.size + 1), 0.0, 0.0),
                             check_pmf_properties, False),
    # a one-point chunk at k = 0, short of 1 - ell - u coverage
    "chunk_bounds": ("chunk_bounds", lambda table, ell, u: (0, 0), check_chunk_property, False),
    # one individual dropped, so the level counts sum to lambda - 1
    "decompose": ("decompose", lambda bits, mu, focal_bit: decompose(bits[1:], mu, focal_bit),
                  lambda: check_decomposition_invariants(generations=6), False),
    # X_{t+1} = 0 in every trial, so its empirical CDF is 1 from the start
    "focal_one_counts": ("focal_one_counts",
                         lambda p, mu, lam, x_t, trials, rng: np.zeros(trials, int),
                         lambda: check_dominance(x_values=(25,), trials=100), False),
    # a positive drift at z = 0.1
    "empirical_step_drift": ("empirical_step_drift",
                             lambda p, mu, lam, x_t, trials, rng: (0.1, 1.0),
                             lambda: check_drift_sign(trials=100), False),
    # capped slack >= -1e-12
    "capped_slack_inside": ("expected_min_capped_binomial",
                            lambda c, d, p: capped_binomial_lower_bound(c, d, p) - 0.9e-12,
                            check_capped_binomial_bound, True),
    "capped_slack_past": ("expected_min_capped_binomial",
                          lambda c, d, p: capped_binomial_lower_bound(c, d, p) - 1.1e-12,
                          check_capped_binomial_bound, False),
    # PMF norm error <= 1e-12
    "pmf_norm_inside": ("poisson_binomial_pmf", scaled_pmf(1 + 0.9e-12),
                        check_pmf_properties, True),
    "pmf_norm_past": ("poisson_binomial_pmf", scaled_pmf(1 + 1.1e-12),
                      check_pmf_properties, False),
    # PMF moment error <= 1e-9
    "pmf_moment_inside": ("poisson_binomial_pmf", moment_off_by(0.9e-9),
                          check_pmf_properties, True),
    "pmf_moment_past": ("poisson_binomial_pmf", moment_off_by(1.1e-9),
                        check_pmf_properties, False),
    # PMF unimodality tolerance 1e-14
    "pmf_unimodality_inside": ("poisson_binomial_pmf", dip_at_zero(0.9e-14),
                               check_pmf_properties, True),
    "pmf_unimodality_past": ("poisson_binomial_pmf", dip_at_zero(1.1e-14),
                             check_pmf_properties, False),
    # chunk sigma-scaled pmf >= 0.1: the whole table is the chunk, its least point 0.1
    "chunk_scaled_pmf_at_bound": ("poisson_binomial_pmf", chunk_table(0.45, 0.1, 0.45),
                                  check_chunk_property, True),
    "chunk_scaled_pmf_past": ("poisson_binomial_pmf", chunk_table(0.45, 0.0999, 0.45),
                              check_chunk_property, False),
    # chunk coverage slack >= -1e-12: a one-point table of mass 1/2 - delta
    "chunk_coverage_inside": ("poisson_binomial_pmf", chunk_table(0.5 - 0.9e-12),
                              check_chunk_property, True),
    "chunk_coverage_past": ("poisson_binomial_pmf", chunk_table(0.5 - 1.1e-12),
                            check_chunk_property, False),
    # dominance excess <= 0.03
    "dominance_excess_at_bound": ("focal_one_counts", zeros_then_mu(300), check_dominance, True),
    "dominance_excess_past": ("focal_one_counts", zeros_then_mu(301), check_dominance, False),
    # drift z >= 5.0
    "drift_z_at_bound": ("empirical_step_drift",
                         lambda p, mu, lam, x_t, trials, rng: (5.0, 1.0), check_drift_sign, True),
    "drift_z_past": ("empirical_step_drift",
                     lambda p, mu, lam, x_t, trials, rng: (4.99, 1.0), check_drift_sign, False),
}


@pytest.mark.parametrize("case", MISSED_BOUNDS)
def test_check_fails_when_its_bound_is_missed(monkeypatch, case):
    name, fake, check, passes = MISSED_BOUNDS[case]
    monkeypatch.setattr(verification, name, fake)
    result = check()
    assert result.passed == passes, result.summary()


def test_summary_lines():
    ok = CheckResult(name="thing", passed=True, measured={"v": 1.25}, detail="d")
    bad = CheckResult(name="thing", passed=False)
    assert ok.summary().startswith("PASS thing (v=1.25)")
    assert bad.summary().startswith("FAIL thing")
