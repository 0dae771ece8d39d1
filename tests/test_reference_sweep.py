"""README's claims about the n=2000 runtime curve, checked on the committed
reference sweep.

`scripts/reference_sweep.cfg` (n=2000, mu=lam/2, borders on, lambda =
14..350 in steps of 8, 100 runs each, seed 1704) takes about half a CPU-hour,
so its output is committed as `reference_sweep_n2000.csv` and its sha256 is
pinned in test_golden.py.  Each criterion below was fixed before that file
was produced; a claim the file contradicts is corrected in README, not here,
and its test stays as written, marked as a strict expected failure.
A few of its runs are pinned by their per-run values and re-run through
`core.run`, which takes seconds.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from curve_shape import moving_average
from umda.core import run
from umda.experiments import CSV_HEADER, parse_config_file, sweep_config_from_mapping
from umda.rng import derive_stream

HERE = Path(__file__).resolve().parent
PRESET = HERE.parent / "scripts" / "reference_sweep.cfg"
REFERENCE = HERE / "reference_sweep_n2000.csv"


def preset_settings() -> dict:
    """The preset's UmdaConfig template of each lambda."""
    return dict(sweep_config_from_mapping(parse_config_file(str(PRESET))).settings())


@pytest.fixture(scope="module")
def curve() -> dict:
    """The committed sweep's columns, one array per CSV_HEADER name."""
    table = np.loadtxt(REFERENCE, delimiter=";", ndmin=2)
    return dict(zip(CSV_HEADER.split(";"), table.T))


def test_file_is_the_preset_sweep(curve):
    assert curve["lambda"].tolist() == list(preset_settings())
    # the claims below read success-only means
    assert np.all(curve["success_fraction"] > 0)


@pytest.mark.xfail(strict=True, reason="refuted at n=2000: the smoothed curve is lowest "
                   "at lambda=270 (31.9k evaluations); its lowest centre <= 40 is 30 (37.4k)")
def test_runtime_dips_near_lambda_20(curve):
    # the 3-point moving average of the evaluations is lowest at a centre
    # lambda <= 40
    smoothed = moving_average(curve["avg_evaluations"], window=3)
    assert curve["lambda"][1 + int(np.argmin(smoothed))] <= 40


def test_lower_border_hits_decay_exponentially(curve):
    log_hits = np.log(curve["avg_lower_border_hits"] + 1)
    # falling in lambda, and close to a straight line on a log scale
    assert sstats.spearmanr(curve["lambda"], log_hits).statistic <= -0.9
    assert sstats.pearsonr(curve["lambda"], log_hits).statistic <= -0.9


@pytest.mark.xfail(strict=True, reason="refuted at n=2000: no lambda up to 350 averages "
                   "fewer than one lower-border hit per run (21.25 at lambda=350)")
def test_transition_between_lambda_250_and_300(curve):
    # below the transition the frequencies still reach the lower border: at
    # least one hit per run on average; above it, fewer than one
    lam, hits = curve["lambda"], curve["avg_lower_border_hits"]
    assert np.all(hits[lam < 250] >= 1)
    assert np.all(hits[lam > 300] < 1)


#: (lambda, k, verdict, generations, evaluations, lower-border hits) of run k
#: of a few of the preset's settings.
PINNED_RUNS = [
    (14, 0, "optimum_found", 2659, 37226, 347544),
    (22, 37, "optimum_found", 1525, 33550, 220514),
    (142, 99, "optimum_found", 235, 33370, 3868),
    (270, 5, "optimum_found", 120, 32400, 180),
    (350, 61, "optimum_found", 93, 32550, 0),
]


@pytest.mark.parametrize("lam, k, verdict, generations, evaluations, lower_hits", PINNED_RUNS)
def test_pinned_run(lam, k, verdict, generations, evaluations, lower_hits):
    cfg = replace(preset_settings()[lam], run_index=derive_stream(lam, k))
    result = run(cfg)
    assert (result.verdict, result.generations, result.evaluations,
            result.telemetry.total_lower_border_hits) == (verdict, generations,
                                                          evaluations, lower_hits)
