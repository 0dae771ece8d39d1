"""Pinned sha256 digests of small experiment outputs at fixed seeds.

The determinism tests elsewhere compare runs with each other, so a change
that altered every random stream the same way would still pass them.  These
digests pin the bytes themselves: a refactor that claims to change nothing
must leave every one of them as it is.
"""

import hashlib

import pytest

from umda.cli import main
from umda.core import UmdaConfig, run
from umda.experiments import (
    SweepConfig,
    emit_csv,
    export_trajectory,
    run_phase_transition_probe,
    run_sweep,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sweep_csv_digest(tmp_path):
    cfg = SweepConfig(
        n=100, lambda_values=(10, 40, 10), mu_rule="lam/2",
        runs_per_setting=20, master_seed=11,
    )
    path = tmp_path / "sweep.csv"
    emit_csv(run_sweep(cfg, threads=2), str(path), header=True)
    assert digest(path.read_bytes()) == (
        "288786762423864374ad5d7c1395718270271c3ad34d410d0f7a3fb62da64790"
    )


def test_trajectory_export_digest(tmp_path):
    cfg = UmdaConfig(
        n=12, mu=4, lam=12, master_seed=22, max_generations=9, trajectory_every=3
    )
    path = tmp_path / "trajectory.txt"
    export_trajectory(run(cfg).telemetry, str(path))
    assert digest(path.read_bytes()) == (
        "c34a292ea0d1ae9cd58fe8af6f7de76def94cdce4f7a7fd191309e10fb9f9178"
    )


def test_scaling_out_file_digest(tmp_path, capsys):
    path = tmp_path / "scaling.csv"
    rc = main(
        ["--seed", "3", "--threads", "1", "--out", str(path), "scaling",
         "--n-values", "32,64", "--mu-rule", "ceil(3*log(n))", "--runs", "6"]
    )
    assert rc == 0
    assert digest(path.read_bytes()) == (
        "475145c4ab1eeb5408742c02cb709121fc085bb365b2b081e369a7b5cfa83a64"
    )


def test_sweep_stdout_digest(capsys):
    rc = main(
        ["--seed", "11", "--threads", "1", "sweep", "--n", "100",
         "--lambdas", "10:40:10", "--mu-rule", "lam/2", "--runs", "20"]
    )
    assert rc == 0
    assert digest(capsys.readouterr().out.encode()) == (
        "07d90b465879b4397e6cd7809989e6c65cf3f5342b5e872d6849a8069f50015b"
    )


def test_phase_probe_fractions():
    small, large = run_phase_transition_probe(40, 5, 12, runs=20, master_seed=4, threads=1)
    assert (small.stagnated_fraction, small.success_fraction) == (1.0, 0.0)
    assert (large.stagnated_fraction, large.success_fraction) == pytest.approx((0.55, 0.45))
