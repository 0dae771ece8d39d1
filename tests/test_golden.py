"""Pinned sha256 digests of small experiment outputs at fixed seeds.

The determinism tests elsewhere compare runs with each other, so a change
that altered every random stream the same way would still pass them.  These
digests pin the bytes themselves: a refactor that claims to change nothing
must leave every one of them as it is.
"""

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from umda import cli
from umda.cli import main
from umda.core import UmdaConfig, run
from umda.experiments import (
    SweepConfig,
    format_row,
    run_phase_transition_probe,
    run_sweep,
    sweep_lines,
    write_lines,
)
from umda.verification import run_all_checks


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sweep_csv_digest(tmp_path):
    cfg = SweepConfig(
        n=100, lambda_values=(10, 40, 10), mu_rule="lam/2",
        runs_per_setting=20, master_seed=11,
    )
    path = tmp_path / "sweep.csv"
    write_lines(str(path), sweep_lines(run_sweep(cfg, threads=2), header=True))
    assert digest(path.read_bytes()) == (
        "288786762423864374ad5d7c1395718270271c3ad34d410d0f7a3fb62da64790"
    )


def test_generation_records_digest():
    # every field of every per-generation record, floats at full repr, then
    # both totals; n <= 64 keeps each float sum inside one numpy
    # pairwise-summation block, so the sums do not depend on its blocking
    result = run(UmdaConfig(n=48, mu=12, lam=24, master_seed=1))
    assert (result.verdict, result.generations) == ("optimum_found", 25)
    telemetry = result.telemetry
    lines = [";".join(repr(v) for v in astuple(s)) for s in telemetry.per_generation]
    lines.append(f"{telemetry.total_lower_border_hits};{telemetry.total_upper_border_hits}")
    assert digest("\n".join(lines).encode()) == (
        "5119b7502100aacfefb88469dc84a01baee421d86d6e9ae3e3dc19b3ad69cd2e"
    )


def test_trajectory_export_digest(tmp_path):
    # Rows of the final frequencies of runs truncated at t generations.  The
    # rows stop at 6 because a budget of 9 finds the optimum at generation 8.
    def cfg(t):
        return UmdaConfig(n=12, mu=4, lam=12, master_seed=22, max_generations=t)

    result = run(cfg(9))
    assert (result.verdict, result.generations) == ("optimum_found", 8)
    path = tmp_path / "trajectory.txt"
    write_lines(
        str(path), [format_row([t], run(cfg(t)).final_frequencies.values) for t in (0, 3, 6)]
    )
    assert digest(path.read_bytes()) == (
        "c34a292ea0d1ae9cd58fe8af6f7de76def94cdce4f7a7fd191309e10fb9f9178"
    )


SCALING_ARGV = ["scaling", "--seed", "3", "--threads", "1", "--n-values", "32,64",
                "--mu-rule", "ceil(3*log(n))", "--runs", "6"]


def test_scaling_out_file_digest(tmp_path, capsys):
    path = tmp_path / "scaling.csv"
    rc = main(SCALING_ARGV + ["--out", str(path)])
    assert rc == 0
    assert digest(path.read_bytes()) == (
        "475145c4ab1eeb5408742c02cb709121fc085bb365b2b081e369a7b5cfa83a64"
    )


def test_scaling_stdout_digest(capsys):
    assert main(SCALING_ARGV) == 0
    assert digest(capsys.readouterr().out.encode()) == (
        "018a053875252ddf4baabf9d5ba1adf56d72f75e8c6155997f131434b65780ce"
    )


def test_sweep_stdout_digest(capsys):
    rc = main(
        ["sweep", "--seed", "11", "--threads", "1", "--n", "100",
         "--lambdas", "10:40:10", "--mu-rule", "lam/2", "--runs", "20"]
    )
    assert rc == 0
    assert digest(capsys.readouterr().out.encode()) == (
        "07d90b465879b4397e6cd7809989e6c65cf3f5342b5e872d6849a8069f50015b"
    )


HEADER_SWEEP_ARGV = ["sweep", "--seed", "11", "--threads", "1", "--n", "100",
                     "--lambdas", "10:40:10", "--runs", "20", "--header"]


def test_sweep_header_stdout_digest(capsys):
    assert main(HEADER_SWEEP_ARGV) == 0
    assert digest(capsys.readouterr().out.encode()) == (
        "288786762423864374ad5d7c1395718270271c3ad34d410d0f7a3fb62da64790"
    )


def test_sweep_header_out_file_digest(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert main(HEADER_SWEEP_ARGV + ["--out", str(path)]) == 0
    assert digest(path.read_bytes()) == (
        "288786762423864374ad5d7c1395718270271c3ad34d410d0f7a3fb62da64790"
    )


def test_phase_probe_fractions():
    small, large = run_phase_transition_probe(40, 5, 12, runs=20, master_seed=4, threads=1)
    assert (small.stagnated_fraction, small.success_fraction) == (1.0, 0.0)
    assert (large.stagnated_fraction, large.success_fraction) == pytest.approx((0.55, 0.45))


def test_phase_stdout_digest(capsys):
    # a budget of 10 generations leaves all three verdicts in the `above` row:
    # stagnated 0.55, success 0.2, budget 0.25
    rc = main(
        ["phase", "--seed", "4", "--threads", "1", "--n", "40", "--mu-small", "5",
         "--mu-large", "12", "--runs", "20", "--max-generations", "10"]
    )
    assert rc == 0
    assert digest(capsys.readouterr().out.encode()) == (
        "34d7e5e6c33c4d222a7d74093fa088b53ceffb4e16ebc2c82734a8337498878d"
    )


def test_verify_stdout_and_measured_digest(monkeypatch, capsys):
    # `umda verify` once at its defaults: its exit status and printed lines,
    # and every check's name, verdict and measured values at full float
    # precision (the summary lines round them to 6 digits)
    kept = []

    def keep():
        kept.extend(run_all_checks())
        return kept

    monkeypatch.setattr(cli, "run_all_checks", keep)
    assert main(["verify"]) == 0
    assert digest(capsys.readouterr().out.encode()) == (
        "3d65b87fafff72b791875359dbc6c41b1f40be626d80ee1bbe2e8232bb144f00"
    )
    measured = [[r.name, bool(r.passed), {k: float(v) for k, v in r.measured.items()}]
                for r in kept]
    assert digest(json.dumps([measured]).encode()) == (
        "45f7e145190292b701095b301c0b3a04322d4eeee18a94da3f5157161ceb6ece"
    )


# The benchmark's two workloads at its default seed, rebuilt through the
# public API: these are the run_n2000_lam20 and sweep_n2000_lam300 digests
# of bench/golden.json, so tier-1 pins every byte the benchmark pins.


@pytest.mark.parametrize("record_telemetry", [True, False])
def test_bench_lam20_runs_digest(record_telemetry):
    # runs 0-2 at n=2000, mu=10, lambda=20, each as [verdict, generations,
    # evaluations, lower hits, upper hits]; telemetry changes no byte
    records = []
    for i in range(3):
        result = run(UmdaConfig(n=2000, mu=10, lam=20, master_seed=0, run_index=i,
                                record_telemetry=record_telemetry))
        tel = result.telemetry
        records.append([result.verdict, result.generations, result.evaluations,
                        tel.total_lower_border_hits, tel.total_upper_border_hits])
        # the run invariants the benchmark checks, which other tests check
        # only up to n=64: frequencies on the grid k/mu plus the two borders,
        # one record per generation, each hit total the sum of the records
        v = result.final_frequencies.values
        assert ((np.round(v * 10) / 10 == v) | (v == 1 / 2000) | (v == 1 - 1 / 2000)).all()
        assert len(tel.per_generation) == (result.generations if record_telemetry else 0)
        if record_telemetry:
            assert sum(r.lower_border_hits for r in tel.per_generation) == (
                tel.total_lower_border_hits)
            assert sum(r.upper_border_hits for r in tel.per_generation) == (
                tel.total_upper_border_hits)
    assert digest(json.dumps(records).encode()) == (
        "649ff2e215109ffea9fe6c5d46ebfaf6a06431a15cdd242ca4aa2a66780ee96e"
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_bench_lam300_sweep_digest(threads):
    # the one row of 4 runs at n=2000, lambda=300, mu=lam/2, borders, as
    # [[lam, avg_evaluations, avg_lower_border_hits, success_fraction,
    # avg_generations]]
    cfg = SweepConfig(n=2000, lambda_values=(300, 300, 1), mu_rule="lam/2", borders=True,
                      runs_per_setting=4, master_seed=0)
    records = [[r.lam, r.avg_evaluations, r.avg_lower_border_hits, r.success_fraction,
                r.avg_generations] for r in run_sweep(cfg, threads)]
    assert digest(json.dumps(records).encode()) == (
        "17b8298b7d4b75696f6bb7c0602d5f0dd55a40b0e051ff37e0e67ccc7bd6926d"
    )


def test_reference_sweep_csv_digest():
    # tests/reference_sweep_n2000.csv, as scripts/reference_sweep.cfg writes it
    path = Path(__file__).resolve().parent / "reference_sweep_n2000.csv"
    assert digest(path.read_bytes()) == (
        "a2a1aafd21d08c3b4a10e6051d5ab2ee11c0e081129180b95d85c7a28da98908"
    )
