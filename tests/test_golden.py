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
from umda.verification import (
    check_decomposition_invariants,
    check_dominance,
    check_drift_sign,
    run_all_checks,
)


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


def test_verify_path_summary_digest():
    # the decomposition walk and the focal single-step trials behind the
    # dominance and drift checks, at reduced sizes and their default seeds
    results = (
        check_decomposition_invariants(generations=600),
        check_dominance(trials=2000),
        check_drift_sign(trials=2000),
    )
    text = "\n".join(r.summary() for r in results)
    assert digest(text.encode()) == (
        "1d0964f6534bf058d943ac6b6b95fee4c92cd939dd0b78a5e760ac56499a9b0b"
    )
    # the summary rounds to 6 digits, so the measured values are pinned in full too
    assert [r.measured for r in results] == [
        {"generations_checked": 600, "violations": 0, "degenerate_generations": 0},
        {"max_cdf_excess": 3.0171879323193096e-05, "epsilon": 0.03},
        {"mean_drift": 2.706, "stderr": 0.07783515372617818, "z": 34.765782174974944},
    ]


def test_reference_sweep_csv_digest():
    # tests/reference_sweep_n2000.csv, as scripts/reference_sweep.cfg writes it
    path = Path(__file__).resolve().parent / "reference_sweep_n2000.csv"
    assert digest(path.read_bytes()) == (
        "a2a1aafd21d08c3b4a10e6051d5ab2ee11c0e081129180b95d85c7a28da98908"
    )
