import math
from dataclasses import fields

import pytest

from umda.cli import main
from umda.experiments import (
    SWEEP_SETTINGS,
    SweepConfig,
    SweepRow,
    emit_csv,
    evaluate_rule,
    format_decimal,
    has_interior_min_then_max,
    int_rule,
    moving_average,
    parse_config_file,
    run_batch,
    run_phase_transition_probe,
    run_scaling_study,
    run_sweep,
    sweep_config_from_mapping,
)
from umda.rng import derive_stream


class TestFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (41000.0, "41000.0"),
            (350.2, "350.2"),
            (1.0, "1.0"),
            (2050.0, "2050.0"),
            (0.5, "0.5"),
            (1234567.0, "1234570.0"),
            (0.000012345678, "0.0000123457"),
            (float("nan"), "nan"),
        ],
    )
    def test_six_significant_digits_fixed_notation(self, value, expected):
        assert format_decimal(value) == expected

    def test_example_row(self, tmp_path):
        row = SweepRow(20, 41000.0, 350.2, 1.0, 2050.0)
        path = tmp_path / "out.csv"
        emit_csv([row], str(path))
        assert path.read_text() == "20;41000.0;350.2;1.0;2050.0\n"

    def test_empty_rows_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == ""

    def test_header_flag(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_csv([SweepRow(10, 1.0, 2.0, 1.0, 4.0)], str(path), header=True)
        first = path.read_text().split("\n")[0]
        assert first.startswith("lambda;")

    def test_round_trip(self, tmp_path):
        rows = [
            SweepRow(20, 41000.0, 350.2, 1.0, 2050.0),
            SweepRow(24, 39875.5, 210.25, 0.995, 1661.5),
        ]
        path = tmp_path / "rt.csv"
        emit_csv(rows, str(path))
        fields_ = [line.split(";") for line in path.read_text().splitlines()]
        assert [SweepRow(int(f[0]), *map(float, f[1:])) for f in fields_] == rows


class TestRules:
    def test_lam_half(self):
        assert int_rule("lam/2", lam=20) == 10
        assert int_rule("lam/2", lam=14) == 7

    def test_ceil_of_irrational(self):
        n = 256
        expected = math.ceil(3 * math.sqrt(n) * math.log(n))
        assert int_rule("3*sqrt(n)*log(n)", n=n) == expected
        assert int_rule("ceil(3*sqrt(n)*log(n))", n=n) == expected

    def test_exact_integers_kept(self):
        assert int_rule("2*mu", mu=33) == 66
        assert int_rule("128", ) == 128

    def test_rejects_unknown_names_and_calls(self):
        with pytest.raises(ValueError):
            evaluate_rule("os.system('x')", n=1)
        with pytest.raises(ValueError):
            evaluate_rule("q + 1", n=1)
        with pytest.raises(ValueError):
            evaluate_rule("__import__('os')", n=1)
        with pytest.raises(ValueError):
            evaluate_rule("lam/", lam=4)


class TestStreams:
    def test_injective_over_grid(self):
        seen = set()
        for lam in range(10, 200, 2):
            for k in range(50):
                seen.add(derive_stream(lam, k))
        assert len(seen) == 95 * 50

    def test_stable_values(self):
        # appending runs or settings never changes existing streams
        assert derive_stream(20, 0) == 20 << 32
        assert derive_stream(20, 7) == (20 << 32) | 7

    def test_rejects_wide_run_index(self):
        with pytest.raises(ValueError):
            derive_stream(1, 1 << 32)

    def test_rejects_setting_outside_31_bits(self):
        # Pcg32's increment (stream << 1) | 1 drops bit 63, so a setting of
        # 2**31 would share its streams with setting 0
        assert derive_stream((1 << 31) - 1, 0) == ((1 << 31) - 1) << 32
        with pytest.raises(ValueError):
            derive_stream(5 + (1 << 31), 3)
        with pytest.raises(ValueError):
            derive_stream(-1, 0)


class TestSweepConfig:
    def test_lambda_range_inclusive(self):
        cfg = SweepConfig(n=50, lambda_values=(10, 30, 10), runs_per_setting=1)
        assert cfg.lambdas() == [10, 20, 30]

    def test_rejects_bad_step_and_range(self):
        with pytest.raises(ValueError):
            SweepConfig(n=50, lambda_values=(10, 30, 0))
        with pytest.raises(ValueError):
            SweepConfig(n=50, lambda_values=(30, 10, 2))

    def test_rejects_mu_rule_violating_selection(self):
        with pytest.raises(ValueError):
            SweepConfig(n=50, lambda_values=(4, 8, 2), mu_rule="lam")

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# desk sweep\n"
            "n = 500\n"
            "lambda_values = 10:150:4\n"
            "mu_rule = lam/2\n"
            "borders = restricted\n"
            "runs_per_setting = 200\n"
            "master_seed = 10\n"
            "output_path = out.csv\n"
        )
        cfg = sweep_config_from_mapping(parse_config_file(str(path)))
        assert cfg.n == 500
        assert cfg.lambda_values == (10, 150, 4)
        assert cfg.runs_per_setting == 200
        assert cfg.borders is True
        assert cfg.output_path == "out.csv"

    def test_settings_table_lists_every_field(self):
        assert list(SWEEP_SETTINGS) == [f.name for f in fields(SweepConfig)]

    def test_empty_max_generations_means_default(self):
        base = {"n": "30", "lambda_values": "10:10:1"}
        assert sweep_config_from_mapping({**base, "max_generations": ""}).max_generations is None
        assert sweep_config_from_mapping({**base, "max_generations": "0"}).max_generations == 0

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match="requires"):
            sweep_config_from_mapping({"n": "10"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            sweep_config_from_mapping({"n": "10", "lambda_values": "4:8:2", "x": "1"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n: 500\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))


class TestSweep:
    def test_deterministic_and_byte_identical(self, tmp_path):
        cfg = SweepConfig(
            n=40, lambda_values=(8, 16, 8), runs_per_setting=5, master_seed=3
        )
        rows_a = run_sweep(cfg, threads=1)
        rows_b = run_sweep(cfg, threads=2)
        assert rows_a == rows_b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows_a, str(pa))
        emit_csv(rows_b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_censored_runs_excluded_from_averages(self):
        cfg = SweepConfig(
            n=64,
            lambda_values=(6, 6, 1),
            runs_per_setting=4,
            master_seed=5,
            max_generations=1,
        )
        (row,) = run_sweep(cfg, threads=1)
        assert row.success_fraction == 0.0
        assert math.isnan(row.avg_evaluations)
        assert math.isnan(row.avg_generations)

    def test_success_metrics_consistent(self):
        cfg = SweepConfig(
            n=30, lambda_values=(10, 10, 1), runs_per_setting=8, master_seed=6
        )
        (row,) = run_sweep(cfg, threads=1)
        assert row.success_fraction == 1.0
        assert row.avg_evaluations == pytest.approx(10 * row.avg_generations)


class TestScalingAndPhase:
    def test_singleton_slope_absent(self):
        result = run_scaling_study(
            [32], "ceil(3*sqrt(n)*log(n))", runs=3, master_seed=7, threads=1
        )
        assert result.slope_generations is None
        assert result.rows[0].success_fraction == 1.0

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            run_scaling_study([64, 32], "ceil(3*sqrt(n)*log(n))", runs=1)

    def test_rejects_repeated_sizes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            run_scaling_study([32, 32], "ceil(3*log(n))", runs=3, threads=1)

    def test_batch_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            run_batch([(8, {"mu": 4, "lam": 8})], 0, 0, 1, n=10, borders=True)

    def test_phase_probe_orders_mus(self):
        with pytest.raises(ValueError):
            run_phase_transition_probe(100, 50, 10, runs=2)

    def test_phase_probe_small_case(self):
        small, large = run_phase_transition_probe(
            80, 4, 60, runs=6, master_seed=8, threads=1
        )
        assert small.stagnated_fraction + small.success_fraction + small.budget_fraction == pytest.approx(1.0)
        assert large.success_fraction >= 0.5


class TestCurveDiagnostics:
    def test_moving_average(self):
        out = moving_average([1, 2, 3, 4, 5], window=5)
        assert out.tolist() == [3.0]
        out3 = moving_average([2, 4, 6, 8], window=1)
        assert out3.tolist() == [2, 4, 6, 8]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            moving_average([1, 2], window=3)

    def test_min_then_max_detection(self):
        assert has_interior_min_then_max([5, 2, 4, 1, 0])
        assert not has_interior_min_then_max([5, 4, 3, 2, 1])
        assert not has_interior_min_then_max([1, 2, 3, 4, 5])
        # max before min only does not qualify
        assert not has_interior_min_then_max([1, 5, 0, 0, 0])


class TestCli:
    def test_sweep_writes_file(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        rc = main(
            [
                "--seed", "3", "--threads", "1", "--out", str(out),
                "sweep", "--n", "40", "--lambdas", "8:16:8", "--runs", "3",
            ]
        )
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 2

    def test_sweep_prints_without_out(self, capsys):
        rc = main(
            ["--threads", "1", "sweep", "--n", "30", "--lambdas", "10:10:1",
             "--runs", "2"]
        )
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith("10;")

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("n = 30\nlambda_values = 10:10:1\nruns_per_setting = 2\n")
        out = tmp_path / "o.csv"
        rc = main(
            ["--config", str(cfgfile), "--threads", "1", "--out", str(out), "sweep"]
        )
        assert rc == 0
        assert out.exists()

    def test_each_sweep_flag_overrides_its_config_key(self, tmp_path, monkeypatch):
        from umda import cli

        captured = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg, threads: captured.append(cfg) or [])
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "n = 30\nlambda_values = 10:10:1\nmu_rule = lam/2\nborders = restricted\n"
            "runs_per_setting = 2\nmaster_seed = 1\nmax_generations = 5\n"
            "output_path = a.csv\n"
        )
        out = str(tmp_path / "b.csv")
        rc = main(
            ["--config", str(cfgfile), "--seed", "9", "--out", out, "sweep",
             "--n", "40", "--lambdas", "8:16:8", "--mu-rule", "lam/4",
             "--borders", "unrestricted", "--runs", "3", "--max-generations", "7"]
        )
        assert rc == 0
        assert captured == [
            SweepConfig(
                n=40, lambda_values=(8, 16, 8), mu_rule="lam/4", borders=False,
                runs_per_setting=3, master_seed=9, max_generations=7, output_path=out,
            )
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--config", "{cfg}", "--threads", "1", "scaling", "--n-values", "24",
             "--mu-rule", "4", "--runs", "1"],
            ["--config", "{cfg}", "phase", "--n", "10", "--mu-small", "1",
             "--mu-large", "2", "--runs", "1"],
            ["--config", "{cfg}", "verify"],
            ["--out", "{out}", "phase", "--n", "10", "--mu-small", "1",
             "--mu-large", "2", "--runs", "1"],
            ["--out", "{out}", "verify"],
        ],
    )
    def test_global_flag_the_command_ignores_is_a_config_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from umda import cli

        def ran(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("run_scaling_study", "run_phase_transition_probe", "run_all_checks"):
            monkeypatch.setattr(cli, name, ran)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("no_such_key = 1\n")
        out = tmp_path / "f.txt"
        argv = [a.format(cfg=cfgfile, out=out) for a in argv]
        assert main(argv) == 1
        assert "does not apply to" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self):
        assert main(["--threads", "1", "sweep", "--n", "30",
                     "--lambdas", "10:4:2"]) == 1

    def test_unwritable_output_exit_code(self, tmp_path):
        rc = main(
            ["--threads", "1", "--out", str(tmp_path / "no" / "dir" / "x.csv"),
             "sweep", "--n", "30", "--lambdas", "10:10:1", "--runs", "2"]
        )
        assert rc == 2

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        from umda import cli
        from umda.verification import CheckResult

        monkeypatch.setattr(
            cli,
            "run_all_checks",
            lambda: [CheckResult(name="stub", passed=False, measured={"x": 1.0})],
        )
        assert main(["verify"]) == 3
        assert "FAIL stub" in capsys.readouterr().out

    def test_verify_success_exit_code(self, monkeypatch, capsys):
        from umda import cli
        from umda.verification import CheckResult

        monkeypatch.setattr(
            cli,
            "run_all_checks",
            lambda: [CheckResult(name="stub", passed=True, measured={})],
        )
        assert main(["verify"]) == 0
        assert "PASS stub" in capsys.readouterr().out

    def test_internal_key_error_is_not_a_config_error(self, monkeypatch):
        from umda import cli

        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "run_sweep", broken)
        with pytest.raises(KeyError):
            main(["--threads", "1", "sweep", "--n", "30", "--lambdas", "10:10:1"])

    def test_phase_zero_runs_exit_code(self, capsys):
        rc = main(["--threads", "1", "phase", "--n", "10", "--mu-small", "1",
                   "--mu-large", "2", "--runs", "0"])
        assert rc == 1
        assert "runs must be >= 1" in capsys.readouterr().err

    def test_scaling_zero_runs_exit_code(self, capsys):
        rc = main(["--threads", "1", "scaling", "--n-values", "24,48",
                   "--mu-rule", "ceil(3*sqrt(n)*log(n))", "--runs", "0"])
        assert rc == 1
        assert "runs must be >= 1" in capsys.readouterr().err

    def test_scaling_command(self, capsys):
        rc = main(
            ["--threads", "1", "--seed", "4", "scaling", "--n-values", "24,48",
             "--mu-rule", "ceil(3*sqrt(n)*log(n))", "--runs", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "log-log slope" in out
