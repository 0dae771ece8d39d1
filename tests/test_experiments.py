import inspect
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from curve_shape import has_interior_min_then_max, moving_average
from test_acceptance import DESK_SWEEP
from umda import experiments
from umda.cli import main
from umda.core import UmdaConfig
from umda.experiments import (
    CSV_HEADER,
    MAX_POPULATION_BYTES,
    SETTINGS,
    SettingSummary,
    SweepConfig,
    evaluate_rule,
    format_decimal,
    int_rule,
    log_log_slope,
    parse_config_file,
    phase_lines,
    run_batch,
    run_phase_transition_probe,
    run_scaling_study,
    run_sweep,
    scaling_lines,
    scaling_report,
    sweep_config_from_mapping,
    sweep_lines,
    write_lines,
)
from umda.rng import derive_stream

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
#: The directory holding the umda package these tests import.
PACKAGE_ROOT = str(Path(experiments.__file__).resolve().parent.parent)

#: Rules that fail outside arithmetic: two math domain errors, and a chain
#: too deep to walk recursively.
DOMAIN_AND_DEPTH_RULES = ["sqrt(-1)", "log(0)", "lam/2" + "+0" * 1000]


def _umda(argv):
    """Run ``python -m umda.cli argv`` on the imported package, so the exit
    status passes through ``cli.entrypoint``; a hang fails after 20 s."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "umda.cli", *argv], capture_output=True,
                          text=True, timeout=20, env={**os.environ, "PYTHONPATH": path})


def summary_row(lam, avg_evaluations, avg_lower_border_hits, success_fraction, avg_generations):
    """A SettingSummary holding the five values of a sweep line; its medians
    repeat the averages and the unsuccessful runs all ran out of budget."""
    return SettingSummary(
        n=100, mu=lam // 2, lam=lam, success_fraction=success_fraction,
        stagnated_fraction=0.0, budget_fraction=1.0 - success_fraction,
        avg_generations=avg_generations, avg_evaluations=avg_evaluations,
        avg_lower_border_hits=avg_lower_border_hits,
        median_generations=avg_generations, median_evaluations=avg_evaluations,
    )


def _forbid_runs(monkeypatch):
    """Fail the test if a run starts, an 11th stream is derived or an 11th
    mu is computed, so an experiment that builds its runs or settings before
    checking them stops at once instead of building 2**32 configs."""
    streams, mus = [], []

    def guarded(setting, run_index):
        streams.append(setting)
        assert len(streams) <= 10, "derived more than 10 streams"
        return derive_stream(setting, run_index)

    def guarded_rule(expr, **variables):
        mus.append(expr)
        assert len(mus) <= 10, "computed more than 10 mus"
        return int_rule(expr, **variables)

    monkeypatch.setattr(experiments, "derive_stream", guarded)
    monkeypatch.setattr(experiments, "int_rule", guarded_rule)
    monkeypatch.setattr(experiments, "run", lambda cfg: pytest.fail("a run started"))


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

    def test_matches_the_decimal_reference(self):
        def reference(x):
            # format_decimal before it used np.format_float_positional, frozen
            if not math.isfinite(x):
                return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
            s = f"{x:.6g}"
            if "e" in s or "E" in s:
                s = format(Decimal(s), "f")
            if "." not in s:
                s += ".0"
            return s

        rng = np.random.default_rng(2017)
        values = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64).tolist()
        values += (10.0 ** rng.uniform(-9, 9, 20_000)).tolist()
        values += [k / 3000 for k in range(3001)] + [k + 0.5 for k in range(999_990, 1_000_010)]
        values += [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300,
                   999999.5, 1234567.0, 1.5e-7]
        assert [format_decimal(x) for x in values] == [reference(x) for x in values]

    def test_example_row(self, tmp_path):
        row = summary_row(20, 41000.0, 350.2, 1.0, 2050.0)
        assert sweep_lines([row]) == ["20;41000.0;350.2;1.0;2050.0"]
        path = tmp_path / "out.csv"
        write_lines(str(path), sweep_lines([row]))
        assert path.read_text() == "20;41000.0;350.2;1.0;2050.0\n"

    def test_empty_rows_empty_file(self, tmp_path):
        assert sweep_lines([]) == []
        path = tmp_path / "empty.csv"
        write_lines(str(path), sweep_lines([]))
        assert path.read_text() == ""

    def test_header_flag(self, tmp_path):
        rows = [summary_row(10, 1.0, 2.0, 1.0, 4.0)]
        assert sweep_lines(rows, header=True) == [CSV_HEADER, "10;1.0;2.0;1.0;4.0"]
        path = tmp_path / "h.csv"
        write_lines(str(path), sweep_lines(rows, header=True))
        first = path.read_text().split("\n")[0]
        assert first.startswith("lambda;")

    def test_round_trip(self, tmp_path):
        rows = [
            summary_row(20, 41000.0, 350.2, 1.0, 2050.0),
            summary_row(24, 39875.5, 210.25, 0.995, 1661.5),
        ]
        path = tmp_path / "rt.csv"
        write_lines(str(path), sweep_lines(rows))
        assert path.read_text().splitlines() == sweep_lines(rows)
        fields_ = [line.split(";") for line in path.read_text().splitlines()]
        parsed = [(int(f[0]), *map(float, f[1:])) for f in fields_]
        assert parsed == [(r.lam, r.avg_evaluations, r.avg_lower_border_hits,
                           r.success_fraction, r.avg_generations) for r in rows]

    def test_scaling_line_columns(self):
        row = summary_row(20, 41000.0, 350.2, 0.995, 2050.0)
        assert scaling_lines([row]) == ["100;10;20;2050.0;41000.0;0.995"]

    def test_scaling_report_with_a_slope(self):
        rows = [replace(summary_row(20, 41000.0, 350.2, 0.995, 2050.0), n=100),
                replace(summary_row(24, 98400.0, 210.25, 1.0, 4100.0), n=400)]
        assert scaling_report(rows) == [
            "n=100 mu=10 lambda=20 success=0.995 median_generations=2050.0 "
            "median_evaluations=41000.0",
            "n=400 mu=12 lambda=24 success=1.0 median_generations=4100.0 "
            "median_evaluations=98400.0",
            "log-log slope of median generations: 0.5",
        ]

    def test_scaling_report_without_a_slope(self):
        rows = [summary_row(8, math.nan, math.nan, 0.0, math.nan)]
        assert scaling_report(rows) == [
            "n=100 mu=4 lambda=8 success=0.0 median_generations=nan median_evaluations=nan",
            "slope: undefined (fewer than two problem sizes with a finite median)",
        ]

    def test_phase_lines(self):
        small = replace(summary_row(10, math.nan, math.nan, 0.0, math.nan),
                        stagnated_fraction=0.75, budget_fraction=0.25)
        large = summary_row(24, 39875.5, 210.25, 0.995, 1661.5)
        assert phase_lines([small, large]) == [
            "below: mu=5 lambda=10 stagnated=0.75 success=0.0 budget_exhausted=0.25",
            "above: mu=12 lambda=24 stagnated=0.0 success=0.995 budget_exhausted=0.005",
        ]


def scaling_rows(medians: dict) -> list[SettingSummary]:
    """Hand-made scaling rows: one per n, with the given median generations."""
    return [replace(summary_row(8, 1.0, 0.0, 1.0, median), n=n) for n, median in medians.items()]


class TestLogLogSlope:
    def test_square_root_growth_has_slope_one_half(self):
        rows = scaling_rows({n: 3.0 * math.sqrt(n) for n in (64, 256, 1024, 4096)})
        assert log_log_slope(rows) == pytest.approx(0.5, abs=1e-12)

    def test_rows_without_a_finite_median_are_skipped(self):
        rows = scaling_rows({64: 24.0, 128: math.nan, 256: 48.0, 512: math.nan})
        assert log_log_slope(rows) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "medians", [{}, {64: 24.0}, {64: math.nan, 256: math.nan}, {64: math.nan, 256: 48.0}]
    )
    def test_fewer_than_two_finite_medians_have_no_slope(self, medians):
        assert log_log_slope(scaling_rows(medians)) is None


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
        # bool is a subclass of int, but True and False are no numeric literals
        for rule in ("True", "False+3"):
            with pytest.raises(ValueError) as info:
                evaluate_rule(rule, n=1)
            assert f"cannot evaluate rule {rule!r}:" in str(info.value)

    def test_each_operator(self):
        assert evaluate_rule("n - lam", n=10, lam=4) == 6
        assert evaluate_rule("n // lam", n=10, lam=4) == 2
        assert evaluate_rule("lam ** 2", lam=3) == 9
        assert evaluate_rule("-n + +lam", n=10, lam=4) == -6
        with pytest.raises(ValueError):
            evaluate_rule("n % 3", n=10)
        with pytest.raises(ValueError):
            evaluate_rule("max(n, key=abs)", n=10)

    @pytest.mark.parametrize("rule", DOMAIN_AND_DEPTH_RULES, ids=["sqrt", "log", "chain"])
    def test_every_failure_names_the_rule(self, rule):
        with pytest.raises(ValueError) as info:
            evaluate_rule(rule, n=10, lam=4)
        assert f"cannot evaluate rule {rule!r}:" in str(info.value)


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
        assert [(lam, c.mu, c.lam) for lam, c in cfg.settings()] == [
            (10, 5, 10), (20, 10, 20), (30, 15, 30)
        ]

    def test_rejects_bad_step_and_range(self):
        with pytest.raises(ValueError):
            SweepConfig(n=50, lambda_values=(10, 30, 0))
        with pytest.raises(ValueError):
            SweepConfig(n=50, lambda_values=(30, 10, 2))

    def test_rejects_mu_rule_violating_selection(self, monkeypatch):
        _forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match="need 1 <= mu < lambda"):
            run_sweep(SweepConfig(n=50, lambda_values=(4, 8, 2), mu_rule="lam"), threads=1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 0, "need n >= 1"),
            ("master_seed", 2**64, "master_seed must be in"),
            ("max_generations", -1, "max_generations must be >= 0"),
            # a stream derive_stream rejects: lambda 2**31, run index 2**32
            ("lambda_values", (2**31, 2**31, 1), "setting must be in"),
            # ... as the last of about 2**31 settings
            ("lambda_values", (4, 2**31, 1), "setting must be in"),
            ("runs_per_setting", 2**32 + 1, "run_index must fit in 32 bits"),
        ],
    )
    def test_rejects_what_its_runs_would_reject(self, field, value, message, monkeypatch):
        _forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_sweep(SweepConfig(**{"n": 20, "lambda_values": (4, 8, 2), field: value}),
                      threads=1)

    @pytest.mark.parametrize(
        "key, value", [("borders", "true"), ("lambda_values", "10,150,4")]
    )
    def test_undocumented_spelling_is_a_config_error(self, key, value, tmp_path):
        mapping = {"n": "30", "lambda_values": "10:10:1", key: value}
        with pytest.raises(ValueError):
            sweep_config_from_mapping(mapping)
        path = tmp_path / "s.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
        assert main(["sweep", "--config", str(path), "--threads", "1"]) == 1

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

    def test_settings_table_parses_every_experiment_parameter(self):
        keys = {f.name for f in fields(SweepConfig)}
        for experiment in (run_scaling_study, run_phase_transition_probe):
            keys |= set(inspect.signature(experiment).parameters) - {"threads"}
        assert keys == set(SETTINGS)

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

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("n = 30\nlambda_values = 10:10:1\nn = 40\n")
        with pytest.raises(ValueError, match=r"dup\.cfg:3: duplicate key 'n'"):
            parse_config_file(str(path))
        assert main(["sweep", "--config", str(path), "--threads", "1"]) == 1


class TestPresets:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("desk_sweep.cfg", replace(DESK_SWEEP, output_path="umda500-200.txt")),
            ("paper_sweep.cfg", SweepConfig(
                n=2000, lambda_values=(14, 350, 2), mu_rule="lam/2", borders=True,
                runs_per_setting=3000, master_seed=0, output_path="umda2000-3000.txt",
            )),
            ("reference_sweep.cfg", SweepConfig(
                n=2000, lambda_values=(14, 350, 8), mu_rule="lam/2", borders=True,
                runs_per_setting=100, master_seed=1704,
                output_path="tests/reference_sweep_n2000.csv",
            )),
        ],
    )
    def test_preset_file_is_its_documented_sweep(self, name, expected):
        mapping = parse_config_file(str(SCRIPTS / name))
        assert sweep_config_from_mapping(mapping) == expected

    @pytest.mark.parametrize("name", ["desk_sweep.cfg", "reference_sweep.cfg", "paper_sweep.cfg"])
    def test_preset_runs_shrunk_by_flag_overrides(self, name, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["sweep", "--threads", "1", "--out", str(out), "--config", str(SCRIPTS / name),
                     "--n", "20", "--lambdas", "14:16:2", "--runs", "1"]) == 0
        assert [line.split(";")[0] for line in out.read_text().splitlines()] == ["14", "16"]


class TestSweep:
    def test_deterministic_and_byte_identical(self, tmp_path):
        cfg = SweepConfig(
            n=40, lambda_values=(8, 16, 8), runs_per_setting=5, master_seed=3
        )
        rows_a = run_sweep(cfg, threads=1)
        rows_b = run_sweep(cfg, threads=2)
        assert all(isinstance(row, SettingSummary) for row in rows_a)
        assert rows_a == rows_b
        assert sweep_lines(rows_a, header=True) == sweep_lines(rows_b, header=True)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lines(str(pa), sweep_lines(rows_a))
        write_lines(str(pb), sweep_lines(rows_b))
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


def _record_configs(monkeypatch):
    """Record the config of each run that run_batch hands to a worker."""
    seen = []
    summary = experiments._run_summary

    def recording(cfg):
        seen.append(cfg)
        return summary(cfg)

    monkeypatch.setattr(experiments, "_run_summary", recording)
    return seen


def _record_pools(monkeypatch):
    """Replace the process pool with one that maps in this process and
    records each pool's worker count."""
    built = []

    class SerialPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("umda.experiments.futures.ProcessPoolExecutor", SerialPool)
    return built


class TestScalingAndPhase:
    def test_singleton_slope_absent(self):
        rows = run_scaling_study(
            [32], "ceil(3*sqrt(n)*log(n))", runs=3, master_seed=7, threads=1
        )
        assert log_log_slope(rows) is None
        assert rows[0].success_fraction == 1.0

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            run_scaling_study([64, 32], "ceil(3*sqrt(n)*log(n))", runs=1)

    def test_rejects_repeated_sizes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            run_scaling_study([32, 32], "ceil(3*log(n))", runs=3, threads=1)

    def test_rejects_empty_sizes(self, capsys):
        with pytest.raises(ValueError, match="n_values is empty"):
            run_scaling_study([], "3", runs=1, threads=1)
        assert main(["scaling", "--n-values", ",", "--mu-rule", "3"]) == 1
        assert capsys.readouterr().err.startswith("configuration error: n_values: ")

    @pytest.mark.parametrize(
        "experiment, message",
        [
            pytest.param(lambda: run_scaling_study([2**31], "3", runs=2, threads=1),
                         "setting must be in", id="scaling-setting"),
            pytest.param(lambda: run_scaling_study([16], "3", runs=2**32 + 1, threads=1),
                         "run_index must fit in 32 bits", id="scaling-runs"),
            pytest.param(lambda: run_phase_transition_probe(20, 2**31, 2**31 + 2, runs=2,
                                                            threads=1),
                         "setting must be in", id="phase-setting"),
            pytest.param(lambda: run_phase_transition_probe(20, 2, 4, runs=2**32 + 1, threads=1),
                         "run_index must fit in 32 bits", id="phase-runs"),
        ],
    )
    def test_checks_streams_before_any_run(self, experiment, message, monkeypatch):
        # the sweep's cases are TestSweepConfig::test_rejects_what_its_runs_would_reject
        _forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match=message):
            experiment()

    def test_batch_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            run_batch([(8, UmdaConfig(n=10, mu=4, lam=8))], 0, 1)

    def test_batch_bounds_lam_times_n(self, monkeypatch):
        # the runs are stubbed, so no population is allocated
        seen = []
        monkeypatch.setattr(experiments, "_run_summary", seen.append)
        lam = 2**10
        at_bound = UmdaConfig(n=MAX_POPULATION_BYTES // lam, mu=2, lam=lam)
        with pytest.raises(ValueError, match=r"need lam \* n <= 2147483648, got 1024 \* 2097153"):
            run_batch([(lam, replace(at_bound, n=at_bound.n + 1))], 1, 1)
        assert seen == []
        run_batch([(lam, at_bound)], 1, 1)
        assert [cfg.lam * cfg.n for cfg in seen] == [MAX_POPULATION_BYTES]

    def test_pool_is_no_larger_than_the_batch(self, monkeypatch):
        built = _record_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        settings = [(8, UmdaConfig(n=10, mu=4, lam=8, master_seed=5))]
        pooled = run_batch(settings, 3, 64)
        assert built == [3]
        assert pooled == run_batch(settings, 3, 1)

    def test_pool_is_no_larger_than_the_cpus(self, monkeypatch):
        built = _record_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        run_batch([(8, UmdaConfig(n=10, mu=4, lam=8, max_generations=2))], 5, 64)
        assert built == [2]

    def test_default_threads_follow_cpu_affinity(self, monkeypatch):
        built = _record_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        run_batch([(8, UmdaConfig(n=10, mu=4, lam=8, master_seed=5))], 3, None)
        assert built == []

    def test_template_run_index_and_telemetry_do_not_leak(self, monkeypatch):
        seen = _record_configs(monkeypatch)
        plain = UmdaConfig(n=10, mu=4, lam=8, master_seed=5)
        stamped = UmdaConfig(
            n=10, mu=4, lam=8, master_seed=5, run_index=77, record_telemetry=True
        )
        assert run_batch([(8, stamped)], 3, 1) == run_batch([(8, plain)], 3, 1)
        assert [c.run_index for c in seen] == [derive_stream(8, k) for k in range(3)] * 2
        assert not any(c.record_telemetry for c in seen)

    def test_each_experiment_runs_stream_setting_and_run_index(self, monkeypatch):
        seen = _record_configs(monkeypatch)
        run_sweep(SweepConfig(n=20, lambda_values=(8, 12, 4), runs_per_setting=2,
                              max_generations=3), threads=1)
        assert [(c.lam, c.run_index) for c in seen] == [
            (s, derive_stream(s, k)) for s in (8, 12) for k in range(2)
        ]
        seen.clear()
        run_scaling_study([16, 24], "3", runs=2, max_generations=3, threads=1)
        assert [(c.n, c.run_index) for c in seen] == [
            (s, derive_stream(s, k)) for s in (16, 24) for k in range(2)
        ]
        seen.clear()
        run_phase_transition_probe(20, 2, 4, runs=2, max_generations=3, threads=1)
        assert [(c.mu, c.run_index) for c in seen] == [
            (s, derive_stream(s, k)) for s in (2, 4) for k in range(2)
        ]

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
                "sweep", "--seed", "3", "--threads", "1", "--out", str(out),
                "--n", "40", "--lambdas", "8:16:8", "--runs", "3",
            ]
        )
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 2

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("n = 30\nlambda_values = 10:10:1\nruns_per_setting = 2\n")
        out = tmp_path / "o.csv"
        rc = main(
            ["sweep", "--config", str(cfgfile), "--threads", "1", "--out", str(out)]
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
            ["sweep", "--config", str(cfgfile), "--seed", "9", "--out", out,
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
        "argv, message",
        [
            (["scaling", "--threads", "1", "--n-values", "24", "--mu-rule", "4", "--runs", "1",
              "--config", "{cfg}"], "unrecognized arguments: --config"),
            (["phase", "--n", "10", "--mu-small", "1", "--mu-large", "2", "--runs", "1",
              "--config", "{cfg}"], "unrecognized arguments: --config"),
            (["verify", "--config", "{cfg}"], "unrecognized arguments: --config"),
            (["phase", "--n", "10", "--mu-small", "1", "--mu-large", "2", "--runs", "1",
              "--out", "{out}"], "unrecognized arguments: --out"),
            (["verify", "--out", "{out}"], "unrecognized arguments: --out"),
            (["verify", "--seed", "5"], "unrecognized arguments: --seed"),
            (["verify", "--threads", "3"], "unrecognized arguments: --threads"),
            # a flag before its command: the parser takes the flag's value as the command
            (["--seed", "1", "sweep", "--n", "30", "--lambdas", "10:10:1", "--out", "{out}"],
             "invalid choice: '1'"),
        ],
        ids=["scaling-config", "phase-config", "verify-config", "phase-out", "verify-out",
             "verify-seed", "verify-threads", "seed-before-sweep"],
    )
    def test_flag_the_command_does_not_read_is_a_config_error(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        from umda import cli

        def ran(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("run_sweep", "run_scaling_study", "run_phase_transition_probe",
                     "run_all_checks"):
            monkeypatch.setattr(cli, name, ran)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("no_such_key = 1\n")
        out = tmp_path / "f.txt"
        argv = [a.format(cfg=cfgfile, out=out) for a in argv]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("sweep", {"--seed", "--threads", "--max-generations", "--out", "--borders",
                       "--config", "--n", "--lambdas", "--mu-rule", "--runs", "--header"}),
            ("scaling", {"--seed", "--threads", "--max-generations", "--out", "--borders",
                         "--n-values", "--mu-rule", "--runs"}),
            ("phase", {"--seed", "--threads", "--max-generations", "--n", "--mu-small",
                       "--mu-large", "--runs"}),
            ("verify", set()),
        ],
    )
    def test_help_lists_the_flags_its_command_reads(self, command, flags, capsys):
        assert main([command, "-h"]) == 0
        listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
        assert listed == flags

    def test_bad_config_exit_code(self):
        assert main(["sweep", "--threads", "1", "--n", "30",
                     "--lambdas", "10:4:2"]) == 1

    @pytest.mark.parametrize(
        "argv, config, name",
        [
            (["sweep", "--n", "abc", "--lambdas", "4:8:2"], None, "n"),
            (["sweep", "--n", "10", "--lambdas", "4:x:1"], None, "lambda_values"),
            (["sweep", "--n", "10", "--lambdas", "4:8"], None, "lambda_values"),
            (["sweep"], "n = 10\nlambda_values = 4:8:2\nruns_per_setting = two\n",
             "runs_per_setting"),
            (["sweep", "--n", "10", "--lambdas", "4:8:2", "--max-generations", "1.5"], None,
             "max_generations"),
            (["sweep", "--n", "10", "--lambdas", "4:8:2", "--borders", "on"], None, "borders"),
            (["scaling", "--n-values", "64,abc", "--mu-rule", "3"], None, "n_values"),
            (["scaling", "--n-values", "16,,32", "--mu-rule", "3"], None, "n_values"),
            (["scaling", "--n-values", "16,32,", "--mu-rule", "3"], None, "n_values"),
            (["scaling", "--n-values", "16,32", "--mu-rule", "3", "--borders", "on"], None,
             "borders"),
            (["phase", "--n", "10", "--mu-small", "1", "--mu-large", "x"], None, "mu_large"),
            (["phase", "--n", "10", "--mu-small", "1", "--mu-large", "2", "--runs", "two"],
             None, "runs"),
            (["sweep", "--seed", "x", "--n", "10", "--lambdas", "4:8:2"], None, "master_seed"),
        ],
        ids=["n", "lambdas", "lambdas-arity", "config-runs", "max-generations", "borders",
             "n-values", "n-values-inner-empty", "n-values-trailing-empty",
             "scaling-borders", "phase-mu-large", "phase-runs", "seed"],
    )
    def test_parse_error_names_its_key(self, argv, config, name, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "s.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {name}: "), err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exit_code(self, seed, capsys):
        # Pcg32 would run these as seeds 2**64 - 1 and 0
        assert main(["sweep", "--seed", str(seed), "--threads", "1", "--n", "20",
                     "--lambdas", "4:8:2", "--runs", "2"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_output_exit_code(self, tmp_path):
        rc = main(
            ["sweep", "--threads", "1", "--out", str(tmp_path / "no" / "dir" / "x.csv"),
             "--n", "30", "--lambdas", "10:10:1", "--runs", "2"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("run_sweep", ["sweep", "--n", "30", "--lambdas", "10:10:1", "--runs", "2"]),
            ("run_scaling_study", ["scaling", "--n-values", "24", "--mu-rule", "4"]),
        ],
    )
    def test_unwritable_out_fails_before_running(self, name, argv, tmp_path, monkeypatch):
        from umda import cli

        calls = []
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(name))
        out = str(tmp_path / "missing" / "x.csv")
        assert main(argv + ["--threads", "1", "--out", out]) == 2
        assert calls == []

    def test_existing_out_is_kept_until_the_results_are_ready(self, tmp_path, monkeypatch):
        from umda import cli

        out = tmp_path / "x.csv"
        out.write_text("earlier results\n")
        seen = []
        monkeypatch.setattr(
            cli, "run_sweep", lambda cfg, threads: seen.append(out.read_text()) or []
        )
        assert main(["sweep", "--out", str(out), "--n", "30", "--lambdas", "10:10:1"]) == 0
        assert seen == ["earlier results\n"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--threads", "0", "--n", "20", "--lambdas", "4:8:2", "--runs", "2"],
            ["scaling", "--n-values", "1,4", "--mu-rule", "2", "--runs", "1"],
            ["sweep", "--n", "20", "--lambdas", "4:8:2", "--runs", "2", "--mu-rule", "lam"],
        ],
    )
    def test_config_error_leaves_no_out_file(self, argv, tmp_path):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert not out.exists()

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
            main(["sweep", "--threads", "1", "--n", "30", "--lambdas", "10:10:1"])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_value_error_in_a_run_is_not_a_config_error(self, threads, monkeypatch, capsys):
        def broken(cfg):
            raise ValueError("internal")

        monkeypatch.setattr(experiments, "run", broken)
        with pytest.raises(RuntimeError) as info:
            main(["sweep", "--threads", threads, "--n", "30", "--lambdas", "10:10:1",
                  "--runs", "2"])
        assert isinstance(info.value.__cause__, ValueError)
        assert "configuration error" not in capsys.readouterr().err

    def test_phase_zero_runs_exit_code(self, capsys):
        rc = main(["phase", "--threads", "1", "--n", "10", "--mu-small", "1",
                   "--mu-large", "2", "--runs", "0"])
        assert rc == 1
        assert "runs must be >= 1" in capsys.readouterr().err

    def test_population_past_the_bound_is_a_config_error(self, monkeypatch, capsys):
        # one population of this sweep would be a 93-GiB bool matrix
        _forbid_runs(monkeypatch)
        assert main(["sweep", "--threads", "1", "--n", "1000000", "--lambdas",
                     "100000:100000:1", "--runs", "1"]) == 1
        assert capsys.readouterr().err.startswith("configuration error: need lam * n <= ")

    def test_phase_stream_overflow_exit_code(self, monkeypatch, capsys):
        _forbid_runs(monkeypatch)
        assert main(["phase", "--threads", "1", "--n", "20", "--mu-small", "2",
                     "--mu-large", "4", "--runs", "4294967297"]) == 1
        assert "configuration error: run_index must fit in 32 bits" in capsys.readouterr().err

    def test_scaling_zero_runs_exit_code(self, capsys):
        rc = main(["scaling", "--threads", "1", "--n-values", "24,48",
                   "--mu-rule", "ceil(3*sqrt(n)*log(n))", "--runs", "0"])
        assert rc == 1
        assert "runs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "lam/0"],
            ["scaling", "--n-values", "16,32", "--mu-rule", "n/0"],
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "10**400"],
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "1e308*10"],
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "min()"],
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "sqrt(1,2)"],
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "(-8)**0.5"],
            # as an exact integer power this does not finish
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "9**9**9"],
        ] + [
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", rule]
            for rule in DOMAIN_AND_DEPTH_RULES
        ],
    )
    def test_rule_arithmetic_error_is_a_config_error(self, argv, capsys):
        # a rule that evaluates without bound fails here after 20 s instead of hanging
        def expire(signum, frame):
            pytest.fail("rule evaluation ran past 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 20.0)
        try:
            rc = main(argv + ["--threads", "1"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == 1
        rule = argv[argv.index("--mu-rule") + 1]
        assert f"configuration error: cannot evaluate rule {rule!r}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1"],
            ["scaling", "--n-values", "16", "--mu-rule", "4", "--runs", "1"],
            ["phase", "--n", "10", "--mu-small", "1", "--mu-large", "2", "--runs", "1"],
        ],
    )
    @pytest.mark.parametrize(
        "threads, generations, message",
        [
            ("1", "-3", "max_generations must be >= 0"),
            ("-2", "5", "threads must be >= 1"),
            ("0", "5", "threads must be >= 1"),
        ],
    )
    def test_out_of_range_flag_exit_code(self, command, threads, generations, message, capsys):
        argv = command + ["--threads", threads, "--max-generations", generations]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_entrypoint_success(self, capsys):
        argv = ["sweep", "--seed", "1", "--threads", "1", "--n", "20", "--lambdas", "4:8:2",
                "--runs", "2"]
        result = _umda(argv)
        assert main(argv) == 0
        assert (result.returncode, result.stdout) == (0, capsys.readouterr().out)

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["sweep", "--out", "{missing}", "--n", "20", "--lambdas", "4:8:2", "--runs", "2"],
             2, "i/o error: "),
            # as an exact integer power this does not finish
            (["sweep", "--n", "10", "--lambdas", "4:4:1", "--runs", "1", "--mu-rule", "9**9**9"],
             1, "configuration error: cannot evaluate rule '9**9**9': "),
            # building the runs before checking their streams would not finish
            (["scaling", "--threads", "1", "--n-values", "16", "--mu-rule", "3",
              "--runs", "4294967297"],
             1, "configuration error: run_index must fit in 32 bits"),
        ],
        ids=["unwritable-out", "power", "runs"],
    )
    def test_entrypoint_exit_code(self, argv, code, message, tmp_path):
        result = _umda([a.format(missing=tmp_path / "missing" / "x.csv") for a in argv])
        assert result.returncode == code
        assert result.stderr.startswith(message), result.stderr

    def test_scaling_without_a_success_names_the_missing_medians(self, capsys):
        rc = main(["scaling", "--threads", "1", "--n-values", "32,64", "--mu-rule", "3",
                   "--runs", "2", "--max-generations", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[3] for line in lines[:2]] == ["success=0.0"] * 2
        assert lines[2:] == ["slope: undefined (fewer than two problem sizes with a finite median)"]
