"""End-to-end command-line pipeline tests."""

import contextlib
import errno
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioresponse import iodata
from ioresponse.cli import _FLAGS, _HANDLERS, run
from ioresponse.iodata import write_panel

from conftest import build_panel


def _read(path):
    return path.read_text(encoding="utf-8")


def _numeric_outputs(out_dir):
    """All output files except the manifest, as {name: bytes}."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.txt"
    }


class TestSusceptibility:
    def test_bundled_two_sector_fixture_matches_leontief_inverse(
        self, two_sector_file, tmp_path
    ):
        out = tmp_path / "out"
        code = run([
            "susceptibility", "--data", str(two_sector_file),
            "--country", "AAA", "--year", "2014", "--out", str(out),
        ])
        assert code == 0
        rows = _read(out / "matrix_AAA_2014.csv").strip().splitlines()[1:]
        values = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}
        inverse = np.linalg.inv(np.eye(2) - np.array([[0.0, 0.5], [0.2, 0.0]]))
        assert values[("S1", "S1")] == pytest.approx(inverse[0, 0], rel=1e-12)
        assert values[("S1", "S2")] == pytest.approx(inverse[0, 1], rel=1e-12)
        assert values[("S2", "S1")] == pytest.approx(inverse[1, 0], rel=1e-12)
        assert values[("S2", "S2")] == pytest.approx(inverse[1, 1], rel=1e-12)

    def test_panel_ranking_outputs(self, panel_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "susceptibility", "--data", str(panel_file), "--out", str(out),
        ])
        assert code == 0
        ranking = _read(out / "sector_ranking.csv").strip().splitlines()
        assert ranking[0] == "rank,sector,rho,ci_low,ci_high"
        scores = [float(r.split(",")[2]) for r in ranking[1:]]
        assert scores == sorted(scores, reverse=True)
        country = _read(out / "country_susceptibility.csv").strip().splitlines()
        assert len(country) == 1 + 4

    def test_monte_carlo_method(self, two_sector_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "susceptibility", "--data", str(two_sector_file),
            "--country", "AAA", "--year", "2014", "--out", str(out),
            "--method", "monte_carlo", "--horizon", "1.0",
            "--mc-length", "50", "--mc-replicas", "2",
        ])
        assert code == 0
        header = _read(out / "matrix_AAA_2014.csv").splitlines()[0]
        assert header == "row_sector,col_sector,value,stderr"


class TestDeterminism:
    @pytest.mark.parametrize("baseline", ["arima", "var"])
    def test_benchmark_byte_identical_across_runs_and_workers(
        self, panel_file, tmp_path, baseline
    ):
        outputs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / name
            code = run([
                "benchmark", "--data", str(panel_file), "--seed", "11",
                "--baseline", baseline, "--workers", workers, "--out", str(out),
            ])
            assert code == 0
            outputs.append(_numeric_outputs(out))
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]

    def test_same_out_dir_rerun_identical_except_manifest_timestamp(
        self, panel_file, tmp_path
    ):
        out = tmp_path / "out"
        args = ["benchmark", "--data", str(panel_file), "--out", str(out)]
        assert run(args) == 0
        first_files = _numeric_outputs(out)
        first_manifest = _read(out / "manifest.txt")
        assert run(args) == 0
        assert _numeric_outputs(out) == first_files
        second_manifest = _read(out / "manifest.txt")

        def _without_timestamp(text):
            return [l for l in text.splitlines() if not l.startswith("timestamp")]

        assert _without_timestamp(first_manifest) == _without_timestamp(second_manifest)

    def test_rerun_from_manifest_reproduces_outputs(self, panel_file, tmp_path):
        first = tmp_path / "first"
        run([
            "benchmark", "--data", str(panel_file), "--seed", "3",
            "--target", "levels", "--out", str(first),
        ])
        second = tmp_path / "second"
        code = run([
            "benchmark", "--config", str(first / "manifest.txt"),
            "--out", str(second),
        ])
        assert code == 0
        a = _numeric_outputs(first)
        b = _numeric_outputs(second)
        assert a == b


_SPEC = "evaluation_year = 2004\nshock = * A01 export_to AAA -1.0\n"
#: Non-default settings per subcommand, so a rerun that lost one would differ.
_RERUN_ARGS = {
    "ingest": ("--country", "BBB"),
    "susceptibility": ("--method", "monte_carlo", "--country", "AAA", "--year", "2004",
                       "--horizon", "1", "--mc-length", "20", "--mc-replicas", "2",
                       "--seed", "4", "--noise", "isotropic", "--convention", "source"),
    "response": ("--country", "AAA", "--year", "2004", "--shock-kind", "step",
                 "--shock-sector", "A01", "--horizon", "5", "--grid-dt", "0.5"),
    "forecast": ("--year", "all", "--country", "CCC"),
    "benchmark": ("--baseline", "var", "--var-samples", "200", "--var-year", "2001",
                  "--seed", "5", "--target", "levels"),
    "scenario": ("--curves", "AAA", "--horizon", "2", "--grid-dt", "0.5"),
    "backbone": ("--country", "AAA", "--year", "2004", "--node-time", "1",
                 "--graph-format", "graphml", "--significance", "0.3", "--horizon", "2"),
}


@pytest.mark.parametrize("subcommand", list(_HANDLERS))
def test_every_subcommand_reruns_from_its_manifest(panel_file, tmp_path, subcommand):
    spec = tmp_path / "spec.txt"
    spec.write_text(_SPEC, encoding="utf-8")
    first = tmp_path / "first"
    assert run([subcommand, "--data", str(panel_file), "--scenario-spec", str(spec),
                *_RERUN_ARGS[subcommand], "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert run([subcommand, "--config", str(first / "manifest.txt"), "--out", str(second)]) == 0
    assert _numeric_outputs(second) == _numeric_outputs(first)


class TestBenchmark:
    def test_evaluation_report_layout(self, panel_file, tmp_path):
        out = tmp_path / "out"
        run(["benchmark", "--data", str(panel_file), "--out", str(out)])
        text = _read(out / "evaluation.csv")
        assert text.startswith("country,year,r_lrt,r_baseline,pg\n")
        assert "\nyear,mean_pg,ci_low,ci_high,p_value\n" in text
        assert "\npooled," in text
        fluct = _read(out / "fluctuation_summary.csv")
        assert "eta," in fluct and "r," in fluct


class TestOtherSubcommands:
    def test_ingest_report_and_normalized_round_trip(self, panel_file, tmp_path):
        out = tmp_path / "out"
        code = run(["ingest", "--data", str(panel_file), "--out", str(out)])
        assert code == 0
        report = _read(out / "report.csv").strip().splitlines()
        assert len(report) == 1 + 4 * 9  # 4 countries x 9 years
        assert all(float(r.split(",")[4]) < 1e-9 for r in report[1:])
        from ioresponse.iodata import load_panel

        again = load_panel(out / "normalized.csv")
        assert len(again) == 36

    def test_response_and_recovery_outputs(self, panel_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "response", "--data", str(panel_file), "--country", "AAA",
            "--year", "2004", "--horizon", "5", "--grid-dt", "0.1",
            "--out", str(out),
        ])
        assert code == 0
        curve = _read(out / "curve_AAA_2004.csv").splitlines()
        assert curve[0] == "t_prime,sector,value"
        assert len(curve) == 1 + 51 * 5
        recovery = _read(out / "recovery_AAA_2004.csv").splitlines()
        assert recovery[0] == "sector,recovery_years"

    def test_forecast_outputs(self, panel_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "forecast", "--data", str(panel_file), "--country", "AAA",
            "--out", str(out),
        ])
        assert code == 0
        shocks = _read(out / "implied_shocks.csv").splitlines()
        assert shocks[0] == "country,year,sector,implied_shock"
        forecast = _read(out / "forecast.csv").splitlines()
        assert forecast[0] == "country,year,sector,observed,predicted"
        assert len(forecast) > 1

    def test_scenario_outputs(self, panel_file, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "name = cut\nevaluation_year = 2004\n"
            "shock = * A01 export_to AAA -1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run([
            "scenario", "--data", str(panel_file), "--scenario-spec", str(spec),
            "--curves", "AAA", "--horizon", "5", "--grid-dt", "0.5",
            "--out", str(out),
        ])
        assert code == 0
        impacts = _read(out / "scenario_impacts.csv").splitlines()
        assert impacts[0] == "country,sector,delta_usd,delta_pct"
        aggregates = _read(out / "scenario_aggregates.csv").splitlines()
        assert aggregates[0] == "country,aggregate_usd"
        assert (out / "scenario_curve_AAA.csv").exists()

    def test_backbone_output(self, panel_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "backbone", "--data", str(panel_file), "--country", "AAA",
            "--year", "2004", "--significance", "0.3", "--out", str(out),
        ])
        assert code == 0
        text = _read(out / "backbone_AAA_2004.csv")
        assert text.startswith("from,to,weight,sign,alpha,preserved_flag\n")

    def test_backbone_graphml_with_node_annotation(self, panel_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "backbone", "--data", str(panel_file), "--country", "AAA",
            "--year", "2004", "--significance", "0.3", "--node-time", "1.0",
            "--graph-format", "graphml", "--out", str(out),
        ])
        assert code == 0
        text = _read(out / "backbone_AAA_2004.graphml")
        assert "<graphml" in text and 'key="value"' in text

    def test_forecast_extracts_one_shock_per_cell(self, panel, panel_file, tmp_path, monkeypatch):
        from ioresponse import response

        calls = []
        original = response.implied_shock

        def counting(table, *args, **kwargs):
            calls.append((table.country, table.year))
            return original(table, *args, **kwargs)

        monkeypatch.setattr(response, "implied_shock", counting)
        code = run(["forecast", "--data", str(panel_file), "--out", str(tmp_path / "out")])
        assert code == 0
        cells = [
            (t.country, t.year) for t in panel if (t.country, t.year + 1) in panel
        ]
        assert sorted(calls) == cells

    def test_forecast_cell_runs_one_exponential_and_no_svd(self, tmp_path, monkeypatch):
        from ioresponse import susceptibility

        panel = build_panel(n_countries=2, years=(2000, 2004), n_sectors=4, seed=11)
        data = tmp_path / "panel.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            write_panel(panel, fh)
        calls = {"expm": 0, "cond": 0, "solve 1-D": 0, "solve 2-D": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        def counting_solve(system, rhs):
            calls[f"solve {np.ndim(rhs)}-D"] += 1
            return original_solve(system, rhs)

        original_solve = np.linalg.solve
        monkeypatch.setattr(susceptibility, "expm", counting("expm", susceptibility.expm))
        monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        code = run(["forecast", "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 0
        cells = sum((t.country, t.year + 1) in panel for t in panel)
        assert cells == 8
        # each cell: the shock from one vector LU; its round trip certified
        assert calls == {"expm": cells, "cond": 0, "solve 1-D": cells, "solve 2-D": 0}

    def test_monte_carlo_panel_selection_is_usage_error(self, panel_file, tmp_path):
        code = run([
            "susceptibility", "--data", str(panel_file),
            "--method", "monte_carlo", "--out", str(tmp_path / "out"),
        ])
        assert code == 2


class TestErrorHandling:
    def test_usage_error_exit_2(self, panel_file, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("not_a_key = 1\n", encoding="utf-8")
        code = run([
            "ingest", "--data", str(panel_file), "--config", str(config),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_missing_cell_exit_3(self, panel_file, tmp_path, capsys):
        code = run([
            "susceptibility", "--data", str(panel_file), "--country", "ZZZ",
            "--year", "2004", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("MissingCountryYear:")

    def test_numerical_error_exit_4(self, panel_file, tmp_path, capsys):
        # noise this large drives the Monte Carlo states past the blow-up cap
        code = run([
            "susceptibility", "--data", str(panel_file), "--country", "AAA",
            "--year", "2004", "--method", "monte_carlo", "--horizon", "1",
            "--mc-length", "20", "--mc-replicas", "2", "--eta", "1e13",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 4
        assert capsys.readouterr().err.startswith("NumericalBlowup: ")

    def test_partial_outputs_removed_on_failure(self, panel_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "susceptibility", "--data", str(panel_file), "--country", "ZZZ",
            "--year", "2004", "--out", str(out),
        ])
        assert code == 3
        assert _no_outputs(out)

    def test_unknown_method_exit_2(self, two_sector_file, tmp_path, capsys):
        code = run([
            "susceptibility", "--data", str(two_sector_file), "--country", "AAA",
            "--year", "2014", "--method", "bogus", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: ")

    def test_unknown_shock_sector_exit_3(self, two_sector_file, tmp_path, capsys):
        code = run([
            "response", "--data", str(two_sector_file), "--country", "AAA",
            "--year", "2014", "--shock-sector", "NOPE", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("UnknownSector: ")

    def test_unknown_scenario_sector_exit_3(self, two_sector_file, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "evaluation_year = 2014\nshock = AAA NOPE absolute 1.0\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        code = run([
            "scenario", "--data", str(two_sector_file), "--scenario-spec", str(spec),
            "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("UnknownSector: ")
        assert _no_outputs(out)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("evaluation_year = 2014\nshock = AAA S1 export_to BBB 2.0\n", 2),
            ("evaluation_year = 2014\nshock = AAA S1 export_to BBB abc\n", 2),
            ("evaluation_year = abc\nshock = AAA S1 absolute 1.0\n", 1),
            ("evaluation_year = 2014\nhorizon = soon\nshock = AAA S1 absolute 1.0\n", 2),
            ("evaluation_year = 2014\ncompensation = onn\nshock = AAA S1 absolute 1.0\n", 2),
            ("evaluation_year = 2014\nhorizon = -1\nshock = AAA S1 absolute 1.0\n", 2),
        ],
        ids=["fraction_out_of_range", "fraction_not_a_number", "year_not_an_integer",
             "horizon_not_a_number", "compensation_not_a_switch", "horizon_not_positive"],
    )
    def test_malformed_scenario_value_exit_2(
        self, two_sector_file, tmp_path, capsys, text, lineno
    ):
        spec = tmp_path / "spec.txt"
        spec.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = run([
            "scenario", "--data", str(two_sector_file), "--scenario-spec", str(spec),
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"ConfigError: scenario line {lineno}: ")
        assert _no_outputs(out)

    def test_missing_data_flag(self, tmp_path):
        assert run(["ingest", "--out", str(tmp_path / "out")]) == 2

    def test_monte_carlo_horizon_beyond_path_exit_3(
        self, two_sector_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = run([
            "susceptibility", "--data", str(two_sector_file),
            "--country", "AAA", "--year", "2014", "--method", "monte_carlo",
            "--horizon", "5", "--mc-length", "2", "--mc-replicas", "2",
            "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("InsufficientSamples: ")
        assert _no_outputs(out)


def _no_outputs(out):
    return not out.exists()


#: A manifest as written before the ``lrt_oracle`` test hook was retired.
_OLDER_MANIFEST = """\
# run manifest; pass to --config to reproduce
timestamp = 2026-10-19T11:32:48Z
subcommand = ingest
arima_order = 1,1,1
baseline = arima
burn_in = 50.0
calibration = expanding
clip_negative_flows = False
convention = response
country = all
curves = 
data = {data}
dt = 0.01
eta = 0.01
graph_format = edgelist
grid_dt = 0.01
horizon = inf
lrt_oracle = False
mc_length = 400.0
mc_replicas = 8
method = analytic
node_time = 
noise = output_proportional
out = out
recovery_eps = 0.05
scenario_spec = 
seed = 0
shock_kind = impulse
shock_sector = all
shock_size = 1.0
significance = 0.05
target = changes
var_samples = 10000
var_year = first
workers = 1
year = all
"""


class TestUsageErrors:
    """Command-line syntax errors end in one ConfigError line, exit 2."""

    @pytest.mark.parametrize(
        "args",
        [(), ("bogus",), ("response", "--bogus", "1"), ("response", "--seed")],
        ids=["no_subcommand", "unknown_subcommand", "unknown_flag", "flag_without_value"],
    )
    def test_one_line_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = run([*args[:1], "--out", str(out), *args[1:]] if args else [])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: ")
        assert _no_outputs(out)

    @pytest.mark.parametrize("value", ["-1e3", "-2", "-.5"])
    def test_value_starting_with_dash_is_taken(self, two_sector_file, tmp_path, value):
        common = ["response", "--data", str(two_sector_file), "--country", "AAA",
                  "--year", "2014", "--shock-kind", "step"]
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert run([*common, "--shock-size", value, "--out", str(spaced)]) == 0
        assert run([*common, f"--shock-size={value}", "--out", str(joined)]) == 0
        assert _numeric_outputs(spaced) == _numeric_outputs(joined)

        def settings_lines(out):
            return [line for line in _read(out / "manifest.txt").splitlines()
                    if not line.startswith(("timestamp", "out "))]

        assert settings_lines(spaced) == settings_lines(joined)
        assert f"shock_size = {float(value)!r}" in settings_lines(spaced)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            run(["benchmark", "--help"])
        assert stop.value.code == 0
        assert "--var-samples" in capsys.readouterr().out


_PROBE_KEYS = sorted(set(_FLAGS) - {"data", "out"})
_PROBE_VALUES = ["-1e3", "-inf", "nan", "1e308", "1e-320", "0", "-1", "abc", "",
                 "on", "all", "first", "2,1,1"]


@pytest.mark.parametrize("subcommand", list(_HANDLERS))
@settings(derandomize=True, deadline=None)
@given(pairs=st.lists(
    st.tuples(st.sampled_from(_PROBE_KEYS), st.sampled_from(_PROBE_VALUES)),
    max_size=4, unique_by=lambda pair: pair[0],
))
def test_any_settings_without_data_fail_in_one_line(subcommand, pairs):
    """Whatever settings are given, a run on a missing data file exits 2 or
    3 with one ``ErrorClass: detail`` line and leaves no outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [subcommand, "--data", str(Path(tmp) / "missing.csv"), "--out", str(out)]
        for key, value in pairs:
            argv += [_FLAGS[key], value]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run(argv)
        lines = stderr.getvalue().splitlines()
        assert code in (2, 3)
        assert len(lines) == 1 and re.match(r"\w+: ", lines[0])
        assert _no_outputs(out)


class TestSettingChecks:
    """Out-of-range times and unreadable switches exit 2 before any work."""

    @pytest.mark.parametrize(
        "args",
        [
            ("response", "--grid-dt", "0"),
            ("response", "--grid-dt", "-0.1"),
            ("response", "--grid-dt", "nan"),
            ("response", "--grid-dt", "inf"),
            ("response", "--horizon", "-1"),
            ("response", "--horizon", "0"),
            ("response", "--horizon", "nan"),
            ("backbone", "--node-time", "-1"),
            ("backbone", "--node-time", "inf"),
            ("susceptibility", "--method", "monte_carlo", "--dt", "0"),
            ("ingest", "--clip-negative-flows", "maybe"),
            ("benchmark", "--arima-order", "2,1,1"),
            ("benchmark", "--arima-order", "1,1"),
            ("benchmark", "--baseline", "nope"),
            ("benchmark", "--target", "bogus"),
            ("benchmark", "--calibration", "bogus"),
            ("susceptibility", "--method", "bogus"),
            ("susceptibility", "--noise", "bogus"),
            ("susceptibility", "--convention", "bogus"),
            ("response", "--shock-kind", "bogus"),
            ("backbone", "--graph-format", "bogus"),
            ("benchmark", "--var-year", "bogus"),
            ("benchmark", "--var-samples", "-3"),
            ("benchmark", "--var-samples", "0"),
            ("susceptibility", "--method", "monte_carlo", "--mc-replicas", "0"),
            ("susceptibility", "--method", "monte_carlo", "--mc-replicas", "1"),
            ("susceptibility", "--method", "monte_carlo", "--mc-length", "-5"),
            ("susceptibility", "--eta", "0"),
            ("susceptibility", "--eta", "nan"),
            ("susceptibility", "--method", "monte_carlo", "--burn-in", "-1"),
            ("response", "--recovery-eps", "-1"),
            ("response", "--recovery-eps", "inf"),
            ("backbone", "--significance", "0"),
            ("backbone", "--significance", "1"),
            ("response", "--shock-size", "nan"),
            ("response", "--shock-size", "inf"),
            ("response", "--shock-size=-inf"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1", "--seed", "-1"),
        ],
        ids=lambda args: " ".join(args),
    )
    def test_rejected_setting_exit_2(self, two_sector_file, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = run([
            *args, "--data", str(two_sector_file), "--country", "AAA",
            "--year", "2014", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: bad value for ")
        assert _no_outputs(out)

    @pytest.mark.parametrize("year", ["abc", "2014.5"])
    def test_rejected_year_exit_2_before_data_is_read(self, tmp_path, capsys, year):
        out = tmp_path / "out"
        code = run([
            "susceptibility", "--data", str(tmp_path / "missing.csv"),
            "--year", year, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: bad value for year: ")
        assert _no_outputs(out)

    @pytest.mark.parametrize(
        "args",
        [
            ("response", "--horizon", "1e308"),
            ("response", "--grid-dt", "1e-320"),
            ("scenario", "--curves", "AAA", "--horizon", "1e308"),
            ("scenario", "--curves", "AAA", "--grid-dt", "1e-320"),
            ("response", "--horizon", "0.001", "--grid-dt", "0.01"),
            ("scenario", "--curves", "AAA", "--horizon", "0.004"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "0.001"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1e308"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1", "--dt", "1e-320"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1", "--dt", "0.6"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1", "--dt", "0.3"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1", "--mc-length", "1e308"),
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1", "--burn-in", "1e308"),
        ],
        ids=lambda args: " ".join(args),
    )
    def test_unformable_step_count_exit_2_before_data_is_read(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = run([
            *args, "--data", str(tmp_path / "missing.csv"), "--country", "AAA",
            "--year", "2014", "--scenario-spec", str(tmp_path / "missing.txt"),
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: bad horizon")
        assert _no_outputs(out)

    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "runs" / "out"
        code = run([
            "response", "--horizon", "0.001", "--grid-dt", "0.01",
            "--data", str(tmp_path / "missing.csv"), "--country", "AAA", "--year", "2014",
            "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("ConfigError: bad horizon")
        assert not (tmp_path / "runs").exists()

    def test_failed_run_keeps_an_existing_directory(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n", encoding="utf-8")
        code = run([
            "susceptibility", "--data", str(tmp_path / "missing.csv"), "--out", str(out),
        ])
        assert code == 3
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    def test_var_samples_below_regressor_count_exit_3(
        self, two_sector_file, tmp_path, capsys
    ):
        # two sectors need at least N + 2 = 4 yearly samples
        out = tmp_path / "out"
        code = run([
            "benchmark", "--data", str(two_sector_file), "--baseline", "var",
            "--var-samples", "3", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("InsufficientSamples: ")
        assert _no_outputs(out)

    @pytest.mark.parametrize(
        "shape, args",
        [
            (None, ("--baseline", "var", "--var-samples", "200")),
            (None, ("--baseline", "perturbed_io")),
            ((1, (2000, 2002), 5), ("--baseline", "perturbed_io")),
            ((1, (2000, 2003), 5), ("--baseline", "arima")),
            ((2, (2000, 2008), 2), ("--baseline", "arima")),
            ((2, (2000, 2008), 2), ("--baseline", "var")),
            ((2, (2000, 2008), 2), ("--baseline", "perturbed_io")),
        ],
        ids=["one_year_var", "one_year_perturbed_io", "one_cell_perturbed_io",
             "no_arima_cell", "two_sectors_arima", "two_sectors_var",
             "two_sectors_perturbed_io"],
    )
    def test_panel_too_small_to_score_exit_3(
        self, two_sector_file, tmp_path, capsys, shape, args
    ):
        data = two_sector_file
        if shape is not None:
            data = tmp_path / "panel.csv"
            with open(data, "w", encoding="utf-8", newline="") as fh:
                write_panel(build_panel(*shape), fh)
        out = tmp_path / "out"
        code = run(["benchmark", "--data", str(data), *args, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("InsufficientSamples: ")
        assert _no_outputs(out)

    def test_rejected_setting_from_config_file(self, two_sector_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("grid_dt = 0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run([
            "response", "--config", str(config), "--data", str(two_sector_file),
            "--country", "AAA", "--year", "2014", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("ConfigError: bad value for grid_dt: ")
        assert _no_outputs(out)

    @pytest.mark.parametrize("source", ["flag", "environment", "config"])
    @pytest.mark.parametrize("subcommand", sorted(set(_HANDLERS) - {"susceptibility"}))
    def test_monte_carlo_refused_outside_susceptibility(
        self, tmp_path, capsys, monkeypatch, subcommand, source
    ):
        # a missing data file would exit 3: the refusal comes before any read
        out = tmp_path / "out"
        argv = [subcommand, "--data", str(tmp_path / "missing.csv"), "--out", str(out)]
        if source == "flag":
            argv += ["--method", "monte_carlo"]
        elif source == "environment":
            monkeypatch.setenv("IORESPONSE_METHOD", "monte_carlo")
        else:
            config = tmp_path / "run.conf"
            config.write_text("method = monte_carlo\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ConfigError: {subcommand} is analytic only")
        assert _no_outputs(out)

    def test_manifest_from_before_the_oracle_was_retired_still_runs(
        self, two_sector_file, tmp_path
    ):
        old = tmp_path / "manifest.txt"
        old.write_text(_OLDER_MANIFEST.format(data=two_sector_file), encoding="utf-8")
        rerun = tmp_path / "rerun"
        assert run(["ingest", "--config", str(old), "--out", str(rerun)]) == 0
        direct = tmp_path / "direct"
        assert run(["ingest", "--data", str(two_sector_file), "--out", str(direct)]) == 0
        assert _numeric_outputs(rerun) == _numeric_outputs(direct)
        assert "lrt_oracle" not in _read(rerun / "manifest.txt")

    @pytest.mark.parametrize("setting", ["config on", "config True", "config onn", "flag on"])
    def test_retired_oracle_switched_on_exit_2(self, two_sector_file, tmp_path, capsys, setting):
        source, value = setting.split()
        out = tmp_path / "out"
        argv = ["benchmark", "--data", str(two_sector_file), "--baseline", "perturbed_io",
                "--out", str(out)]
        if source == "flag":
            argv += ["--lrt-oracle", value]
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"seed = 1\nlrt_oracle = {value}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: ")
        assert _no_outputs(out)

    def test_switch_values_in_any_case_still_run(self, two_sector_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "ingest", "--data", str(two_sector_file), "--clip-negative-flows", "OFF",
            "--out", str(out),
        ])
        assert code == 0
        assert "clip_negative_flows = False\n" in _read(out / "manifest.txt")
        rerun = tmp_path / "rerun"
        code = run(["ingest", "--config", str(out / "manifest.txt"), "--out", str(rerun)])
        assert code == 0
        assert _numeric_outputs(rerun) == _numeric_outputs(out)

    def test_zero_node_time_still_runs(self, two_sector_file, tmp_path):
        out = tmp_path / "out"
        code = run([
            "backbone", "--data", str(two_sector_file), "--country", "AAA",
            "--year", "2014", "--node-time", "0", "--graph-format", "graphml",
            "--out", str(out),
        ])
        assert code == 0

    def test_scenario_compensation_no_still_runs(self, two_sector_file, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "evaluation_year = 2014\ncompensation = no\nshock = AAA S1 absolute 1.0\n",
            encoding="utf-8",
        )
        assert run([
            "scenario", "--data", str(two_sector_file), "--scenario-spec", str(spec),
            "--out", str(tmp_path / "out"),
        ]) == 0


@pytest.fixture(scope="module")
def four_sector_file(tmp_path_factory):
    """A real 2-country, 4-sector, 4-year panel and a scenario spec next to it."""
    path = tmp_path_factory.mktemp("four") / "panel.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_panel(build_panel(2, (2000, 2003), 4, seed=1), fh)
    (path.parent / "spec.txt").write_text(
        "evaluation_year = 2001\nshock = * A01 export_to AAA -1.0\n", encoding="utf-8"
    )
    for name, sectors in (("overflow_impact.txt", "A01 A02"), ("overflow_shock.txt", "A01 A01")):
        (path.parent / name).write_text("evaluation_year = 2001\n" + "".join(
            f"shock = AAA {s} absolute 1e308\n" for s in sectors.split()), encoding="utf-8")
    return path


_MC_CELL = ("susceptibility", "--country", "AAA", "--year", "2001", "--method", "monte_carlo",
            "--horizon", "1")


class TestExtremeSettings:
    """Settings that reach the arrays they size end in one line, not a
    traceback.  Every size asks for more than 2**57 bytes, the largest user
    address space on 64-bit Linux, so nothing is allocated whatever the
    overcommit policy."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (("response", "--country", "AAA", "--year", "2001", "--horizon", "1e16"), 2),
            (("scenario", "--curves", "AAA", "--horizon", "1e16"), 2),
            (("benchmark", "--baseline", "var", "--var-samples", str(10**16)), 2),
            (("benchmark", "--baseline", "var", "--var-samples", str(10**18)), 2),
            ((*_MC_CELL, "--mc-replicas", str(10**13)), 2),
            ((*_MC_CELL, "--mc-replicas", str(10**16)), 2),
            (("benchmark", "--baseline", "var", "--eta", "1e150"), 4),
            (("benchmark", "--baseline", "var", "--eta", "1e151"), 4),
            (("benchmark", "--baseline", "var", "--eta", "1e200"), 4),
            (("benchmark", "--baseline", "var", "--noise", "isotropic", "--eta", "1e200"), 4),
            ((*_MC_CELL, "--mc-length", "5", "--eta", "1e200"), 4),
            ((*_MC_CELL, "--mc-length", "5", "--noise", "isotropic", "--eta", "1e-200"), 4),
            ((*_MC_CELL, "--mc-length", "5", "--eta", "1e-150"), 4),
            (("scenario", "--scenario-spec", "overflow_impact.txt"), 4),
            (("scenario", "--scenario-spec", "overflow_shock.txt"), 4),
            (("response", "--country", "AAA", "--year", "2001", "--shock-kind", "step",
              "--shock-size", "1e308"), 4),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value),
    )
    def test_fails_in_one_line(self, four_sector_file, tmp_path, capsys, args, code):
        out = tmp_path / "out"
        # a scenario spec is named by its file next to the panel
        here = four_sector_file.parent
        args = [str(here / a) if a.endswith(".txt") else a for a in args]
        if "--scenario-spec" not in args:
            args += ["--scenario-spec", str(here / "spec.txt")]
        argv = [*args, "--data", str(four_sector_file), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the command line would print a warning
            assert run(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(r"\w+: ", err[0])
        assert _no_outputs(out)

    @pytest.mark.parametrize("eta", ["1e10", "1e100"])
    def test_var_runs_at_large_noise_scales(self, four_sector_file, tmp_path, capsys, eta):
        # the VAR fit regresses centered states, so no intercept column is
        # lost beside states of size eta x Y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["benchmark", "--baseline", "var", "--eta", eta, "--data",
                        str(four_sector_file), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("susceptibility", "--method", "monte_carlo", "--horizon", "1", "--mc-length", "20",
             "--mc-replicas", "2", "--country", "AAA", "--year", "2014"),
            ("benchmark", "--baseline", "var"),
        ],
        ids=" ".join,
    )
    def test_sector_that_nothing_moves_exit_4(self, two_sector_file, tmp_path, capsys, args):
        # a zero-output sector that supplies no input has no noise and no drive
        data = tmp_path / "panel.csv"
        data.write_text(two_sector_file.read_text(encoding="utf-8")
                        + "OUTPUT,AAA,2014,S3,,0.0\n", encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the command line would print a warning
            assert run([*args, "--data", str(data), "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["NumericalError: AAA/2014: sector S3 has no noise and supplies "
                       "no input to any sector, so nothing moves it"]
        assert _no_outputs(out)

    def test_allocation_failure_exit_2(self, four_sector_file, tmp_path, capsys, monkeypatch):
        from ioresponse import response

        # a grid numpy cannot allocate, as a horizon of 1e12 years asks for
        monkeypatch.setattr(response, "response_grid", lambda *args: np.empty(1 << 57))
        out = tmp_path / "out"
        code = run(["response", "--data", str(four_sector_file), "--country", "AAA",
                    "--year", "2001", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("MemoryError: Unable to allocate")
        assert _no_outputs(out)


class TestEnvironmentOverride:
    def test_env_sets_value_and_flag_wins(self, panel_file, tmp_path, monkeypatch):
        monkeypatch.setenv("IORESPONSE_COUNTRY", "ZZZ")
        code = run([
            "susceptibility", "--data", str(panel_file), "--year", "2004",
            "--out", str(tmp_path / "a"),
        ])
        assert code == 3  # env-selected country does not exist
        code = run([
            "susceptibility", "--data", str(panel_file), "--year", "2004",
            "--country", "AAA", "--out", str(tmp_path / "b"),
        ])
        assert code == 0  # explicit flag overrides the environment


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout; its stdout."""
    import ioresponse

    src = str(Path(ioresponse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_loads_no_scipy():
    assert _fresh_python(f"import sys, ioresponse.cli; print({_LOADED_SCIPY})") == "[]"


@pytest.mark.parametrize("args", [("ingest",), ("susceptibility",),
                                  ("susceptibility", "--country", "AAA", "--year", "2014")])
def test_scipy_free_subcommands_load_no_scipy(two_sector_file, tmp_path, args):
    argv = [*args, "--data", str(two_sector_file), "--out", str(tmp_path / "out")]
    code = f"import sys; from ioresponse.cli import run; print(run({argv!r}), {_LOADED_SCIPY})"
    assert _fresh_python(code) == "0 []"


@pytest.mark.parametrize("args", [
    ("forecast",),
    ("response", "--country", "AAA", "--year", "2004", "--horizon", "10"),
    ("scenario", "--curves", "AAA", "--horizon", "10"),
    ("backbone", "--country", "AAA", "--year", "2004", "--node-time", "1"),
], ids=["forecast", "response", "scenario_curves", "backbone_node_time"])
def test_propagator_subcommands_load_no_scipy(panel_file, tmp_path, args):
    # every finite horizon goes through the numpy exponential
    if args[0] == "scenario":
        spec = tmp_path / "spec.txt"
        spec.write_text("evaluation_year = 2004\nshock = * A01 export_to AAA -1.0\n",
                        encoding="utf-8")
        args = (*args, "--scenario-spec", str(spec))
    argv = [*args, "--data", str(panel_file), "--out", str(tmp_path / "out")]
    code = f"import sys; from ioresponse.cli import run; print(run({argv!r}), {_LOADED_SCIPY})"
    assert _fresh_python(code) == "0 []"


@pytest.mark.parametrize("args", [
    ("benchmark", "--baseline", "perturbed_io"),
    ("susceptibility", "--method", "monte_carlo", "--country", "AAA", "--year", "2004",
     "--horizon", "1", "--mc-replicas", "2", "--mc-length", "20"),
    ("benchmark", "--baseline", "var", "--var-samples", "200"),
], ids=["perturbed_io_benchmark", "monte_carlo_susceptibility", "var_benchmark"])
def test_scipy_routes_load_no_scipy_linalg(panel_file, tmp_path, args):
    # the t-tests and the normal variates load scipy.special; the propagators,
    # the covariances, the sampled paths and the Green-Kubo filter are numpy
    argv = [*args, "--data", str(panel_file), "--out", str(tmp_path / "out")]
    code = (f"import sys; from ioresponse.cli import run; print(run({argv!r}), "
            f"[m for m in {_LOADED_SCIPY} if m.startswith(('scipy.linalg', 'scipy.fft'))])")
    assert _fresh_python(code) == "0 []"


class TestNotUtf8:
    """A latin-1 byte in any input file ends the run in one error line."""

    def test_data_file(self, two_sector_file, tmp_path, capsys):
        lines = two_sector_file.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4].replace(b"S2", b"S\xe92")
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        code = run(["ingest", "--data", str(data), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("MalformedRow: line 5: not UTF-8 text (")
        assert _no_outputs(out)

    def test_config_file(self, two_sector_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"# caf\xe9\nseed = 1\n")
        out = tmp_path / "out"
        code = run(["ingest", "--config", str(config), "--data", str(two_sector_file),
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ConfigError: cannot read config file {config}")
        assert _no_outputs(out)

    def test_scenario_spec(self, two_sector_file, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_bytes(b"name = caf\xe9\nevaluation_year = 2014\n")
        out = tmp_path / "out"
        code = run(["scenario", "--data", str(two_sector_file), "--scenario-spec", str(spec),
                    "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("DataError: cannot read scenario spec: ")
        assert _no_outputs(out)


class TestTableCache:
    """Whether a run finds its tables in the cache changes no output, no
    message and no exit code."""

    FORMS = [
        ("ingest",),
        ("forecast", "--country", "AAA"),
        ("susceptibility", "--country", "BBB", "--year", "2003"),
        ("benchmark", "--baseline", "perturbed_io"),
    ]

    @pytest.fixture(autouse=True)
    def cache(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(root))
        return root / "ioresponse"

    @staticmethod
    def run_quietly(capsys, args, data, out) -> tuple[int, list[str]]:
        code = run([*args, "--data", str(data), "--out", str(out)])
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("args", FORMS, ids=" ".join)
    def test_outputs_identical_cold_and_warm(self, panel_file, tmp_path, capsys, cache,
                                             monkeypatch, args):
        cold = self.run_quietly(capsys, args, panel_file, tmp_path / "cold")
        assert cold == (0, [])
        self.run_quietly(capsys, ("ingest",), panel_file, tmp_path / "ingest")
        assert len(list(cache.glob("panel-*.npz"))) == 1
        monkeypatch.setattr(iodata, "_scan_rows", None)  # a warm run scans no row
        assert self.run_quietly(capsys, args, panel_file, tmp_path / "warm") == (0, [])
        assert _numeric_outputs(tmp_path / "warm") == _numeric_outputs(tmp_path / "cold")

    @pytest.mark.parametrize("form", ["bad row", "not UTF-8", "missing", "directory"])
    def test_bad_input_fails_alike_twice_and_is_not_cached(self, two_sector_file, tmp_path,
                                                           capsys, cache, form):
        data = tmp_path / "data.csv"
        if form == "bad row":
            data.write_text(_read(two_sector_file) + "FLOW,AAA,2014,S1\n", encoding="utf-8")
        elif form == "not UTF-8":
            data.write_bytes(two_sector_file.read_bytes().replace(b"S2", b"S\xe92", 1))
        elif form == "directory":
            data.mkdir()
        results = [self.run_quietly(capsys, ("ingest",), data, tmp_path / f"out{k}")
                   for k in range(2)]
        assert results[0] == results[1]
        code, err = results[0]
        assert code in (2, 3) and len(err) == 1 and re.match(r"\w+: ", err[0])
        assert not cache.exists()

    @pytest.mark.parametrize("damage", ["truncate", "other layout"])
    def test_bad_entry_is_read_again_quietly(self, panel_file, tmp_path, capsys, cache, damage):
        assert self.run_quietly(capsys, ("ingest",), panel_file, tmp_path / "cold") == (0, [])
        [entry] = cache.glob("panel-*.npz")
        if damage == "truncate":
            entry.write_bytes(entry.read_bytes()[:100])
        else:
            np.savez(entry, codes=np.array(["S1"]))
        assert self.run_quietly(capsys, ("ingest",), panel_file, tmp_path / "again") == (0, [])
        assert iodata._read_entry(entry) is not None  # rewritten
        assert _numeric_outputs(tmp_path / "again") == _numeric_outputs(tmp_path / "cold")

    @pytest.mark.parametrize("obstacle", ["read-only directory", "file in the way", "full disk"])
    def test_unwritable_cache_is_ignored(self, panel_file, tmp_path, capsys, cache, monkeypatch,
                                         obstacle):
        if obstacle == "read-only directory":
            cache.mkdir(parents=True)
            cache.chmod(0o500)
        elif obstacle == "file in the way":
            cache.parent.mkdir()
            cache.write_text("")
        else:
            def full(*args, **kwargs):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(np, "savez", full)
        try:
            assert self.run_quietly(capsys, ("ingest",), panel_file, tmp_path / "out") == (0, [])
        finally:
            if obstacle == "read-only directory":
                cache.chmod(0o700)
        if cache.is_dir():
            assert not list(cache.glob(".panel-*"))  # no temporary file left behind

    def test_fifo_data_is_read_and_not_cached(self, panel_file, tmp_path, capsys, cache):
        args = ("susceptibility", "--country", "AAA", "--year", "2004")
        fifo = tmp_path / "panel.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(panel_file.read_bytes())

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            assert self.run_quietly(capsys, args, fifo, tmp_path / "fifo") == (0, [])
        finally:
            writer.join()
        assert not cache.exists()
        assert self.run_quietly(capsys, args, panel_file, tmp_path / "file") == (0, [])
        assert _numeric_outputs(tmp_path / "fifo") == _numeric_outputs(tmp_path / "file")


def test_console_script_entry_point(two_sector_file, tmp_path):
    binary = shutil.which("ioresponse")
    if binary is None:
        pytest.skip("console script not installed")
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            binary, "susceptibility", "--data", str(two_sector_file),
            "--country", "AAA", "--year", "2014", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "matrix_AAA_2014.csv").exists()
