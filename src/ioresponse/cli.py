"""Command-line pipelines over canonical input-output data.

Subcommands: ``ingest`` (validate + normalize), ``susceptibility`` (matrices,
sector scores, panel ranking), ``response`` (shock curves and recovery
times), ``forecast`` (implied shocks and two-year predictions),
``benchmark`` (forecast comparison against a baseline plus the fluctuation
regression), ``scenario`` (demand-shock impact reports), and ``backbone``
(disparity-filtered network export).  ``--method`` selects the route of
``susceptibility``; every other subcommand is analytic only and refuses
``--method monte_carlo``.

Configuration precedence is flags > environment (``IORESPONSE_<KEY>``) >
config file (flat ``key = value`` lines) > defaults.  Every run writes a
``manifest.txt`` with the fully resolved configuration; pointing ``--config``
at a manifest reproduces the run.  All numeric output is a pure function of
(input data, resolved configuration, seed).  Every pipeline runs in one
thread; ``--workers`` is accepted, so older manifests and scripts keep
working, but has no effect.

Exit codes: 0 success, 2 usage/configuration error (a setting that sizes an
array the process cannot allocate included), 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from . import baselines, backbone, dynamics, iodata, response, scenario, susceptibility
from .errors import ConfigError, DataError, NumericalError

ENV_PREFIX = "IORESPONSE_"
#: Exit code of each error family; the first match wins (a ConfigError is a DataError).
_EXIT_CODES = (((ConfigError, MemoryError), 2), ((DataError, OSError), 3), (NumericalError, 4))

# Value parsers: a ValueError from any of them ends the run in ConfigError.

def _ranged(cast: Callable[[str], float], ok: Callable[[float], bool], rule: str):
    """Parser for a ``cast`` value that satisfies ``ok``, described by ``rule``."""

    def parse(value: str):
        number = cast(value)
        if not ok(number):
            raise ValueError(f"must be {rule}, got {value!r}")
        return number

    return parse


_finite_float = _ranged(float, math.isfinite, "finite")
_positive_float = _ranged(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_nonnegative_float = _ranged(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_positive_int = _ranged(int, lambda v: v >= 1, ">= 1")
_replica_count = _ranged(int, lambda v: v >= 2, ">= 2")  # standard errors need a spread
_nonnegative_int = _ranged(int, lambda v: v >= 0, ">= 0")
_probability = _ranged(float, lambda v: 0.0 < v < 1.0, "> 0 and < 1")


def _int_or(keyword: str) -> Callable[[str], object]:
    """Parser for ``keyword`` or an integer (surrounding blanks ignored)."""

    def parse(value: str):
        value = str(value).strip()
        return value if value == keyword else int(value)

    return parse


def _choice(*allowed: str) -> Callable[[str], str]:
    """Parser for exactly one of ``allowed`` (surrounding blanks ignored)."""

    def parse(value: str) -> str:
        value = str(value).strip()
        if value not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {value!r}")
        return value

    return parse


def _parse_arima_order(value: str) -> str:
    """``p,d,q`` with each of p, d, q 0 or 1, kept as ``p,d,q``."""
    parts = str(value).split(",")
    if len(parts) != 3 or any(v.strip() not in ("0", "1") for v in parts):
        raise ValueError(f"expected p,d,q with each of p, d, q 0 or 1, got {value!r}")
    return ",".join(v.strip() for v in parts)


def _parse_node_time(value: str) -> str:
    """Empty (no node annotation), or a finite time >= 0 kept as written."""
    value = str(value).strip()
    if value:
        _nonnegative_float(value)
    return value


# key -> (parser, default); flags mirror these one-to-one.  Simulation
# defaults are the library's, except mc_length (see the README).
_SCHEMA: dict[str, tuple[Callable[[str], object], object]] = {
    "data": (str, ""),
    "country": (str, "all"),
    "year": (_int_or("all"), "all"),
    "horizon": (iodata.parse_horizon, math.inf),
    "eta": (_positive_float, iodata.DEFAULT_NOISE.scale),
    "noise": (_choice("output_proportional", "isotropic"), iodata.DEFAULT_NOISE.kind),
    "dt": (_positive_float, dynamics.DEFAULT_DT),
    "seed": (_nonnegative_int, 0),
    "workers": (int, 1),  # no effect; kept so old manifests and scripts load
    "out": (str, "out"),
    "method": (_choice("analytic", "monte_carlo"), "analytic"),
    "mc_length": (_positive_float, 400.0),
    "mc_replicas": (_replica_count, susceptibility.SimulationBudget().replicas),
    "burn_in": (_nonnegative_float, dynamics.DEFAULT_BURN_IN),
    "shock_kind": (_choice("impulse", "step"), "impulse"),
    "shock_sector": (str, "all"),
    "shock_size": (_finite_float, 1.0),
    "grid_dt": (_positive_float, 0.01),
    "recovery_eps": (_nonnegative_float, response.RECOVERY_EPS),
    "baseline": (_choice("arima", "var", "perturbed_io"), "arima"),
    "arima_order": (_parse_arima_order, "1,1,1"),
    "calibration": (_choice("expanding", "full"), "expanding"),
    "target": (_choice("changes", "levels"), "changes"),
    "var_samples": (_positive_int, 10_000),
    "var_year": (_int_or("first"), "first"),
    "scenario_spec": (str, ""),
    "significance": (_probability, 0.05),
    "graph_format": (_choice("edgelist", "graphml"), "edgelist"),
    "node_time": (_parse_node_time, ""),
    "curves": (str, ""),
    "convention": (_choice("response", "source"), "response"),
    "clip_negative_flows": (iodata.parse_bool, False),
}
_FLAGS = {key: "--" + key.replace("_", "-") for key in _SCHEMA}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key in ("timestamp", "subcommand"):
            continue  # manifests carry these; they are informational
        if key == "lrt_oracle" and iodata._BOOLEANS.get(value.strip().lower()) is False:
            continue  # a retired test hook that older manifests record off; on is unknown
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


class RunConfig(dict):
    """Resolved configuration; plain mapping key -> typed value."""

    def noise_spec(self) -> iodata.NoiseSpec:
        return iodata.NoiseSpec(kind=self["noise"], scale=self["eta"])

    def arima_orders(self) -> tuple[int, int, int]:
        p, d, q = (int(v) for v in self["arima_order"].split(","))
        return p, d, q

    def budget(self) -> susceptibility.SimulationBudget:
        return susceptibility.SimulationBudget(
            dt=self["dt"],
            length=self["mc_length"],
            replicas=self["mc_replicas"],
            burn_in=self["burn_in"],
            seed=self["seed"],
        )


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = _read_config_file(args.config)
    resolved = RunConfig()
    for key, (parse, default) in _SCHEMA.items():
        raw = getattr(args, key, None)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is None:
            raw = file_values.get(key)
        if raw is None:
            resolved[key] = default
            continue
        try:
            resolved[key] = parse(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    return resolved


# ---------------------------------------------------------------------------
# output tracking
# ---------------------------------------------------------------------------

class OutputDir:
    """Tracks written files so a failed run leaves no partial outputs.

    The directory is made at the first ``open``, and ``discard`` removes the
    directories that this run made once they are empty again.
    """

    def __init__(self, path: str):
        self.path = Path(path)
        self.written: list[Path] = []
        self.made: list[Path] = []  # deepest first

    def open(self, name: str) -> TextIO:
        if not self.written:
            self.made = [p for p in (self.path, *self.path.parents) if not p.exists()]
            self.path.mkdir(parents=True, exist_ok=True)
        target = self.path / name
        self.written.append(target)
        return open(target, "w", encoding="utf-8", newline="")

    def discard(self) -> None:
        for target in self.written:
            try:
                target.unlink()
            except OSError:
                pass
        for directory in self.made:
            try:
                directory.rmdir()
            except OSError:
                break


def _write_manifest(out: OutputDir, subcommand: str, cfg: RunConfig) -> None:
    with out.open("manifest.txt") as fh:
        fh.write("# run manifest; pass to --config to reproduce\n")
        fh.write(f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n")
        fh.write(f"subcommand = {subcommand}\n")
        for key in sorted(_SCHEMA):
            fh.write(f"{key} = {cfg[key]}\n")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load_panel(cfg: RunConfig) -> iodata.Panel:
    if not cfg["data"]:
        raise ConfigError("no input data file (--data)")
    countries = None if cfg["country"] == "all" else [cfg["country"]]
    years = None if cfg["year"] == "all" else [cfg["year"]]
    return iodata.load_panel(
        cfg["data"],
        countries=countries,
        years=years,
        clip_negative_flows=cfg["clip_negative_flows"],
    )


def _require_cell(cfg: RunConfig) -> tuple[str, int]:
    if cfg["country"] == "all" or cfg["year"] == "all":
        raise ConfigError("this subcommand needs a specific --country and --year")
    return cfg["country"], cfg["year"]


def _curve_horizon(cfg: RunConfig) -> float:
    """Span of the run's response-curve grid (10 years for an infinite
    horizon), checked before any data is read: the grid must be formable and
    hold at least one step."""
    horizon = cfg["horizon"] if math.isfinite(cfg["horizon"]) else 10.0
    try:
        if dynamics.step_count(horizon, cfg["grid_dt"]) < 1:
            raise ValueError(
                f"horizon {horizon!r} must cover at least one grid step of {cfg['grid_dt']!r}"
            )
    except ValueError as exc:
        raise ConfigError(f"bad horizon or grid_dt: {exc}") from None
    return horizon


def _monte_carlo_budget(cfg: RunConfig) -> susceptibility.SimulationBudget:
    """The run's simulation budget, checked against its horizon before any
    data is read."""
    budget = cfg.budget()
    try:
        susceptibility.lag_count(cfg["horizon"], budget)
        dynamics.step_count(budget.burn_in, budget.dt)
    except ValueError as exc:
        raise ConfigError(f"bad horizon, dt, mc_length or burn_in: {exc}") from None
    return budget


def _shock_vector(cfg: RunConfig, table: iodata.IOTable) -> np.ndarray:
    if cfg["shock_sector"] == "all":
        return cfg["shock_size"] * np.ones(table.n_sectors)
    x = np.zeros(table.n_sectors)
    x[table.sector_index(cfg["shock_sector"])] = cfg["shock_size"]
    return x


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _identity_residual(table: iodata.IOTable) -> float:
    """max |Y - (A Y + D)| relative to max |Y|."""
    residual = float(
        np.max(np.abs(table.output - (table.coefficients @ table.output + table.demand)))
    )
    return residual / max(float(np.max(np.abs(table.output))), np.finfo(float).tiny)


def _cmd_ingest(cfg: RunConfig, out: OutputDir) -> None:
    panel = _load_panel(cfg)
    tables = list(panel)
    with out.open("report.csv") as fh:
        iodata.write_table(
            fh, "country,year,n_sectors,spectral_radius,identity_residual,negative_demand", (
                [t.country for t in tables], [t.year for t in tables],
                [t.n_sectors for t in tables],
                [iodata.spectral_radius(t.coefficients) for t in tables],
                [_identity_residual(t) for t in tables],
                [int((t.demand < 0).sum()) for t in tables],
            ))
    with out.open("normalized.csv") as fh:
        iodata.write_panel(panel, fh)


def _cmd_susceptibility(cfg: RunConfig, out: OutputDir) -> None:
    horizon = cfg["horizon"]
    convention = cfg["convention"]
    one_cell = cfg["country"] != "all" and cfg["year"] != "all"
    if cfg["method"] == "monte_carlo":
        if not one_cell:
            raise ConfigError(
                "monte_carlo needs a specific --country and --year; "
                "panel aggregation runs on the analytic path"
            )
        budget = _monte_carlo_budget(cfg)
    panel = _load_panel(cfg)

    if one_cell:
        table = panel.get(cfg["country"], cfg["year"])
        if cfg["method"] == "monte_carlo":
            nu = iodata.noise_covariance(cfg.noise_spec(), table)
            rho = susceptibility.susceptibility_monte_carlo(table, nu, horizon, budget)
        else:
            rho = susceptibility.susceptibility_analytic(table, horizon)
        with out.open(f"matrix_{table.country}_{table.year}.csv") as fh:
            susceptibility.write_matrix(rho, fh)
        scores = susceptibility.sector_susceptibility(rho, convention=convention)
        with out.open(f"sector_{table.country}_{table.year}.csv") as fh:
            iodata.write_table(fh, "sector,value", (rho.sectors, scores))
        return

    codes = panel.codes()
    sector_values = {}
    outputs = {}
    for table in panel:
        key = (table.country, table.year)
        rho = susceptibility.susceptibility_analytic(table, horizon)
        sector_values[key] = susceptibility.sector_susceptibility(rho, convention=convention)
        outputs[key] = table.output
    agg = susceptibility.aggregate_susceptibilities(sector_values, outputs, codes)
    with out.open("sector_scores.csv") as fh:
        susceptibility.write_aggregates(agg, fh)
    order = sorted(
        range(len(codes)),
        key=lambda i: (-(agg.weighted_sector[i]), codes[i]),
    )
    with out.open("sector_ranking.csv") as fh:
        iodata.write_table(fh, "rank,sector,rho,ci_low,ci_high", (
            range(1, len(order) + 1), [codes[i] for i in order],
            agg.weighted_sector[order], agg.ci_low[order], agg.ci_high[order],
        ))
    with out.open("country_susceptibility.csv") as fh:
        iodata.write_table(fh, "country,rho",
                           (agg.countries, [agg.country_average[c] for c in agg.countries]))


def _cmd_response(cfg: RunConfig, out: OutputDir) -> None:
    country, year = _require_cell(cfg)
    horizon = _curve_horizon(cfg)
    panel = _load_panel(cfg)
    table = panel.get(country, year)
    grid = response.response_grid(horizon, cfg["grid_dt"])
    x = _shock_vector(cfg, table)
    if cfg["shock_kind"] == "impulse":
        curve = response.impulse_response(table, x, grid)
    else:
        curve = response.step_response(table, x, grid)
    with out.open(f"curve_{country}_{year}.csv") as fh:
        response.write_curve(curve, table.codes, fh)
    if cfg["shock_kind"] == "impulse":
        times = response.recovery_time(curve, eps=cfg["recovery_eps"])
        with out.open(f"recovery_{country}_{year}.csv") as fh:
            iodata.write_table(fh, "sector,recovery_years", (table.codes, times))


def _cmd_forecast(cfg: RunConfig, out: OutputDir) -> None:
    panel = _load_panel(cfg)
    countries, shock_years, sectors = [], [], []
    shocks, observed, predicted = [], [], []
    for country in panel.countries():
        years = panel.years(country)
        for t in years:
            if t + 1 not in years:
                continue
            table = panel.get(country, t)
            y_t = table.output
            y_t1 = panel.get(country, t + 1).output
            shock = response.implied_shock(table, y_t, y_t1)
            n = table.n_sectors
            countries += [country] * n
            shock_years += [t] * n
            sectors += table.codes
            shocks.extend(shock.values)
            predicted.extend(response.lrt_forecast(table, y_t, y_t1))
            # a forecast past the panel's last year has no observation
            observed.extend(panel.get(country, t + 2).output if t + 2 in years else [""] * n)
    with out.open("implied_shocks.csv") as fh:
        iodata.write_table(fh, "country,year,sector,implied_shock",
                           (countries, shock_years, sectors, shocks))
    with out.open("forecast.csv") as fh:
        iodata.write_table(fh, "country,year,sector,observed,predicted", (
            countries, [t + 2 for t in shock_years], sectors, observed, predicted,
        ))


def _summary_json(s: baselines.TTestSummary) -> dict:
    return {"n": s.n, "mean_pg": s.mean, "ci_low": s.ci_low, "ci_high": s.ci_high,
            "p_value": s.p_value, "status": s.status}


def _cmd_benchmark(cfg: RunConfig, out: OutputDir) -> None:
    panel = _load_panel(cfg)
    var_year = None if cfg["var_year"] == "first" else cfg["var_year"]
    result = response.benchmark_lrt_vs_baseline(
        panel,
        baseline=cfg["baseline"],
        orders=cfg.arima_orders(),
        calibration=cfg["calibration"],
        target=cfg["target"],
        var_samples=cfg["var_samples"],
        var_calibration_year=var_year,
        noise=cfg.noise_spec(),
        seed=cfg["seed"],
    )
    with out.open("evaluation.csv") as fh:
        baselines.write_evaluation(result.evaluation, fh)
    with out.open("evaluation.json") as fh:
        payload = {
            "target": result.evaluation.target,
            "baseline": result.baseline,
            "cells": [{f: getattr(c, f) for f in baselines.CELL_FIELDS}
                      for c in result.evaluation.cells],
            "by_year": {
                str(y): _summary_json(s)
                for y, s in sorted(result.evaluation.by_year.items())
            },
            "pooled": _summary_json(result.evaluation.pooled),
        }
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    reg = response.fluctuation_panel_regression(panel)
    codes = panel.codes()
    with out.open("fluctuation_regression.csv") as fh:
        iodata.write_table(fh, "country,sector,predictor,observed,output_size", (
            [c for c in reg.countries for _ in codes], list(codes) * len(reg.countries),
            reg.predictor, reg.observed, reg.output_size,
        ))
    stats = ("eta", "r", "r_size_only", "r_with_size_control", "size_control_coefficient")
    with out.open("fluctuation_summary.csv") as fh:
        iodata.write_table(fh, "statistic,value", (stats, [getattr(reg, s) for s in stats]))


def _cmd_scenario(cfg: RunConfig, out: OutputDir) -> None:
    if not cfg["scenario_spec"]:
        raise ConfigError("scenario needs --scenario-spec FILE")
    curve_countries = [c for c in cfg["curves"].split(",") if c]
    curve_horizon = _curve_horizon(cfg) if curve_countries else 0.0  # no curve drawn
    try:
        text = Path(cfg["scenario_spec"]).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read scenario spec: {exc}") from None
    spec = scenario.parse_scenario_spec(text)
    panel = _load_panel(cfg)
    result = scenario.run_scenario(
        spec,
        panel,
        curve_countries=curve_countries,
        curve_horizon=curve_horizon,
        curve_dt=cfg["grid_dt"],
    )
    with out.open("scenario_impacts.csv") as fh:
        scenario.write_impacts(result, fh)
    with out.open("scenario_aggregates.csv") as fh:
        scenario.write_aggregates(result, fh)
    for c in curve_countries:
        table = panel.get(c, spec.evaluation_year)
        with out.open(f"scenario_curve_{c}.csv") as fh:
            response.write_curve(result.curves[c], table.codes, fh)


def _cmd_backbone(cfg: RunConfig, out: OutputDir) -> None:
    country, year = _require_cell(cfg)
    panel = _load_panel(cfg)
    table = panel.get(country, year)
    rho = susceptibility.susceptibility_analytic(table, cfg["horizon"])
    node_values = None
    if cfg["node_time"]:
        # annotate nodes with the unit-impulse response at the chosen time
        p = susceptibility.propagator(table.coefficients, float(cfg["node_time"]))
        node_values = dict(zip(table.codes, (float(v) for v in p @ np.ones(table.n_sectors))))
    graph = backbone.disparity_filter(
        rho, cfg["significance"], node_values=node_values
    )
    fmt = cfg["graph_format"]
    ext = "graphml" if fmt == "graphml" else "csv"
    with out.open(f"backbone_{country}_{year}.{ext}") as fh:
        fh.write(backbone.export_graph(graph, fmt))


_HANDLERS = {
    "ingest": _cmd_ingest,
    "susceptibility": _cmd_susceptibility,
    "response": _cmd_response,
    "forecast": _cmd_forecast,
    "benchmark": _cmd_benchmark,
    "scenario": _cmd_scenario,
    "backbone": _cmd_backbone,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors end the run in one ConfigError line."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ioresponse",
        description="Susceptibility analysis and forecasting for input-output economies.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="flat key = value config file (or a manifest)")
        for key, flag in _FLAGS.items():
            p.add_argument(flag, dest=key)
    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Join every ``--flag value`` pair into ``--flag=value``, so that a value
    starting with ``-`` (``-1e3``, ``-inf``) is taken rather than read as an
    option."""
    flags = {"--config", *_FLAGS.values()}
    tokens = iter(argv)
    joined = []
    for token in tokens:
        value = next(tokens, None) if token in flags else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def run(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(_attach_values(argv))
        cfg = resolve_config(args)
        if cfg["method"] != "analytic" and args.subcommand != "susceptibility":
            raise ConfigError(f"{args.subcommand} is analytic only; "
                              f"method = {cfg['method']} applies to susceptibility")
        out = OutputDir(cfg["out"])
        try:
            _HANDLERS[args.subcommand](cfg, out)
            _write_manifest(out, args.subcommand, cfg)
        except BaseException:
            out.discard()
            raise
    except (DataError, NumericalError, OSError, MemoryError) as exc:
        kind = next((k for k in (OSError, MemoryError) if isinstance(exc, k)), type(exc))
        print(f"{kind.__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0


def main() -> None:
    # The imported modules live until exit.  Freezing them keeps them out of
    # every later collection, the full one at interpreter exit included.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
