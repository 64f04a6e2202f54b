"""The benchmark's three workloads: inputs, operations and output checks.

Every program setting an operation depends on is pinned here, so a change
of a program default cannot silently change a workload.  Every check
compares the program's output with a reference the benchmark computes
itself from the generated arrays (``gen.Cell``), never with program code.

Workloads and why they were chosen:

* ``cli_panel``: text panel, every step a CLI process.  Interpreter start-up
  with ``import ioresponse.cli`` (about 1 s a call) and row parsing
  (``iodata``) dominate; the analytic kernel is a small share.
* ``lib_kernel``: library calls on tables built and warmed during set-up.
  No parsing; the analytic kernel (``expm`` and solves) does the work, in
  two shapes: few horizons over many tables (forecast) and many horizons
  over few tables (curves).
* ``estimators``: one country with no trading partners, via the CLI.  ARIMA
  fits, VAR calibration and Monte Carlo / Green-Kubo do the work; they use
  ``simulate_batch`` two ways (one long strided replica, eight full ones).

The shapes are smaller than the WIOD panel (43 x 56 x 15) wherever one pass
of a workload would otherwise not repeat within a run; see ``SHAPES``.
"""

from __future__ import annotations

import csv
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

import gen


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's reference."""


#: What a check may raise on malformed or missing output; all count as failed.
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError, StopIteration,
                csv.Error)


#: Relative tolerance of every analytic comparison.
RTOL = 1e-8
#: Ceiling on the Green-Kubo relative Frobenius error at the pinned budget
#: (8 replicas x 400 years).  Cutting the budget raises the error past it.
GK_REL_ERR_CEILING = 0.12

SHAPES = {
    "cli_panel": gen.PanelSpec(n_countries=2, n_sectors=56, first_year=2000, last_year=2014),
    "lib_kernel": gen.PanelSpec(n_countries=43, n_sectors=56, first_year=2000, last_year=2014),
    "estimators": gen.PanelSpec(n_countries=1, n_sectors=28, first_year=2000, last_year=2007),
}

#: Every CLI setting, passed to every CLI operation; an operation's own flags
#: override these.  The Monte Carlo budget stays at 8 x 400 years even if the
#: program's defaults move.
PINNED = {
    "seed": "1", "eta": "0.01", "noise": "output_proportional", "dt": "0.01",
    "burn-in": "50", "workers": "1", "horizon": "inf", "grid-dt": "0.01",
    "method": "analytic", "mc-length": "400", "mc-replicas": "8",
    "shock-kind": "impulse", "shock-sector": "all", "shock-size": "1.0",
    "recovery-eps": "0.05", "arima-order": "1,1,1", "calibration": "expanding",
    "target": "changes", "var-samples": "1000", "var-year": "first",
    "significance": "0.05", "graph-format": "edgelist", "convention": "response",
    "clip-negative-flows": "off",
}

SCENARIO_SECTOR = "C24"
SCENARIO_DEST = "USA"
CURVE_COUNTRIES = ("USA", "AUS")
CURVE_HORIZON = 10.0


@dataclass
class Context:
    """Generated inputs and cached references of one run."""

    name: str
    spec: gen.PanelSpec
    work: Path
    cells: dict
    data: Path | None = None       # text panel (CLI workloads)
    panel: object = None           # built tables (library workload)
    scenario_spec: Path | None = None
    gk_rel_err: float = 0.0
    _refs: dict = field(default_factory=dict)

    @property
    def last_year(self) -> int:
        return self.spec.last_year

    def cell(self, country, year) -> gen.Cell:
        return self.cells[(country, int(year))]

    def rho(self, country, year, horizon: float) -> np.ndarray:
        """Reference rho(T) = (I - A)^{-1} (I - exp((A - I) T)), T = inf allowed."""
        key = ("rho", country, int(year), horizon)
        if key not in self._refs:
            a = self.cell(country, year).coefficients
            eye = np.eye(len(a))
            rhs = eye if math.isinf(horizon) else eye - expm((a - eye) * horizon)
            self._refs[key] = np.linalg.solve(eye - a, rhs)
        return self._refs[key]

    def propagator(self, country, year, t: float) -> np.ndarray:
        a = self.cell(country, year).coefficients
        return expm((a - np.eye(len(a))) * t)

    def scenario_vectors(self, fraction: float) -> dict[str, np.ndarray]:
        """Shock vectors of ``* C24 export_to USA fraction`` with compensation."""
        year = self.last_year
        k = self.spec.codes.index(SCENARIO_SECTOR)
        vectors = {c: np.zeros(self.spec.n_sectors) for c in self.spec.countries}
        removed = 0.0
        for c in self.spec.countries:
            if c == SCENARIO_DEST:
                continue
            cell = self.cell(c, year)
            amount = fraction * cell.export[k, cell.destinations.index(SCENARIO_DEST)]
            vectors[c][k] += amount
            removed += amount
        vectors[SCENARIO_DEST][k] += abs(removed)
        return vectors


@dataclass(frozen=True)
class Op:
    """One program operation: a CLI subcommand or a library call."""

    name: str
    check: Callable
    argv: tuple[str, ...] = ()             # CLI: subcommand and its flags
    call: Callable | None = None           # library: fn(ctx) -> result
    damage: Callable | None = None         # fault injection: output -> damaged output


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _close(actual, expected, what: str, rtol: float = RTOL) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape} != {expected.shape}")
    scale = max(float(np.max(np.abs(expected))), 1e-300) if expected.size else 1.0
    err = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    if not err <= rtol * scale:
        raise CheckFailed(f"{what}: max deviation {err:.3e} exceeds {rtol:.0e} x {scale:.3e}")


def _rows(path: Path) -> list[dict]:
    if not path.exists():
        raise CheckFailed(f"missing output {path.name}")
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _correlations_in_range(rows: list[dict], expected_cells: int, what: str) -> None:
    _expect(len(rows) == expected_cells, f"{what}: {len(rows)} cells, expected {expected_cells}")
    for row in rows:
        for key in ("r_lrt", "r_baseline"):
            r = float(row[key])
            _expect(-1.0 - 1e-12 <= r <= 1.0 + 1e-12, f"{what}: {key} = {r} outside [-1, 1]")


def _evaluation_cells(path: Path) -> list[dict]:
    """Per-cell block of evaluation.csv (it ends at the first blank line)."""
    if not path.exists():
        raise CheckFailed(f"missing output {path.name}")
    text = path.read_text(encoding="utf-8").split("\n\n", 1)[0]
    return list(csv.DictReader(text.splitlines()))


def forecast_cells(spec: gen.PanelSpec) -> list[tuple[str, int]]:
    return [(c, t) for c in sorted(spec.countries) for t in spec.years[:-1]]


def _damage_csv(name: str, column: str):
    """Fault injection: add 3 to ``column`` in the last row of the file's first table."""

    def damage(out: Path) -> Path:
        path = out / name
        lines = path.read_text(encoding="utf-8").split("\n")
        last = lines.index("") - 1 if "" in lines else len(lines) - 1
        fields = lines[last].split(",")
        k = lines[0].split(",").index(column)
        fields[k] = repr(float(fields[k]) + 3.0)
        lines[last] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        return out

    return damage


# ---------------------------------------------------------------------------
# checks shared by the CLI and library forms
# ---------------------------------------------------------------------------

def _check_round_trip(ctx: Context, country, t, shock, predicted) -> None:
    y_t = ctx.cell(country, t).output
    y_t1 = ctx.cell(country, t + 1).output
    _close(ctx.rho(country, t, 1.0) @ shock, y_t1 - y_t, f"implied-shock round trip {country}/{t}")
    _close(predicted, y_t + ctx.rho(country, t, 2.0) @ shock, f"forecast {country}/{t + 2}")


def _check_country_average(ctx: Context, averages: dict) -> None:
    _expect(sorted(averages) == sorted(ctx.spec.countries), "country list differs")
    for c in ctx.spec.countries:
        expected = np.mean([ctx.rho(c, y, math.inf).sum(axis=1).mean() for y in ctx.spec.years])
        _close(averages[c], expected, f"country susceptibility {c}")


def _check_impacts(ctx: Context, impacts: dict, fraction: float) -> None:
    vectors = ctx.scenario_vectors(fraction)
    for c in ctx.spec.countries:
        _close(impacts[c], ctx.rho(c, ctx.last_year, math.inf) @ vectors[c], f"scenario impact {c}")


# ---------------------------------------------------------------------------
# CLI checks (arguments: context, output directory)
# ---------------------------------------------------------------------------

def check_ingest(ctx: Context, out: Path) -> None:
    report = _rows(out / "report.csv")
    _expect(len(report) == len(ctx.cells), f"report has {len(report)} tables")
    for row in report:
        cell = ctx.cell(row["country"], row["year"])
        radius = np.max(np.abs(np.linalg.eigvals(cell.coefficients)))
        _close(float(row["spectral_radius"]), radius,
               f"spectral radius {row['country']}/{row['year']}")
        _expect(float(row["identity_residual"]) < 1e-9, "equilibrium identity residual too large")
    lines = 0
    total_output = 0.0
    with open(out / "normalized.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            lines += 1
            if line.startswith("OUTPUT,"):
                total_output += float(line.rsplit(",", 1)[1])
    _expect(lines == gen.row_count(ctx.cells), f"normalized.csv has {lines} rows")
    _close(total_output, sum(c.output.sum() for c in ctx.cells.values()), "normalized outputs")


def check_susceptibility(ctx: Context, out: Path) -> None:
    averages = {r["country"]: float(r["rho"]) for r in _rows(out / "country_susceptibility.csv")}
    _check_country_average(ctx, averages)
    ranking = _rows(out / "sector_ranking.csv")
    _expect(len(ranking) == ctx.spec.n_sectors, "sector ranking length")
    values = [float(r["rho"]) for r in ranking]
    _expect(values == sorted(values, reverse=True), "sector ranking not in descending order")


def check_forecast(ctx: Context, out: Path) -> None:
    n = ctx.spec.n_sectors
    cells = forecast_cells(ctx.spec)
    shocks = _rows(out / "implied_shocks.csv")
    forecasts = _rows(out / "forecast.csv")
    _expect(len(shocks) == len(cells) * n, f"implied_shocks.csv has {len(shocks)} rows")
    _expect(len(forecasts) == len(cells) * n, f"forecast.csv has {len(forecasts)} rows")
    for k, (c, t) in enumerate(cells):
        block = slice(k * n, (k + 1) * n)
        shock = np.array([float(r["implied_shock"]) for r in shocks[block]])
        predicted = np.array([float(r["predicted"]) for r in forecasts[block]])
        _check_round_trip(ctx, c, t, shock, predicted)


def _read_curve(path: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    rows = _rows(path)
    _expect(len(rows) % n == 0, f"{path.name}: ragged curve")
    grid = np.array([float(r["t_prime"]) for r in rows[::n]])
    values = np.array([float(r["value"]) for r in rows]).reshape(-1, n)
    return grid, values


def _check_step_curve(ctx, country, year, x, grid, values, what) -> None:
    points = int(round(CURVE_HORIZON / (grid[1] - grid[0]))) + 1
    _expect(len(grid) == points, f"{what}: {len(grid)} grid points, expected {points}")
    for t in (1.0, CURVE_HORIZON):
        k = int(np.argmin(np.abs(grid - t)))
        _close(values[k], ctx.rho(country, year, float(grid[k])) @ x, f"{what} at t' = {grid[k]}")


def check_scenario(ctx: Context, out: Path) -> None:
    impacts: dict[str, list[float]] = {}
    for r in _rows(out / "scenario_impacts.csv"):
        impacts.setdefault(r["country"], []).append(float(r["delta_usd"]))
    _check_impacts(ctx, impacts, -1.0)
    vectors = ctx.scenario_vectors(-1.0)
    for c in CURVE_COUNTRIES:
        grid, values = _read_curve(out / f"scenario_curve_{c}.csv", ctx.spec.n_sectors)
        _check_step_curve(ctx, c, ctx.last_year, vectors[c], grid, values, f"scenario curve {c}")


def check_response(ctx: Context, out: Path) -> None:
    grid, values = _read_curve(out / f"curve_USA_{ctx.last_year}.csv", ctx.spec.n_sectors)
    x = np.ones(ctx.spec.n_sectors)
    _check_step_curve(ctx, "USA", ctx.last_year, x, grid, values, "step response")


def check_backbone(ctx: Context, out: Path) -> None:
    edges = _rows(out / f"backbone_USA_{ctx.last_year}.csv")
    _expect(len(edges) > 0, "backbone has no edges")
    rho = ctx.rho("USA", ctx.last_year, math.inf)
    index = {code: k for k, code in enumerate(ctx.spec.codes)}
    weights = [float(e["weight"]) for e in edges]
    expected = [abs(rho[index[e["from"]], index[e["to"]]]) for e in edges]
    _close(weights, expected, "backbone edge weights")
    for e in edges:
        _expect(0.0 <= float(e["alpha"]) <= 1.0, "backbone alpha outside [0, 1]")


def _check_benchmark(ctx: Context, out: Path, expected_cells: int, what: str) -> None:
    _correlations_in_range(_evaluation_cells(out / "evaluation.csv"), expected_cells, what)
    regression = _rows(out / "fluctuation_regression.csv")
    _expect(len(regression) == ctx.spec.n_countries * ctx.spec.n_sectors, "regression rows")


def check_benchmark_full(ctx: Context, out: Path) -> None:
    """perturbed_io / var: every shock year with two later years."""
    cells = ctx.spec.n_countries * (len(ctx.spec.years) - 2)
    _check_benchmark(ctx, out, cells, "benchmark")


def check_benchmark_arima(ctx: Context, out: Path) -> None:
    # ARIMA(1,1,1) needs 6 observations up to t + 1
    per_country = sum(1 for k in range(len(ctx.spec.years) - 2) if k + 2 >= 6)
    _check_benchmark(ctx, out, ctx.spec.n_countries * per_country, "arima benchmark")


def check_monte_carlo(ctx: Context, out: Path) -> None:
    rows = _rows(out / f"matrix_USA_{ctx.last_year}.csv")
    n = ctx.spec.n_sectors
    _expect(len(rows) == n * n, f"Monte Carlo matrix has {len(rows)} entries")
    values = np.array([float(r["value"]) for r in rows]).reshape(n, n)
    stderr = np.array([float(r["stderr"]) for r in rows])
    _expect(bool(np.all(np.isfinite(stderr)) and np.all(stderr >= 0.0)), "bad standard errors")
    ref = ctx.rho("USA", ctx.last_year, 1.0)
    ctx.gk_rel_err = float(np.linalg.norm(values - ref) / np.linalg.norm(ref))
    _expect(ctx.gk_rel_err <= GK_REL_ERR_CEILING,
            f"Green-Kubo relative error {ctx.gk_rel_err:.3f} above {GK_REL_ERR_CEILING}")


# ---------------------------------------------------------------------------
# library operations (lib_kernel): call(ctx) -> result, check(ctx, result)
# ---------------------------------------------------------------------------

LIB_CURVE_CELLS = 4


def _scenario_spec(fraction: float, year: int) -> str:
    return (
        f"evaluation_year = {year}\n"
        f"shock = * {SCENARIO_SECTOR} export_to {SCENARIO_DEST} {fraction!r}\n"
    )


def lib_ranking(ctx: Context):
    from ioresponse import susceptibility as S

    sector_values, outputs = {}, {}
    for table in ctx.panel:
        key = (table.country, table.year)
        sector_values[key] = S.sector_susceptibility(S.susceptibility_analytic(table, math.inf))
        outputs[key] = table.output
    return S.aggregate_susceptibilities(sector_values, outputs, ctx.panel.codes())


def check_lib_ranking(ctx: Context, agg) -> None:
    _check_country_average(ctx, dict(agg.country_average))
    # output-weighted mean of the per-sector scores over every cell
    scores = np.stack([ctx.rho(c, y, math.inf).sum(axis=1) for c, y in ctx.cells])
    weights = np.stack([cell.output for cell in ctx.cells.values()])
    _close(agg.weighted_sector, (weights * scores).sum(axis=0) / weights.sum(axis=0),
           "output-weighted sector scores")


def lib_forecast(ctx: Context):
    from ioresponse import response as R

    out = {}
    for c, t in forecast_cells(ctx.spec):
        table = ctx.panel.get(c, t)
        y_t, y_t1 = table.output, ctx.panel.get(c, t + 1).output
        shock = R.implied_shock(table, y_t, y_t1)
        out[(c, t)] = (shock.values, R.lrt_forecast(table, y_t, y_t1))
    return out


def check_lib_forecast(ctx: Context, result) -> None:
    _expect(len(result) == len(forecast_cells(ctx.spec)), "forecast cell count")
    for (c, t), (shock, predicted) in result.items():
        _check_round_trip(ctx, c, t, shock, predicted)


def lib_curve_cells(ctx: Context) -> list[tuple[str, int]]:
    """Evenly spaced cells of the panel, its last cell among them."""
    keys = list(ctx.cells)
    step = max(len(keys) // LIB_CURVE_CELLS, 1)
    return sorted({keys[-1 - k * step] for k in range(LIB_CURVE_CELLS)})


def lib_curves(ctx: Context):
    from ioresponse import response as R

    grid = R.response_grid(CURVE_HORIZON, 0.01)
    x = np.ones(ctx.spec.n_sectors)
    return {
        key: (R.step_response(ctx.panel.get(*key), x, grid),
              R.impulse_response(ctx.panel.get(*key), x, grid))
        for key in lib_curve_cells(ctx)
    }


def check_lib_curves(ctx: Context, curves) -> None:
    x = np.ones(ctx.spec.n_sectors)
    for (c, y), (step, impulse) in curves.items():
        _check_step_curve(ctx, c, y, x, step.grid, step.values, f"step {c}/{y}")
        for t in (1.0, CURVE_HORIZON):
            k = int(np.argmin(np.abs(impulse.grid - t)))
            _close(impulse.values[k], ctx.propagator(c, y, float(impulse.grid[k])) @ x,
                   f"impulse {c}/{y} at t' = {impulse.grid[k]}")


def lib_scenario(ctx: Context, fraction: float = -1.0, curves=CURVE_COUNTRIES):
    from ioresponse import scenario as SC

    spec = SC.parse_scenario_spec(_scenario_spec(fraction, ctx.last_year))
    return SC.run_scenario(spec, ctx.panel, curve_countries=curves,
                           curve_horizon=CURVE_HORIZON, curve_dt=0.01)


def _impacts_by_country(result) -> dict[str, list[float]]:
    impacts: dict[str, list[float]] = {}
    for row in result.impacts:
        impacts.setdefault(row.country, []).append(row.delta_usd)
    return impacts


def check_lib_scenario(ctx: Context, result) -> None:
    impacts = _impacts_by_country(result)
    _check_impacts(ctx, impacts, -1.0)
    vectors = ctx.scenario_vectors(-1.0)
    for c in CURVE_COUNTRIES:
        curve = result.curves[c]
        _check_step_curve(ctx, c, ctx.last_year, vectors[c], curve.grid, curve.values,
                          f"scenario curve {c}")
    # linearity: half the export cut gives half the impact
    half = _impacts_by_country(lib_scenario(ctx, -0.5, curves=()))
    for c in ctx.spec.countries:
        _close(half[c], 0.5 * np.asarray(impacts[c]), f"scenario linearity {c}", rtol=1e-12)


def lib_regression(ctx: Context):
    from ioresponse import response as R

    return R.fluctuation_panel_regression(ctx.panel)


def check_lib_regression(ctx: Context, reg) -> None:
    y0 = ctx.spec.first_year
    expected = np.concatenate([
        ctx.rho(c, y0, math.inf) @ ctx.cell(c, y0).output for c in sorted(ctx.spec.countries)
    ])
    _close(reg.predictor, expected, "fluctuation predictor")
    for r in (reg.r, reg.r_size_only, reg.r_with_size_control):
        _expect(-1.0 - 1e-12 <= r <= 1.0 + 1e-12, f"regression r = {r} outside [-1, 1]")


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def _ops_cli_panel(spec: gen.PanelSpec) -> list[Op]:
    last = str(spec.last_year)
    cell = ("--country", "USA", "--year", last)
    return [
        Op("ingest", check_ingest, ("ingest",),
           damage=_damage_csv("report.csv", "spectral_radius")),
        Op("susceptibility", check_susceptibility, ("susceptibility",),
           damage=_damage_csv("country_susceptibility.csv", "rho")),
        Op("forecast", check_forecast, ("forecast",),
           damage=_damage_csv("implied_shocks.csv", "implied_shock")),
        Op("scenario", check_scenario,
           ("scenario", "--scenario-spec", "{scenario_spec}",
            "--curves", ",".join(CURVE_COUNTRIES), "--horizon", "10", "--grid-dt", "0.1"),
           damage=_damage_csv("scenario_impacts.csv", "delta_usd")),
        Op("response", check_response,
           ("response", *cell, "--shock-kind", "step", "--horizon", "10"),
           damage=_damage_csv(f"curve_USA_{last}.csv", "value")),
        Op("backbone", check_backbone,
           ("backbone", *cell, "--node-time", "1", "--significance", "0.3"),
           damage=_damage_csv(f"backbone_USA_{last}.csv", "weight")),
        Op("benchmark_perturbed_io", check_benchmark_full,
           ("benchmark", "--baseline", "perturbed_io"),
           damage=_damage_csv("evaluation.csv", "r_lrt")),
    ]


def _ops_estimators(spec: gen.PanelSpec) -> list[Op]:
    last = str(spec.last_year)
    return [
        # two workers keep the benchmark's thread pool on a measured path
        Op("benchmark_arima", check_benchmark_arima,
           ("benchmark", "--baseline", "arima", "--workers", "2"),
           damage=_damage_csv("evaluation.csv", "r_lrt")),
        Op("benchmark_var", check_benchmark_full,
           ("benchmark", "--baseline", "var"),
           damage=_damage_csv("evaluation.csv", "r_lrt")),
        Op("susceptibility_mc", check_monte_carlo,
           ("susceptibility", "--method", "monte_carlo", "--country", "USA", "--year", last,
            "--horizon", "1"),
           damage=_damage_csv(f"matrix_USA_{last}.csv", "value")),
    ]


def _damage_ranking(agg):
    first = next(iter(agg.country_average))
    averages = {**agg.country_average, first: agg.country_average[first] + 3.0}
    return replace(agg, country_average=averages)


def _damage_forecast(result):
    key = next(iter(result))
    shock, predicted = result[key]
    return {**result, key: (shock + 3.0, predicted)}


def _damage_curves(curves):
    key = next(iter(curves))
    step, impulse = curves[key]
    return {**curves, key: (replace(step, values=step.values + 3.0), impulse)}


def _damage_scenario(result):
    last = result.impacts[-1]
    impacts = result.impacts[:-1] + (replace(last, delta_usd=last.delta_usd + 3.0),)
    return replace(result, impacts=impacts)


def _ops_lib_kernel(spec: gen.PanelSpec) -> list[Op]:
    return [
        Op("susceptibility", check_lib_ranking, call=lib_ranking, damage=_damage_ranking),
        Op("forecast", check_lib_forecast, call=lib_forecast, damage=_damage_forecast),
        Op("response", check_lib_curves, call=lib_curves, damage=_damage_curves),
        Op("scenario", check_lib_scenario, call=lib_scenario, damage=_damage_scenario),
        Op("regression", check_lib_regression, call=lib_regression,
           damage=lambda reg: replace(reg, predictor=reg.predictor + 3.0)),
    ]


OPS = {
    "cli_panel": _ops_cli_panel,
    "lib_kernel": _ops_lib_kernel,
    "estimators": _ops_estimators,
}


def setup(name: str, spec: gen.PanelSpec, seed: int, work: Path) -> Context:
    """Generate inputs and write or build them; warming up is the runner's job."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cells = gen.generate(spec, seed)
    ctx = Context(name=name, spec=spec, work=work, cells=cells)
    if name == "lib_kernel":
        ctx.panel = gen.build_tables(cells, spec.codes)
    else:
        ctx.data = work / "panel.csv"
        gen.write_text(cells, spec.codes, ctx.data)
        ctx.scenario_spec = work / "scenario.txt"
        ctx.scenario_spec.write_text(_scenario_spec(-1.0, spec.last_year), encoding="utf-8")
    return ctx
