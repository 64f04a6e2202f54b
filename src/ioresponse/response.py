"""Response curves, implied shocks, the susceptibility-based forecaster,
and its benchmark against the econometric baselines.

Analytic curves on a uniform grid ``t_k = k h`` (what :func:`response_grid`
returns) form ``P = exp((A - I) h)`` once and propagate by the semigroup
property: one ``expm`` per curve, then one matrix-vector product per grid
point.  The step response's point at ``h`` is computed as the direct route
computes it, so there it coincides bit-for-bit with
``applied_susceptibility(A, h, X)``.  Any other grid evaluates the
propagator ``exp((A - I) t')`` directly per grid point, and a step response
at each grid time T coincides bit-for-bit with
``applied_susceptibility(A, T, X)``.  Every Leontief solve of a step curve
is against one vector, never against an N x N right-hand side.

A forecast cell forms one exponential and one LU factorization: the yearly
map ``P = exp(A - I)`` of a table is kept for the next call on the same
table, so that :func:`implied_shock` and :func:`lrt_forecast` share it, and
the shock solves ``(I - P) X = (I - A) dY`` against one vector.  The
shock's condition cap and its round trip ``rho(1) X = dY`` are certified
from ``||A||_1`` when those bounds settle them; only otherwise is
``rho(1)`` formed for a singular value decomposition, or the exact
round-trip residual solved for.  :func:`benchmark_lrt_vs_baseline` scores
the same forecast, through :func:`lrt_forecast`, against an ARIMA, VAR or
perturbed-io baseline (:mod:`ioresponse.baselines`); a cell forms one
exponential whichever the baseline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

import numpy as np

from .baselines import (
    ForecastEvaluation,
    VarModel,
    arima_forecast,
    evaluate_forecasts,
    fit_arima,
    fit_var1,
    pearson_r,
    var_forecast,
)
from .dynamics import ShockProfile, step_count
from .errors import IllConditioned, MissingPanelCell, NumericalError
from .iodata import (
    DEFAULT_NOISE,
    IOTable,
    NoiseSpec,
    Panel,
    _finite_vector,
    _leontief,
    _pow2_scaled,
    guarded_solve,
    noise_covariance,
    write_table,
)
from .susceptibility import applied_susceptibility, propagator

#: Default relative threshold below which a sector counts as recovered.
RECOVERY_EPS = 0.05
#: Cap on the 2-norm condition number of rho(1) in the implied-shock solve.
CONDITION_CAP = 1e12
#: Relative tolerance of the implied-shock round trip rho(1) X = dY.
ROUND_TRIP_RTOL = 1e-8
#: Unit roundoff u of float64.
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class ResponseCurve:
    """Expected output change per sector on a time grid after a shock."""

    grid: np.ndarray           # t' (years since the shock), increasing
    values: np.ndarray         # (len(grid), N)
    shock: ShockProfile


@dataclass(frozen=True)
class ImpliedShock:
    """Step demand shock that reproduces an observed one-year output change.

    ``values`` solves ``(I - P) X = (I - A) dY``, i.e. ``rho(1) X = dY``,
    to within :data:`ROUND_TRIP_RTOL`.  ``condition`` is the upper bound on
    ``cond_2(rho(1))`` that was checked against :data:`CONDITION_CAP`: the
    1-norm certificate of :func:`implied_shock` when it settles the cap,
    else the exact value.
    """

    year: int
    values: np.ndarray
    condition: float


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if len(grid) > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _uniform_spacing(grid: np.ndarray) -> float | None:
    """Spacing h when ``grid == h * arange(len(grid))`` holds exactly, else None."""
    if len(grid) > 1 and np.array_equal(grid, grid[1] * np.arange(len(grid))):
        return float(grid[1])
    return None


def response_grid(horizon: float, dt: float = 0.01) -> np.ndarray:
    """Uniform grid [0, horizon] with the given spacing."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"grid spacing must be finite and > 0, got {dt!r}")
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"grid horizon must be finite and >= 0, got {horizon!r}")
    return dt * np.arange(step_count(horizon, dt) + 1)


def impulse_response(table: IOTable, shock_vector, grid) -> ResponseCurve:
    """<dY(t')> = exp((A - I) t') X for an impulse of weight X at t' = 0."""
    grid = _check_grid(grid)
    x = _finite_vector("shock_vector", shock_vector, table.n_sectors)
    a = table.coefficients
    values = np.empty((len(grid), len(x)))
    values[0] = x
    h = _uniform_spacing(grid)
    if h is None:
        for k, t in enumerate(grid[1:], start=1):
            values[k] = propagator(a, t) @ x
    else:
        # exp((A - I)(t + h)) = exp((A - I) h) exp((A - I) t)
        p = propagator(a, h)
        for k in range(1, len(grid)):
            values[k] = p @ values[k - 1]
    return ResponseCurve(grid=grid, values=values, shock=ShockProfile.impulse(x))


def step_response(table: IOTable, shock_vector, grid) -> ResponseCurve:
    """<dY(t')> = rho(t') X for a step shock switched on at t' = 0;
    :class:`NumericalError` when a value overflows float64."""
    grid = _check_grid(grid)
    x = _finite_vector("shock_vector", shock_vector, table.n_sectors)
    values = np.empty((len(grid), len(x)))
    values[0] = 0.0
    a = table.coefficients
    h = _uniform_spacing(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        if h is None:
            for k, t in enumerate(grid[1:], start=1):
                values[k] = applied_susceptibility(a, t, x)
        else:
            # rho(t + h) = rho(h) + exp((A - I) h) rho(t), because (I - A)^{-1}
            # commutes with exp((A - I) h); the first point is
            # applied_susceptibility's own formula, so it keeps its bits
            p = propagator(a, h)
            values[1] = _leontief(a, x - p @ x)
            for k in range(2, len(grid)):
                values[k] = values[1] + p @ values[k - 1]
    if not np.isfinite(values).all():
        raise NumericalError(f"{table.country}/{table.year}: the step response overflows float64")
    return ResponseCurve(grid=grid, values=values, shock=ShockProfile.step(x))


def recovery_time(curve: ResponseCurve, eps: float = RECOVERY_EPS) -> np.ndarray:
    """Per-sector time after which |dY_k| stays within the threshold.

    The threshold is ``eps * |X_k|`` for shocked sectors and
    ``eps * ||X||_inf`` for sectors with zero shock weight.  Returns the
    smallest grid time from which no later grid point exceeds the threshold;
    ``inf`` when the last grid point still exceeds it, 0.0 when no point does.
    """
    x = curve.shock.vector
    if x is None:
        raise ValueError("recovery_time needs a curve with an impulse/step shock")
    scale = float(np.max(np.abs(x)))
    thresholds = np.where(x != 0.0, eps * np.abs(x), eps * scale)
    out = np.empty(len(x))
    exceed = np.abs(curve.values) > thresholds[None, :]
    for k in range(len(x)):
        hits = np.nonzero(exceed[:, k])[0]
        if len(hits) == 0:
            out[k] = 0.0
        elif hits[-1] == len(curve.grid) - 1:
            out[k] = math.inf
        else:
            out[k] = curve.grid[hits[-1] + 1]
    return out


# ---------------------------------------------------------------------------
# implied shocks and the forecaster
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _yearly_map(table: IOTable) -> np.ndarray:
    """Read-only ``P = exp(A - I)`` of the last table asked for.

    ``IOTable`` is frozen, compares by identity and holds read-only arrays,
    so the table object itself keys the entry.
    """
    p = propagator(table.coefficients, 1.0)
    p.flags.writeable = False
    return p


def _condition_certificate(alpha: float, n: int) -> float:
    """Upper bound on ``cond_2(rho(1))`` of an N-sector table from
    ``alpha = ||A||_1``; inf when ``alpha >= 1``.

    With ``beta = exp(alpha - 1) >= ||P||_1`` (``P = e^{-1} e^A``),
    ``||rho(1)||_1 <= (1 + beta) / (1 - alpha)`` and
    ``||rho(1)^{-1}||_1 = ||(I - P)^{-1} (I - A)||_1 <= (1 + alpha) / (1 - beta)``;
    ``||M||_2 <= sqrt(N) ||M||_1`` turns their product into a 2-norm bound.
    """
    beta = math.exp(alpha - 1.0)
    if beta >= 1.0:
        return math.inf
    return n * (1.0 + alpha) * (1.0 + beta) / ((1.0 - alpha) * (1.0 - beta))


def _round_trip_bound(alpha: float, p: np.ndarray, a: np.ndarray, x: np.ndarray,
                      delta: np.ndarray) -> float:
    """Upper bound on ``max|rho(1) X - dY|`` from two matrix-vector products;
    inf when ``alpha = ||A||_1 >= 1``.

    ``rho(1) X - dY = (I - A)^{-1} ((I - P) X - (I - A) dY)`` and
    ``||(I - A)^{-1}||_1 <= 1 / (1 - alpha)``.  The computed residual
    ``r = (X - P X) - (dY - A dY)`` differs from the exact one by at most
    ``gamma_{N+3} ((1 + beta) ||X||_1 + 2 (1 + alpha) ||dY||_1)``, with
    ``beta = exp(alpha - 1) >= ||P||_1`` and ``gamma_k = k u / (1 - k u)``;
    the factor 2 covers the rounding in the norms and in ``alpha``.
    """
    if alpha >= 1.0:
        return math.inf
    beta = math.exp(alpha - 1.0)
    k = (len(x) + 3) * _UNIT_ROUNDOFF
    gamma = k / (1.0 - k)
    r = (x - p @ x) - (delta - a @ delta)
    rounding = gamma * ((1.0 + beta) * np.abs(x).sum()
                        + 2.0 * (1.0 + alpha) * np.abs(delta).sum())
    return float((np.abs(r).sum() + rounding) / (1.0 - alpha))


def _output_change(table: IOTable, output_t, output_t1) -> tuple[np.ndarray, np.ndarray]:
    """``(Y(t+1), dY)`` of two checked outputs; :class:`NumericalError` when
    ``dY = Y(t+1) - Y(t)`` overflows float64."""
    y_t = _finite_vector("output_t", output_t, table.n_sectors)
    y_t1 = _finite_vector("output_t1", output_t1, table.n_sectors)
    with np.errstate(over="ignore"):
        delta = y_t1 - y_t
    if not np.isfinite(delta).all():
        raise NumericalError(f"{table.country}/{table.year}: the output change overflows float64")
    return y_t1, delta


def implied_shock(table: IOTable, output_t, output_t1) -> ImpliedShock:
    """Solve rho(T=1) X = Y(t+1) - Y(t) for the step shock X implied by data.

    With ``rho(1) = (I - A)^{-1} (I - P)`` and ``P = exp(A - I)`` the table's
    yearly map, which :func:`lrt_forecast` on the same table reuses, X solves
    ``(I - P) X = (I - A) dY`` by one LU solve against one vector.
    ``cond_2(rho(1))`` must not exceed :data:`CONDITION_CAP`
    (:class:`IllConditioned` otherwise).  When ``alpha = ||A||_1 < 1`` the
    certificate ``N (1 + alpha)(1 + beta) / ((1 - alpha)(1 - beta))``, with
    ``beta = exp(alpha - 1)``, bounds it from above; a certificate of at
    most half the cap settles the check without forming ``rho(1)``.
    Otherwise ``rho(1)`` is formed and its exact ``cond_2`` compared.

    The round trip ``max|rho(1) X - dY|`` must not exceed
    :data:`ROUND_TRIP_RTOL` times ``max|dY|`` (:class:`NumericalError`
    otherwise).  A bound on it from the residual ``(I - P) X - (I - A) dY``
    settles the check when it is at most half that limit; otherwise the
    exact residual ``(I - A)^{-1} (X - P X) - dY`` is solved for and
    compared.  :class:`ValueError` when an output is not N finite values,
    :class:`NumericalError` when ``dY`` overflows float64.
    """
    delta = _output_change(table, output_t, output_t1)[1]
    a = table.coefficients
    p = _yearly_map(table)
    i_minus_p = np.eye(len(a)) - p
    alpha = float(np.abs(a).sum(axis=0).max())
    condition = _condition_certificate(alpha, len(a))
    # the factor 2 covers the rounding in alpha and in the SVD's cond_2
    if condition > CONDITION_CAP / 2:
        condition = float(np.linalg.cond(_leontief(a, i_minus_p)))
        if condition > CONDITION_CAP:
            raise IllConditioned(condition, CONDITION_CAP)
    limit = ROUND_TRIP_RTOL * float(np.max(np.abs(delta)))
    # a shock that overflows fails the round trip: its residual is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        x = guarded_solve(i_minus_p, delta - a @ delta, "I - P")
        if not _round_trip_bound(alpha, p, a, x, delta) <= limit / 2:
            residual = float(np.max(np.abs(_leontief(a, x - p @ x) - delta)))
            if not residual <= limit:
                raise NumericalError(
                    f"implied-shock round trip residual {residual:.3e} exceeds "
                    f"{ROUND_TRIP_RTOL:.0e} relative"
                )
    return ImpliedShock(year=table.year, values=x, condition=condition)


def lrt_forecast(table: IOTable, output_t, output_t1) -> np.ndarray:
    """Two-year-ahead output level ``Y(t+1) + exp(A - I) dY``, ``dY = Y(t+1) - Y(t)``.

    This is the forecast ``Y(t) + rho(t, 2) X`` under the step shock X with
    ``rho(t, 1) X = dY``, without extracting X: ``rho(2) = rho(1) + P rho(1)``
    with ``P = exp(A - I)``, so ``rho(2) X = dY + P dY``.  No shock is solved
    for, so neither the condition cap nor the round-trip check applies.
    ``P`` is the one :func:`implied_shock` formed for the same table, so a
    forecast cell costs one exponential.  :class:`ValueError` when an output
    is not N finite values, :class:`NumericalError` when ``dY`` or the
    forecast overflows float64.
    """
    y_t1, delta = _output_change(table, output_t, output_t1)
    with np.errstate(over="ignore"):
        forecast = y_t1 + _yearly_map(table) @ delta
    if not np.isfinite(forecast).all():
        raise NumericalError(f"{table.country}/{table.year}: the forecast overflows float64")
    return forecast


def fluctuation_prediction(table: IOTable) -> np.ndarray:
    """Structural term sum_i rho_ki Y_i of the fluctuation-size predictor,
    with the stationary (infinite-horizon) susceptibility: ``(I - A)^{-1} Y``
    by one solve against one vector.

    The proportionality constant (the common noise amplitude) is fitted
    downstream as the regression slope against observed time-averaged output
    changes.
    """
    return _leontief(table.coefficients, table.output)


@dataclass(frozen=True)
class FluctuationRegression:
    """Panel regression of observed average output changes on the predictor."""

    countries: tuple[str, ...]
    base_year: int
    predictor: np.ndarray       # flattened over (country, sector)
    observed: np.ndarray
    output_size: np.ndarray     # Y_k(t0), the trivial-size control
    eta: float                  # through-origin slope observed ~ predictor
    r: float
    r_size_only: float
    r_with_size_control: float
    size_control_coefficient: float


def fluctuation_panel_regression(panel: Panel) -> FluctuationRegression:
    """Evaluate the fluctuation predictor against a whole panel.

    For every country the observed statistic is the time-averaged annual
    output change ``mean_t (Y(t+1) - Y(t))`` with the 1/(n_years - 2)
    prefactor used in the yearly-average definition; the predictor is
    ``rho(t0) Y(t0)`` from the base year, the panel's first.  Returns pooled
    Pearson correlations and the control regression that adds the base-year
    output as an extra regressor.  The slope ``eta = x.y / x.x`` of the
    observed ``y`` on the predicted ``x`` is formed from both scaled by powers
    of two, so it does not depend on the panel's scale;
    :class:`NumericalError` when it overflows float64.
    """
    countries = panel.countries()
    years = panel.years()
    base_year = years[0]
    missing = [
        (c, y) for c in countries for y in years if (c, y) not in panel
    ]
    if missing:
        raise MissingPanelCell(missing)
    if len(years) < 3:
        raise ValueError("panel needs at least 3 years")

    preds = []
    obs = []
    sizes = []
    for c in countries:
        base = panel.get(c, base_year)
        preds.append(fluctuation_prediction(base))
        sizes.append(base.output)
        diffs = [
            panel.get(c, years[k + 1]).output - panel.get(c, years[k]).output
            for k in range(len(years) - 1)
        ]
        obs.append(np.sum(diffs, axis=0) / (len(years) - 2))
    x = np.concatenate(preds)
    y = np.concatenate(obs)
    size = np.concatenate(sizes)

    # x and y scaled by powers of two, so neither dot product overflows
    (xs, ex), (ys, ey) = _pow2_scaled(x), _pow2_scaled(y)
    try:
        eta = math.ldexp(float(xs @ ys / (xs @ xs)), ey - ex)
    except OverflowError:
        raise NumericalError("the fluctuation slope eta overflows float64") from None
    r = pearson_r(x, y)
    r_size = pearson_r(size, y)
    design = np.column_stack([np.ones_like(x), x, size])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    r_multi = pearson_r(fitted, y)
    return FluctuationRegression(
        countries=tuple(countries),
        base_year=base_year,
        predictor=x,
        observed=y,
        output_size=size,
        eta=eta,
        r=r,
        r_size_only=r_size,
        r_with_size_control=r_multi,
        size_control_coefficient=float(coef[2]),
    )


# ---------------------------------------------------------------------------
# panel benchmark pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkResult:
    evaluation: ForecastEvaluation
    baseline: str
    observed: Mapping[tuple[str, int], np.ndarray]
    anchor: Mapping[tuple[str, int], np.ndarray]
    lrt_predictions: Mapping[tuple[str, int], np.ndarray]
    baseline_predictions: Mapping[tuple[str, int], np.ndarray]


def benchmark_lrt_vs_baseline(
    panel: Panel,
    baseline: str = "arima",
    orders: tuple[int, int, int] = (1, 1, 1),
    calibration: str = "expanding",
    target: str = "changes",
    var_samples: int = 10_000,
    var_calibration_year: int | None = None,
    noise: NoiseSpec = DEFAULT_NOISE,
    seed: int = 0,
) -> BenchmarkResult:
    """Two-year-ahead forecast comparison over a complete panel.

    For every country and shock year t with data at t, t+1, and t+2, the
    susceptibility model predicts the level at t+2 by :func:`lrt_forecast`;
    the baseline predicts the same level from its own information set
    (ARIMA: series up to t+1, one step ahead; VAR: the fitted yearly map
    applied twice from Y(t); perturbed-io: the perturbed equilibrium
    ``Y(t) + (I - A)^{-1} X`` under the step shock X with ``rho(1) X = dY``,
    computed as ``Y(t) + (I - P)^{-1} dY`` with the forecast's ``P``).  A
    cell forms one exponential and extracts no implied shock, so no
    condition cap applies.  Cells where the baseline cannot be fitted yet
    (short ARIMA history) are skipped.  Cells run one after another in
    sorted order; ``noise`` drives the simulated economy the VAR baseline is
    calibrated on.

    ARIMA ``calibration`` is ``"expanding"`` (each cell fits the history up
    to t+1) or ``"full"`` (one model per sector from the whole series).  An
    unknown ``baseline``, ``calibration`` or ``target`` raises ValueError
    before any work.
    """
    if baseline not in ("arima", "var", "perturbed_io"):
        raise ValueError(f"unknown baseline {baseline!r}")
    if calibration not in ("expanding", "full"):
        raise ValueError(f"unknown calibration {calibration!r}")
    if target not in ("changes", "levels"):
        raise ValueError(f"unknown target {target!r}")
    countries = panel.countries()
    years = panel.years()

    var_models: dict[str, VarModel] = {}
    if baseline == "var":
        calib_year = var_calibration_year if var_calibration_year is not None else years[0]
        for c in countries:
            table = panel.get(c, calib_year)
            nu = noise_covariance(noise, table)
            var_models[c] = fit_var1(table, nu, samples=var_samples, seed=seed)

    p, d, q = orders
    min_obs = p + d + q + 3

    observed = {}
    anchor = {}
    lrt_pred = {}
    base_pred = {}
    for c in countries:
        c_years = panel.years(c)
        series = np.stack([panel.get(c, y).output for y in c_years])
        full_models = None  # fitted at the country's first scored cell
        for t in c_years:
            if t + 1 not in c_years or t + 2 not in c_years:
                continue
            if baseline == "arima" and c_years.index(t + 1) + 1 < min_obs:
                continue
            table = panel.get(c, t)
            y_t = table.output
            y_t1 = panel.get(c, t + 1).output
            if baseline == "arima":
                history = series[: c_years.index(t + 1) + 1]
                if calibration == "full" and full_models is None:
                    full_models = [fit_arima(s, p, d, q) for s in series.T]
                models = full_models or [fit_arima(s, p, d, q) for s in history.T]
                pred_base = np.array([arima_forecast(m, s, 1)[0]
                                      for m, s in zip(models, history.T)])
            elif baseline == "var":
                # t+1 and t+2 levels come from iterating the fitted yearly map
                pred_base = var_forecast(var_models[c], y_t, steps=2)
            else:
                # (I - A)^{-1} X = (I - P)^{-1} dY, as (I - A)^{-1} commutes with P
                pred_base = y_t + guarded_solve(
                    np.eye(len(y_t)) - _yearly_map(table), y_t1 - y_t, "I - exp(A - I)"
                )
            observed[(c, t)] = panel.get(c, t + 2).output
            anchor[(c, t)] = y_t1
            lrt_pred[(c, t)] = lrt_forecast(table, y_t, y_t1)
            base_pred[(c, t)] = pred_base

    evaluation = evaluate_forecasts(observed, anchor, lrt_pred, base_pred, target=target)
    return BenchmarkResult(
        evaluation=evaluation,
        baseline=baseline,
        observed=observed,
        anchor=anchor,
        lrt_predictions=lrt_pred,
        baseline_predictions=base_pred,
    )


def write_curve(curve: ResponseCurve, sectors: Sequence[str], stream: TextIO) -> None:
    """Curve export: t_prime,sector,value."""
    write_table(stream, "t_prime,sector,value", (
        np.repeat(curve.grid, len(sectors)), list(sectors) * len(curve.grid), curve.values,
    ))
