"""Response curves, implied shocks, and the susceptibility-based forecaster.

Analytic curves on a uniform grid ``t_k = k h`` (what :func:`response_grid`
returns) form ``P = exp((A - I) h)`` once and propagate by the semigroup
property: one ``expm`` per curve, then one matrix-vector product per grid
point.  The point at ``h`` is computed as the direct route computes it, so
there a step response coincides bit-for-bit with
``truncated_susceptibility(A, h) @ X``.  Any other grid evaluates the
propagator ``exp((A - I) t')`` directly per grid point, and a step response
at each grid time T coincides bit-for-bit with
``truncated_susceptibility(A, T) @ X``.  A Monte Carlo route estimates the
same propagator from equilibrium correlations of simulated trajectories and
carries standard errors; the two must agree within the Monte Carlo error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .baselines import pearson_r
from .dynamics import ShockProfile, simulate_batch, step_count
from .errors import IllConditioned, MissingPanelCell, NumericalError
from .iodata import IOTable, Panel, leontief_solve, write_table
from .susceptibility import (
    SimulationBudget,
    lag_count,
    propagator,
    truncated_susceptibility,
)

#: Default relative threshold below which a sector counts as recovered.
RECOVERY_EPS = 0.05
#: Condition-estimate cap for the implied-shock solve.
CONDITION_CAP = 1e12
#: Relative tolerance of the implied-shock round trip rho(1) X = dY.
ROUND_TRIP_RTOL = 1e-8


@dataclass(frozen=True)
class ResponseCurve:
    """Expected output change per sector on a time grid after a shock."""

    grid: np.ndarray           # t' (years since the shock), increasing
    values: np.ndarray         # (len(grid), N)
    shock: ShockProfile
    provenance: str            # "analytic" | "monte_carlo"
    standard_errors: np.ndarray | None = None


@dataclass(frozen=True)
class ImpliedShock:
    """Step demand shock that reproduces an observed one-year output change."""

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
    x = np.asarray(shock_vector, dtype=float)
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
    return ResponseCurve(
        grid=grid,
        values=values,
        shock=ShockProfile.impulse(x),
        provenance="analytic",
    )


def step_response(table: IOTable, shock_vector, grid) -> ResponseCurve:
    """<dY(t')> = rho(t') X for a step shock switched on at t' = 0."""
    grid = _check_grid(grid)
    x = np.asarray(shock_vector, dtype=float)
    values = np.empty((len(grid), len(x)))
    values[0] = 0.0
    a = table.coefficients
    h = _uniform_spacing(grid)
    if h is None:
        for k, t in enumerate(grid[1:], start=1):
            values[k] = truncated_susceptibility(a, t) @ x
    else:
        # rho(t + h) = rho(h) + exp((A - I) h) rho(t), because (I - A)^{-1}
        # commutes with exp((A - I) h); rho(h) is truncated_susceptibility's
        # own formula, so the first point keeps its bits
        p = propagator(a, h)
        values[1] = leontief_solve(a, np.eye(len(a)) - p) @ x
        for k in range(2, len(grid)):
            values[k] = values[1] + p @ values[k - 1]
    return ResponseCurve(
        grid=grid,
        values=values,
        shock=ShockProfile.step(x),
        provenance="analytic",
    )


def impulse_response_monte_carlo(
    table: IOTable,
    shock_vector,
    nu: np.ndarray,
    horizon: float,
    budget: SimulationBudget = SimulationBudget(),
) -> ResponseCurve:
    """Impulse response estimated from equilibrium correlations.

    Per replica of n unshocked states ``y``, centered on their mean, the
    curve at lag k is ``C_hat(k dt) sigma_hat^{-1} x`` with
    ``C_hat(k dt) = y[k:]^T y[:n-k] / (n - k)``.  One solve
    ``v = sigma_hat^{-1} x`` per replica projects the states to ``s = y v``,
    so a lag costs one product ``y[k:]^T s[:n-k]`` and no N x N matrix.
    The curve lives on the simulation lag grid (spacing ``budget.dt``);
    standard errors come from the replica spread.  The states are stored
    (see :class:`SimulationBudget`).
    """
    x = np.asarray(shock_vector, dtype=float)
    n_lags = lag_count(horizon, budget)
    lags = budget.dt * np.arange(n_lags + 1)
    states = simulate_batch(
        table.coefficients,
        table.demand,
        nu,
        ShockProfile.none(),
        dt=budget.dt,
        horizon=budget.length,
        burn_in=budget.burn_in,
        seed=budget.seed,
        replicas=budget.replicas,
    )
    n = states.shape[1]
    curves = np.empty((budget.replicas, n_lags + 1, len(x)))  # (R, K+1, N)
    for curve, y in zip(curves, states):
        y -= y.mean(axis=0)
        # sigma_hat is C_hat(0)
        s = y @ np.linalg.solve(y.T @ y / n, x)
        for k in range(n_lags + 1):
            curve[k] = y[k:].T @ s[:n - k] / (n - k)
    values = curves.mean(axis=0)
    stderr = curves.std(axis=0, ddof=1) / math.sqrt(len(curves))
    return ResponseCurve(
        grid=lags,
        values=values,
        shock=ShockProfile.impulse(x),
        provenance="monte_carlo",
        standard_errors=stderr,
    )


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

def implied_shock(table: IOTable, output_t, output_t1) -> ImpliedShock:
    """Solve rho(T=1) X = Y(t+1) - Y(t) for the step shock X implied by data.

    A direct LU solve is used; the 2-norm condition estimate of the truncated
    susceptibility must stay below :data:`CONDITION_CAP`
    (:class:`IllConditioned` otherwise).
    """
    y_t = np.asarray(output_t, dtype=float)
    y_t1 = np.asarray(output_t1, dtype=float)
    delta = y_t1 - y_t
    rho = truncated_susceptibility(table.coefficients, 1.0)
    condition = float(np.linalg.cond(rho))
    if condition > CONDITION_CAP:
        raise IllConditioned(condition, CONDITION_CAP)
    x = np.linalg.solve(rho, delta)
    scale = float(np.max(np.abs(delta)))
    if scale > 0.0:
        residual = float(np.max(np.abs(rho @ x - delta)))
        if residual > ROUND_TRIP_RTOL * scale:
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
    """
    y_t1 = np.asarray(output_t1, dtype=float)
    delta = y_t1 - np.asarray(output_t, dtype=float)
    return y_t1 + propagator(table.coefficients, 1.0) @ delta


def fluctuation_prediction(table: IOTable) -> np.ndarray:
    """Structural term sum_i rho_ki Y_i of the fluctuation-size predictor,
    with the stationary (infinite-horizon) susceptibility.

    The proportionality constant (the common noise amplitude) is fitted
    downstream as the regression slope against observed time-averaged output
    changes.
    """
    rho = truncated_susceptibility(table.coefficients, math.inf)
    return rho @ table.output


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
    output as an extra regressor.
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

    eta = float(x @ y / (x @ x))
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


def write_curve(curve: ResponseCurve, sectors: Sequence[str], stream: TextIO) -> None:
    """Curve export: t_prime,sector,value[,stderr]."""
    write_table(stream, "t_prime,sector,value,stderr", (
        np.repeat(curve.grid, len(sectors)), list(sectors) * len(curve.grid),
        curve.values, curve.standard_errors,
    ))
