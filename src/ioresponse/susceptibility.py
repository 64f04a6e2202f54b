"""Economic susceptibility matrices and their aggregates.

The susceptibility matrix ``rho`` maps a unit step demand shock in sector i
to the stationary output change of sector k.  Two routes are provided:

* ``susceptibility_analytic`` evaluates the closed form
  ``rho(T) = (I - A)^{-1} (I - exp((A - I) T))`` (the Leontief inverse at
  T = inf).  The closed form follows from integrating the centered
  equilibrium correlation functions, whose propagator is
  ``C(tau) sigma^{-1} = exp((A - I) tau)``; the noise covariance cancels, so
  the analytic matrix is independent of the noise specification.

* ``susceptibility_monte_carlo`` estimates the same integral from simulated
  unshocked trajectories: lagged covariances of centered states are
  accumulated on the dt lag grid, integrated by the trapezoid rule up to the
  horizon T, and multiplied by the inverse sample covariance.  Replicas give
  standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .dynamics import (
    DEFAULT_BURN_IN,
    DEFAULT_DT,
    ShockProfile,
    drift_matrix,
    simulate_batch,
    step_count,
)
from .errors import InsufficientSamples, MissingPanelCell
from .iodata import IOTable, leontief_solve, write_table

#: Normal critical value for the 95% confidence intervals of the
#: output-weighted sector scores.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimulationBudget:
    """Monte Carlo budget: step size, per-replica length (years), replicas.

    The default (8 replicas of 2000 years at dt = 0.01) puts the relative
    Frobenius error of the Green-Kubo ``rho(1)`` at 4.8% for a 56-sector
    economy under the default noise.
    """

    dt: float = DEFAULT_DT
    length: float = 2000.0
    replicas: int = 8
    burn_in: float = DEFAULT_BURN_IN
    seed: int = 0


@dataclass(frozen=True)
class SusceptibilityMatrix:
    """N x N susceptibility with provenance.

    ``values[k, i]`` is the stationary output change of sector k per unit
    step demand shock in sector i, integrated up to the horizon (years;
    ``math.inf`` for the stationary limit).
    """

    values: np.ndarray
    sectors: tuple[str, ...]
    country: str
    year: int
    horizon: float
    method: str  # "analytic" | "monte_carlo"
    budget: SimulationBudget | None = None
    standard_errors: np.ndarray | None = None

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)


#: Largest 1-norm at which the degree-18 Taylor polynomial of exp has a
#: relative backward error under the unit roundoff 2^-53 (Bader, Blanes &
#: Casas, Mathematics 7:1174, 2019).
_THETA_18 = 1.090863719290036

#: 1/k! for k = 0..18, row j holding the factors of B^(4j) .. B^(4j+3): the
#: Paterson-Stockmeyer blocks of the Taylor polynomial in powers of B^4.
_TAYLOR_BLOCKS = np.array(
    [[1.0 / math.factorial(k) if k <= 18 else 0.0 for k in range(j, j + 4)]
     for j in range(0, 20, 4)]
)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor polynomial.

    ``exp(M) = exp(mu) exp(B)^(2^s)`` with ``mu`` the mean of the diagonal,
    ``B = (M - mu I) / 2^s`` and ``s`` the fewest halvings that bring
    ``||B||_1`` under ``_THETA_18``; ``exp(B)`` is its degree-18 Taylor
    polynomial, evaluated by Paterson-Stockmeyer in seven matrix products
    and no solve (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005).  On
    drift matrices it agrees with ``scipy.linalg.expm`` within 5e-14 of the
    largest entry up to ``t = 80``.  ``mu`` is taken from the diagonal's
    minimum, so a constant diagonal gives ``B = 0`` and ``exp(c I)`` is
    exactly ``exp(c) I``.  ``exp(mu / 2^s)`` scales the polynomial before
    the squarings, so a long horizon neither overflows nor underflows early.

    Every propagator, and so every response curve and forecast, goes through
    this one module attribute, and it needs numpy only.
    """
    b = np.array(m, dtype=float, order="C")
    n = b.shape[0]
    diagonal = b.diagonal()
    low = diagonal.min()
    mu = low + (diagonal - low).mean()
    b.reshape(-1)[:: n + 1] -= mu
    _, s = math.frexp(np.abs(b).sum(axis=0).max() / _THETA_18)
    s = max(s, 0)
    b *= 0.5**s
    powers = np.zeros((4, n, n))
    powers[0].reshape(-1)[:: n + 1] = 1.0
    powers[1] = b
    np.matmul(b, b, out=powers[2])
    np.matmul(powers[2], b, out=powers[3])
    b4 = powers[2] @ powers[2]
    blocks = (_TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape(-1, n, n)
    e = blocks[-1]
    for block in blocks[-2::-1]:
        e = b4 @ e
        e += block
    e *= np.exp(mu * 0.5**s)
    for _ in range(s):
        e = e @ e
    return e


def propagator(coefficients: np.ndarray, t: float) -> np.ndarray:
    """exp((A - I) t): carries a deviation from equilibrium t years ahead.

    At ``t = 1`` it is the yearly map ``P`` that the forecaster applies to
    the last observed change and the VAR baseline's population AR matrix.
    """
    return expm(drift_matrix(coefficients) * t)


def truncated_susceptibility(coefficients: np.ndarray, horizon: float) -> np.ndarray:
    """Closed-form rho(T) = (I - A)^{-1} (I - exp((A - I) T)); inf allowed."""
    a = np.asarray(coefficients, dtype=float)
    eye = np.eye(a.shape[0])
    if horizon == math.inf:
        rhs = eye
    elif horizon > 0.0:
        rhs = eye - propagator(a, horizon)
    else:
        raise ValueError("horizon must be > 0 (or inf)")
    return leontief_solve(a, rhs)


def susceptibility_analytic(table: IOTable, horizon: float = math.inf) -> SusceptibilityMatrix:
    """Analytic susceptibility matrix of one country-year economy."""
    values = truncated_susceptibility(table.coefficients, horizon)
    return SusceptibilityMatrix(
        values=values,
        sectors=table.codes,
        country=table.country,
        year=table.year,
        horizon=float(horizon),
        method="analytic",
    )


def lag_count(horizon: float, budget: SimulationBudget) -> int:
    """Number of dt lag steps up to the horizon; each lag needs a sample pair.

    :class:`ValueError` when the horizon is under one step or a step count
    cannot be formed, :class:`InsufficientSamples` when the lags outrun the
    recorded states.
    """
    n_lags = step_count(horizon, budget.dt)
    if n_lags < 1:
        raise ValueError(f"horizon {horizon!r} must cover at least one lag step of {budget.dt!r}")
    n_records = step_count(budget.length, budget.dt) + 1
    if n_lags >= n_records:
        raise InsufficientSamples(
            f"horizon of {n_lags} lag steps needs more than the "
            f"{n_records} recorded states of each replica; raise the length"
        )
    return n_lags


def _centered_replicas(
    table: IOTable, nu: np.ndarray, budget: SimulationBudget
) -> Iterator[np.ndarray]:
    """Unshocked replica paths, each centered on its own time mean."""
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
    for path in states:
        yield path - path.mean(axis=0, keepdims=True)


def _lag_covariances(y: np.ndarray, n_lags: int) -> list[np.ndarray]:
    """C_hat(k dt)[a, b] = mean_t y[t + k, a] y[t, b] for k = 0..n_lags."""
    n = y.shape[0]
    out = []
    for k in range(n_lags + 1):
        out.append(y[k:].T @ y[: n - k] / (n - k))
    return out


def _green_kubo_integral(y: np.ndarray, n_lags: int, dt: float) -> np.ndarray:
    """Trapezoid integral of C_hat(k dt) sigma_hat^{-1} over k = 0..n_lags.

    The lag sum ``sum_k w_k C_hat(k dt)`` (trapezoid weight times dt) equals
    ``z.T @ y`` for the filtered path ``z[t] = sum_k w_k y[t + k] / (n - k)``,
    which one zero-padded FFT correlation computes for all lags at once.
    """
    from scipy.fft import irfft, next_fast_len, rfft

    n = y.shape[0]
    weights = np.full(n_lags + 1, dt)
    weights[[0, -1]] = 0.5 * dt
    taps = weights / (n - np.arange(n_lags + 1))
    size = next_fast_len(n + n_lags, real=True)
    spectrum = rfft(y, size, axis=0) * np.conj(rfft(taps, size))[:, None]
    z = irfft(spectrum, size, axis=0)[:n]
    sigma_hat = y.T @ y / n
    # (sum_k w_k C_k) sigma^{-1}; sigma_hat is symmetric
    return np.linalg.solve(sigma_hat, (z.T @ y).T).T


def monte_carlo_propagator(
    table: IOTable,
    nu: np.ndarray,
    horizon: float,
    budget: SimulationBudget = SimulationBudget(),
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Per-replica response-propagator estimates on the dt lag grid.

    Returns ``(lags, propagators, integrals)`` where ``propagators[r][k]`` is
    the replica-r estimate of ``C(k dt) sigma^{-1}`` (a (n_lags+1, N, N)
    array) and ``integrals[r]`` its trapezoid integral up to the horizon.
    """
    n_lags = lag_count(horizon, budget)
    lags = budget.dt * np.arange(n_lags + 1)
    propagators = []
    integrals = []
    for y in _centered_replicas(table, nu, budget):
        cov = _lag_covariances(y, n_lags)
        sigma_hat = cov[0]
        # C(k dt) sigma^{-1}; sigma_hat is symmetric
        prop = np.stack([np.linalg.solve(sigma_hat, c.T).T for c in cov])
        propagators.append(prop)
        integrals.append(_green_kubo_integral(y, n_lags, budget.dt))
    return lags, propagators, integrals


def susceptibility_monte_carlo(
    table: IOTable,
    nu: np.ndarray,
    horizon: float,
    budget: SimulationBudget = SimulationBudget(),
) -> SusceptibilityMatrix:
    """Green-Kubo estimate of rho(T) from unshocked trajectories, with
    standard errors from the replica spread (at least 2 replicas)."""
    if not math.isfinite(horizon):
        raise ValueError("Monte Carlo susceptibility needs a finite horizon")
    if budget.replicas < 2:
        raise InsufficientSamples(
            "standard errors need at least 2 replicas"
        )
    n_lags = lag_count(horizon, budget)
    stack = np.stack([
        _green_kubo_integral(y, n_lags, budget.dt)
        for y in _centered_replicas(table, nu, budget)
    ])
    return SusceptibilityMatrix(
        values=stack.mean(axis=0),
        sectors=table.codes,
        country=table.country,
        year=table.year,
        horizon=float(horizon),
        method="monte_carlo",
        budget=budget,
        standard_errors=stack.std(axis=0, ddof=1) / math.sqrt(budget.replicas),
    )


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

def sector_susceptibility(
    rho: SusceptibilityMatrix | np.ndarray,
    convention: str = "response",
) -> np.ndarray:
    """Per-sector susceptibility, s_i = sum_j rho_ij.

    The default ``"response"`` convention sums over the second (shocked)
    index: s_i is the total response of sector i to unit shocks everywhere.
    ``"source"`` sums over the first index instead (total response induced
    by a shock in i), for sensitivity analysis.
    """
    values = rho.values if isinstance(rho, SusceptibilityMatrix) else np.asarray(rho)
    if convention == "response":
        return values.sum(axis=1)
    if convention == "source":
        return values.sum(axis=0)
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class SusceptibilityAggregates:
    """Country averages and output-weighted per-sector scores with 95% CIs."""

    sectors: tuple[str, ...]
    countries: tuple[str, ...]
    years: tuple[int, ...]
    country_average: Mapping[str, float]
    weighted_sector: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


def aggregate_susceptibilities(
    sector_values: Mapping[tuple[str, int], np.ndarray],
    outputs: Mapping[tuple[str, int], np.ndarray],
    sectors: Sequence[str],
) -> SusceptibilityAggregates:
    """Aggregate per-cell sector susceptibilities over a complete panel.

    The panel is every country and year that ``sector_values`` names; a
    pair of them missing from either mapping raises :class:`MissingPanelCell`.
    ``country_average[c]`` is the plain mean of the sector values over all
    sectors and years of country c.  The weighted per-sector score is the
    output-weighted mean over all (country, year) cells, with a normal 95%
    confidence interval built from the weighted standard deviation and the
    Kish effective sample size.
    """
    countries = tuple(sorted({c for c, _ in sector_values}))
    years = tuple(sorted({int(y) for _, y in sector_values}))
    missing = [
        (c, y)
        for c in countries
        for y in years
        if (c, y) not in sector_values or (c, y) not in outputs
    ]
    if missing:
        raise MissingPanelCell(missing)

    n = len(sectors)
    country_average = {}
    for c in countries:
        vals = np.stack([np.asarray(sector_values[(c, y)]) for y in years])
        country_average[c] = float(vals.mean())

    weighted = np.empty(n)
    ci_low = np.empty(n)
    ci_high = np.empty(n)
    cells = [(c, y) for c in countries for y in years]
    v = np.stack([np.asarray(sector_values[key], dtype=float) for key in cells])
    w = np.stack([np.asarray(outputs[key], dtype=float) for key in cells])
    for i in range(n):
        wi, vi = w[:, i], v[:, i]
        wsum = wi.sum()
        if wsum <= 0.0:
            weighted[i] = math.nan
            ci_low[i] = math.nan
            ci_high[i] = math.nan
            continue
        mean = float((wi * vi).sum() / wsum)
        var = float((wi * (vi - mean) ** 2).sum() / wsum)
        n_eff = float(wsum**2 / (wi**2).sum())
        half = _Z95 * math.sqrt(var / n_eff)
        weighted[i] = mean
        ci_low[i] = mean - half
        ci_high[i] = mean + half
    return SusceptibilityAggregates(
        sectors=tuple(sectors),
        countries=countries,
        years=years,
        country_average=country_average,
        weighted_sector=weighted,
        ci_low=ci_low,
        ci_high=ci_high,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_matrix(rho: SusceptibilityMatrix, stream: TextIO) -> None:
    """Tabular export: row_sector,col_sector,value[,stderr], row-major."""
    codes = rho.sectors
    write_table(stream, "row_sector,col_sector,value,stderr", (
        [c for c in codes for _ in codes], list(codes) * len(codes),
        rho.values, rho.standard_errors,
    ))


def write_aggregates(agg: SusceptibilityAggregates, stream: TextIO) -> None:
    """Per-sector scores: sector,rho,ci_low,ci_high."""
    write_table(stream, "sector,rho,ci_low,ci_high",
                (agg.sectors, agg.weighted_sector, agg.ci_low, agg.ci_high))
