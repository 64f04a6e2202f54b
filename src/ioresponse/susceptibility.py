"""Economic susceptibility matrices and their aggregates.

The susceptibility matrix ``rho`` maps a unit step demand shock in sector i
to the stationary output change of sector k.  Two routes are provided:

* ``susceptibility_analytic`` evaluates the closed form
  ``rho(T) = (I - A)^{-1} (I - exp((A - I) T))`` (the Leontief inverse at
  T = inf).  The closed form follows from integrating the centered
  equilibrium correlation functions, whose propagator is
  ``C(tau) sigma^{-1} = exp((A - I) tau)``; the noise covariance cancels, so
  the analytic matrix is independent of the noise specification.  It is
  ``applied_susceptibility`` at the identity, which applies ``rho(T)`` to a
  vector or matrix by one solve and so serves every step response and
  scenario impact too.

* ``susceptibility_monte_carlo`` estimates the same integral from simulated
  unshocked trajectories: lagged covariances of centered states are
  accumulated on the dt lag grid, integrated by the trapezoid rule up to the
  horizon T, and multiplied by the inverse sample covariance.  Replicas give
  standard errors.  The integral is accumulated block by block while the
  replicas are simulated (``_GreenKuboSums``), so no path is stored and the
  working memory does not grow with the simulated length.  A constant
  channel filtered with the states gives every sum that centering on the
  sample mean needs, so the centering is one projection at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

import numpy as np

from .dynamics import (
    DEFAULT_BURN_IN,
    DEFAULT_DT,
    ShockProfile,
    _check_size,
    _path_blocks,
    drift_matrix,
    expm,  # every propagator calls it as this module's attribute
    step_count,
)
from .errors import InsufficientSamples, MissingPanelCell, NumericalError
from .iodata import IOTable, _finite_vector, _leontief, _pow2_scaled, guarded_solve, write_table

#: Normal critical value for the 95% confidence intervals of the
#: output-weighted sector scores.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimulationBudget:
    """Monte Carlo budget: step size, per-replica length (years), replicas.

    Each path is sampled by the exact transition over ``dt``, so the step
    only sets the lag grid of the trapezoid rule.  The default (8 replicas
    of 2000 years at dt = 0.05) puts the relative Frobenius error of the
    Green-Kubo ``rho(1)`` at 4.6% for a 56-sector economy under the default
    noise.

    Memory: ``susceptibility_monte_carlo`` stores no states.  It holds the
    forcing and the deviations from ``Y0`` of one block of 256 steps, the
    Green-Kubo filter's buffer of N + 1 columns (the deviations and a
    constant) and one replica's FFT temporaries, whatever the length: a
    traced peak of 3.95 MB at N = 28 (dt = 0.01) and 7.8 MB at N = 56
    (dt = 0.05) for 8 replicas.  A process running it peaked at 61 MB at
    N = 28 and 66 MB at N = 56, for the default as for the command line's
    8 replicas of 400 years.
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


def propagator(coefficients: np.ndarray, t: float) -> np.ndarray:
    """exp((A - I) t): carries a deviation from equilibrium t years ahead.

    At ``t = 1`` it is the yearly map ``P`` that the forecaster applies to
    the last observed change and the VAR baseline's population AR matrix.
    """
    return expm(drift_matrix(coefficients) * t)


def applied_susceptibility(coefficients: np.ndarray, horizon: float, x: np.ndarray) -> np.ndarray:
    """rho(T) x = (I - A)^{-1} (x - exp((A - I) T) x) for a vector or matrix
    x, by one Leontief solve against x's shape; ``(I - A)^{-1} x`` at
    T = inf.  :class:`ValueError` unless T > 0 and x holds N finite values."""
    x = _finite_vector("x", x, len(coefficients), stack=True)
    if horizon == math.inf:
        rhs = x
    elif horizon > 0.0:
        rhs = x - propagator(coefficients, horizon) @ x
    else:
        raise ValueError("horizon must be > 0 (or inf)")
    return _leontief(coefficients, rhs)


def truncated_susceptibility(coefficients: np.ndarray, horizon: float) -> np.ndarray:
    """Closed-form rho(T) = (I - A)^{-1} (I - exp((A - I) T)); inf allowed."""
    return applied_susceptibility(coefficients, horizon, np.eye(len(coefficients)))


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
    """Check a Monte Carlo estimate's horizon and budget, and return the
    number of dt lag steps up to the horizon; each lag needs a sample pair.

    :class:`ValueError` when the horizon is not finite, is under one step,
    is not a whole number of steps (within 1e-9 relative: the integral would
    end at another horizon) or a step count cannot be formed;
    :class:`InsufficientSamples` when the budget has fewer than 2 replicas
    (the standard errors need a spread) or the lags outrun the recorded
    states.
    """
    if not math.isfinite(horizon):
        raise ValueError("Monte Carlo estimates need a finite horizon")
    if budget.replicas < 2:
        raise InsufficientSamples("standard errors need at least 2 replicas")
    n_lags = step_count(horizon, budget.dt)
    if n_lags < 1:
        raise ValueError(f"horizon {horizon!r} must cover at least one lag step of {budget.dt!r}")
    if abs(horizon / budget.dt - n_lags) > 1e-9 * n_lags:
        raise ValueError(f"horizon {horizon!r} is not a whole number of steps of {budget.dt!r}")
    n_records = step_count(budget.length, budget.dt) + 1
    if n_lags >= n_records:
        raise InsufficientSamples(
            f"horizon of {n_lags} lag steps needs more than the "
            f"{n_records} recorded states of each replica; raise the length"
        )
    return n_lags


#: States per FFT segment of the Green-Kubo filter.  A segment is never
#: shorter than the lag count, so no FFT spans more than twice the states it
#: filters.
_SEGMENT = 1024


def _fast_len(n: int) -> int:
    """Smallest ``2^a 3^b 5^c >= n``: the lengths numpy's FFT transforms
    fastest, as ``scipy.fft.next_fast_len(n, real=True)`` gives them."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power-of-two multiple of odd that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


class _GreenKuboSums:
    """Green-Kubo integrals of replica paths fed in blocks of states.

    Per replica the result is ``sum_k w_k C_hat(k dt) sigma_hat^{-1}``, with
    ``w_k`` the trapezoid weights times dt, over the lags k = 0..n_lags of
    the path centered on its own mean.  No path is stored:

    * Each state enters as its deviation ``x = y - Y0`` from the known fixed
      point, as the sampler makes it, so the sums below do not cancel,
      followed by a constant 1: ``z = [x, 1]``.
    * With the taps ``h_k = w_k / (n - k)``, the lag sum
      ``sum_k h_k sum_t z[t + k] z[t]^T`` is ``sum_s z[s] u[s]^T`` for the
      causal filter ``u[s] = sum_k h_k z[s - k]``.  An overlap-save FFT
      (numpy's ``rfft`` and ``irfft`` at a 5-smooth length, :func:`_fast_len`)
      computes ``u`` over segments of ``_SEGMENT`` states (``n_lags`` if
      more), carrying the last ``n_lags`` states from one to the next.
    * The constant channel carries every sum of ``x`` that centering needs:
      with the mean ``m`` (the Gram sum's last column over ``n``) and
      ``P = [I, -m]``, ``P z = x - m``, so the centered lag sum is
      ``P (sum_s z u^T) P^T`` and the sample covariance is
      ``P (sum_s z z^T) P^T / n``.

    The segments do not depend on how the states are split into blocks, so
    equal states give equal bits however they are fed.  Each replica is
    transformed on its own, so the FFT temporaries are one replica's.
    """

    def __init__(self, n_sectors: int, records: int, n_lags: int, dt: float, replicas: int):
        weights = np.full(n_lags + 1, dt)
        weights[[0, -1]] = 0.5 * dt
        taps = weights / (records - np.arange(n_lags + 1))
        self._records = records
        self._lags = n_lags
        self._segment = max(_SEGMENT, n_lags)
        self._size = _fast_len(n_lags + self._segment)
        self._taps_spectrum = np.fft.rfft(taps, self._size)[:, None]
        n = n_sectors + 1
        _check_size(replicas * self._size * n, "Green-Kubo buffer")
        # the carried n_lags states, the segment being filled, zeros up to
        # the FFT length; the constant channel starts at 0 in the carry, and
        # the carry shift moves its ones forward, so no block writes it
        self._buffer = np.zeros((replicas, self._size, n))
        self._buffer[:, n_lags:n_lags + self._segment, -1] = 1.0
        self._fill = 0
        self._cross = np.zeros((replicas, n, n))  # sum_s z[s] u[s]^T
        self._gram = np.zeros((replicas, n, n))  # sum_s z[s] z[s]^T

    def add(self, block: np.ndarray) -> None:
        """Feed the next (replicas, b, N) deviations of every path."""
        done = 0
        while done < block.shape[1]:
            take = min(block.shape[1] - done, self._segment - self._fill)
            start = self._lags + self._fill
            self._buffer[:, start:start + take, :-1] = block[:, done:done + take]
            self._fill += take
            done += take
            if self._fill == self._segment:
                self._flush()

    def _flush(self) -> None:
        lags, fill = self._lags, self._fill
        for buffer, cross, gram in zip(self._buffer, self._cross, self._gram):
            z = buffer[lags:lags + fill]
            spectrum = np.fft.rfft(buffer, axis=0)
            spectrum *= self._taps_spectrum
            # outputs at the carry's positions would need older states
            u = np.fft.irfft(spectrum, self._size, axis=0)[lags:lags + fill]
            cross += z.T @ u
            gram += z.T @ z
        self._buffer[:, :lags] = self._buffer[:, fill:fill + lags]
        self._fill = 0

    def integrals(self) -> np.ndarray:
        """(replicas, N, N) integrals once all ``records`` states are fed."""
        if self._fill:
            self._flush()
        n = self._gram.shape[1] - 1
        # P = [I, -m], with m the sample mean, maps each z = [x, 1] to x - m
        p = np.zeros((len(self._gram), n, n + 1))
        p[:, :, :n] = np.eye(n)
        p[:, :, n] = -self._gram[:, :n, n] / self._records
        pt = p.transpose(0, 2, 1)
        lagged = p @ self._cross @ pt
        sigma = p @ self._gram @ pt / self._records
        # (sum_k w_k C_k) sigma^{-1}; sigma is symmetric
        solved = guarded_solve(sigma, lagged.transpose(0, 2, 1), "sample covariance")
        return solved.transpose(0, 2, 1)


def susceptibility_monte_carlo(
    table: IOTable,
    nu: np.ndarray,
    horizon: float,
    budget: SimulationBudget = SimulationBudget(),
) -> SusceptibilityMatrix:
    """Green-Kubo estimate of rho(T) from unshocked trajectories, with
    standard errors from the replica spread (see :func:`lag_count`)."""
    n_lags = lag_count(horizon, budget)
    y0, records, blocks = _path_blocks(
        table.coefficients, table.demand, nu, ShockProfile.none(), dt=budget.dt,
        horizon=budget.length, burn_in=budget.burn_in, seed=budget.seed, replicas=budget.replicas,
    )
    # the deviations can carry noise that no output Y0 + x can hold: the
    # estimate would then describe outputs that never move
    if np.all(np.diag(nu) * budget.dt < np.spacing(y0) ** 2):
        raise NumericalError("the noise is below the float64 resolution of every output")
    sums = _GreenKuboSums(len(y0), records, n_lags, budget.dt, budget.replicas)
    for block in blocks:
        sums.add(block)
    stack = sums.integrals()
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
    Kish effective sample size.  Each sector's weights are scaled by a power
    of two first: outputs scaled by ``2**k`` give the same bits while they
    stay in float64's normal range.
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
        # weights scaled by a power of two, so wsum**2 neither overflows nor underflows
        wi, vi = _pow2_scaled(w[:, i])[0], v[:, i]
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
