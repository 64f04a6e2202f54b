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
  standard errors.  The integral is accumulated block by block while the
  replicas are simulated (``_GreenKuboSums``), so no path is stored and the
  working memory does not grow with the simulated length.

The Monte Carlo impulse response
(:func:`ioresponse.response.impulse_response_monte_carlo`) applies the
per-lag estimates ``C_hat(k dt) sigma_hat^{-1}`` to one shock vector instead
of integrating them; it stores the simulated states.
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
    _euler_blocks,
    drift_matrix,
    step_count,
)
from .errors import InsufficientSamples, MissingPanelCell
from .iodata import IOTable, guarded_solve, leontief_solve, write_table

#: Normal critical value for the 95% confidence intervals of the
#: output-weighted sector scores.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimulationBudget:
    """Monte Carlo budget: step size, per-replica length (years), replicas.

    The default (8 replicas of 2000 years at dt = 0.01) puts the relative
    Frobenius error of the Green-Kubo ``rho(1)`` at 4.8% for a 56-sector
    economy under the default noise.

    Memory: ``susceptibility_monte_carlo`` stores no states.  It holds the
    replicas' current states, the noise and the recorded states of one
    block of 1,024 Euler steps, and the Green-Kubo filter's FFT buffers,
    whatever the length: a traced peak of 10 MB at N = 28 and 20 MB at
    N = 56 for 8 replicas.  A process running it peaked at 75 MB at N = 28
    and 87 MB at N = 56, for the default as for the command line's 8
    replicas of 400 years (when the states were stored: 475 and 146 MB at
    N = 28, 878 and 227 MB at N = 56).  The impulse-curve route,
    :func:`ioresponse.response.impulse_response_monte_carlo`, stores
    ``replicas * (length / dt + 1) * N * 8`` bytes of states.
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
    """Check a Monte Carlo estimate's horizon and budget, and return the
    number of dt lag steps up to the horizon; each lag needs a sample pair.

    :class:`ValueError` when the horizon is not finite, is under one step or
    a step count cannot be formed; :class:`InsufficientSamples` when the
    budget has fewer than 2 replicas (the standard errors need a spread) or
    the lags outrun the recorded states.
    """
    if not math.isfinite(horizon):
        raise ValueError("Monte Carlo estimates need a finite horizon")
    if budget.replicas < 2:
        raise InsufficientSamples("standard errors need at least 2 replicas")
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


#: States per FFT segment of the Green-Kubo filter.  A segment is never
#: shorter than the lag count, so no FFT spans more than twice the states it
#: filters.
_SEGMENT = 1024


class _GreenKuboSums:
    """Green-Kubo integrals of replica paths fed in blocks of states.

    Per replica the result is ``sum_k w_k C_hat(k dt) sigma_hat^{-1}``, with
    ``w_k`` the trapezoid weights times dt, over the lags k = 0..n_lags of
    the path centered on its own mean.  No path is stored:

    * Each state enters as its deviation ``x = y - Y0`` from the known fixed
      point, so the sums below do not cancel.
    * With the taps ``h_k = w_k / (n - k)``, the uncentered lag sum
      ``sum_k h_k sum_t x[t + k] x[t]^T`` is ``sum_s x[s] u[s]^T`` for the
      causal filter ``u[s] = sum_k h_k x[s - k]``.  An overlap-save FFT
      computes ``u`` over segments of ``_SEGMENT`` states (``n_lags`` if
      more), carrying the last ``n_lags`` states from one to the next.
    * Running sums of ``x`` and ``x x^T`` and the filter's end terms (the
      first ``n_lags`` states, weighted as they are fed, and the last
      ``n_lags``, which are the final carry) make centering on the sample
      mean an exact correction at the end.

    The segments do not depend on how the states are split into blocks, so
    equal states give equal bits however they are fed.
    """

    def __init__(self, origin: np.ndarray, records: int, n_lags: int, dt: float, replicas: int):
        from scipy.fft import next_fast_len, rfft

        weights = np.full(n_lags + 1, dt)
        weights[[0, -1]] = 0.5 * dt
        taps = weights / (records - np.arange(n_lags + 1))
        # from_lag[j] = sum_{k >= j} h_k: the weight of a state j steps from
        # either end of the path in the terms the mean correction needs
        from_lag = np.cumsum(taps[::-1])[::-1]
        self._head_weights = from_lag[1:]  # first states, in time order
        self._tail_weights = from_lag[:0:-1]  # last states, in time order
        self._tap_sum = from_lag[0]
        self._weight_sum = weights.sum()  # sum_k h_k (n - k)
        self._origin = origin
        self._records = records
        self._lags = n_lags
        self._segment = max(_SEGMENT, n_lags)
        self._size = next_fast_len(n_lags + self._segment, real=True)
        self._taps_spectrum = rfft(taps, self._size)[:, None]
        n = origin.shape[0]
        _check_size(replicas * (n_lags + self._segment) * n, "Green-Kubo buffer")
        # the carried n_lags states, then the segment being filled
        self._buffer = np.zeros((replicas, n_lags + self._segment, n))
        self._fill = 0
        self._seen = 0
        self._cross = np.zeros((replicas, n, n))  # sum_s x[s] u[s]^T
        self._gram = np.zeros((replicas, n, n))  # sum_s x[s] x[s]^T
        self._total = np.zeros((replicas, n))  # sum_s x[s]
        self._head = np.zeros((replicas, n))  # sum_{k, s < k} h_k x[s]

    def add(self, block: np.ndarray) -> None:
        """Feed the next (replicas, b, N) states of every path."""
        done = 0
        while done < block.shape[1]:
            take = min(block.shape[1] - done, self._segment - self._fill)
            start = self._lags + self._fill
            np.subtract(block[:, done:done + take], self._origin,
                        out=self._buffer[:, start:start + take])
            self._fill += take
            done += take
            if self._fill == self._segment:
                self._flush()

    def _flush(self) -> None:
        from scipy.fft import irfft, rfft

        lags, fill = self._lags, self._fill
        x = self._buffer[:, lags:lags + fill]
        spectrum = rfft(self._buffer, self._size, axis=1)
        spectrum *= self._taps_spectrum
        # outputs at the carry's positions would need older states
        u = irfft(spectrum, self._size, axis=1)[:, lags:lags + fill]
        xt = x.transpose(0, 2, 1)
        self._cross += xt @ u
        self._gram += xt @ x
        self._total += x.sum(axis=1)
        if self._seen < lags:
            head = min(lags - self._seen, fill)
            self._head += self._head_weights[self._seen:self._seen + head] @ x[:, :head]
        self._seen += fill
        self._buffer[:, :lags] = self._buffer[:, fill:fill + lags]
        self._fill = 0

    def integrals(self) -> np.ndarray:
        """(replicas, N, N) integrals once all ``records`` states are fed."""
        if self._fill:
            self._flush()
        mean = self._total / self._records
        tail = self._tail_weights @ self._buffer[:, :self._lags]
        # sum_k h_k sum_t x[t + k] and sum_k h_k sum_t x[t], t < n - k
        later = self._tap_sum * self._total - self._head
        earlier = self._tap_sum * self._total - tail
        lagged = (
            self._cross
            - mean[:, :, None] * earlier[:, None, :]
            - later[:, :, None] * mean[:, None, :]
            + self._weight_sum * mean[:, :, None] * mean[:, None, :]
        )
        sigma = (self._gram - self._total[:, :, None] * mean[:, None, :]) / self._records
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
    origin, records, blocks = _euler_blocks(
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
    sums = _GreenKuboSums(origin, records, n_lags, budget.dt, budget.replicas)
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
