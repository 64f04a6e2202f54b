"""Econometric baselines and the forecast evaluation harness.

ARIMA models are restricted to orders p, d, q in {0, 1} and estimated by
conditional sum of squares (CSS): the series is differenced d times and
innovations are computed recursively with zero pre-sample residuals.  The
fit is a variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10,
1973).  For a fixed MA coefficient theta the innovations are linear in the
constant and the AR coefficient phi, so those two come from an exact
least-squares solve, with phi boxed to +-0.99.  Without an MA term that one
solve is the fit; with one, the profile sum of squares is minimized over a
fixed grid of theta in [-0.99, 0.99] and then over zoomed grids around the
best point.  That box is the only bound: a fit whose optimum lies beyond it
returns the best model on it, with every coefficient solved for the bounded
ones, and is flagged ``clamped``.  Without AR or MA terms the same path
returns the zero model.  A constant is estimated except for differenced
pure-MA models: (0,1,0) and (0,1,1) are the level-tracking family, so the
random walk forecasts the last observation and exponential smoothing
flattens to the last level, while AR-containing differenced models keep a
drift term.  Everything is deterministic given the inputs.

The VAR(1) baseline is fitted by ordinary least squares to yearly states of
the unshocked economy, drawn from the exact yearly transition of that
Ornstein-Uhlenbeck process (Gillespie, Phys. Rev. E 54, 2084, 1996): the
transition the Monte Carlo route samples at its step, taken at one year.

``evaluate_forecasts`` scores aligned panels of predictions with per-cell
Pearson correlations, predictability gains, and one-sample two-sided t-tests
per year and pooled.  The panel benchmark that sets the susceptibility
forecaster against these baselines,
:func:`ioresponse.response.benchmark_lrt_vs_baseline`, lives beside that
forecaster, so each forecast cell and its yearly map are defined once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, TextIO

import numpy as np

from .dynamics import (
    _check_size,
    _noise_transform,
    _recur,
    _transition_moments,
    equilibrium_output,
)
from .errors import (
    DegenerateInput,
    InsufficientSamples,
    MisalignedPanel,
    NonConvergent,
    NumericalError,
    RankDeficientRegressors,
    TooShortSeries,
)
from .iodata import IOTable, _finite_vector, _pow2_scaled, write_table
from .rng import GaussianStream

#: AR/MA coefficients are searched inside this magnitude, short of the
#: stationarity/invertibility boundary; a fit that ends on it is ``clamped``.
_COEF_CLAMP = 0.99


def _by_magnitude(n: int) -> np.ndarray:
    """``k / n`` for |k| <= n, ordered by |k| with the negative one first."""
    return np.array(sorted(range(-n, n + 1), key=lambda k: (abs(k), k))) / n


#: First theta grid, k/100 clipped to the bound.  It holds the points 0 and
#: +-0.5, and its order by |theta| keeps theta = 0 when the profile is flat.
_THETA_GRID = np.clip(_by_magnitude(100), -_COEF_CLAMP, _COEF_CLAMP)
_THETA_SPACING = 0.01
#: Each zoom searches one spacing either side of the best point at a tenth
#: of the spacing, the best point first; seven zooms end at 1e-9.
_ZOOM = _by_magnitude(10)
_ZOOMS = 7
#: phi is set to 0 when the lagged column's part orthogonal to the constant
#: holds less than this share of its squared norm: it is not identified.
_COLLINEAR = 1e-24


@dataclass(frozen=True)
class ArimaModel:
    """Fitted ARIMA(p,d,q) with p, d, q in {0, 1}."""

    order: tuple[int, int, int]
    const: float
    phi: float
    theta: float
    objective: float
    clamped: bool


def _difference(series: np.ndarray, d: int) -> np.ndarray:
    return np.diff(series, d)


def _css_profile(w: np.ndarray, p: int, has_const: bool, thetas: np.ndarray):
    """CSS minimized over (const, phi) at each theta: ``(objective, const, phi)``.

    The innovations are ``F y - const F 1 - phi F x`` with ``y = w[p:]`` and
    ``x`` the lagged series, where ``F`` is the filter ``x_t <- x_t - theta
    x_{t-1}`` started from zero.  The constant is projected out first.  When
    phi lies outside the box it is clipped and the constant solved again,
    which is exact because the sum of squares is a convex quadratic; when
    the lagged column is collinear with the constant, phi is 0.
    """
    cols = [w[p:], np.ones(len(w) - p)] + ([w[:-1]] if p else [])
    f = np.stack(cols, axis=1)[:, None, :].repeat(len(thetas), axis=1)
    const = phi = np.zeros(len(thetas))
    # squares that overflow float64 leave a non-finite objective: reported, not warned about
    with np.errstate(all="ignore"):
        for t in range(1, len(f)):
            f[t] -= thetas[:, None] * f[t - 1]
        y, one = f[..., 0], f[..., 1]
        if has_const:
            n1 = (one * one).sum(0)
            if p:
                x = f[..., 2]
                rx = x - one * ((one * x).sum(0) / n1)
                ry = y - one * ((one * y).sum(0) / n1)
                xx = (rx * rx).sum(0)
                phi = np.where(xx > _COLLINEAR * (x * x).sum(0), (rx * ry).sum(0) / xx, 0.0)
                phi = np.clip(phi, -_COEF_CLAMP, _COEF_CLAMP)
                y = y - phi * x
            const = (one * y).sum(0) / n1
            y = y - const * one
        return (y * y).sum(0), const, phi


def fit_arima(series, p: int, d: int, q: int) -> ArimaModel:
    """Estimate an ARIMA(p,d,q) model by conditional sum of squares.

    (const, phi) is solved exactly for each theta; theta is the best point of
    a grid search (none without an MA term).  phi and theta are bounded to
    0.99 in magnitude inside the fit, so the constant always belongs to the
    returned coefficients; ``clamped`` flags a returned phi or theta on that
    bound.

    Raises :class:`TooShortSeries` when ``len(series) < p + d + q + 3`` and,
    for every order, :class:`NonConvergent` when no theta gives a finite sum
    of squares (as a series whose squares overflow float64 does).
    """
    if not all(v in (0, 1) for v in (p, d, q)):
        raise ValueError("orders p, d, q must each be 0 or 1")
    series = _finite_vector("series", series)
    if len(series) < p + d + q + 3:
        raise TooShortSeries(
            f"need at least {p + d + q + 3} observations, got {len(series)}"
        )
    w = _difference(series, d)
    # differenced pure-MA models track the level without drift
    has_const = (p + q) >= 1 and (p == 1 or d == 0)

    def best(thetas):
        objective, consts, phis = _css_profile(w, p, has_const, thetas)
        k = int(np.argmin(np.where(np.isfinite(objective), objective, np.inf)))
        return float(objective[k]), float(thetas[k]), float(consts[k]), float(phis[k])

    objective, theta, const, phi = best(_THETA_GRID if q else np.zeros(1))
    if not math.isfinite(objective):
        raise NonConvergent("no MA coefficient gives a finite sum of squares")
    if q:
        spacing = _THETA_SPACING
        for _ in range(_ZOOMS):
            grid = np.clip(theta + spacing * _ZOOM, -_COEF_CLAMP, _COEF_CLAMP)
            objective, theta, const, phi = best(grid)
            spacing /= 10.0
    return ArimaModel(
        order=(p, d, q),
        const=const,
        phi=phi,
        theta=theta,
        objective=objective,
        clamped=max(abs(phi), abs(theta)) == _COEF_CLAMP,
    )


def arima_forecast(model: ArimaModel, series, steps: int) -> np.ndarray:
    """Minimum-mean-square-error forecasts for ``steps`` periods ahead.

    For d = 1 the differenced-scale forecasts are cumulated and anchored at
    the last observation.  :class:`TooShortSeries` below ``max(p + d, 1)``
    observations, where no last value or lag is left to forecast from;
    :class:`NumericalError` when a forecast overflows float64.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p, d, q = model.order
    series = _finite_vector("series", series)
    if len(series) < max(p + d, 1):
        raise TooShortSeries(
            f"need at least {max(p + d, 1)} observations to forecast, got {len(series)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        w = _difference(series, d).tolist()

        e_prev = 0.0
        if q:
            for t in range(p, len(w)):
                pred = model.const + (model.phi * w[t - 1] if p else 0.0) + model.theta * e_prev
                e_prev = w[t] - pred

        fc = np.empty(steps)
        for h in range(steps):
            pred = model.const
            if p:
                pred += model.phi * (w[-1] if h == 0 else fc[h - 1])
            if q and h == 0:
                pred += model.theta * e_prev
            fc[h] = pred
        if d:
            fc = series[-1] + np.cumsum(fc)
    if not np.isfinite(fc).all():
        raise NumericalError("the ARIMA forecast overflows float64")
    return fc


# ---------------------------------------------------------------------------
# VAR(1) baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarModel:
    """First-order vector autoregression Y(t+1) = AR Y(t) + intercept + e."""

    ar: np.ndarray
    intercept: np.ndarray
    ar_stderr: np.ndarray


def fit_var1(
    table: IOTable,
    nu: np.ndarray,
    samples: int = 10_000,
    seed: int = 0,
) -> VarModel:
    """Calibrate a sectoral VAR(1) on simulated yearly observations.

    The unshocked economy is sampled from its exact yearly transition
    ``Y(k+1) - Y* = Phi (Y(k) - Y*) + xi(k)``, ``Phi = exp(A - I)`` (the
    forecaster's yearly map ``P``, so the population AR matrix is ``P``),
    ``cov(xi) = Q``, a year's noise carried by the drift (``Y*`` the
    equilibrium output), starting at ``Y*`` plus a draw from ``N(0, Sigma)``
    (``Sigma`` stationary), so no burn-in is needed.  ``Phi``, ``Q`` and
    ``Sigma`` come from one block exponential and a doubling at a step of
    one year (:func:`ioresponse.dynamics._transition_moments`).
    ``GaussianStream(seed)`` gives the first N variates to that start, then
    ``samples x N`` to the innovations, year by year.  The ``samples``
    transition pairs are fitted by ordinary least squares with intercepts:
    the AR matrix regresses the leading states on the lagged ones, both
    centered on their means, and the intercept is
    ``mean(leading) - AR mean(lagged)``.  That is the fit on a column of
    ones, with a rank check that does not depend on the noise scale.
    Raises :class:`InsufficientSamples` when ``samples < N + 2``, and
    :class:`NumericalError` when the states or their sums of squares
    overflow float64 (``--eta`` from about 1e150).
    """
    n = table.n_sectors
    if samples < n + 2:
        raise InsufficientSamples(f"VAR samples must be >= N + 2 = {n + 2}, got {samples}")
    _check_size((samples + 1) * n, "VAR states")
    phi, q, sigma = _transition_moments(table.coefficients, nu, 1.0)
    start = _noise_transform(sigma)
    step = _noise_transform(q)
    states = np.empty((samples + 1, n))
    stream = GaussianStream(seed)
    # noise near the float64 limit overflows the states or their sums of
    # squares; that is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        states[0] = start(stream.normals(n))
        _recur(states, phi, step(stream.normals((samples, n))))
        states += equilibrium_output(table.coefficients, table.demand)
        lagged = states[:-1]
        leading = states[1:]
        # centered regressors carry no intercept column, so the rank check and
        # the fit do not depend on how large the states are beside a constant
        lag_mean = lagged.mean(axis=0)
        lead_mean = leading.mean(axis=0)
        design = lagged - lag_mean
        gram = design.T @ design
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(gram))):
        raise NumericalError(
            f"{table.country}/{table.year}: the VAR states or their sums of squares "
            "overflow float64: the noise is too large"
        )
    if np.linalg.matrix_rank(design) < n:
        raise RankDeficientRegressors(
            "yearly states do not span the regressor space: the noise is too small to move them"
        )
    coef, _, _, _ = np.linalg.lstsq(design, leading - lead_mean, rcond=None)
    ar = coef.T
    residuals = leading - lead_mean - design @ coef
    dof = max(len(lagged) - (n + 1), 1)
    sigma2 = (residuals**2).sum(axis=0) / dof
    return VarModel(
        ar=ar,
        intercept=lead_mean - ar @ lag_mean,
        ar_stderr=np.sqrt(np.outer(np.diag(np.linalg.inv(gram)), sigma2)).T,
    )


def var_forecast(model: VarModel, state, steps: int = 1) -> np.ndarray:
    """Iterate the fitted map ``steps`` times from the given state."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = _finite_vector("state", state, len(model.intercept))
    for _ in range(steps):
        y = model.ar @ y + model.intercept
    return y


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def pearson_r(x, y) -> float:
    """Sample Pearson correlation of two equally long series, from the centered
    series scaled by exact powers of two: no sum of squares overflows or underflows."""
    x = _finite_vector("x", x)
    if len(x) < 3:
        raise ValueError("need at least 3 observations")
    y = _finite_vector("y", y, len(x))
    dx, dy = (_pow2_scaled(d)[0] for d in (x - x.mean(), y - y.mean()))
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("constant sequence has no correlation")
    return float(dx @ dy / math.sqrt(sxx * syy))


@dataclass(frozen=True)
class TTestSummary:
    """One-sample two-sided t-test of mean zero, with a 95% CI."""

    n: int
    mean: float
    ci_low: float
    ci_high: float
    t_stat: float
    p_value: float
    degenerate: bool = False

    @property
    def status(self) -> str:
        return "DegenerateInput" if self.degenerate else "ok"


def t_test_mean_zero(values) -> TTestSummary:
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 values")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    if sd == 0.0:
        return TTestSummary(
            n=n, mean=mean, ci_low=mean, ci_high=mean,
            t_stat=math.nan, p_value=math.nan, degenerate=True,
        )
    se = sd / math.sqrt(n)
    t_stat = mean / se
    # Student t tail and quantile straight from scipy.special (what
    # scipy.stats.t evaluates), imported at the call, so importing this
    # module loads no scipy and a t-test loads no scipy.stats
    from scipy import special

    p = 2.0 * float(special.stdtr(n - 1, -abs(t_stat)))
    half = float(special.stdtrit(n - 1, 0.975)) * se
    return TTestSummary(
        n=n, mean=mean, ci_low=mean - half, ci_high=mean + half,
        t_stat=t_stat, p_value=p,
    )


#: Columns of a scored cell in the evaluation outputs.
CELL_FIELDS = ("country", "year", "r_lrt", "r_baseline", "pg")


@dataclass(frozen=True)
class CellScore:
    country: str
    year: int
    r_lrt: float
    r_baseline: float

    @property
    def pg(self) -> float:
        return self.r_lrt - self.r_baseline


@dataclass(frozen=True)
class ForecastEvaluation:
    """Per-cell correlations, predictability gains, and test statistics."""

    target: str
    cells: tuple[CellScore, ...]
    by_year: Mapping[int, TTestSummary]
    pooled: TTestSummary


def evaluate_forecasts(
    observed: Mapping[tuple[str, int], np.ndarray],
    anchor: Mapping[tuple[str, int], np.ndarray],
    lrt: Mapping[tuple[str, int], np.ndarray],
    baseline: Mapping[tuple[str, int], np.ndarray],
    target: str = "changes",
) -> ForecastEvaluation:
    """Score two aligned prediction panels against observations.

    Every mapping must cover identical (country, year) cells with vectors of
    identical length (:class:`MisalignedPanel` otherwise).  ``observed`` and
    the predictions hold target-year output levels; ``anchor`` holds the
    observed levels one year earlier, which the default ``"changes"`` target
    subtracts before correlating.  ``"levels"`` correlates the raw levels.
    Fewer than 2 cells, or vectors shorter than 3, cannot be scored
    (:class:`InsufficientSamples`).
    """
    if target not in ("changes", "levels"):
        raise ValueError(f"unknown target {target!r}")
    keys = sorted(observed)
    for name, panel in (("anchor", anchor), ("lrt", lrt), ("baseline", baseline)):
        if sorted(panel) != keys:
            raise MisalignedPanel(f"{name} predictions cover different cells")
    if len(keys) < 2:
        raise InsufficientSamples(f"need at least 2 cells to score, got {len(keys)}")
    cells = []
    for c, y in keys:
        obs = np.asarray(observed[(c, y)], dtype=float)
        anc = np.asarray(anchor[(c, y)], dtype=float)
        p_l = np.asarray(lrt[(c, y)], dtype=float)
        p_b = np.asarray(baseline[(c, y)], dtype=float)
        if not (obs.shape == anc.shape == p_l.shape == p_b.shape):
            raise MisalignedPanel(f"vector lengths differ in cell {(c, y)}")
        if len(obs) < 3:
            raise InsufficientSamples(f"cell {(c, y)} has {len(obs)} sectors; correlations need 3")
        if target == "changes":
            r_l = pearson_r(obs - anc, p_l - anc)
            r_b = pearson_r(obs - anc, p_b - anc)
        else:
            r_l = pearson_r(obs, p_l)
            r_b = pearson_r(obs, p_b)
        cells.append(CellScore(country=c, year=y, r_lrt=r_l, r_baseline=r_b))

    by_year = {}
    for year in sorted({c.year for c in cells}):
        pg = [c.pg for c in cells if c.year == year]
        if len(pg) >= 2:
            by_year[year] = t_test_mean_zero(pg)
    pooled = t_test_mean_zero([c.pg for c in cells])
    return ForecastEvaluation(
        target=target, cells=tuple(cells), by_year=by_year, pooled=pooled
    )


def write_evaluation(result: ForecastEvaluation, stream: TextIO) -> None:
    """Tabular report: per-cell scores, per-year summaries, one pooled line."""
    cells = [[getattr(c, f) for c in result.cells] for f in CELL_FIELDS]
    write_table(stream, ",".join(CELL_FIELDS), cells)
    stream.write("\n")
    rows = [*sorted(result.by_year.items()), ("pooled", result.pooled)]
    stats = ("mean", "ci_low", "ci_high", "p_value")
    write_table(stream, "year,mean_pg,ci_low,ci_high,p_value",
                [[y for y, _ in rows]] + [[getattr(s, f) for _, s in rows] for f in stats])
