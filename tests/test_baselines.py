"""ARIMA/VAR baselines, Pearson correlation, and the evaluation harness."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ioresponse.baselines import (
    _difference,
    arima_forecast,
    evaluate_forecasts,
    fit_arima,
    fit_var1,
    pearson_r,
    t_test_mean_zero,
    var_forecast,
)
from ioresponse.dynamics import _transition_moments
from ioresponse.errors import (
    DegenerateInput,
    InsufficientSamples,
    MisalignedPanel,
    NonConvergent,
    NumericalError,
    RankDeficientRegressors,
    SingularSystem,
    TooShortSeries,
)
from ioresponse.iodata import (
    IOTable,
    NoiseSpec,
    Panel,
    guarded_solve,
    leontief_solve,
    noise_covariance,
    write_panel,
)
from ioresponse.response import benchmark_lrt_vs_baseline, implied_shock, lrt_forecast
from ioresponse.rng import GaussianStream
from ioresponse.susceptibility import propagator, truncated_susceptibility

from conftest import build_panel, family_bound, random_economy


def _arma_series(phi: float, theta: float, n: int, seed: int, d: int = 0) -> np.ndarray:
    e = GaussianStream(seed).normals(n + 1)
    w = np.empty(n)
    prev_w = 0.0
    for t in range(n):
        w[t] = phi * prev_w + e[t + 1] + theta * e[t]
        prev_w = w[t]
    if d == 0:
        return w
    return 100.0 + np.cumsum(w)


class TestFitArima:
    def test_constant_series_011(self):
        series = np.full(20, 7.5)
        model = fit_arima(series, 0, 1, 1)
        assert abs(model.theta) < 1e-6
        assert abs(model.const) < 1e-9
        np.testing.assert_allclose(arima_forecast(model, series, 3), [7.5, 7.5, 7.5])

    def test_recovers_ar1_coefficient(self):
        series = _arma_series(0.8, 0.0, 500, seed=1)
        model = fit_arima(series, 1, 0, 0)
        assert model.phi == pytest.approx(0.8, abs=0.1)

    def test_recovers_arima_111_coefficients(self):
        series = _arma_series(0.5, 0.3, 1000, seed=2, d=1)
        model = fit_arima(series, 1, 1, 1)
        assert model.phi == pytest.approx(0.5, abs=0.1)
        assert model.theta == pytest.approx(0.3, abs=0.1)

    def test_too_short_series(self):
        with pytest.raises(TooShortSeries):
            fit_arima([1.0, 2.0, 3.0, 4.0, 5.0], 1, 1, 1)

    def test_deterministic_given_inputs(self):
        series = _arma_series(0.4, 0.2, 60, seed=3, d=1)
        a = fit_arima(series, 1, 1, 1)
        b = fit_arima(series, 1, 1, 1)
        assert (a.const, a.phi, a.theta) == (b.const, b.phi, b.theta)

    def test_boundary_solution_clamped_with_flag(self):
        # a deterministic ramp pushes phi toward the unit root for (1,0,0)
        series = np.arange(30, dtype=float)
        model = fit_arima(series, 1, 0, 0)
        assert abs(model.phi) <= 0.99
        assert model.clamped or abs(model.phi) < 0.99

    def test_clamped_phi_keeps_the_constant_of_the_bound(self):
        # the free fit is phi = 1, const = 1; on the bound the constant is
        # re-solved for phi = 0.99 instead of kept at 1
        series = np.arange(30, dtype=float)
        model = fit_arima(series, 1, 0, 0)
        assert model.phi == 0.99 and model.clamped
        expected = np.mean(series[1:] - 0.99 * series[:-1])
        assert expected == pytest.approx(1.14, rel=1e-12)
        assert model.const == pytest.approx(expected, rel=1e-12)
        assert arima_forecast(model, series, 1)[0] == pytest.approx(29.85, rel=1e-12)

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            fit_arima(np.arange(20.0), 2, 0, 0)


def _css(w, p: int, q: int, const: float, phi: float, theta: float) -> float:
    """Conditional sum of squared innovations with zero pre-sample residuals:
    the objective that ``fit_arima`` minimizes, one parameter set at a time."""
    total = 0.0
    e_prev = 0.0
    for t in range(p, len(w)):
        pred = const
        if p:
            pred += phi * w[t - 1]
        if q:
            pred += theta * e_prev
        e = w[t] - pred
        total += e * e
        if q:
            e_prev = e
    return total


def _lbfgsb_reference(series, p, d, q):
    """The earlier ARIMA fit: L-BFGS-B from every start in {0, -0.5, 0.5}^(p+q).

    Returns the best start's sum of squares and whether it ends beyond the
    0.99 clamp.
    """
    from scipy import optimize

    w = _difference(series, d).tolist()
    has_const = p == 1 or d == 0
    wbar = float(np.mean(w))

    def unpack(vec):
        vec = list(vec)
        const = vec.pop(0) if has_const else 0.0
        phi = vec.pop(0) if p else 0.0
        theta = vec.pop(0) if q else 0.0
        return const, phi, theta

    bounds = [(None, None)] * has_const + [(-0.9999, 0.9999)] * (p + q)
    best = None
    for phi0 in (0.0, -0.5, 0.5) if p else (0.0,):
        for theta0 in (0.0, -0.5, 0.5) if q else (0.0,):
            x0 = [wbar * (1.0 - phi0)] * has_const + [phi0] * p + [theta0] * q
            res = optimize.minimize(
                lambda vec: _css(w, p, q, *unpack(vec)), np.array(x0),
                method="L-BFGS-B", bounds=bounds,
            )
            if res.success and (best is None or res.fun < best.fun):
                best = res
    _, phi, theta = unpack(best.x)
    return best.fun, max(abs(phi), abs(theta)) > 0.99


def _short_series(seed: int, d: int) -> np.ndarray:
    """7-15 observations of an ARMA(1,1) with drift and random coefficients."""
    rng = np.random.default_rng(seed)
    n = 7 + seed % 9
    phi, theta = rng.uniform(-0.7, 0.7, 2)
    e = rng.normal(size=n + 1)
    w = np.empty(n)
    for t in range(n):
        w[t] = 0.3 + phi * (w[t - 1] if t else 0.0) + e[t + 1] + theta * e[t]
    return w if d == 0 else 10.0 + np.cumsum(w)


_ALL_ORDERS = [(p, d, q) for p in (0, 1) for d in (0, 1) for q in (0, 1)]
_ORDERS = [order for order in _ALL_ORDERS if order[0] + order[2]]


def _innovations(w, const, phi, theta):
    """ARMA(1,1) CSS innovations of ``w``, zero pre-sample residual."""
    e = np.zeros(len(w) - 1)
    for t in range(1, len(w)):
        e[t - 1] = w[t] - const - phi * w[t - 1] - theta * (e[t - 2] if t > 1 else 0.0)
    return e


class TestArimaOptimum:
    @pytest.mark.parametrize("order", _ORDERS, ids=lambda o: "%d%d%d" % o)
    def test_objective_not_above_lbfgsb(self, order):
        free = 0
        for seed in range(30):
            series = _short_series(seed, order[1])
            model = fit_arima(series, *order)
            objective, clamped = _lbfgsb_reference(series, *order)
            if model.clamped or clamped:
                continue
            free += 1
            assert model.objective <= objective * (1.0 + 1e-9), seed
        assert free >= 4

    @pytest.mark.parametrize("d", [0, 1])
    def test_const_phi_are_least_squares_without_ma(self, d):
        inside = 0
        for seed in range(30):
            series = _short_series(seed, d)
            w = _difference(series, d)
            design = np.column_stack([np.ones(len(w) - 1), w[:-1]])
            (const, phi), *_ = np.linalg.lstsq(design, w[1:], rcond=None)
            if abs(phi) > 0.99:
                continue
            inside += 1
            model = fit_arima(series, 1, d, 0)
            assert not model.clamped
            np.testing.assert_allclose([model.const, model.phi], [const, phi],
                                       rtol=1e-9, atol=1e-12)
        assert inside >= 20

    @pytest.mark.parametrize("q", [0, 1])
    def test_constant_differences_leave_phi_unidentified(self, q):
        # the lagged differences equal 3 times the constant's column
        series = 2.0 + 3.0 * np.arange(12)
        model = fit_arima(series, 1, 1, q)
        assert model.phi == 0.0 and not model.clamped
        np.testing.assert_allclose(arima_forecast(model, series, 3), [38.0, 41.0, 44.0])

    def test_theta_on_bound_keeps_exact_const_phi(self):
        # levels of white noise, differenced once, favour a unit MA root
        series = np.random.default_rng(6).normal(size=12)
        model = fit_arima(series, 1, 1, 1)
        assert model.theta == 0.99 and abs(model.phi) < 0.99 and model.clamped
        w = _difference(series, 1)
        base = _innovations(w, 0.0, 0.0, 0.99)
        design = np.column_stack([base - _innovations(w, 1.0, 0.0, 0.99),
                                  base - _innovations(w, 0.0, 1.0, 0.99)])
        (const, phi), *_ = np.linalg.lstsq(design, base, rcond=None)
        np.testing.assert_allclose([model.const, model.phi], [const, phi], rtol=1e-9)
        assert model.objective == pytest.approx(
            _css(w.tolist(), 1, 1, model.const, model.phi, 0.99), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("order", _ALL_ORDERS, ids=lambda o: "%d%d%d" % o)
    def test_non_finite_series_is_refused(self, order, bad):
        series = np.linspace(1.0, 2.0, 12)
        series[5] = bad
        with pytest.raises(ValueError, match="series must hold finite values"):
            fit_arima(series, *order)

    @pytest.mark.parametrize("order", _ALL_ORDERS, ids=lambda o: "%d%d%d" % o)
    def test_overflowing_series_not_convergent(self, order):
        # finite values whose squares overflow float64 at every theta
        with pytest.raises(NonConvergent):
            fit_arima(np.linspace(1e300, 2e300, 12), *order)


class TestArimaForecast:
    def test_random_walk_forecasts_last_observation(self):
        series = np.array([1.0, 4.0, 2.0, 8.0, 5.0, 7.0])
        model = fit_arima(series, 0, 1, 0)
        np.testing.assert_array_equal(arima_forecast(model, series, 4), [7.0] * 4)

    def test_ar1_hand_recursion(self):
        from ioresponse.baselines import ArimaModel

        model = ArimaModel(
            order=(1, 0, 0), const=0.0, phi=0.5, theta=0.0, sigma2=1.0,
            objective=0.0, clamped=False, n_obs=10,
        )
        series = np.array([1.0, 2.0, 8.0])
        np.testing.assert_allclose(arima_forecast(model, series, 2), [4.0, 2.0])

    def test_linear_ramp_continued(self):
        rng = np.random.default_rng(4)
        series = 3.0 * np.arange(60, dtype=float) + rng.normal(0.0, 0.05, 60)
        model = fit_arima(series, 1, 1, 1)
        forecast = arima_forecast(model, series, 1)[0]
        assert forecast == pytest.approx(series[-1] + 3.0, abs=0.5)

    def test_constant_tail_is_the_infinite_step_limit_for_011(self):
        rng = np.random.default_rng(14)
        head = rng.normal(0.0, 1.0, 30)
        series = np.concatenate([head, np.full(30, 4.25)])
        model = fit_arima(series, 0, 1, 1)
        forecast = arima_forecast(model, series, 200)
        assert forecast[-1] == pytest.approx(4.25, abs=0.05)

    @pytest.mark.parametrize("order", [(p, d, q) for p in (0, 1) for d in (0, 1) for q in (0, 1)],
                             ids=lambda order: "%d%d%d" % order)
    def test_too_short_series_is_refused(self, order):
        from ioresponse.baselines import ArimaModel

        model = ArimaModel(
            order=order, const=0.5, phi=0.5, theta=0.25, sigma2=1.0,
            objective=0.0, clamped=False, n_obs=10,
        )
        shortest = max(order[0] + order[1], 1)
        with pytest.raises(TooShortSeries, match=f"need at least {shortest} observations"):
            arima_forecast(model, np.arange(shortest - 1.0), 1)
        assert np.all(np.isfinite(arima_forecast(model, np.arange(float(shortest)), 3)))

    def test_forecast_that_overflows_is_refused(self):
        # each entry is finite; their differences pass the largest double
        model = fit_arima(np.cumsum(np.random.default_rng(0).normal(size=12)), 1, 1, 1)
        series = np.array([1.7e308, -1.7e308] * 6)
        with pytest.raises(NumericalError, match="^the ARIMA forecast overflows float64$"):
            arima_forecast(model, series, 2)


class TestVar:
    def test_zero_noise_is_rank_deficient(self, two_sector_table):
        with pytest.raises(RankDeficientRegressors):
            fit_var1(two_sector_table, np.zeros((2, 2)), samples=50, seed=0)

    def test_ar_matrix_does_not_depend_on_noise_scale(self):
        # the same draws at any eta: states of size eta x Y, centered before the fit
        table = build_panel(2, (2000, 2003), 4, seed=1).get("AAA", 2000)
        small, large = (
            fit_var1(table, noise_covariance(NoiseSpec.output_proportional(eta), table),
                     samples=1000, seed=1)
            for eta in (1e-2, 1e12)
        )
        assert np.max(np.abs(large.ar - small.ar)) <= 1e-12 * np.max(np.abs(small.ar))

    def test_fewer_samples_than_regressors(self, two_sector_table):
        with pytest.raises(InsufficientSamples):
            fit_var1(two_sector_table, np.eye(2), samples=3, seed=0)

    def test_scalar_ou_transition_recovered(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1"], [[0.5]], [10.0])
        nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
        model = fit_var1(table, nu, samples=10_000, seed=5)
        target = math.exp(-0.5)
        assert abs(model.ar[0, 0] - target) < 3.0 * model.ar_stderr[0, 0]

    def test_transition_is_the_propagator(self, monkeypatch):
        from ioresponse import baselines

        table = random_economy(3, seed=80)
        nu = 0.01 * np.eye(3)
        seen = []

        def spy(coefficients, noise, h):
            seen.append((np.asarray(coefficients), noise, h,
                         _transition_moments(coefficients, noise, h)))
            return seen[-1][3]

        monkeypatch.setattr(baselines, "_transition_moments", spy)
        fit_var1(table, nu, samples=50, seed=0)
        [(coefficients, noise, h, (phi, q, sigma))] = seen
        np.testing.assert_array_equal(coefficients, table.coefficients)
        np.testing.assert_array_equal(noise, nu)
        assert h == 1.0
        # the forecaster's yearly map, here formed inside the block exponential
        p = propagator(table.coefficients, 1.0)
        assert np.max(np.abs(phi - p)) <= 1e-14 * np.max(np.abs(p))
        # a year's noise is what the stationary covariance loses in a year
        assert np.max(np.abs(q - (sigma - phi @ sigma @ phi.T))) <= 1e-14 * np.max(np.abs(q))

    def test_matrix_exponential_recovered_entrywise(self):
        table = random_economy(3, seed=80)
        nu = noise_covariance(NoiseSpec.output_proportional(0.02), table)
        samples = 34_000
        model = fit_var1(table, nu, samples=samples, seed=6)
        target = expm(table.coefficients - np.eye(3))
        # the sampler steps by the exact yearly map, so only sampling error is
        # left: each of the 9 entries within the family-wise t bound
        z = np.abs(model.ar - target) / model.ar_stderr
        assert np.all(z < family_bound(samples - 3, 9))

    def test_var_forecast_iterates_map(self):
        table = random_economy(2, seed=81)
        nu = 0.5 * np.eye(2)
        model = fit_var1(table, nu, samples=200, seed=7)
        y = table.output
        one = var_forecast(model, y, steps=1)
        two = var_forecast(model, y, steps=2)
        np.testing.assert_allclose(two, model.ar @ one + model.intercept, rtol=1e-12)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_var_forecast_needs_a_step(self, steps):
        table = random_economy(2, seed=81)
        model = fit_var1(table, 0.5 * np.eye(2), samples=200, seed=7)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            var_forecast(model, table.output, steps=steps)


class TestPearson:
    def test_exact_positive_linearity(self):
        assert pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0

    def test_exact_negative_linearity(self):
        assert pearson_r([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_half_correlation(self):
        assert pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == 0.5

    def test_constant_sequence_degenerate(self):
        with pytest.raises(DegenerateInput):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x", [[], [1.0], [1.0, 2.0]])
    def test_too_short_x_is_named_as_too_short(self, x):
        with pytest.raises(ValueError, match="^need at least 3 observations$"):
            pearson_r(x, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 1000])
    def test_power_of_two_scale_moves_no_bit(self, k):
        # unscaled, the sums of squares of such data leave float64 from |k| near 512
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        y = x + rng.normal(size=10)
        r = pearson_r(x, y)
        assert pearson_r(x * 2.0**k, y) == pearson_r(x, y * 2.0**k) == r

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(0.1, 100.0),
        b=st.floats(-50.0, 50.0),
        seed=st.integers(0, 1000),
    )
    def test_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = pearson_r(x, y)
        assert pearson_r(a * x + b, y) == pytest.approx(base, abs=1e-9)
        assert pearson_r(-a * x + b, y) == pytest.approx(-base, abs=1e-9)


class TestTTest:
    def test_p_value_in_unit_interval_and_sign_symmetric(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0.3, 1.0, size=25)
        pos = t_test_mean_zero(values)
        neg = t_test_mean_zero(-values)
        assert 0.0 < pos.p_value <= 1.0
        assert pos.p_value == pytest.approx(neg.p_value, rel=1e-12)
        assert pos.t_stat == pytest.approx(-neg.t_stat, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 30, 400])
    @pytest.mark.parametrize("shift", [0.0, 0.05, 0.4, 3.0])
    def test_matches_scipy_stats_exactly(self, n, shift):
        from scipy import stats

        values = np.random.default_rng(n).normal(size=n)
        values = values - values.mean() + shift
        summary = t_test_mean_zero(values)
        se = values.std(ddof=1) / math.sqrt(n)
        half = float(stats.t.ppf(0.975, n - 1)) * se
        assert summary.p_value == 2.0 * float(stats.t.sf(abs(summary.t_stat), n - 1))
        assert summary.ci_low == summary.mean - half
        assert summary.ci_high == summary.mean + half

    def test_zero_variance_degenerate(self):
        summary = t_test_mean_zero([0.0, 0.0, 0.0])
        assert summary.degenerate
        assert math.isnan(summary.p_value)
        assert summary.status == "DegenerateInput"


class TestEvaluateForecasts:
    def _cells(self, n_countries=8, n_years=6, n_sectors=10, seed=9):
        rng = np.random.default_rng(seed)
        observed, anchor, lrt, base = {}, {}, {}, {}
        for c in range(n_countries):
            for y in range(2000, 2000 + n_years):
                key = (f"C{c:02d}", y)
                anchor[key] = rng.uniform(50.0, 150.0, n_sectors)
                observed[key] = anchor[key] + rng.normal(0.0, 5.0, n_sectors)
                lrt[key] = observed[key].copy()
                base[key] = anchor[key] + rng.normal(0.0, 5.0, n_sectors)
        return observed, anchor, lrt, base

    def test_identical_predictions_give_degenerate_pooled(self):
        observed, anchor, lrt, _ = self._cells()
        result = evaluate_forecasts(observed, anchor, lrt, lrt)
        assert all(c.pg == 0.0 for c in result.cells)
        assert result.pooled.degenerate
        assert math.isnan(result.pooled.p_value)

    def test_oracle_vs_noise_is_significant_on_forty_cells(self):
        observed, anchor, lrt, base = self._cells(n_countries=8, n_years=6)
        result = evaluate_forecasts(observed, anchor, lrt, base)
        assert len(result.cells) >= 40
        assert all(c.r_lrt == pytest.approx(1.0) for c in result.cells)
        assert result.pooled.mean > 0.0
        assert result.pooled.p_value < 0.01

    def test_misaligned_panel(self):
        observed, anchor, lrt, base = self._cells(n_countries=2, n_years=2)
        del base[("C00", 2000)]
        with pytest.raises(MisalignedPanel):
            evaluate_forecasts(observed, anchor, lrt, base)

    def test_levels_target(self):
        observed, anchor, lrt, base = self._cells(n_countries=2, n_years=3)
        result = evaluate_forecasts(observed, anchor, lrt, base, target="levels")
        assert all(c.r_lrt == pytest.approx(1.0) for c in result.cells)


@pytest.fixture(scope="module")
def small_panel():
    return build_panel(n_countries=3, years=(2000, 2008), n_sectors=4, seed=13)


class TestBenchmarkPipeline:

    def test_arima_benchmark_produces_cells(self, small_panel):
        result = benchmark_lrt_vs_baseline(small_panel, baseline="arima")
        assert len(result.evaluation.cells) > 0
        for cell in result.evaluation.cells:
            assert -1.0 <= cell.r_lrt <= 1.0
            assert -1.0 <= cell.r_baseline <= 1.0
        # expanding-window cells only start once the ARIMA history is long enough
        assert min(c.year for c in result.evaluation.cells) >= 2004

    def test_var_baseline_iterates_fitted_map_from_shock_year(self, small_panel):
        result = benchmark_lrt_vs_baseline(
            small_panel, baseline="var", var_samples=300, seed=3
        )
        assert len(result.evaluation.cells) > 0
        # rebuild one cell's prediction: two applications of the fitted map
        from ioresponse.iodata import DEFAULT_NOISE, noise_covariance

        c, t = result.evaluation.cells[0].country, result.evaluation.cells[0].year
        table = small_panel.get(c, small_panel.years(c)[0])
        nu = noise_covariance(DEFAULT_NOISE, table)
        model = fit_var1(table, nu, samples=300, seed=3)
        expected = var_forecast(model, small_panel.get(c, t).output, steps=2)
        np.testing.assert_allclose(
            result.baseline_predictions[(c, t)], expected, rtol=1e-12
        )

    def test_var_baseline_is_driven_by_given_noise(self, small_panel):
        noise = NoiseSpec.isotropic(0.5)
        result = benchmark_lrt_vs_baseline(
            small_panel, baseline="var", var_samples=300, seed=3, noise=noise
        )
        c, t = result.evaluation.cells[0].country, result.evaluation.cells[0].year
        table = small_panel.get(c, small_panel.years(c)[0])
        model = fit_var1(table, noise_covariance(noise, table), samples=300, seed=3)
        expected = var_forecast(model, small_panel.get(c, t).output, steps=2)
        np.testing.assert_allclose(
            result.baseline_predictions[(c, t)], expected, rtol=1e-12
        )

    def test_full_sample_arima_calibration(self, small_panel):
        expanding = benchmark_lrt_vs_baseline(small_panel, calibration="expanding")
        full = benchmark_lrt_vs_baseline(small_panel, calibration="full")
        keys_e = {(c.country, c.year) for c in expanding.evaluation.cells}
        keys_f = {(c.country, c.year) for c in full.evaluation.cells}
        assert keys_e == keys_f
        # in-sample calibration sees the whole series, so fits generally differ
        diffs = [
            np.max(np.abs(full.baseline_predictions[k] - expanding.baseline_predictions[k]))
            for k in sorted(keys_f)
        ]
        assert max(diffs) > 0.0

    def test_full_calibration_fits_each_country_sector_once(self, monkeypatch):
        from ioresponse import response

        full = build_panel(n_countries=2, years=(2000, 2009), n_sectors=6, seed=5)
        calls = []

        def counting(series, *args, **kwargs):
            calls.append(len(series))
            return fit_arima(series, *args, **kwargs)

        monkeypatch.setattr(response, "fit_arima", counting)
        result = benchmark_lrt_vs_baseline(full, calibration="full")
        assert calls == [10] * 12
        for c in full.countries():
            series = np.stack([full.get(c, y).output for y in full.years(c)])
            models = [fit_arima(s, 1, 1, 1) for s in series.T]
            for t in (2004, 2005, 2006, 2007):
                history = series[: t - 2000 + 2]
                want = [arima_forecast(m, h, 1)[0] for m, h in zip(models, history.T)]
                np.testing.assert_array_equal(result.baseline_predictions[(c, t)], want)

        # BBB keeps five years: too short for any scored ARIMA(1,1,1) cell
        calls.clear()
        panel = Panel(t for t in full if t.country == "AAA" or t.year <= 2004)
        result = benchmark_lrt_vs_baseline(panel, calibration="full")
        assert {c.country for c in result.evaluation.cells} == {"AAA"}
        assert calls == [10] * 6

    @pytest.mark.parametrize("setting", [
        {"baseline": "nope"}, {"calibration": "bogus"}, {"target": "bogus"},
    ])
    def test_unknown_setting_raises_before_work(self, small_panel, monkeypatch, setting):
        from ioresponse import response

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the settings were checked")

        monkeypatch.setattr(response, "fit_arima", no_fit)
        monkeypatch.setattr(response, "propagator", no_fit)
        with pytest.raises(ValueError, match="unknown"):
            benchmark_lrt_vs_baseline(small_panel, **setting)

    def test_perturbed_io_baseline(self, small_panel):
        result = benchmark_lrt_vs_baseline(small_panel, baseline="perturbed_io")
        assert len(result.evaluation.cells) > 0

    @pytest.mark.parametrize("baseline", ["arima", "var", "perturbed_io"])
    def test_cell_runs_one_exponential_and_no_svd(self, small_panel, tmp_path, monkeypatch,
                                                  baseline):
        from ioresponse import susceptibility
        from ioresponse.cli import run

        data = tmp_path / "panel.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            write_panel(small_panel, fh)
        calls = {"expm": 0, "cond": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(susceptibility, "expm", counting("expm", susceptibility.expm))
        monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
        out = tmp_path / "out"
        code = run(["benchmark", "--baseline", baseline, "--var-samples", "300",
                    "--data", str(data), "--out", str(out)])
        assert code == 0
        cells = len(json.loads((out / "evaluation.json").read_text(encoding="utf-8"))["cells"])
        assert cells >= 8
        # the model's yearly map, which perturbed-io solves with too
        assert calls == {"expm": cells, "cond": 0}

    @pytest.mark.parametrize("shape", [(3, (2000, 2008), 4, 13), (1, (2000, 2003), 56, 5)],
                             ids=["4_sectors", "56_sectors"])
    def test_predictions_equal_shock_route(self, shape):
        """Both predictions equal the implied-shock forms within 1e-12 of the
        predicted change: Y(t) + rho(2) X for the model, Y(t) + (I - A)^{-1} X
        for the perturbed equilibrium; the model's is lrt_forecast's bits."""
        panel = build_panel(*shape)
        result = benchmark_lrt_vs_baseline(panel, baseline="perturbed_io")
        for c, t in result.observed:
            table = panel.get(c, t)
            y_t, y_t1 = table.output, panel.get(c, t + 1).output
            x = implied_shock(table, y_t, y_t1).values
            pred_lrt = result.lrt_predictions[(c, t)]
            pred_base = result.baseline_predictions[(c, t)]
            np.testing.assert_array_equal(pred_lrt, lrt_forecast(table, y_t, y_t1))
            via_shock = y_t + truncated_susceptibility(table.coefficients, 2.0) @ x
            assert np.max(np.abs(pred_lrt - via_shock)) <= 1e-12 * np.max(np.abs(via_shock - y_t))
            change = leontief_solve(table.coefficients, x)
            assert np.max(np.abs(pred_base - (y_t + change))) <= 1e-12 * np.max(np.abs(change))


def test_singular_system_guard_is_shared():
    with pytest.raises(SingularSystem, match=r"I - exp\(A - I\) is singular"):
        guarded_solve(np.ones((2, 2)), np.ones(2), "I - exp(A - I)")
    # leontief_solve goes through the same guard
    with pytest.raises(SingularSystem, match="I - A is singular"):
        leontief_solve(np.eye(2), np.ones(2))
