"""Response curves, recovery times, implied shocks, and the forecaster."""

import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ioresponse import response as response_module
from ioresponse import susceptibility as susceptibility_module
from ioresponse.dynamics import ShockProfile, equilibrium_output, simulate_batch
from ioresponse.errors import IllConditioned, NumericalError
from ioresponse.iodata import IOTable, NoiseSpec, Panel, noise_covariance
from ioresponse.response import (
    RECOVERY_EPS,
    fluctuation_panel_regression,
    fluctuation_prediction,
    implied_shock,
    impulse_response,
    lrt_forecast,
    recovery_time,
    response_grid,
    step_response,
    write_curve,
)
from ioresponse.scenario import scenario_response_curves
from ioresponse.susceptibility import (
    applied_susceptibility,
    propagator,
    truncated_susceptibility,
)

from conftest import build_panel, family_bound, random_economy


@pytest.fixture(scope="module")
def decoupled():
    return IOTable.from_coefficients(
        "AAA", 2000, ["S1", "S2"], np.zeros((2, 2)), [1.0, 1.0]
    )


class TestImpulse:
    def test_zero_lag_equals_shock(self, two_sector_table):
        x = np.array([0.7, -0.2])
        curve = impulse_response(two_sector_table, x, response_grid(2.0, 0.5))
        np.testing.assert_array_equal(curve.values[0], x)

    def test_decoupled_exponential_decay(self, decoupled):
        grid = response_grid(5.0, 0.25)
        curve = impulse_response(decoupled, np.array([1.0, 0.0]), grid)
        np.testing.assert_allclose(curve.values[:, 0], np.exp(-grid), rtol=1e-12)
        np.testing.assert_array_equal(curve.values[:, 1], np.zeros(len(grid)))

    def test_decay_to_zero(self, two_sector_table):
        curve = impulse_response(
            two_sector_table, np.array([1.0, 1.0]), np.array([0.0, 100.0])
        )
        assert np.max(np.abs(curve.values[-1])) < 1e-12

    def test_area_under_curve_is_infinite_horizon_step_limit(self, two_sector_table):
        x = np.array([1.0, 0.5])
        grid = response_grid(80.0, 0.01)
        curve = impulse_response(two_sector_table, x, grid)
        # the trapezoid rule, written out
        area = (np.diff(grid)[:, None] * (curve.values[1:] + curve.values[:-1]) / 2.0).sum(axis=0)
        limit = np.linalg.solve(np.eye(2) - two_sector_table.coefficients, x)
        np.testing.assert_allclose(area, limit, rtol=1e-4)

    def test_superposition_and_scaling_exact(self, two_sector_table):
        grid = response_grid(3.0, 0.5)
        x1 = np.array([1.0, 0.0])
        x2 = np.array([0.0, 2.0])
        c1 = impulse_response(two_sector_table, x1, grid)
        c2 = impulse_response(two_sector_table, x2, grid)
        both = impulse_response(two_sector_table, x1 + x2, grid)
        np.testing.assert_allclose(both.values, c1.values + c2.values, atol=1e-13)
        scaled = impulse_response(two_sector_table, 3.0 * x1, grid)
        np.testing.assert_allclose(scaled.values, 3.0 * c1.values, rtol=1e-13)


class TestStep:
    def test_starts_at_zero(self, two_sector_table):
        curve = step_response(two_sector_table, np.array([1.0, 1.0]), response_grid(1.0, 0.5))
        np.testing.assert_array_equal(curve.values[0], [0.0, 0.0])

    def test_scalar_leontief_limit(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1"], [[0.5]], [1.0])
        curve = step_response(table, np.array([1.0]), np.array([0.0, 200.0]))
        np.testing.assert_allclose(curve.values[-1], [2.0], rtol=1e-12)

    def test_two_sector_infinite_limit_is_leontief_column(self, two_sector_table):
        curve = step_response(
            two_sector_table, np.array([1.0, 0.0]), np.array([0.0, 200.0])
        )
        np.testing.assert_allclose(
            curve.values[-1], [10.0 / 9.0, 2.0 / 9.0], rtol=1e-12
        )

    def test_grid_point_matches_applied_susceptibility_bitwise(self, two_sector_table):
        x = np.array([0.3, 1.1])
        grid = np.array([0.0, 0.7, 1.9, 4.2])
        curve = step_response(two_sector_table, x, grid)
        for k, t in enumerate(grid[1:], start=1):
            expected = applied_susceptibility(two_sector_table.coefficients, t, x)
            np.testing.assert_array_equal(curve.values[k], expected)

    def test_zero_shock_is_zero(self, two_sector_table):
        curve = step_response(two_sector_table, np.zeros(2), response_grid(3.0, 0.5))
        assert not curve.values.any()

    def test_superposition_and_scaling_exact(self, two_sector_table):
        grid = response_grid(3.0, 0.5)
        x1 = np.array([1.0, 0.0])
        x2 = np.array([0.0, 2.0])
        c1 = step_response(two_sector_table, x1, grid)
        c2 = step_response(two_sector_table, x2, grid)
        both = step_response(two_sector_table, x1 + x2, grid)
        np.testing.assert_allclose(both.values, c1.values + c2.values, atol=1e-13)
        scaled = step_response(two_sector_table, 3.0 * x1, grid)
        np.testing.assert_allclose(scaled.values, 3.0 * c1.values, rtol=1e-13)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_time_derivative_is_impulse_response(self, two_sector_table, t):
        x = np.array([1.0, -0.5])
        h = 1e-4
        curve = step_response(two_sector_table, x, np.array([0.0, t - h, t + h]))
        slope = (curve.values[2] - curve.values[1]) / (2.0 * h)
        impulse = impulse_response(two_sector_table, x, np.array([0.0, t]))
        np.testing.assert_allclose(slope, impulse.values[1], rtol=1e-6)


    @pytest.mark.parametrize("grid", [response_grid(20.0, 0.5), np.array([0.0, 0.7, 19.0])],
                             ids=["uniform", "non_uniform"])
    def test_overflow_is_refused(self, two_sector_table, grid):
        with pytest.raises(NumericalError, match="step response overflows"):
            step_response(two_sector_table, np.full(2, 1.5e308), grid)

    def test_solves_against_vectors_only(self, two_sector_table, monkeypatch):
        ranks = []
        original = np.linalg.solve

        def recording(system, rhs):
            ranks.append(np.ndim(rhs))
            return original(system, rhs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        x = np.array([0.3, 1.1])
        step_response(two_sector_table, x, response_grid(1.0, 0.1))
        assert ranks == [1]
        step_response(two_sector_table, x, np.array([0.0, 0.7, 1.9]))
        assert ranks == [1] * 3


class TestUniformGrid:
    """Curves on a uniform grid are propagated with one expm per curve."""

    @pytest.fixture(scope="class", params=[0.6, 0.95], ids=["radius_0.6", "radius_0.95"])
    def economy(self, request):
        return random_economy(56, seed=81, spectral_target=request.param)

    @staticmethod
    def _shock():
        return np.random.default_rng(82).uniform(-1.0, 1.0, 56)

    @pytest.mark.parametrize("horizon", [10.0, 80.0])
    def test_curves_match_direct_evaluation(self, economy, horizon):
        a = economy.coefficients
        x = self._shock()
        grid = response_grid(horizon, 0.01)
        step = step_response(economy, x, grid).values
        impulse = impulse_response(economy, x, grid).values
        step_scale = np.max(np.abs(step))
        impulse_scale = np.max(np.abs(impulse))
        for k in np.unique(np.linspace(1, len(grid) - 1, 150).astype(int)):
            t = grid[k]
            direct_step = truncated_susceptibility(a, t) @ x
            direct_impulse = expm((a - np.eye(56)) * t) @ x
            assert np.max(np.abs(step[k] - direct_step)) <= 1e-12 * step_scale
            assert np.max(np.abs(impulse[k] - direct_impulse)) <= 1e-12 * impulse_scale

    def test_first_point_is_bitwise_direct(self, economy):
        a = economy.coefficients
        x = self._shock()
        grid = response_grid(10.0, 0.01)
        step = step_response(economy, x, grid).values
        impulse = impulse_response(economy, x, grid).values
        np.testing.assert_array_equal(step[1], applied_susceptibility(a, grid[1], x))
        direct = susceptibility_module.expm((a - np.eye(56)) * grid[1])
        np.testing.assert_array_equal(impulse[1], direct @ x)

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        """Counts every expm: all of them go through ``susceptibility.expm``."""
        calls = []

        def counted(m):
            calls.append(m.shape)
            return expm(m)

        monkeypatch.setattr(susceptibility_module, "expm", counted)
        return calls

    @pytest.mark.parametrize("points", [11, 1001])
    def test_one_expm_per_curve(self, expm_calls, points):
        table = random_economy(5, seed=83)
        x = np.ones(5)
        grid = response_grid(0.01 * (points - 1), 0.01)
        assert len(grid) == points
        step_response(table, x, grid)
        assert len(expm_calls) == 1
        impulse_response(table, x, grid)
        assert len(expm_calls) == 2

    def test_one_expm_per_scenario_curve(self, expm_calls):
        table = random_economy(5, seed=84)
        curve = scenario_response_curves(table, np.ones(5), 10.0, grid_dt=0.01)
        assert len(curve.grid) == 1001
        assert len(expm_calls) == 1


@pytest.mark.parametrize(
    "horizon, dt",
    [(1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf),
     (-1.0, 0.1), (math.inf, 0.1), (math.nan, 0.1), (1e308, 0.01), (10.0, 1e-320)],
)
def test_response_grid_rejects_bad_settings(horizon, dt):
    with pytest.raises(ValueError):
        response_grid(horizon, dt)


class TestRecovery:
    def test_decoupled_unit_impulse_recovers_at_one_year(self, decoupled):
        grid = response_grid(5.0, 0.1)
        curve = impulse_response(decoupled, np.array([1.0, 1.0]), grid)
        times = recovery_time(curve, eps=np.exp(-1.0))
        np.testing.assert_allclose(times, [1.0, 1.0])

    def test_zero_curve_recovers_immediately(self, decoupled):
        curve = impulse_response(decoupled, np.array([0.0, 0.0]), response_grid(1.0, 0.5))
        # an all-zero shock gives an all-zero threshold and an all-zero curve
        np.testing.assert_array_equal(recovery_time(curve, eps=0.05), [0.0, 0.0])

    def test_never_recovered_is_inf(self, decoupled):
        curve = impulse_response(decoupled, np.array([1.0, 1.0]), response_grid(0.5, 0.1))
        times = recovery_time(curve, eps=0.05)
        assert np.all(np.isinf(times))

    def test_unshocked_sector_uses_shock_norm(self, two_sector_table):
        grid = response_grid(60.0, 0.05)
        curve = impulse_response(two_sector_table, np.array([1.0, 0.0]), grid)
        times = recovery_time(curve, eps=RECOVERY_EPS)
        assert np.all(np.isfinite(times))
        assert times[1] > 0.0  # spillover sector measured against ||X||_inf


class TestImpliedShock:
    def test_zero_change_zero_shock(self, two_sector_table):
        y = two_sector_table.output
        shock = implied_shock(two_sector_table, y, y)
        np.testing.assert_array_equal(shock.values, [0.0, 0.0])

    def test_decoupled_componentwise_formula(self, decoupled):
        y = decoupled.output
        delta = np.array([0.3, -0.1])
        shock = implied_shock(decoupled, y, y + delta)
        np.testing.assert_allclose(
            shock.values, delta / (1.0 - np.exp(-1.0)), rtol=1e-12
        )

    def test_forward_map_round_trip(self):
        table = random_economy(6, seed=40)
        rng = np.random.default_rng(41)
        x = rng.normal(size=6)
        rho1 = truncated_susceptibility(table.coefficients, 1.0)
        delta = rho1 @ x
        shock = implied_shock(table, table.output, table.output + delta)
        np.testing.assert_allclose(shock.values, x, rtol=1e-8)
        np.testing.assert_allclose(rho1 @ shock.values, delta, rtol=1e-8)

    def test_condition_cap(self, two_sector_table, monkeypatch):
        y = two_sector_table.output
        delta = np.array([0.1, 0.1])
        shock = implied_shock(two_sector_table, y, y + delta)
        assert 1.0 < shock.condition < response_module.CONDITION_CAP
        # the cap is read at call time
        monkeypatch.setattr(response_module, "CONDITION_CAP", 1.0)
        with pytest.raises(IllConditioned):
            implied_shock(two_sector_table, y, y + delta)
        # the forecaster extracts no shock, so the cap does not reach it
        y1 = y + delta
        p = expm(two_sector_table.coefficients - np.eye(2))
        np.testing.assert_array_equal(
            lrt_forecast(two_sector_table, y, y1), y1 + p @ (y1 - y)
        )

    @staticmethod
    def _alpha(a):
        return float(np.abs(a).sum(axis=0).max())

    @pytest.mark.parametrize("n", [2, 6, 28, 56])
    def test_certificate_bounds_condition(self, n):
        checked = 0
        for target in (0.3, 0.6, 0.9, 0.95, 0.99):
            for seed in range(3):
                table = random_economy(n, seed=seed, spectral_target=target)
                a = table.coefficients
                if self._alpha(a) >= 1.0:
                    continue
                exact = np.linalg.cond(truncated_susceptibility(a, 1.0))
                assert response_module._condition_certificate(self._alpha(a), n) >= exact
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("alpha", [0.5, 0.99, 0.999])
    def test_certificate_bounds_condition_of_signed_matrices(self, alpha):
        # the bound uses only ||A||_1 < 1, not the signs of A
        rng = np.random.default_rng(90)
        for n in (2, 6, 28):
            a = rng.normal(size=(n, n))
            a *= alpha / np.abs(a).sum(axis=0).max()
            exact = np.linalg.cond(truncated_susceptibility(a, 1.0))
            assert response_module._condition_certificate(self._alpha(a), n) >= exact

    def _assert_round_trip_bound_holds(self, a, delta):
        """The round-trip bound is at least max|rho(1) X - dY| for the solved
        shock and for shocks moved off it, the residual taken in extended
        precision and by the exact check's own solve."""
        n = len(a)
        eye = np.eye(n)
        p = propagator(a, 1.0)
        x = np.linalg.solve(eye - p, delta - a @ delta)
        rng = np.random.default_rng(n)
        for shock in (x, x * (1.0 + 1e-12), x * (1.0 + 1e-6),
                      x + 1e-9 * np.abs(x).max() * rng.normal(size=n)):
            ld = np.longdouble
            w = (eye.astype(ld) - p.astype(ld)) @ shock.astype(ld) - (
                eye.astype(ld) - a.astype(ld)) @ delta.astype(ld)
            extended = np.linalg.solve(eye - a, w.astype(float))
            direct = np.linalg.solve(eye - a, shock - p @ shock) - delta
            exact = max(np.abs(extended).max(), np.abs(direct).max())
            bound = response_module._round_trip_bound(self._alpha(a), p, a, shock, delta)
            assert bound >= exact

    @pytest.mark.parametrize("n", [2, 6, 28, 56])
    def test_round_trip_certificate_bounds_exact_residual(self, n):
        checked = 0
        for target in (0.3, 0.6, 0.9, 0.95, 0.99):
            for seed in range(3):
                table = random_economy(n, seed=seed, spectral_target=target)
                if self._alpha(table.coefficients) >= 1.0:
                    continue
                rng = np.random.default_rng(seed + 200)
                delta = table.output * rng.normal(0.0, 0.05, size=n)
                self._assert_round_trip_bound_holds(table.coefficients, delta)
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("alpha", [0.5, 0.99, 0.999])
    def test_round_trip_certificate_bounds_exact_residual_of_signed_matrices(self, alpha):
        rng = np.random.default_rng(92)
        for n in (2, 6, 28, 56):
            a = rng.normal(size=(n, n))
            a *= alpha / np.abs(a).sum(axis=0).max()
            self._assert_round_trip_bound_holds(a, rng.normal(size=n))

    @pytest.fixture
    def cond_calls(self, monkeypatch):
        calls = []
        original = np.linalg.cond

        def counted(m, *args):
            calls.append(m.shape)
            return original(m, *args)

        monkeypatch.setattr(np.linalg, "cond", counted)
        return calls

    @pytest.fixture
    def leontief_ranks(self, monkeypatch):
        ranks = []
        original = response_module._leontief

        def counted(a, rhs):
            ranks.append(np.ndim(rhs))
            return original(a, rhs)

        monkeypatch.setattr(response_module, "_leontief", counted)
        return ranks

    def test_certified_cap_runs_no_svd(self, cond_calls, leontief_ranks):
        table = random_economy(6, seed=40)
        alpha = self._alpha(table.coefficients)
        assert alpha < 1.0
        y = table.output
        shock = implied_shock(table, y, y * 1.01)
        assert cond_calls == []
        # the round trip is certified too, so no Leontief solve runs
        assert leontief_ranks == []
        assert shock.condition == response_module._condition_certificate(alpha, 6)

    def test_uncertified_cap_takes_exact_condition(self, cond_calls, leontief_ranks):
        # productive (spectral radius 0.9), but a column of A sums past 1
        table = random_economy(56, seed=0, spectral_target=0.9)
        a = table.coefficients
        assert self._alpha(a) >= 1.0
        rng = np.random.default_rng(91)
        y_t = table.output
        y_t1 = y_t * (1.0 + rng.normal(0.0, 0.05, size=56))
        shock = implied_shock(table, y_t, y_t1)
        assert len(cond_calls) == 1
        rho = truncated_susceptibility(a, 1.0)
        assert shock.condition == np.linalg.cond(rho)
        delta = y_t1 - y_t
        eye = np.eye(56)
        np.testing.assert_array_equal(
            shock.values, np.linalg.solve(eye - propagator(a, 1.0), delta - a @ delta)
        )
        # rho(1) for cond_2, then the exact round-trip residual
        assert leontief_ranks == [2, 1]

    @pytest.mark.parametrize("table", [
        random_economy(6, seed=40), random_economy(56, seed=0, spectral_target=0.9),
    ], ids=["certified", "uncertified"])
    def test_wrong_shock_fails_round_trip(self, table, monkeypatch):
        original = response_module.guarded_solve

        def off_by_a_millionth(system, rhs, name):
            return original(system, rhs, name) * (1.0 + 1e-6)

        monkeypatch.setattr(response_module, "guarded_solve", off_by_a_millionth)
        y = table.output
        with pytest.raises(NumericalError, match="round trip"):
            implied_shock(table, y, y * 1.01)

    @pytest.mark.parametrize("function", [implied_shock, lrt_forecast])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("argument", ["output_t", "output_t1"])
    def test_non_finite_output_is_refused(self, two_sector_table, function, bad, argument):
        outputs = {"output_t": two_sector_table.output.copy(),
                   "output_t1": two_sector_table.output * 1.01}
        outputs[argument][0] = bad
        with pytest.raises(ValueError, match=f"{argument} must hold 2 finite values"):
            function(two_sector_table, **outputs)

    @pytest.mark.parametrize("function", [implied_shock, lrt_forecast])
    def test_output_of_wrong_length_is_refused(self, two_sector_table, function):
        y = two_sector_table.output
        with pytest.raises(ValueError, match="output_t1 must hold 2 finite values"):
            function(two_sector_table, y, np.append(y, 1.0))

    @pytest.mark.parametrize("function", [implied_shock, lrt_forecast])
    def test_overflowing_output_change_is_refused(self, function):
        # each output is finite, but Y(t+1) - Y(t) is not
        table = random_economy(6, seed=40)
        with pytest.raises(NumericalError, match="output change overflows"):
            function(table, np.full(6, -1e308), np.full(6, 1e308))

    def test_overflowing_forecast_is_refused(self):
        table = random_economy(6, seed=40)
        with pytest.raises(NumericalError, match="forecast overflows"):
            lrt_forecast(table, np.zeros(6), np.full(6, 1.7e308))

    def test_overflowing_shock_fails_round_trip(self):
        # dY is finite, but the shock that matches it is not
        table = random_economy(6, seed=40)
        with pytest.raises(NumericalError, match="round trip residual nan"):
            implied_shock(table, np.zeros(6), np.full(6, 1.7e308))


class TestForecast:
    def test_no_change_forecasts_no_change(self, two_sector_table):
        y = two_sector_table.output
        np.testing.assert_allclose(lrt_forecast(two_sector_table, y, y), y)

    def test_decoupled_closed_form(self, decoupled):
        y = decoupled.output
        delta = np.array([0.5, -0.2])
        forecast = lrt_forecast(decoupled, y, y + delta)
        factor = (1.0 - np.exp(-2.0)) / (1.0 - np.exp(-1.0))
        np.testing.assert_allclose(forecast, y + factor * delta, rtol=1e-12)

    def test_intermediate_year_reproduced_exactly(self):
        table = random_economy(5, seed=50)
        rng = np.random.default_rng(51)
        y_t = table.output
        y_t1 = y_t * (1.0 + rng.normal(0.0, 0.05, size=5))
        shock = implied_shock(table, y_t, y_t1)
        rho1 = truncated_susceptibility(table.coefficients, 1.0)
        reconstructed = y_t + rho1 @ shock.values
        np.testing.assert_allclose(reconstructed, y_t1, rtol=1e-10)

    @staticmethod
    def _assert_shock_route_identity(table, y_t, y_t1):
        """lrt_forecast equals Y(t) + rho(2) X, X the implied shock, within
        1e-12 of the predicted change."""
        shock = implied_shock(table, y_t, y_t1)
        via_shock = y_t + truncated_susceptibility(table.coefficients, 2.0) @ shock.values
        forecast = lrt_forecast(table, y_t, y_t1)
        scale = np.max(np.abs(via_shock - y_t))
        assert np.max(np.abs(forecast - via_shock)) <= 1e-12 * scale

    @pytest.mark.parametrize("n, seed", [(3, 70), (8, 71), (20, 72), (56, 73)])
    def test_propagator_route_equals_shock_route(self, n, seed):
        table = random_economy(n, seed=seed)
        rng = np.random.default_rng(seed + 100)
        y_t = table.output
        self._assert_shock_route_identity(
            table, y_t, y_t * (1.0 + rng.normal(0.0, 0.05, size=n))
        )

    def test_propagator_route_equals_shock_route_on_panel_cell(self):
        panel = build_panel(n_countries=1, years=(2000, 2001), n_sectors=56, seed=5)
        table = panel.get("AAA", 2000)
        self._assert_shock_route_identity(table, table.output, panel.get("AAA", 2001).output)

    def test_matches_noiseless_step_simulation(self):
        table = random_economy(4, seed=60)
        rng = np.random.default_rng(61)
        x = rng.normal(0.0, 0.1, size=4) * table.output
        y0 = equilibrium_output(table.coefficients, table.demand)
        rho = truncated_susceptibility
        y_t1 = y0 + rho(table.coefficients, 1.0) @ x
        forecast = lrt_forecast(table, y0, y_t1)
        end = simulate_batch(
            table.coefficients, table.demand, np.zeros((4, 4)), ShockProfile.step(x),
            dt=1.0, horizon=2.0, burn_in=0.0, seed=0, replicas=1,
        )[0, -1]
        scale = np.max(np.abs(end))
        assert np.max(np.abs(forecast - end)) < 1e-12 * scale
        exact = y0 + rho(table.coefficients, 2.0) @ x
        np.testing.assert_allclose(forecast, exact, rtol=1e-10)


class TestFluctuation:
    def test_identity_susceptibility_prediction_proportional_to_output(self, decoupled):
        pred = fluctuation_prediction(decoupled)
        np.testing.assert_allclose(pred, decoupled.output, rtol=1e-12)

    def test_panel_regression_fields(self):
        panel = build_panel(n_countries=3, years=(2000, 2006), n_sectors=4, seed=9)
        reg = fluctuation_panel_regression(panel)
        assert reg.base_year == 2000
        assert len(reg.predictor) == 3 * 4
        assert -1.0 <= reg.r <= 1.0
        assert -1.0 <= reg.r_with_size_control <= 1.0
        assert np.isfinite(reg.eta)

    @staticmethod
    def _scaled(panel, factor):
        return Panel([dataclasses.replace(t, output=t.output * factor) for t in panel])

    @pytest.mark.parametrize("k", [-700, 700])
    def test_eta_keeps_its_bits_at_a_power_of_two_scale(self, k):
        # unscaled, x.y and x.x leave float64 from |k| near 512
        panel = build_panel(n_countries=2, years=(2000, 2009), n_sectors=3, seed=4)
        reg = fluctuation_panel_regression(panel)
        scaled = fluctuation_panel_regression(self._scaled(panel, 2.0**k))
        assert scaled.eta == reg.eta
        assert scaled.r == reg.r

    @pytest.mark.parametrize("k", [-700, -100, 30, 60, 300, 700])
    def test_size_control_keeps_its_bits_at_a_power_of_two_scale(self, k):
        # with a column of ones beside the unscaled columns, lstsq's rank
        # cutoff dropped one or the other from k = 60 and at k = -100
        panel = build_panel(n_countries=2, years=(2000, 2009), n_sectors=3, seed=4)
        reg = fluctuation_panel_regression(panel)
        scaled = fluctuation_panel_regression(self._scaled(panel, 2.0**k))
        assert scaled.r_with_size_control == reg.r_with_size_control
        assert scaled.size_control_coefficient == reg.size_control_coefficient

    def test_eta_that_overflows_is_refused(self):
        panel = build_panel(n_countries=2, years=(2000, 2004), n_sectors=3, seed=4)
        grown = Panel([
            dataclasses.replace(t, output=t.output * 2.0 ** (-600 if t.year == 2000 else 500))
            for t in panel
        ])
        with pytest.raises(NumericalError, match="eta overflows float64"):
            fluctuation_panel_regression(grown)

    def test_size_coefficient_that_overflows_is_refused(self):
        # base-year outputs equal to 40 bits leave eta finite (near 2**993)
        # while the slope on their tiny spread leaves float64
        panel = build_panel(n_countries=2, years=(2000, 2004), n_sectors=3, seed=4)
        spread = 1.0 + 2.0**-40 * np.arange(3)
        grown = Panel([
            dataclasses.replace(t, output=2.0**-500 * spread if t.year == 2000
                                else t.output * 2.0**490)
            for t in panel
        ])
        with pytest.raises(NumericalError, match="size-control coefficient overflows float64"):
            fluctuation_panel_regression(grown)

    def test_eta_has_the_bits_of_the_unscaled_slope(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            panel = build_panel(n_countries=3, years=(2000, 2005), n_sectors=4, seed=seed)
            reg = fluctuation_panel_regression(self._scaled(panel, 10.0 ** rng.uniform(-6, 9)))
            x, y = reg.predictor, reg.observed
            assert reg.eta == float(x @ y / (x @ x))


class TestWiodExamples:
    def test_usa_2014_slowest_large_sector_recovers_in_six_to_ten_years(
        self, wiod_file
    ):
        from ioresponse.iodata import load_panel

        table = load_panel(wiod_file, ["USA"], [2014], clip_negative_flows=True).get("USA", 2014)
        grid = response_grid(15.0, 0.01)
        curve = impulse_response(table, np.ones(table.n_sectors), grid)
        times = recovery_time(curve, eps=RECOVERY_EPS)
        largest = np.argsort(-table.output)[:30]
        slowest = float(np.max(times[largest]))
        assert 6.0 <= slowest <= 10.0


class TestFluctuationResponse:
    def test_unshocked_fluctuations_reproduce_the_impulse_response(self):
        # fluctuation-dissipation: C(t') sigma^{-1} x = exp((A - I) t') x,
        # estimated per replica from an unshocked path about the known mean
        # Y0; the 12 entries of three lags within the t bound of a 1e-3
        # family-wise rate (at t' = 0 the estimate is x itself)
        table = random_economy(4, seed=70)
        nu = noise_covariance(NoiseSpec.output_proportional(0.02), table)
        x = np.array([1.0, 0.0, -0.5, 0.25])
        dt = 0.05
        replicas = 32
        states = simulate_batch(
            table.coefficients, table.demand, nu, ShockProfile.none(),
            dt=dt, horizon=800.0, burn_in=50.0, seed=71, replicas=replicas,
        )
        y0 = equilibrium_output(table.coefficients, table.demand)
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        lags = np.rint(grid[1:] / dt).astype(int)
        per_replica = []
        for y in states - y0:
            n = len(y)
            weights = np.linalg.solve(y.T @ y / n, x)
            per_replica.append([y[k:].T @ y[:n - k] @ weights / (n - k) for k in lags])
        per_replica = np.array(per_replica)
        mean = per_replica.mean(axis=0)
        se = per_replica.std(axis=0, ddof=1) / math.sqrt(replicas)
        exact = impulse_response(table, x, grid).values[1:]
        assert np.all(np.abs(mean - exact) < family_bound(replicas, mean.size) * se)


class TestCurveExport:
    @pytest.fixture
    def exported(self, two_sector_table):
        curve = impulse_response(two_sector_table, [0.7, -0.2], response_grid(0.5, 0.25))
        buf = io.StringIO()
        write_curve(curve, two_sector_table.codes, buf)
        return curve, buf.getvalue().splitlines()

    def test_curve_export_layout(self, exported, two_sector_table):
        curve, lines = exported
        assert lines[0] == "t_prime,sector,value"
        assert len(lines) == 1 + len(curve.grid) * two_sector_table.n_sectors
        # one row per grid point and sector, sectors inner
        keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert [k[1] for k in keys] == list(two_sector_table.codes) * len(curve.grid)
        assert [float(k[0]) for k in keys[::2]] == list(curve.grid)

    def test_curve_export_parses_back(self, exported):
        curve, lines = exported
        values = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert np.array_equal(values, curve.values.ravel())
