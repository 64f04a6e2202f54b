"""Analytic and Monte Carlo susceptibility matrices and aggregates."""

import io
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ioresponse.errors import InsufficientSamples, MissingPanelCell
from ioresponse.iodata import IOTable, NoiseSpec, noise_covariance
from ioresponse.response import impulse_response_monte_carlo
from ioresponse.susceptibility import (
    SimulationBudget,
    aggregate_susceptibilities,
    monte_carlo_propagator,
    sector_susceptibility,
    susceptibility_analytic,
    susceptibility_monte_carlo,
    truncated_susceptibility,
    write_aggregates,
    write_matrix,
)

from conftest import random_economy


class TestAnalytic:
    def test_decoupled_sectors_scalar_integral(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1", "S2"], np.zeros((2, 2)), [1.0, 1.0])
        rho = susceptibility_analytic(table, 1.0)
        np.testing.assert_allclose(rho.values, (1.0 - np.exp(-1.0)) * np.eye(2), rtol=1e-12)

    def test_scalar_leontief_inverse(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1"], [[0.5]], [1.0])
        rho = susceptibility_analytic(table, math.inf)
        np.testing.assert_allclose(rho.values, [[2.0]], rtol=1e-12)

    def test_scalar_truncated_closed_form(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1"], [[0.5]], [1.0])
        rho = susceptibility_analytic(table, 1.0)
        np.testing.assert_allclose(
            rho.values, [[2.0 * (1.0 - np.exp(-0.5))]], rtol=1e-12
        )

    def test_infinite_horizon_equals_leontief_inverse(self):
        for seed in range(10):
            table = random_economy(4, seed=seed)
            rho = susceptibility_analytic(table, math.inf)
            inverse = np.linalg.inv(np.eye(4) - table.coefficients)
            err = np.linalg.norm(rho.values - inverse) / np.linalg.norm(inverse)
            assert err < 1e-10

    def test_truncated_formula_against_independent_evaluation(self):
        for seed in range(10):
            table = random_economy(5, seed=100 + seed)
            t_h = 2.0
            rho = susceptibility_analytic(table, t_h)
            eye = np.eye(5)
            oracle = np.linalg.inv(eye - table.coefficients) @ (
                eye - expm((table.coefficients - eye) * t_h)
            )
            err = np.linalg.norm(rho.values - oracle) / np.linalg.norm(oracle)
            assert err < 1e-10

    def test_monotone_saturation_of_diagonal(self):
        table = random_economy(5, seed=20)
        limit = np.linalg.inv(np.eye(5) - table.coefficients)
        prev = None
        for t_h in (0.5, 1.0, 2.0, 5.0, 20.0):
            diag = np.diag(truncated_susceptibility(table.coefficients, t_h))
            assert np.all(diag <= np.diag(limit) + 1e-12)
            if prev is not None:
                assert np.all(diag > prev)
            prev = diag

    def test_analytic_path_is_noise_independent(self, two_sector_table):
        # the closed form never sees nu; identical inputs give identical bits
        a = susceptibility_analytic(two_sector_table, 2.0)
        b = susceptibility_analytic(two_sector_table, 2.0)
        assert np.array_equal(a.values, b.values)

    def test_invalid_horizon(self, two_sector_table):
        for horizon in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                susceptibility_analytic(two_sector_table, horizon)


@pytest.fixture(scope="module")
def economy():
    return random_economy(5, seed=30)


@pytest.fixture(scope="module")
def nu(economy):
    return noise_covariance(NoiseSpec.output_proportional(0.01), economy)


class TestMonteCarlo:

    def test_matches_analytic_within_five_percent(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=1200.0, replicas=6, seed=1)
        est = susceptibility_monte_carlo(economy, nu, 2.0, budget)
        exact = truncated_susceptibility(economy.coefficients, 2.0)
        err = np.linalg.norm(est.values - exact) / np.linalg.norm(exact)
        assert err < 0.05
        assert est.standard_errors is not None
        assert est.standard_errors.shape == exact.shape

    def test_noise_scale_invariance(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=100.0, replicas=4, seed=2)
        a = susceptibility_monte_carlo(economy, nu, 1.0, budget)
        b = susceptibility_monte_carlo(economy, 100.0 * nu, 1.0, budget)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-9)

    def test_short_horizon_scales_like_identity(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=100.0, replicas=4, seed=3)
        est = susceptibility_monte_carlo(economy, nu, budget.dt, budget)
        # rho(T) ~ T * I for T -> 0
        scaled = est.values / budget.dt
        assert np.linalg.norm(scaled - np.eye(5)) < 0.5

    def test_standard_errors_need_replicas(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=50.0, replicas=1, seed=4)
        with pytest.raises(InsufficientSamples):
            susceptibility_monte_carlo(economy, nu, 1.0, budget)

    def test_infinite_horizon_rejected(self, economy, nu):
        with pytest.raises(ValueError):
            susceptibility_monte_carlo(economy, nu, math.inf)

    @pytest.mark.parametrize("route", [
        susceptibility_monte_carlo,
        monte_carlo_propagator,
        lambda table, nu, horizon, budget: impulse_response_monte_carlo(
            table, np.ones(table.n_sectors), nu, horizon, budget
        ),
    ], ids=["susceptibility", "propagator", "impulse_curve"])
    def test_horizon_beyond_recorded_path_is_insufficient(self, economy, nu, route):
        # 2 years at dt = 0.01 record 201 states; 500 lags cannot be formed
        budget = SimulationBudget(dt=0.01, length=2.0, replicas=2, burn_in=1.0, seed=5)
        with pytest.raises(InsufficientSamples):
            route(economy, nu, 5.0, budget)

    def test_horizon_equal_to_path_length_is_the_last_usable_lag(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=2.0, replicas=2, burn_in=1.0, seed=5)
        lags, propagators, integrals = monte_carlo_propagator(economy, nu, 2.0, budget)
        assert len(lags) == 201
        assert propagators[0].shape == (201, 5, 5)
        assert all(np.all(np.isfinite(i)) for i in integrals)
        with pytest.raises(InsufficientSamples):
            monte_carlo_propagator(economy, nu, 2.01, budget)


class TestGreenKuboIntegral:
    """The FFT lag filter against the per-lag trapezoid it replaces."""

    @pytest.mark.parametrize("horizon", [0.01, 1.5])  # n_lags = 1 and 150
    def test_filtered_integral_equals_trapezoid_of_propagators(self, economy, nu, horizon):
        budget = SimulationBudget(dt=0.01, length=60.0, replicas=3, burn_in=5.0, seed=6)
        lags, propagators, integrals = monte_carlo_propagator(economy, nu, horizon, budget)
        assert len(lags) == int(round(horizon / budget.dt)) + 1
        for prop, integral in zip(propagators, integrals):
            reference = budget.dt * (
                0.5 * (prop[0] + prop[-1]) + prop[1:-1].sum(axis=0)
            )
            err = np.linalg.norm(integral - reference) / np.linalg.norm(reference)
            assert err < 1e-12

    def test_estimate_is_replica_mean_of_propagator_integrals(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=60.0, replicas=3, burn_in=5.0, seed=7)
        est = susceptibility_monte_carlo(economy, nu, 1.0, budget)
        _, _, integrals = monte_carlo_propagator(economy, nu, 1.0, budget)
        assert np.array_equal(est.values, np.stack(integrals).mean(axis=0))


class TestSectorSusceptibility:
    def test_identity_matrix(self):
        np.testing.assert_array_equal(sector_susceptibility(np.eye(3)), [1.0, 1.0, 1.0])

    def test_direct_sum(self):
        np.testing.assert_array_equal(
            sector_susceptibility(np.array([[1.0, 2.0], [3.0, 4.0]])), [3.0, 7.0]
        )

    def test_source_convention(self):
        np.testing.assert_array_equal(
            sector_susceptibility(np.array([[1.0, 2.0], [3.0, 4.0]]), convention="source"),
            [4.0, 6.0],
        )


class TestAggregates:
    def test_single_cell_plain_mean(self):
        agg = aggregate_susceptibilities(
            {("AAA", 2000): np.array([0.1, 0.3])},
            {("AAA", 2000): np.array([1.0, 1.0])},
            ["S1", "S2"],
        )
        assert agg.country_average["AAA"] == pytest.approx(0.2)

    def test_equal_weights_symmetry(self):
        agg = aggregate_susceptibilities(
            {("AAA", 2000): np.array([0.1]), ("BBB", 2000): np.array([0.3])},
            {("AAA", 2000): np.array([5.0]), ("BBB", 2000): np.array([5.0])},
            ["S1"],
        )
        assert agg.weighted_sector[0] == pytest.approx(0.2)

    def test_hand_weighted_mean(self):
        agg = aggregate_susceptibilities(
            {("AAA", 2000): np.array([0.1]), ("BBB", 2000): np.array([0.3])},
            {("AAA", 2000): np.array([1.0]), ("BBB", 2000): np.array([3.0])},
            ["S1"],
        )
        assert agg.weighted_sector[0] == pytest.approx(0.25)

    def test_interval_contains_estimate(self):
        rng = np.random.default_rng(0)
        cells = {(c, y): rng.uniform(0.0, 1.0, 3) for c in "ABC" for y in (2000, 2001)}
        outs = {key: rng.uniform(1.0, 5.0, 3) for key in cells}
        agg = aggregate_susceptibilities(cells, outs, ["S1", "S2", "S3"])
        assert np.all(agg.ci_low <= agg.weighted_sector)
        assert np.all(agg.weighted_sector <= agg.ci_high)

    def test_missing_cell_listed(self):
        with pytest.raises(MissingPanelCell) as err:
            aggregate_susceptibilities(
                {("AAA", 2000): np.array([0.1]), ("BBB", 2001): np.array([0.2])},
                {("AAA", 2000): np.array([1.0]), ("BBB", 2001): np.array([2.0])},
                ["S1"],
            )
        assert err.value.cells == [("AAA", 2001), ("BBB", 2000)]


class TestExports:
    def test_matrix_export_parses_back(self, two_sector_table):
        rho = susceptibility_analytic(two_sector_table, math.inf)
        buf = io.StringIO()
        write_matrix(rho, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "row_sector,col_sector,value"
        assert len(lines) == 1 + 4
        row = lines[1].split(",")
        assert float(row[2]) == rho.values[0, 0]

    def test_aggregate_export_layout(self):
        agg = aggregate_susceptibilities(
            {("AAA", 2000): np.array([0.1, 0.3])},
            {("AAA", 2000): np.array([1.0, 1.0])},
            ["S1", "S2"],
        )
        buf = io.StringIO()
        write_aggregates(agg, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "sector,rho,ci_low,ci_high"
        assert len(lines) == 3
