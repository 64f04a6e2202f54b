"""Analytic and Monte Carlo susceptibility matrices and aggregates."""

import io
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from ioresponse.dynamics import equilibrium_output, stationary_covariance
from ioresponse.errors import InsufficientSamples, MissingPanelCell, NumericalError
from ioresponse.iodata import IOTable, NoiseSpec, leontief_solve, noise_covariance
from ioresponse.susceptibility import expm as package_expm
from ioresponse.susceptibility import (
    SimulationBudget,
    _fast_len,
    _GreenKuboSums,
    aggregate_susceptibilities,
    applied_susceptibility,
    lag_count,
    propagator,
    sector_susceptibility,
    susceptibility_analytic,
    susceptibility_monte_carlo,
    truncated_susceptibility,
    write_aggregates,
    write_matrix,
)

from conftest import green_kubo_integrals, lag_propagators, random_economy, unshocked_deviations


class TestAnalytic:
    def test_decoupled_sectors_scalar_integral(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1", "S2"], np.zeros((2, 2)), [1.0, 1.0])
        rho = susceptibility_analytic(table, 1.0)
        np.testing.assert_allclose(rho, (1.0 - np.exp(-1.0)) * np.eye(2), rtol=1e-12)

    def test_scalar_leontief_inverse(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1"], [[0.5]], [1.0])
        rho = susceptibility_analytic(table, math.inf)
        np.testing.assert_allclose(rho, [[2.0]], rtol=1e-12)

    def test_scalar_truncated_closed_form(self):
        table = IOTable.from_coefficients("AAA", 2000, ["S1"], [[0.5]], [1.0])
        rho = susceptibility_analytic(table, 1.0)
        np.testing.assert_allclose(
            rho, [[2.0 * (1.0 - np.exp(-0.5))]], rtol=1e-12
        )

    def test_infinite_horizon_equals_leontief_inverse(self):
        for seed in range(10):
            table = random_economy(4, seed=seed)
            rho = susceptibility_analytic(table, math.inf)
            inverse = np.linalg.inv(np.eye(4) - table.coefficients)
            err = np.linalg.norm(rho - inverse) / np.linalg.norm(inverse)
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
            err = np.linalg.norm(rho - oracle) / np.linalg.norm(oracle)
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
        assert np.array_equal(a, b)

    def test_invalid_horizon(self, two_sector_table):
        for horizon in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                susceptibility_analytic(two_sector_table, horizon)


class TestAppliedSusceptibility:
    """``rho(T) x`` for a vector or matrix x, the one home of the horizon rule."""

    @pytest.mark.parametrize("n", [2, 6, 28])
    @pytest.mark.parametrize("horizon", [0.01, 1.0, 3.7, 80.0, math.inf])
    def test_identity_gives_rho_bitwise(self, n, horizon):
        a = random_economy(n, seed=n).coefficients
        eye = np.eye(n)
        direct = leontief_solve(a, eye if horizon == math.inf else eye - propagator(a, horizon))
        np.testing.assert_array_equal(truncated_susceptibility(a, horizon), direct)

    @pytest.mark.parametrize("horizon", [0.5, 2.0, math.inf])
    def test_equals_rho_times_x(self, horizon):
        a = random_economy(6, seed=9).coefficients
        x = np.random.default_rng(9).normal(size=(6, 3))
        rho = truncated_susceptibility(a, horizon)
        for shock in (x, x[:, 0]):
            got = applied_susceptibility(a, horizon, shock)
            assert got.shape == shock.shape
            np.testing.assert_allclose(got, rho @ shock, rtol=0, atol=1e-13 * np.abs(got).max())

    @pytest.mark.parametrize("horizon", [0.0, -1.0, -math.inf, math.nan])
    def test_invalid_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be > 0"):
            applied_susceptibility(np.zeros((2, 2)), horizon, np.ones(2))


class TestExpm:
    """The package's numpy exponential against ``scipy.linalg.expm``."""

    @staticmethod
    def _gap(m):
        """Largest entry difference over the largest entry; no warning allowed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = package_expm(m)
        assert np.all(np.isfinite(got))
        oracle = expm(m)
        return np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))

    @pytest.mark.parametrize("t", [1e-3, 0.01, 1.0, 10.0, 80.0])
    @pytest.mark.parametrize("radius", [0.6, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 56])
    def test_drift_matrices(self, n, radius, t):
        a = random_economy(n, seed=200 + n, spectral_target=radius).coefficients
        assert self._gap((a - np.eye(n)) * t) <= 1e-12

    def test_long_horizon_stays_finite(self):
        # mu ~ -1000: exp(mu) alone underflows, exp(mu / 2^s) does not
        a = random_economy(56, seed=256, spectral_target=0.95).coefficients
        assert self._gap((a - np.eye(56)) * 1000.0) <= 1e-10

    @pytest.mark.parametrize("norm", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
    def test_unstructured_matrices(self, norm):
        # the exponential's relative condition number is at least ||G||; the
        # largest gap on these draws, 2.4e-12 at norm 20 on a 2 x 2 matrix, is
        # the oracle's own error against a 40-digit evaluation
        rng = np.random.default_rng(int(10 * norm))
        for n in (2, 5, 12, 30):
            for _ in range(20):
                g = rng.standard_normal((n, n))
                g *= norm / np.linalg.norm(g, 1)
                assert self._gap(g) <= 1e-12 * max(1.0, norm)

    def test_closed_forms(self):
        # 2 x 2 generators with known exponentials, no oracle: a few unit
        # roundoffs through at most three squarings, while a polynomial
        # of degree 15 in place of 18 is off by 8e-13 near the norm bound
        for x in np.linspace(0.05, 8.0, 160):
            ex, c, s, ch, sh = np.exp(-x), np.cos(x), np.sin(x), np.cosh(x), np.sinh(x)
            for g, want in (([[0.0, x], [x, 0.0]], [[ch, sh], [sh, ch]]),
                            ([[0.0, -x], [x, 0.0]], [[c, -s], [s, c]]),
                            ([[-x, x], [0.0, -x]], [[ex, x * ex], [0.0, ex]])):
                got = package_expm(np.array(g))
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (x, g)

    @pytest.mark.parametrize("n", [1, 3, 56])
    def test_scalar_matrix_is_exact(self, n):
        eye = np.eye(n)
        np.testing.assert_array_equal(package_expm(np.zeros((n, n))), eye)
        for c in (-1000.0, -7.77, -1.0, -0.1, 1e-9, 0.3, 2.5):
            np.testing.assert_array_equal(package_expm(c * eye), np.exp(c) * eye)

    def test_input_is_left_alone(self):
        m = random_economy(8, seed=208).coefficients - np.eye(8)
        before = m.copy()
        package_expm(m)
        np.testing.assert_array_equal(m, before)


@pytest.fixture(scope="module")
def economy():
    return random_economy(5, seed=30)


@pytest.fixture(scope="module")
def nu(economy):
    return noise_covariance(NoiseSpec.output_proportional(0.01), economy)


class TestMonteCarlo:

    def test_matches_analytic_within_five_percent(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=1200.0, replicas=6, seed=1)
        est, standard_errors = susceptibility_monte_carlo(economy, nu, 2.0, budget)
        exact = truncated_susceptibility(economy.coefficients, 2.0)
        err = np.linalg.norm(est - exact) / np.linalg.norm(exact)
        assert err < 0.05
        assert standard_errors is not None
        assert standard_errors.shape == exact.shape

    def test_noise_scale_invariance(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=100.0, replicas=4, seed=2)
        a, _ = susceptibility_monte_carlo(economy, nu, 1.0, budget)
        b, _ = susceptibility_monte_carlo(economy, 100.0 * nu, 1.0, budget)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_noise_that_moves_no_output_is_refused(self, economy):
        # the deviations from Y0 could carry it, the outputs Y0 + x cannot
        y0 = equilibrium_output(economy.coefficients, economy.demand)
        budget = SimulationBudget(dt=0.01, length=5.0, replicas=2, burn_in=1.0)
        with pytest.raises(NumericalError, match="float64 resolution"):
            susceptibility_monte_carlo(economy, np.diag((1e-150 * y0) ** 2), 1.0, budget)

    def test_short_horizon_scales_like_identity(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=100.0, replicas=4, seed=3)
        est, _ = susceptibility_monte_carlo(economy, nu, budget.dt, budget)
        # rho(T) ~ T * I for T -> 0
        scaled = est / budget.dt
        assert np.linalg.norm(scaled - np.eye(5)) < 0.5

    # the estimate, and the budget check the command line runs before it
    # reads any data: both must turn the same budgets away
    @pytest.fixture(params=["susceptibility", "budget_check"])
    def route(self, request):
        if request.param == "susceptibility":
            return susceptibility_monte_carlo
        return lambda table, nu, horizon, budget=SimulationBudget(): lag_count(horizon, budget)

    def test_standard_errors_need_replicas(self, economy, nu, route):
        budget = SimulationBudget(dt=0.01, length=50.0, replicas=1, seed=4)
        with pytest.raises(InsufficientSamples):
            route(economy, nu, 1.0, budget)

    def test_infinite_horizon_rejected(self, economy, nu, route):
        with pytest.raises(ValueError):
            route(economy, nu, math.inf)

    def test_horizon_beyond_recorded_path_is_insufficient(self, economy, nu, route):
        # 2 years at dt = 0.01 record 201 states; 500 lags cannot be formed
        budget = SimulationBudget(dt=0.01, length=2.0, replicas=2, burn_in=1.0, seed=5)
        with pytest.raises(InsufficientSamples):
            route(economy, nu, 5.0, budget)

    def test_horizon_equal_to_path_length_is_the_last_usable_lag(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=2.0, replicas=2, burn_in=1.0, seed=5)
        n_lags = lag_count(2.0, budget)
        assert n_lags == 200
        deviations = unshocked_deviations(economy, nu, budget)
        assert lag_propagators(deviations, n_lags).shape == (2, 201, 5, 5)
        assert np.all(np.isfinite(green_kubo_integrals(deviations, n_lags, budget.dt)))
        with pytest.raises(InsufficientSamples):
            lag_count(2.01, budget)


class TestGreenKuboIntegral:
    """The FFT lag filter against the per-lag trapezoid it replaces."""

    @staticmethod
    def assert_trapezoid_of_propagators(economy, nu, horizon, budget):
        n_lags = lag_count(horizon, budget)
        deviations = unshocked_deviations(economy, nu, budget)
        propagators = lag_propagators(deviations, n_lags)
        assert propagators.shape[1] == int(round(horizon / budget.dt)) + 1
        integrals = green_kubo_integrals(deviations, n_lags, budget.dt)
        for prop, integral in zip(propagators, integrals):
            reference = budget.dt * (
                0.5 * (prop[0] + prop[-1]) + prop[1:-1].sum(axis=0)
            )
            err = np.linalg.norm(integral - reference) / np.linalg.norm(reference)
            assert err < 1e-12

    @pytest.mark.parametrize("horizon", [0.01, 1.5])  # n_lags = 1 and 150
    def test_filtered_integral_equals_trapezoid_of_propagators(self, economy, nu, horizon):
        budget = SimulationBudget(dt=0.01, length=60.0, replicas=3, burn_in=5.0, seed=6)
        self.assert_trapezoid_of_propagators(economy, nu, horizon, budget)

    def test_estimate_is_replica_mean_of_propagator_integrals(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=60.0, replicas=3, burn_in=5.0, seed=7)
        est, _ = susceptibility_monte_carlo(economy, nu, 1.0, budget)
        integrals = green_kubo_integrals(unshocked_deviations(economy, nu, budget), 100, budget.dt)
        assert np.array_equal(est, integrals.mean(axis=0))

    # a path inside one FFT segment; more lags than a segment holds states
    @pytest.mark.parametrize("length, horizon", [(5.0, 1.0), (30.0, 12.0)])
    def test_segment_edges_match_trapezoid_of_propagators(self, economy, nu, length, horizon):
        budget = SimulationBudget(dt=0.01, length=length, replicas=2, burn_in=5.0, seed=8)
        self.assert_trapezoid_of_propagators(economy, nu, horizon, budget)

    def test_fft_lengths_are_scipys(self):
        from scipy.fft import next_fast_len

        assert all(_fast_len(n) == next_fast_len(n, real=True) for n in range(1, 20_001))

    def test_sums_do_not_depend_on_how_states_are_fed(self, economy, nu):
        budget = SimulationBudget(dt=0.01, length=30.0, replicas=2, burn_in=5.0, seed=9)
        deviations = unshocked_deviations(economy, nu, budget)
        results = []
        for width in (1, 7, 1024, deviations.shape[1]):
            sums = _GreenKuboSums(5, deviations.shape[1], 150, 0.01, 2)
            for start in range(0, deviations.shape[1], width):
                sums.add(deviations[:, start:start + width])
            results.append(sums.integrals())
        assert all(np.array_equal(results[0], r) for r in results[1:])

    def test_centering_holds_when_the_mean_is_far_from_the_origin(self, economy, nu):
        # measured from Y0 + sd the deviations have a mean of about -sd, so
        # the centering removes as much as the fluctuations it keeps
        budget = SimulationBudget(dt=0.01, length=30.0, replicas=2, burn_in=5.0, seed=11)
        deviations = unshocked_deviations(economy, nu, budget)
        sd = np.sqrt(np.diag(stationary_covariance(economy.coefficients, nu)))
        results = []
        for offset in (0.0, sd):
            sums = _GreenKuboSums(5, deviations.shape[1], 150, 0.01, 2)
            sums.add(deviations - offset)
            results.append(sums.integrals())
        gap = np.max(np.abs(results[1] - results[0])) / np.max(np.abs(results[0]))
        assert gap < 1e-12


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

    @pytest.mark.parametrize("k", [-700, -300, 300, 700])
    def test_power_of_two_output_scale_moves_no_bit(self, k):
        # unscaled, the squared weight sums leave float64 from |k| near 512
        rng = np.random.default_rng(5)
        cells = {(c, y): rng.uniform(0.0, 1.0, 3) for c in "ABC" for y in (2000, 2001)}
        outs = {key: rng.uniform(1.0, 5.0, 3) for key in cells}
        agg = aggregate_susceptibilities(cells, outs, ["S1", "S2", "S3"])
        scaled = aggregate_susceptibilities(
            cells, {key: w * 2.0**k for key, w in outs.items()}, ["S1", "S2", "S3"]
        )
        for field in ("weighted_sector", "ci_low", "ci_high"):
            assert np.array_equal(getattr(scaled, field), getattr(agg, field))

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
        write_matrix(rho, two_sector_table.codes, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "row_sector,col_sector,value"
        assert len(lines) == 1 + 4
        row = lines[1].split(",")
        assert float(row[2]) == rho[0, 0]

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
