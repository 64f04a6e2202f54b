"""Equilibrium, covariances, and Euler-Maruyama simulation."""

import numpy as np
import pytest

from ioresponse.dynamics import (
    ShockProfile,
    equilibrium_output,
    lagged_covariance,
    simulate_batch,
    simulate_trajectory,
    stationary_covariance,
)
from ioresponse.errors import NumericalBlowup, SingularSystem, UnstableDrift
from ioresponse.iodata import IOTable, NoiseSpec, leontief_solve, noise_covariance
from ioresponse.response import impulse_response

from conftest import random_economy


class TestEquilibrium:
    def test_identity_solve(self):
        np.testing.assert_allclose(
            equilibrium_output(np.zeros((2, 2)), [5.0, 5.0]), [5.0, 5.0]
        )

    def test_two_sector_hand_solve(self):
        y = equilibrium_output(np.array([[0.0, 0.5], [0.2, 0.0]]), [1.0, 1.0])
        np.testing.assert_allclose(y, [5.0 / 3.0, 4.0 / 3.0], rtol=1e-12)

    def test_scalar_geometric_series(self):
        np.testing.assert_allclose(equilibrium_output([[0.5]], [1.0]), [2.0])

    def test_singular_system(self):
        with pytest.raises(SingularSystem):
            equilibrium_output([[1.0]], [1.0])

    def test_from_coefficients_singular_system(self):
        with pytest.raises(SingularSystem):
            IOTable.from_coefficients("AAA", 2000, ["S1"], [[1.0]], [1.0])

    def test_leontief_solve_singular_reports_condition(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SingularSystem) as info:
            leontief_solve(a, np.ones(2))
        assert info.value.condition == np.linalg.cond(np.eye(2) - a)
        assert info.value.condition > 1e15

    def test_residual_bound(self, panel):
        for table in panel:
            y = equilibrium_output(table.coefficients, table.demand)
            system = np.eye(table.n_sectors) - table.coefficients
            residual = np.max(np.abs(system @ y - table.demand))
            assert residual < 1e-10 * np.max(np.abs(table.demand))


class TestStationaryCovariance:
    def test_scalar_lyapunov(self):
        sigma = stationary_covariance([[0.5]], [[0.04]])
        np.testing.assert_allclose(sigma, [[0.04]], rtol=1e-12)

    def test_decoupled_identity(self):
        sigma = stationary_covariance(np.zeros((3, 3)), np.eye(3))
        np.testing.assert_allclose(sigma, 0.5 * np.eye(3), rtol=1e-12)

    def test_unstable_drift(self):
        with pytest.raises(UnstableDrift):
            stationary_covariance([[1.5]], [[1.0]])

    def test_lyapunov_residual(self):
        table = random_economy(5, seed=3)
        nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
        sigma = stationary_covariance(table.coefficients, nu)
        m = table.coefficients - np.eye(5)
        residual = np.linalg.norm(m @ sigma + sigma @ m.T + nu)
        assert residual < 1e-9 * np.linalg.norm(nu)
        np.testing.assert_allclose(sigma, sigma.T)
        assert np.all(np.linalg.eigvalsh(sigma) > 0.0)

    def test_simulation_matches_sigma_within_three_se(self):
        table = random_economy(5, seed=4)
        nu = noise_covariance(NoiseSpec.output_proportional(0.02), table)
        sigma = stationary_covariance(table.coefficients, nu)
        states = simulate_batch(
            table.coefficients, table.demand, nu, ShockProfile.none(),
            dt=0.01, horizon=400.0, burn_in=50.0, seed=42, replicas=12,
        )
        estimates = []
        for r in range(states.shape[0]):
            y = states[r] - states[r].mean(axis=0, keepdims=True)
            estimates.append(y.T @ y / len(y))
        estimates = np.stack(estimates)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean - sigma) < 3.0 * se + 1e-12)


class TestLaggedCovariance:
    def test_zero_lag_is_sigma(self):
        table = random_economy(4, seed=5)
        nu = 0.01 * np.eye(4)
        sigma = stationary_covariance(table.coefficients, nu)
        np.testing.assert_array_equal(
            lagged_covariance(table.coefficients, nu, 0.0), sigma
        )

    def test_scalar_exponential_decay(self):
        # M = -1 via A = 0; choose nu so sigma = 1
        c = lagged_covariance([[0.0]], [[2.0]], 1.0)
        np.testing.assert_allclose(c, [[np.exp(-1.0)]], rtol=1e-12)

    def test_decay_to_zero(self):
        table = random_economy(3, seed=6)
        nu = 0.05 * np.eye(3)
        c = lagged_covariance(table.coefficients, nu, 200.0)
        assert np.max(np.abs(c)) < 1e-12

    def test_simulation_matches_lagged_covariance(self):
        # time-average estimator over one 10^4-year trajectory; standard
        # errors from ten batch means of 10^3 years each
        table = random_economy(5, seed=8)
        nu = noise_covariance(NoiseSpec.output_proportional(0.02), table)
        dt = 0.01
        states = simulate_batch(
            table.coefficients, table.demand, nu, ShockProfile.none(),
            dt=dt, horizon=10_000.0, burn_in=50.0, seed=9, replicas=1,
        )[0]
        batches = np.array_split(states, 10)
        for tau in (0.5, 1.0, 2.0):
            lag = int(round(tau / dt))
            expected = lagged_covariance(table.coefficients, nu, tau)
            estimates = []
            for batch in batches:
                y = batch - batch.mean(axis=0, keepdims=True)
                estimates.append(y[lag:].T @ y[: len(y) - lag] / (len(y) - lag))
            estimates = np.stack(estimates)
            mean = estimates.mean(axis=0)
            se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
            assert np.all(np.abs(mean - expected) < 3.0 * se + 1e-12)


class TestSimulate:
    def test_deterministic_fixed_point(self, two_sector_table):
        traj = simulate_trajectory(
            two_sector_table, np.zeros((2, 2)), ShockProfile.none(),
            dt=0.01, horizon=20.0, burn_in=5.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        drift = np.max(np.abs(traj.states - y0[None, :]))
        assert drift < 1e-8 * np.max(np.abs(y0))

    def test_step_shock_converges_to_perturbed_equilibrium(self, two_sector_table):
        x = np.array([1.0, 0.0])
        traj = simulate_trajectory(
            two_sector_table, np.zeros((2, 2)), ShockProfile.step(x),
            dt=0.01, horizon=80.0, burn_in=1.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        target = y0 + np.linalg.solve(np.eye(2) - two_sector_table.coefficients, x)
        np.testing.assert_allclose(traj.states[-1], target, rtol=1e-8)
        # the step is off during the burn-in, so the run begins at Y0
        np.testing.assert_allclose(traj.states[0], y0, rtol=1e-12)

    def test_identical_seed_bitwise_identical(self, two_sector_table):
        nu = 0.01 * np.eye(2)
        kwargs = dict(dt=0.01, horizon=5.0, burn_in=1.0, seed=123)
        a = simulate_trajectory(two_sector_table, nu, ShockProfile.none(), **kwargs)
        b = simulate_trajectory(two_sector_table, nu, ShockProfile.none(), **kwargs)
        assert np.array_equal(a.states, b.states)

    def test_different_seed_differs(self, two_sector_table):
        nu = 0.01 * np.eye(2)
        a = simulate_trajectory(
            two_sector_table, nu, ShockProfile.none(), dt=0.01, horizon=5.0,
            burn_in=1.0, seed=1,
        )
        b = simulate_trajectory(
            two_sector_table, nu, ShockProfile.none(), dt=0.01, horizon=5.0,
            burn_in=1.0, seed=2,
        )
        assert not np.array_equal(a.states, b.states)

    def test_blowup_detected(self, two_sector_table):
        with pytest.raises(NumericalBlowup):
            simulate_trajectory(
                two_sector_table, np.zeros((2, 2)),
                ShockProfile.step(np.array([1.0, 1.0])),
                dt=3.0, horizon=600.0, burn_in=0.0,
            )

    def test_impulse_injected_once(self, two_sector_table):
        x = np.array([1.0, 0.0])
        traj = simulate_trajectory(
            two_sector_table, np.zeros((2, 2)), ShockProfile.impulse(x),
            dt=0.01, horizon=1.0, burn_in=0.5,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        jump = traj.states[1] - traj.states[0]
        # one-step increment is X plus an O(dt) drift correction
        np.testing.assert_allclose(jump, x, atol=0.05)
        np.testing.assert_allclose(traj.states[0], y0, rtol=1e-12)

    def test_first_order_convergence_of_deterministic_part(self, two_sector_table):
        from scipy.linalg import expm

        x = np.array([1.0, 0.5])
        target = np.linalg.solve(np.eye(2) - two_sector_table.coefficients, x)
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        m = two_sector_table.coefficients - np.eye(2)
        exact = y0 + (np.eye(2) - expm(m * 4.0)) @ target

        def endpoint_error(dt):
            traj = simulate_trajectory(
                two_sector_table, np.zeros((2, 2)), ShockProfile.step(x),
                dt=dt, horizon=4.0, burn_in=0.0,
            )
            return np.max(np.abs(traj.states[-1] - exact))

        ratio = endpoint_error(0.02) / endpoint_error(0.01)
        assert 1.5 < ratio < 3.0

    def test_zero_step_equals_no_shock(self, two_sector_table):
        nu = 0.01 * np.eye(2)
        kwargs = dict(dt=0.01, horizon=5.0, burn_in=1.0, seed=7)
        stepped = simulate_trajectory(
            two_sector_table, nu, ShockProfile.step(np.zeros(2)), **kwargs
        )
        free = simulate_trajectory(two_sector_table, nu, ShockProfile.none(), **kwargs)
        np.testing.assert_array_equal(stepped.states, free.states)

    def test_noiseless_impulse_follows_analytic_response(self, two_sector_table):
        x = np.array([1.0, -0.5])
        dt = 1e-3
        traj = simulate_trajectory(
            two_sector_table, np.zeros((2, 2)), ShockProfile.impulse(x),
            dt=dt, horizon=3.0, burn_in=0.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        exact = impulse_response(two_sector_table, x, grid).values
        index = np.rint(grid[1:] / dt).astype(int)
        # Euler's first-order error on an O(1) curve
        np.testing.assert_allclose(traj.states[index] - y0, exact[1:], atol=dt)

    def test_batch_replicas_start_at_y0_and_differ(self, two_sector_table):
        states = simulate_batch(
            two_sector_table.coefficients, two_sector_table.demand,
            0.01 * np.eye(2), ShockProfile.none(), dt=0.01, horizon=2.0,
            burn_in=0.0, seed=3, replicas=3,
        )
        assert states.shape == (3, 201, 2)
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        np.testing.assert_array_equal(states[:, 0], np.tile(y0, (3, 1)))
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(states[i, 1:], states[j, 1:])


@pytest.mark.parametrize("kind", ["step", "impulse"])
def test_shock_vector_length_checked(two_sector_table, kind):
    shock = getattr(ShockProfile, kind)(np.ones(3))
    with pytest.raises(ValueError, match="length 2"):
        simulate_batch(
            two_sector_table.coefficients, two_sector_table.demand,
            np.zeros((2, 2)), shock, dt=0.01, horizon=1.0, burn_in=0.0,
            seed=0, replicas=1,
        )
