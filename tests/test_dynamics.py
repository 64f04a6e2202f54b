"""Equilibrium, covariances, and Euler-Maruyama simulation."""

import numpy as np
import pytest

from ioresponse import dynamics
from ioresponse.dynamics import (
    ShockProfile,
    equilibrium_output,
    simulate_batch,
    stationary_covariance,
)
from ioresponse.errors import NumericalBlowup, SingularSystem, UnstableDrift
from ioresponse.iodata import IOTable, NoiseSpec, leontief_solve, noise_covariance
from ioresponse.response import impulse_response
from ioresponse.rng import GaussianStream, _uniforms
from ioresponse.susceptibility import propagator

from conftest import euler_states, random_economy


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

    def test_marginal_drift(self):
        # exp(0) = 1: each doubling adds as much as the sum already holds
        with pytest.raises(UnstableDrift):
            stationary_covariance([[1.0]], [[1.0]])

    @pytest.mark.parametrize("target", [0.6, 0.95, 0.99])
    def test_doubling_matches_lyapunov_solve(self, target):
        from scipy.linalg import solve_continuous_lyapunov

        table = random_economy(56, seed=3, spectral_target=target)
        nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
        reference = solve_continuous_lyapunov(table.coefficients - np.eye(56), -nu)
        sigma = stationary_covariance(table.coefficients, nu)
        assert np.max(np.abs(sigma - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_variances_near_1e200_scale_out(self):
        # unscaled, the block exponential would halve a norm near 1e200 some
        # 660 times and round A - I away
        table = random_economy(5, seed=3)
        nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
        sigma = stationary_covariance(table.coefficients, nu)
        large = stationary_covariance(table.coefficients, 1e200 * nu) / 1e200
        assert np.max(np.abs(large - sigma)) <= 1e-12 * np.max(np.abs(sigma))

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
    """C(tau) = exp((A - I) tau) sigma, formed from the propagator and the
    stationary covariance."""

    def test_zero_lag_is_sigma(self):
        table = random_economy(4, seed=5)
        nu = 0.01 * np.eye(4)
        sigma = stationary_covariance(table.coefficients, nu)
        np.testing.assert_array_equal(propagator(table.coefficients, 0.0) @ sigma, sigma)

    def test_scalar_exponential_decay(self):
        # M = -1 via A = 0; choose nu so sigma = 1
        c = propagator([[0.0]], 1.0) @ stationary_covariance([[0.0]], [[2.0]])
        np.testing.assert_allclose(c, [[np.exp(-1.0)]], rtol=1e-12)

    def test_decay_to_zero(self):
        table = random_economy(3, seed=6)
        nu = 0.05 * np.eye(3)
        c = propagator(table.coefficients, 200.0) @ stationary_covariance(table.coefficients, nu)
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
        sigma = stationary_covariance(table.coefficients, nu)
        for tau in (0.5, 1.0, 2.0):
            lag = int(round(tau / dt))
            # C(tau) = exp((A - I) tau) sigma, entry (k, j) = <y_k(t + tau) y_j(t)>
            expected = propagator(table.coefficients, tau) @ sigma
            estimates = []
            for batch in batches:
                y = batch - batch.mean(axis=0, keepdims=True)
                estimates.append(y[lag:].T @ y[: len(y) - lag] / (len(y) - lag))
            estimates = np.stack(estimates)
            mean = estimates.mean(axis=0)
            se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
            assert np.all(np.abs(mean - expected) < 3.0 * se + 1e-12)


def _path(table, nu, shock, dt, horizon, burn_in, seed=0):
    """(steps + 1, N) states of one replica."""
    return simulate_batch(
        table.coefficients, table.demand, nu, shock, dt=dt, horizon=horizon,
        burn_in=burn_in, seed=seed, replicas=1,
    )[0]


class TestSimulate:
    def test_deterministic_fixed_point(self, two_sector_table):
        states = _path(
            two_sector_table, np.zeros((2, 2)), ShockProfile.none(),
            dt=0.01, horizon=20.0, burn_in=5.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        drift = np.max(np.abs(states - y0[None, :]))
        assert drift < 1e-8 * np.max(np.abs(y0))

    def test_step_shock_converges_to_perturbed_equilibrium(self, two_sector_table):
        x = np.array([1.0, 0.0])
        states = _path(
            two_sector_table, np.zeros((2, 2)), ShockProfile.step(x),
            dt=0.01, horizon=80.0, burn_in=1.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        target = y0 + np.linalg.solve(np.eye(2) - two_sector_table.coefficients, x)
        np.testing.assert_allclose(states[-1], target, rtol=1e-8)
        # the step is off during the burn-in, so the run begins at Y0
        np.testing.assert_allclose(states[0], y0, rtol=1e-12)

    def test_identical_seed_bitwise_identical(self, two_sector_table):
        nu = 0.01 * np.eye(2)
        kwargs = dict(dt=0.01, horizon=5.0, burn_in=1.0, seed=123)
        a = _path(two_sector_table, nu, ShockProfile.none(), **kwargs)
        b = _path(two_sector_table, nu, ShockProfile.none(), **kwargs)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, two_sector_table):
        nu = 0.01 * np.eye(2)
        a = _path(
            two_sector_table, nu, ShockProfile.none(), dt=0.01, horizon=5.0,
            burn_in=1.0, seed=1,
        )
        b = _path(
            two_sector_table, nu, ShockProfile.none(), dt=0.01, horizon=5.0,
            burn_in=1.0, seed=2,
        )
        assert not np.array_equal(a, b)

    def test_blowup_detected(self, two_sector_table):
        with pytest.raises(NumericalBlowup):
            _path(
                two_sector_table, np.zeros((2, 2)),
                ShockProfile.step(np.array([1.0, 1.0])),
                dt=3.0, horizon=600.0, burn_in=0.0,
            )

    def test_impulse_injected_once(self, two_sector_table):
        x = np.array([1.0, 0.0])
        states = _path(
            two_sector_table, np.zeros((2, 2)), ShockProfile.impulse(x),
            dt=0.01, horizon=1.0, burn_in=0.5,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        jump = states[1] - states[0]
        # one-step increment is X plus an O(dt) drift correction
        np.testing.assert_allclose(jump, x, atol=0.05)
        np.testing.assert_allclose(states[0], y0, rtol=1e-12)

    def test_first_order_convergence_of_deterministic_part(self, two_sector_table):
        from scipy.linalg import expm

        x = np.array([1.0, 0.5])
        target = np.linalg.solve(np.eye(2) - two_sector_table.coefficients, x)
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        m = two_sector_table.coefficients - np.eye(2)
        exact = y0 + (np.eye(2) - expm(m * 4.0)) @ target

        def endpoint_error(dt):
            states = _path(
                two_sector_table, np.zeros((2, 2)), ShockProfile.step(x),
                dt=dt, horizon=4.0, burn_in=0.0,
            )
            return np.max(np.abs(states[-1] - exact))

        ratio = endpoint_error(0.02) / endpoint_error(0.01)
        assert 1.5 < ratio < 3.0

    def test_zero_step_equals_no_shock(self, two_sector_table):
        nu = 0.01 * np.eye(2)
        kwargs = dict(dt=0.01, horizon=5.0, burn_in=1.0, seed=7)
        stepped = _path(
            two_sector_table, nu, ShockProfile.step(np.zeros(2)), **kwargs
        )
        free = _path(two_sector_table, nu, ShockProfile.none(), **kwargs)
        np.testing.assert_array_equal(stepped, free)

    def test_noiseless_impulse_follows_analytic_response(self, two_sector_table):
        x = np.array([1.0, -0.5])
        dt = 1e-3
        states = _path(
            two_sector_table, np.zeros((2, 2)), ShockProfile.impulse(x),
            dt=dt, horizon=3.0, burn_in=0.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        exact = impulse_response(two_sector_table, x, grid).values
        index = np.rint(grid[1:] / dt).astype(int)
        # Euler's first-order error on an O(1) curve
        np.testing.assert_allclose(states[index] - y0, exact[1:], atol=dt)

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


def _noise_block_cases():
    """(nu, shock) pairs: no shock with diagonal noise, an impulse with full
    noise, a step with diagonal noise."""
    factor = np.arange(16.0).reshape(4, 4) / 40.0
    return [
        (0.01 * np.diag([1.0, 2.0, 3.0, 4.0]), ShockProfile.none()),
        (factor @ factor.T, ShockProfile.impulse(np.ones(4))),
        (0.02 * np.eye(4), ShockProfile.step(np.full(4, 0.5))),
    ]


class TestNoiseBlocks:
    """The Euler loop draws its noise in blocks; the block size is invisible."""

    @staticmethod
    def _run(nu, shock, simulate=simulate_batch):
        table = random_economy(4, seed=3)
        return simulate(
            table.coefficients, table.demand, nu, shock, dt=0.01, horizon=2.0,
            burn_in=0.5, seed=9, replicas=3,
        )

    @pytest.mark.parametrize("chunk", [1, 7, 16384])
    def test_block_size_leaves_paths_bit_identical(self, monkeypatch, chunk):
        cases = _noise_block_cases()
        reference = [self._run(nu, shock) for nu, shock in cases]
        monkeypatch.setattr(dynamics, "_NOISE_CHUNK", chunk)
        for (nu, shock), expected in zip(cases, reference):
            assert np.array_equal(self._run(nu, shock), expected)

    @pytest.mark.parametrize("case", range(3), ids=["none", "impulse", "step"])
    def test_recursion_on_deviations_matches_euler_update_on_states(self, case):
        # a wrong F, residual term or shock forcing moves the paths by far
        # more than the rounding that separates the two arithmetics
        nu, shock = _noise_block_cases()[case]
        table = random_economy(4, seed=3)
        y0 = equilibrium_output(table.coefficients, table.demand)
        expected = self._run(nu, shock, simulate=euler_states)
        gap = np.max(np.abs(self._run(nu, shock) - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected - y0))

    def test_uniforms_stay_inside_the_unit_interval(self):
        from scipy.special import ndtri

        # the top word alone rounds to 1.0, where the inverse normal CDF is infinite
        words = np.array([0, 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
        u = _uniforms(words)
        np.testing.assert_array_equal(u[:-1], (words[:-1] + 0.5) * 2.0**-53)
        assert u[-1] == 1.0 - 2.0**-53
        assert np.all(np.isfinite(ndtri(u)))

    def test_split_draws_concatenate_to_one_draw(self):
        whole = GaussianStream(11).normals((8, 3, 5))
        stream = GaussianStream(11)
        parts = np.concatenate([stream.normals((5, 3, 5)), stream.normals((3, 3, 5))])
        assert np.array_equal(parts, whole)
