"""Equilibrium, covariances, and sampling by the exact transition."""

import numpy as np
import pytest

from ioresponse import dynamics
from ioresponse.dynamics import (
    ShockProfile,
    equilibrium_output,
    simulate_batch,
    stationary_covariance,
)
from ioresponse.errors import NumericalBlowup, NumericalError, SingularSystem, UnstableDrift
from ioresponse.iodata import IOTable, NoiseSpec, leontief_solve, noise_covariance
from ioresponse.response import impulse_response, step_response
from ioresponse.rng import GaussianStream
from ioresponse.susceptibility import propagator

from conftest import exact_states, family_bound, random_economy


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

    @pytest.mark.parametrize("stack", [False, True], ids=["vector", "stack"])
    def test_leontief_solve_that_overflows_is_refused(self, stack):
        # each entry is finite; the solution's entries pass the largest double
        a = random_economy(4, seed=1).coefficients
        rhs = np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308])
        with pytest.raises(NumericalError, match="^the Leontief solve .* overflows float64$"):
            leontief_solve(a, np.stack([rhs, np.ones(4)], axis=1) if stack else rhs)

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

    def test_simulation_matches_sigma(self):
        # each replica's covariance about the known mean Y0; its 15 distinct
        # entries within the t bound of a 1e-3 family-wise rate
        table = random_economy(5, seed=4)
        nu = noise_covariance(NoiseSpec.output_proportional(0.02), table)
        sigma = stationary_covariance(table.coefficients, nu)
        y0 = equilibrium_output(table.coefficients, table.demand)
        replicas = 48
        states = simulate_batch(
            table.coefficients, table.demand, nu, ShockProfile.none(),
            dt=0.1, horizon=400.0, burn_in=50.0, seed=42, replicas=replicas,
        )
        y = states - y0
        estimates = y.transpose(0, 2, 1) @ y / states.shape[1]
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(replicas)
        upper = np.triu_indices(5)
        z = np.abs(mean - sigma)[upper] / se[upper]
        assert np.all(z < family_bound(replicas, len(z)))


class TestTransitionMoments:
    """The sampler's step map and step noise come from the block exponential
    that also gives the VAR's yearly ones."""

    @pytest.mark.parametrize("h", [0.01, 0.5])
    def test_map_and_noise_at_any_step(self, h):
        table = random_economy(5, seed=3)
        nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
        f, q, sigma = dynamics._transition_moments(table.coefficients, nu, h)
        p = propagator(table.coefficients, h)
        assert np.max(np.abs(f - p)) <= 1e-14 * np.max(np.abs(p))
        # a step's noise is what the stationary covariance loses in a step
        assert np.max(np.abs(q - (sigma - f @ sigma @ f.T))) <= 1e-13 * np.max(np.abs(q))
        np.testing.assert_allclose(sigma, stationary_covariance(table.coefficients, nu),
                                   rtol=1e-12, atol=1e-15 * np.max(np.abs(sigma)))


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
        # time-average estimator about the known mean Y0 in each of 40
        # replicas of 2,500 years; the 75 entries of three lags within the t
        # bound of a 1e-3 family-wise rate
        table = random_economy(5, seed=8)
        nu = noise_covariance(NoiseSpec.output_proportional(0.02), table)
        dt = 0.1
        replicas = 40
        taus = (0.5, 1.0, 2.0)
        states = simulate_batch(
            table.coefficients, table.demand, nu, ShockProfile.none(),
            dt=dt, horizon=2_500.0, burn_in=50.0, seed=9, replicas=replicas,
        )
        y = states - equilibrium_output(table.coefficients, table.demand)
        sigma = stationary_covariance(table.coefficients, nu)
        bound = family_bound(replicas, len(taus) * 25)
        for tau in taus:
            lag = int(round(tau / dt))
            # C(tau) = exp((A - I) tau) sigma, entry (k, j) = <y_k(t + tau) y_j(t)>
            expected = propagator(table.coefficients, tau) @ sigma
            estimates = y[:, lag:].transpose(0, 2, 1) @ y[:, :-lag] / (y.shape[1] - lag)
            mean = estimates.mean(axis=0)
            se = estimates.std(axis=0, ddof=1) / np.sqrt(replicas)
            assert np.all(np.abs(mean - expected) < bound * se)


def _path(table, nu, shock, dt, horizon, burn_in, seed=0):
    """(steps + 1, N) states of one replica."""
    return simulate_batch(
        table.coefficients, table.demand, nu, shock, dt=dt, horizon=horizon,
        burn_in=burn_in, seed=seed, replicas=1,
    )[0]


class TestSimulate:
    def test_deterministic_fixed_point(self, two_sector_table):
        # no forcing but the noise: a noiseless path never leaves Y0
        states = _path(
            two_sector_table, np.zeros((2, 2)), ShockProfile.none(),
            dt=0.01, horizon=20.0, burn_in=5.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        np.testing.assert_array_equal(states, np.tile(y0, (len(states), 1)))

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
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        with pytest.raises(NumericalBlowup):
            _path(
                two_sector_table, np.zeros((2, 2)),
                ShockProfile.step(1e13 * np.max(np.abs(y0)) * np.ones(2)),
                dt=3.0, horizon=600.0, burn_in=0.0,
            )

    def test_stable_at_any_step(self, two_sector_table):
        # a step of 3 years, past where Euler's 1 + dt (A - I) diverges
        x = np.array([1.0, 1.0])
        states = _path(
            two_sector_table, np.zeros((2, 2)), ShockProfile.step(x),
            dt=3.0, horizon=600.0, burn_in=0.0,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        target = y0 + np.linalg.solve(np.eye(2) - two_sector_table.coefficients, x)
        np.testing.assert_allclose(states[-1], target, rtol=1e-12)

    def test_impulse_injected_once(self, two_sector_table):
        x = np.array([1.0, 0.0])
        states = _path(
            two_sector_table, np.zeros((2, 2)), ShockProfile.impulse(x),
            dt=0.01, horizon=1.0, burn_in=0.5,
        )
        y0 = equilibrium_output(two_sector_table.coefficients, two_sector_table.demand)
        # the first step carries X whole; later steps only relax it
        np.testing.assert_allclose(states[1] - states[0], x, atol=1e-15 * np.max(np.abs(y0)))
        np.testing.assert_array_equal(states[0], y0)

    @pytest.mark.parametrize("dt", [0.5, 0.01])
    def test_noiseless_step_path_is_the_step_response(self, dt):
        table = random_economy(6, seed=60)
        x = np.linspace(-1.0, 1.0, 6)
        states = _path(
            table, np.zeros((6, 6)), ShockProfile.step(x), dt=dt, horizon=4.0, burn_in=1.0,
        )
        y0 = equilibrium_output(table.coefficients, table.demand)
        exact = y0 + step_response(table, x, dt * np.arange(len(states))).values
        assert np.max(np.abs(states - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("dt", [0.5, 0.01])
    def test_noiseless_impulse_path_is_the_impulse_response(self, dt):
        # the impulse enters in the step after t = 0, so record k + 1 holds
        # the response at t = k dt
        table = random_economy(6, seed=60)
        x = np.linspace(-1.0, 1.0, 6)
        states = _path(
            table, np.zeros((6, 6)), ShockProfile.impulse(x), dt=dt, horizon=4.0, burn_in=1.0,
        )
        y0 = equilibrium_output(table.coefficients, table.demand)
        exact = impulse_response(table, x, dt * np.arange(len(states) - 1)).values
        gap = np.max(np.abs(states[1:] - y0 - exact))
        assert gap <= 1e-13 * np.max(np.abs(states))

    def test_zero_step_equals_no_shock(self, two_sector_table):
        nu = 0.01 * np.eye(2)
        kwargs = dict(dt=0.01, horizon=5.0, burn_in=1.0, seed=7)
        stepped = _path(
            two_sector_table, nu, ShockProfile.step(np.zeros(2)), **kwargs
        )
        free = _path(two_sector_table, nu, ShockProfile.none(), **kwargs)
        np.testing.assert_array_equal(stepped, free)

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
    with pytest.raises(ValueError, match="shock vector must hold 2 finite values"):
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
    """The sampler draws its noise in blocks; the block size is invisible."""

    @staticmethod
    def _run(nu, shock, simulate=simulate_batch):
        table = random_economy(4, seed=3)
        return simulate(
            table.coefficients, table.demand, nu, shock, dt=0.01, horizon=2.0,
            burn_in=0.5, seed=9, replicas=3,
        )

    @pytest.mark.parametrize("chunk", [1, 7, 256, 1024, 16384])
    def test_block_size_leaves_paths_bit_identical(self, monkeypatch, chunk):
        cases = _noise_block_cases()
        reference = [self._run(nu, shock) for nu, shock in cases]
        monkeypatch.setattr(dynamics, "_NOISE_CHUNK", chunk)
        for (nu, shock), expected in zip(cases, reference):
            assert np.array_equal(self._run(nu, shock), expected)

    @pytest.mark.parametrize("case", range(3), ids=["none", "impulse", "step"])
    def test_recursion_on_deviations_matches_exact_update_on_states(self, case):
        # a wrong F, noise factor or shock forcing moves the paths by far
        # more than the rounding that separates the two arithmetics
        nu, shock = _noise_block_cases()[case]
        table = random_economy(4, seed=3)
        y0 = equilibrium_output(table.coefficients, table.demand)
        expected = self._run(nu, shock, simulate=exact_states)
        gap = np.max(np.abs(self._run(nu, shock) - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected - y0))

    def test_uniforms_stay_inside_the_unit_interval(self, monkeypatch):
        from scipy.special import ndtri

        # Generator.random gives a word's top 53 bits k as k * 2**-53; the
        # top word alone rounds to 1.0, where the inverse normal CDF is infinite
        words = np.array([0, 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)

        class Words:
            @staticmethod
            def random(shape):
                assert shape == words.shape
                return words * 2.0**-53

        stream = GaussianStream(0)
        monkeypatch.setattr(stream, "_gen", Words())
        z = stream.normals(words.shape)
        np.testing.assert_array_equal(z[:-1], ndtri((words[:-1] + 0.5) * 2.0**-53))
        assert z[-1] == ndtri(1.0 - 2.0**-53)
        assert np.all(np.isfinite(z))

    @pytest.mark.parametrize("seed", [0, 1, 11, 2**40 + 3])
    @pytest.mark.parametrize("shape", [7, (300, 2), (64, 3, 5)])
    def test_normals_match_the_integer_word_construction(self, seed, shape):
        # the reference: a 53-bit integer draw k from the same Philox words,
        # then (k + 0.5) * 2**-53, clamped below 1, through ndtri
        from scipy.special import ndtri

        ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
        gen = np.random.Generator(np.random.Philox(seed=ss))

        def integer_normals(size):
            words = gen.integers(0, 2**53, size=size, dtype=np.uint64)
            return ndtri(np.minimum((words.astype(np.float64) + 0.5) * 2.0**-53, 1.0 - 2.0**-53))

        stream = GaussianStream(seed)
        # a second draw checks that both consume one word per variate
        for size in (shape, 5):
            assert np.array_equal(stream.normals(size), integer_normals(size))

    def test_split_draws_concatenate_to_one_draw(self):
        whole = GaussianStream(11).normals((8, 3, 5))
        stream = GaussianStream(11)
        parts = np.concatenate([stream.normals((5, 3, 5)), stream.normals((3, 3, 5))])
        assert np.array_equal(parts, whole)
