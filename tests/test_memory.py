"""Working memory of the Monte Carlo route, traced with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is the bytes its arrays held at once.  The shape is 4 replicas of 100 years
at dt = 0.01 (10,001 recorded states each) on a 6-sector economy after a
1-year burn-in.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ioresponse import dynamics
from ioresponse.dynamics import ShockProfile, simulate_batch
from ioresponse.iodata import NoiseSpec, noise_covariance
from ioresponse.susceptibility import SimulationBudget, susceptibility_monte_carlo

from conftest import random_economy

BUDGET = SimulationBudget(dt=0.01, length=100.0, replicas=4, burn_in=1.0, seed=2)


def traced_peak(call):
    """(result, peak traced bytes above the level at the call's start)."""
    call()  # imports and FFT plans are not the call's working memory
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


@pytest.fixture(scope="module")
def economy():
    return random_economy(6, seed=12)


@pytest.fixture(scope="module")
def nu(economy):
    return noise_covariance(NoiseSpec.output_proportional(0.01), economy)


def _simulate(economy, nu):
    return simulate_batch(
        economy.coefficients, economy.demand, nu, ShockProfile.none(),
        dt=BUDGET.dt, horizon=BUDGET.length, burn_in=BUDGET.burn_in,
        seed=BUDGET.seed, replicas=BUDGET.replicas,
    )


def test_simulation_holds_states_and_one_noise_block(economy, nu):
    states, peak = traced_peak(lambda: _simulate(economy, nu))
    assert states.shape == (4, 10001, 6)
    # beyond the states: the next noise block's integer draw and normals,
    # then its normals and their transform, a tenth of the states here;
    # half the states bounds it with room
    assert peak <= 1.5 * states.nbytes
    block = dynamics._NOISE_CHUNK * BUDGET.replicas * economy.n_sectors * 8
    assert 3 * block < 0.5 * states.nbytes


def test_green_kubo_holds_states_and_filtered_path(economy, nu):
    states = _simulate(economy, nu)
    path = states[0].nbytes
    estimate, peak = traced_peak(
        lambda: susceptibility_monte_carlo(economy, nu, 1.0, BUDGET)
    )
    assert np.all(np.isfinite(estimate.values))
    # no states are held: one noise block, one block of recorded states and
    # the FFT buffers of one filter segment, 1.1 MB here.  The bound is the
    # one set when the states were stored, kept as a ceiling.
    assert peak <= states.nbytes + 2 * path


def test_green_kubo_memory_does_not_grow_with_length(economy, nu):
    peaks = []
    for length in (100.0, 400.0):
        budget = dataclasses.replace(BUDGET, length=length)
        _, peak = traced_peak(lambda: susceptibility_monte_carlo(economy, nu, 1.0, budget))
        peaks.append(peak)
    # four times the states (5.8 MB more here) may add at most one noise block
    block = dynamics._NOISE_CHUNK * BUDGET.replicas * economy.n_sectors * 8
    assert peaks[1] - peaks[0] <= block
