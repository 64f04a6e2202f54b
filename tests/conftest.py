"""Shared fixtures: toy economies, random productive economies, a
deterministic synthetic panel with export detail, the exact transition on
the states, the per-lag reference for the Monte Carlo routes and the
family-wise bound of the statistical tests.  Every test session keeps its
table cache in a directory of its own."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import stdtrit

from ioresponse import dynamics
from ioresponse.dynamics import ShockProfile, equilibrium_output, step_count
from ioresponse.iodata import IOTable, Panel, write_panel
from ioresponse.rng import GaussianStream
from ioresponse.sectors import WIOD_SECTORS
from ioresponse.susceptibility import _GreenKuboSums, truncated_susceptibility

DATA_DIR = Path(__file__).parent / "data"

_WIOD_CODES = list(WIOD_SECTORS)


def random_economy(
    n: int, seed: int, spectral_target: float = 0.6, country: str = "SYN", year: int = 2000
) -> IOTable:
    """Random productive economy with the requested spectral radius."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    radius = np.max(np.abs(np.linalg.eigvals(a)))
    a *= spectral_target / radius
    d = rng.uniform(0.5, 2.0, size=n)
    codes = [f"S{k:02d}" for k in range(n)]
    return IOTable.from_coefficients(country, year, codes, a, d)


def build_panel(
    n_countries: int = 4,
    years: tuple[int, int] = (2000, 2008),
    n_sectors: int = 5,
    seed: int = 7,
    countries: list[str] | None = None,
    codes: list[str] | None = None,
) -> Panel:
    """Complete synthetic panel with export-by-destination detail.

    Each country gets a fixed random productive A; demand follows a
    multiplicative random walk across years, outputs solve the equilibrium
    identity, and 40% of demand is spread over the other panel countries as
    export detail.
    """
    rng = np.random.default_rng(seed)
    if countries is None:
        countries = [chr(ord("A") + k) * 3 for k in range(n_countries)]
    if codes is None:
        codes = _WIOD_CODES[:n_sectors]
    n_sectors = len(codes)
    year_list = list(range(years[0], years[1] + 1))
    tables = []
    for c_idx, country in enumerate(countries):
        a = rng.uniform(0.0, 1.0, size=(n_sectors, n_sectors))
        a *= rng.uniform(0.45, 0.65) / np.max(np.abs(np.linalg.eigvals(a)))
        demand = rng.uniform(50.0, 150.0, size=n_sectors)
        others = [d for d in countries if d != country]
        share = rng.uniform(0.5, 1.5, size=(n_sectors, len(others)))
        if others:  # a lone country has no export partners to share among
            share *= 0.4 / share.sum(axis=1, keepdims=True)
        eye = np.eye(n_sectors)
        for year in year_list:
            output = np.linalg.solve(eye - a, demand)
            flows = a * output[None, :]
            final = demand[:, None] * share
            tables.append(
                IOTable.from_flows(
                    country, year, codes, flows, output,
                    final_demand=final, final_destinations=others,
                )
            )
            demand = demand * np.exp(rng.normal(0.01, 0.05, size=n_sectors))
    return Panel(tables)


def exact_states(coefficients, demand, nu, shock, dt, horizon, burn_in, seed, replicas):
    """``simulate_batch`` by the exact transition on the states,
    ``y = Y0 + F (y - Y0) + L xi`` with ``F = exp((A - I) dt)`` and
    ``L L^T = Q(dt)``, plus ``rho(dt) X`` in each step past the burn-in for
    a step shock and ``X`` after the step that ends the burn-in for an
    impulse, with the same noise drawn in one block.  ``rho(dt)`` is the
    closed form of :mod:`ioresponse.susceptibility`."""
    a = np.asarray(coefficients, dtype=float)
    d = np.asarray(demand, dtype=float)
    f, q, _ = dynamics._transition_moments(a, nu, dt)
    burn_steps = step_count(burn_in, dt)
    total_steps = burn_steps + step_count(horizon, dt)
    noise = dynamics._noise_transform(q)(
        GaussianStream(seed).normals((total_steps, replicas, len(a)))
    )
    rho = truncated_susceptibility(a, dt)
    y0 = equilibrium_output(a, d)
    y = np.tile(y0, (replicas, 1))
    records = []
    for step in range(total_steps):
        if step >= burn_steps:
            records.append(y.copy())
        y = y0 + (y - y0) @ f.T + noise[step]
        if shock.kind == "step" and step >= burn_steps:
            y += rho @ shock.vector
        if shock.kind == "impulse" and step == burn_steps:
            y += shock.vector
    records.append(y)
    return np.stack(records, axis=1)


def family_bound(replicas: int, entries: int) -> float:
    """Bound on ``|estimate - reference| / SE`` for ``entries`` replica means
    at a family-wise false-failure rate of 1e-3: the two-sided Bonferroni
    quantile of the t law with ``replicas - 1`` degrees of freedom."""
    return float(-stdtrit(replicas - 1, 1e-3 / (2 * entries)))


def unshocked_deviations(table: IOTable, nu: np.ndarray, budget) -> np.ndarray:
    """(replicas, records, N) deviations from Y0 of a Monte Carlo budget's
    unshocked run: the blocks ``susceptibility_monte_carlo`` feeds its sums."""
    _, _, blocks = dynamics._path_blocks(
        table.coefficients, table.demand, nu, ShockProfile.none(),
        dt=budget.dt, horizon=budget.length, burn_in=budget.burn_in,
        seed=budget.seed, replicas=budget.replicas,
    )
    # each block is overwritten by the next, so copy it as it comes
    return np.concatenate([block.copy() for block in blocks], axis=1)


def lag_propagators(states: np.ndarray, n_lags: int) -> np.ndarray:
    """Per replica and lag, ``C_hat(k dt) sigma_hat^{-1}`` for k = 0..n_lags,
    one N x N covariance and solve per lag: (replicas, n_lags + 1, N, N).

    The mean and the covariances are summed in ``np.longdouble``, and each
    float64 solve is refined twice against them, so the result carries the
    rounding of its last step, not of thousands of float64 sums.  (Where
    ``longdouble`` is float64, as on some platforms, it is a plain float64
    computation.)
    """
    out = []
    for y in states:
        y = y.astype(np.longdouble)
        y -= y.mean(axis=0)
        n = len(y)
        # C_hat(k dt)^T = y[:n-k]^T y[k:] / (n - k); sigma_hat = C_hat(0)
        cov_t = np.stack([y[:n - k].T @ y[k:] / (n - k) for k in range(n_lags + 1)])
        sigma = cov_t[0]
        # sigma P_k^T = C_hat(k dt)^T: a plain solve, then two refinement steps
        solution = np.zeros_like(cov_t)
        for _ in range(3):
            residual = (cov_t - sigma @ solution).astype(float)
            solution += np.linalg.solve(sigma.astype(float), residual)
        out.append(solution.transpose(0, 2, 1).astype(float))
    return np.stack(out)


def green_kubo_integrals(deviations: np.ndarray, n_lags: int, dt: float) -> np.ndarray:
    """(replicas, N, N) Green-Kubo integrals of the deviations, by the FFT
    filter that ``susceptibility_monte_carlo`` feeds while it simulates."""
    replicas, records, n = deviations.shape
    sums = _GreenKuboSums(n, records, n_lags, dt, replicas)
    sums.add(deviations)
    return sums.integrals()


@pytest.fixture(scope="session", autouse=True)
def session_table_cache(tmp_path_factory):
    """Point the table cache at a directory of this session, for loads in
    process and in command-line subprocesses alike (they inherit
    ``os.environ``), so no test reads or writes the user's cache."""
    previous = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if previous is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = previous


@pytest.fixture(scope="session")
def two_sector_table() -> IOTable:
    return IOTable.from_flows(
        "AAA", 2014, ["S1", "S2"],
        np.array([[0.0, 1.0], [0.4, 0.0]]), np.array([2.0, 2.0]),
    )


@pytest.fixture(scope="session")
def panel() -> Panel:
    return build_panel()


@pytest.fixture(scope="session")
def panel_file(panel, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_panel(panel, fh)
    return path


@pytest.fixture(scope="session")
def two_sector_file() -> Path:
    return DATA_DIR / "two_sector.csv"


@pytest.fixture(scope="session")
def wiod_file() -> Path:
    """Canonical WIOD data file, or skip when unavailable."""
    path = os.environ.get("IORESPONSE_WIOD_DATA")
    if not path or not Path(path).exists():
        pytest.skip(
            "WIOD data not available; set IORESPONSE_WIOD_DATA to the "
            "canonical long-format file (see README for the recipe)"
        )
    return Path(path)
