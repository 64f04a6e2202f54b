"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE n [...]: PASS`` line (run with ``-s`` or
``-rA`` to see them).  Criteria 5 and 6 reproduce published WIOD-scale
results and need the real data: point ``IORESPONSE_WIOD_DATA`` at a canonical
long-format conversion of the WIOD 2016 release (see the README recipe);
without it those tests are skipped with an explanatory message.
"""

import math
import time
from functools import wraps

import numpy as np
import pytest
from scipy.linalg import expm

from ioresponse.baselines import fit_arima, fit_var1, pearson_r
from ioresponse.backbone import disparity_filter
from ioresponse.cli import run as cli_run
from ioresponse.iodata import IOTable, NoiseSpec, load_panel, noise_covariance
from ioresponse.response import (
    benchmark_lrt_vs_baseline,
    fluctuation_panel_regression,
    implied_shock,
    lrt_forecast,
    step_response,
)
from ioresponse.rng import GaussianStream
from ioresponse.scenario import ScenarioSpec, ShockTerm, run_scenario
from ioresponse.susceptibility import (
    SimulationBudget,
    aggregate_susceptibilities,
    sector_susceptibility,
    susceptibility_analytic,
    susceptibility_monte_carlo,
    truncated_susceptibility,
)

from conftest import build_panel, green_kubo_integrals, random_economy, unshocked_deviations

EU_COUNTRIES = (
    "AUT BEL BGR CYP CZE DEU DNK ESP EST FIN FRA GBR GRC HRV HUN IRL ITA "
    "LTU LUX LVA MLT NLD POL PRT ROU SVK SVN SWE"
).split()


def criterion(num, label):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except AssertionError:
                print(f"ACCEPTANCE {num} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {num} [{label}]: PASS")
        return wrapper
    return decorate


@criterion(1, "analytic oracle suite")
def test_criterion_1_analytic_oracles():
    rng = np.random.default_rng(1001)
    economies = []
    for k in range(100):
        n = int(rng.integers(2, 11))
        economies.append(random_economy(n, seed=2000 + k, spectral_target=0.7))
    started = time.perf_counter()
    for table in economies:
        n = table.n_sectors
        eye = np.eye(n)
        inverse = np.linalg.inv(eye - table.coefficients)

        rho_inf = susceptibility_analytic(table, math.inf).values
        err = np.linalg.norm(rho_inf - inverse) / np.linalg.norm(inverse)
        assert err < 1e-10

        horizon = 2.0
        rho_t = susceptibility_analytic(table, horizon).values
        oracle = inverse @ (eye - expm((table.coefficients - eye) * horizon))
        err = np.linalg.norm(rho_t - oracle) / np.linalg.norm(oracle)
        assert err < 1e-10

        x = np.asarray(rng.normal(size=n))
        endpoint = step_response(table, x, np.array([0.0, horizon])).values[-1]
        target = rho_t @ x
        scale = max(np.max(np.abs(target)), np.finfo(float).tiny)
        assert np.max(np.abs(endpoint - target)) < 1e-12 * scale
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"oracle suite took {elapsed:.2f}s"


@criterion(2, "Monte Carlo convergence")
def test_criterion_2_monte_carlo_convergence():
    table = random_economy(5, seed=3001)
    nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
    exact = truncated_susceptibility(table.coefficients, 2.0)
    exact_norm = np.linalg.norm(exact)

    est = susceptibility_monte_carlo(table, nu, 2.0, SimulationBudget(seed=1))
    err_default = np.linalg.norm(est.values - exact) / exact_norm
    assert err_default < 0.05, f"default-budget error {err_default:.3f}"

    def replica_error(length, seed):
        budget = SimulationBudget(dt=0.01, length=length, replicas=8, seed=seed)
        integrals = green_kubo_integrals(unshocked_deviations(table, nu, budget), 200, budget.dt)
        return np.mean([np.linalg.norm(i - exact) / exact_norm for i in integrals])

    ratio = replica_error(250.0, seed=2) / replica_error(1000.0, seed=3)
    assert 1.6 < ratio < 2.6, f"error ratio {ratio:.2f} outside [1.6, 2.6]"


@criterion(3, "round-trip identity")
def test_criterion_3_round_trip_identity(panel):
    for country in panel.countries():
        years = panel.years(country)
        for t in years:
            if t + 1 not in years:
                continue
            table = panel.get(country, t)
            y_t = table.output
            y_t1 = panel.get(country, t + 1).output
            delta = y_t1 - y_t
            shock = implied_shock(table, y_t, y_t1)
            rho1 = truncated_susceptibility(table.coefficients, 1.0)
            scale = np.max(np.abs(delta))
            assert np.max(np.abs(rho1 @ shock.values - delta)) < 1e-8 * scale
            # the forecaster's intermediate one-year prediction is the data
            intermediate = y_t + rho1 @ shock.values
            assert np.max(np.abs(intermediate - y_t1)) < 1e-10 * np.max(np.abs(y_t1))
            forecast = lrt_forecast(table, y_t, y_t1)
            assert np.all(np.isfinite(forecast))


@criterion(4, "baseline correctness")
def test_criterion_4_baselines():
    # VAR(1) on a one-sector economy recovers the yearly OU autoregression
    table = IOTable.from_coefficients("AAA", 2000, ["S1"], [[0.5]], [10.0])
    nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
    model = fit_var1(table, nu, samples=10_000, seed=5)
    assert abs(model.ar[0, 0] - math.exp(-0.5)) < 3.0 * model.ar_stderr[0, 0]

    # CSS estimation recovers known ARIMA(1,1,1) coefficients
    e = GaussianStream(4001).normals(1001)
    w = np.empty(1000)
    prev = 0.0
    for k in range(1000):
        w[k] = 0.5 * prev + e[k + 1] + 0.3 * e[k]
        prev = w[k]
    series = 100.0 + np.cumsum(w)
    fitted = fit_arima(series, 1, 1, 1)
    assert abs(fitted.phi - 0.5) < 0.1
    assert abs(fitted.theta - 0.3) < 0.1

    # fixed Pearson examples are matched exactly
    assert pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert pearson_r([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    assert pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == 0.5


@criterion(5, "WIOD reproduction, hard checks")
def test_criterion_5_wiod_hard(wiod_file):
    panel = load_panel(wiod_file, clip_negative_flows=True)
    for table in panel:
        lhs = table.output
        rhs = table.coefficients @ table.output + table.demand
        scale = max(np.max(np.abs(lhs)), np.finfo(float).tiny)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale

    codes = panel.codes()
    sector_values = {}
    outputs = {}
    for table in panel:
        rho = susceptibility_analytic(table, math.inf)
        sector_values[(table.country, table.year)] = sector_susceptibility(rho)
        outputs[(table.country, table.year)] = table.output
    agg = aggregate_susceptibilities(sector_values, outputs, codes)
    ranked = sorted(
        zip(codes, agg.weighted_sector), key=lambda cv: -cv[1]
    )
    top3 = [code for code, _ in ranked[:3]]
    assert "G46" in top3, f"wholesale trade not in top 3: {ranked[:5]}"


@criterion(6, "WIOD reproduction, soft checks")
def test_criterion_6_wiod_soft(wiod_file):
    panel = load_panel(wiod_file, clip_negative_flows=True)

    reg = fluctuation_panel_regression(panel)
    assert reg.r >= 0.70, f"panel regression r = {reg.r:.3f}"
    assert abs(reg.r_size_only - 0.56) <= 0.15, (
        f"size-only control r = {reg.r_size_only:.3f}"
    )

    result = benchmark_lrt_vs_baseline(
        panel, baseline="arima", orders=(1, 1, 1),
        calibration="expanding", target="changes",
    )
    pooled = result.evaluation.pooled
    assert pooled.mean > 0.0
    assert pooled.p_value < 0.01

    spec = ScenarioSpec(
        name="metal_tariffs",
        shocks=tuple(
            ShockTerm(c, "C24", "export_to", dest="USA", fraction=-1.0)
            for c in EU_COUNTRIES
        ),
        evaluation_year=2014,
        horizon=math.inf,
        compensate=True,
    )
    scenario_result = run_scenario(spec, panel)
    pct = {
        (r.country, r.sector): r.delta_pct for r in scenario_result.impacts
    }
    for country in panel.countries():
        table = panel.get(country, 2014)
        largest = np.argsort(-table.output)[:25]
        for k in largest:
            value = pct[(country, table.codes[k])]
            assert abs(value) <= 0.5, (
                f"{country}/{table.codes[k]} impact {value:.3f}% outside band"
            )
    assert scenario_result.aggregates["DEU"] > 0.0


@criterion(7, "backbone properties")
def test_criterion_7_backbone():
    rng = np.random.default_rng(7001)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        m = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.7)
        np.fill_diagonal(m, 0.0)
        previous = None
        for p in (0.01, 0.05, 0.2, 0.5, 0.95):
            edges = {(e.source, e.target) for e in disparity_filter(m, p=p).edges}
            if previous is not None:
                assert previous <= edges
            previous = edges

    # directed fixture with hand-computed disparities
    m = np.zeros((4, 4))
    m[0, 2], m[0, 3] = 9.0, 1.0   # out-weights (9, 1): alpha 0.1 and 0.9
    m[1, 2], m[1, 3] = 5.0, 5.0   # out-weights (5, 5): alpha 0.5 and 0.5
    graph = disparity_filter(m, p=0.99, sectors=["S", "U", "T1", "T2"], mode="out")
    alpha = {(e.source, e.target): e.alpha for e in graph.edges}
    assert alpha[("S", "T1")] == (1.0 - 9.0 / 10.0) ** 1
    assert alpha[("S", "T2")] == (1.0 - 1.0 / 10.0) ** 1
    assert alpha[("U", "T1")] == 0.5
    assert alpha[("U", "T2")] == 0.5
    kept = {
        (e.source, e.target)
        for e in disparity_filter(
            m, p=0.2, sectors=["S", "U", "T1", "T2"], mode="out"
        ).edges
    }
    assert kept == {("S", "T1")}


@criterion(8, "pipeline determinism")
def test_criterion_8_determinism(panel_file, tmp_path):
    def run_benchmark(name, workers):
        out = tmp_path / name
        code = cli_run([
            "benchmark", "--data", str(panel_file), "--seed", "7",
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "manifest.txt"
        }

    first = run_benchmark("run1", 1)
    second = run_benchmark("run2", 1)
    eight = run_benchmark("run8", 8)
    assert first == second
    assert first == eight
