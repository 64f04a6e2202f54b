"""The package's public names, resolved on first use."""

import importlib

import pytest

import ioresponse

#: The exported names, as ``from ioresponse import *`` binds them.
PUBLIC = [
    "ArimaModel", "BackboneGraph", "ForecastEvaluation", "IOTable", "ImpliedShock", "NoiseSpec",
    "Panel", "ResponseCurve", "ScenarioResult", "ScenarioSpec", "ShockProfile", "ShockTerm",
    "SimulationBudget", "SusceptibilityAggregates", "VarModel",
    "aggregate_susceptibilities", "applied_susceptibility", "arima_forecast",
    "benchmark_lrt_vs_baseline", "build_shock_vectors", "disparity_filter", "equilibrium_output",
    "evaluate_forecasts", "export_graph", "fit_arima", "fit_var1", "fluctuation_panel_regression",
    "fluctuation_prediction", "implied_shock", "impulse_response", "leontief_solve", "load_panel",
    "lrt_forecast", "noise_covariance", "parse_scenario_spec", "pearson_r", "propagator",
    "recovery_time", "response_grid", "run_scenario", "scenario_impact",
    "scenario_response_curves", "sector_susceptibility", "stationary_covariance",
    "step_response", "susceptibility_analytic", "susceptibility_monte_carlo",
    "truncated_susceptibility", "var_forecast", "write_panel",
]
SUBMODULES = ["backbone", "baselines", "dynamics", "errors", "iodata", "response", "rng",
              "scenario", "sectors", "settings", "susceptibility"]


def test_all_is_pinned():
    assert len(PUBLIC) == 50
    assert sorted(ioresponse.__all__) == PUBLIC


def test_star_import_binds_every_name_to_its_module_object():
    scope = {}
    exec("from ioresponse import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == PUBLIC
    for name in PUBLIC:
        home = importlib.import_module(scope[name].__module__)
        assert getattr(home, name) is scope[name], name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_are_attributes(name):
    assert getattr(ioresponse, name) is importlib.import_module(f"ioresponse.{name}")


def test_dir_lists_every_export_and_submodule():
    assert set(PUBLIC + SUBMODULES) <= set(dir(ioresponse))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ioresponse.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from ioresponse import nope", {})
