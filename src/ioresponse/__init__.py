"""Linear-response analysis of input-output economies.

Library surface: table ingestion (:mod:`ioresponse.iodata`), stochastic
dynamics (:mod:`ioresponse.dynamics`), susceptibility matrices and
aggregates (:mod:`ioresponse.susceptibility`), response curves and the
implied-shock forecaster with its benchmark against the baselines
(:mod:`ioresponse.response`), econometric baselines and evaluation
(:mod:`ioresponse.baselines`), demand-shock scenarios
(:mod:`ioresponse.scenario`), backbone extraction
(:mod:`ioresponse.backbone`), and the numpy-free defaults and setting
readers (:mod:`ioresponse.settings`).  The ``ioresponse`` console script
wires these into reproducible pipelines.

The exports are lazy (PEP 562): importing the package loads no numpy, and
each name in ``__all__`` (and each submodule) is imported on first use, so
the console script starts on the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the names it exports here
_EXPORTS = {
    "backbone": ("BackboneGraph", "disparity_filter", "export_graph"),
    "baselines": (
        "ArimaModel",
        "ForecastEvaluation",
        "VarModel",
        "arima_forecast",
        "evaluate_forecasts",
        "fit_arima",
        "fit_var1",
        "pearson_r",
        "var_forecast",
    ),
    "dynamics": ("ShockProfile", "equilibrium_output", "stationary_covariance"),
    "iodata": ("IOTable", "Panel", "leontief_solve", "load_panel", "noise_covariance",
               "write_panel"),
    "response": (
        "ImpliedShock",
        "ResponseCurve",
        "benchmark_lrt_vs_baseline",
        "fluctuation_panel_regression",
        "fluctuation_prediction",
        "implied_shock",
        "impulse_response",
        "lrt_forecast",
        "recovery_time",
        "response_grid",
        "step_response",
    ),
    "scenario": (
        "ScenarioResult",
        "ScenarioSpec",
        "ShockTerm",
        "build_shock_vectors",
        "parse_scenario_spec",
        "run_scenario",
        "scenario_impact",
        "scenario_response_curves",
    ),
    "settings": ("NoiseSpec", "SimulationBudget"),
    "susceptibility": (
        "SusceptibilityAggregates",
        "aggregate_susceptibilities",
        "applied_susceptibility",
        "propagator",
        "sector_susceptibility",
        "susceptibility_analytic",
        "susceptibility_monte_carlo",
        "truncated_susceptibility",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "errors", "rng", "sectors"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
