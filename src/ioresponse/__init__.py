"""Linear-response analysis of input-output economies.

Library surface: table ingestion (:mod:`ioresponse.iodata`), stochastic
dynamics (:mod:`ioresponse.dynamics`), susceptibility matrices and
aggregates (:mod:`ioresponse.susceptibility`), response curves and the
implied-shock forecaster (:mod:`ioresponse.response`), econometric baselines
and evaluation (:mod:`ioresponse.baselines`), demand-shock scenarios
(:mod:`ioresponse.scenario`), and backbone extraction
(:mod:`ioresponse.backbone`).  The ``ioresponse`` console script wires these
into reproducible pipelines.
"""

from .backbone import BackboneGraph, disparity_filter, export_graph
from .baselines import (
    ArimaModel,
    ForecastEvaluation,
    VarModel,
    arima_forecast,
    benchmark_lrt_vs_baseline,
    evaluate_forecasts,
    fit_arima,
    fit_var1,
    pearson_r,
    var_forecast,
)
from .dynamics import (
    ShockProfile,
    Trajectory,
    equilibrium_output,
    lagged_covariance,
    simulate_trajectory,
    stationary_covariance,
)
from .iodata import (
    IOTable,
    NoiseSpec,
    Panel,
    leontief_solve,
    load_panel,
    noise_covariance,
    parse_io_table,
    write_io_table,
    write_panel,
)
from .response import (
    ImpliedShock,
    ResponseCurve,
    fluctuation_panel_regression,
    fluctuation_prediction,
    implied_shock,
    impulse_response,
    impulse_response_monte_carlo,
    lrt_forecast,
    recovery_time,
    response_grid,
    step_response,
)
from .scenario import (
    ScenarioResult,
    ScenarioSpec,
    ShockTerm,
    build_shock_vectors,
    parse_scenario_spec,
    run_scenario,
    scenario_impact,
    scenario_response_curves,
)
from .susceptibility import (
    SimulationBudget,
    SusceptibilityAggregates,
    SusceptibilityMatrix,
    aggregate_susceptibilities,
    propagator,
    sector_susceptibility,
    susceptibility_analytic,
    susceptibility_monte_carlo,
    truncated_susceptibility,
)

__version__ = "0.1.0"
