"""The library's input boundary.

Every function that ``ioresponse`` exports and that takes a vector or a
series refuses one that does not hold N finite values (a 1-d series: any
number of them) with a :class:`ValueError` naming the argument, and an
empty series with a :class:`ValueError` or
:class:`~ioresponse.errors.TooShortSeries`.  On finite
entries of size 1e300 or 1e-300 it returns finite values or raises
:class:`~ioresponse.errors.NumericalError`; Tier-1 turns any
``RuntimeWarning`` into a failure.  The targets are found from the exported
signatures, so a new public function that takes a vector fails here until it
has a case.
"""

import dataclasses
import functools
import inspect
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ioresponse
from ioresponse.errors import NumericalError, TooShortSeries

from conftest import random_economy

#: Parameter names that hold a vector or a series.
VECTOR_PARAMETERS = frozenset({
    "x", "rhs", "shock_vector", "series", "state", "output_t", "output_t1", "demand", "vector", "y",
})


def _targets() -> list[str]:
    """Exported functions with a vector or series parameter."""
    exported = {name: getattr(ioresponse, name) for name in ioresponse.__all__}
    return sorted(name for name, obj in exported.items()
                  if inspect.isfunction(obj)
                  and VECTOR_PARAMETERS & set(inspect.signature(obj).parameters))


@dataclasses.dataclass(frozen=True)
class Case:
    """A call taking the vector arguments by name, and the length of each:
    ``None`` for a series, whose length is free."""

    call: Callable
    lengths: dict


N = 4
SERIES_LEN = 12
TABLE = random_economy(N, seed=1)
A = TABLE.coefficients
ARIMA = ioresponse.fit_arima(np.cumsum(np.random.default_rng(0).normal(size=SERIES_LEN)), 1, 1, 1)
VAR = ioresponse.VarModel(
    ar=ioresponse.propagator(A, 1.0), intercept=np.ones(N), ar_stderr=np.zeros((N, N)),
    intercept_stderr=np.zeros(N), calibration_year=2000, samples=100,
)

CASES = {
    "applied_susceptibility": Case(functools.partial(ioresponse.applied_susceptibility, A, 2.0),
                                   {"x": N}),
    "arima_forecast": Case(functools.partial(ioresponse.arima_forecast, ARIMA, steps=2),
                           {"series": None}),
    "equilibrium_output": Case(functools.partial(ioresponse.equilibrium_output, A),
                               {"demand": N}),
    "fit_arima": Case(functools.partial(ioresponse.fit_arima, p=1, d=1, q=1), {"series": None}),
    "implied_shock": Case(functools.partial(ioresponse.implied_shock, TABLE),
                          {"output_t": N, "output_t1": N}),
    "impulse_response": Case(functools.partial(ioresponse.impulse_response, TABLE,
                                               grid=ioresponse.response_grid(2.0, 0.5)),
                             {"shock_vector": N}),
    "leontief_solve": Case(functools.partial(ioresponse.leontief_solve, A), {"rhs": N}),
    "lrt_forecast": Case(functools.partial(ioresponse.lrt_forecast, TABLE),
                         {"output_t": N, "output_t1": N}),
    "pearson_r": Case(ioresponse.pearson_r, {"x": None, "y": SERIES_LEN}),
    "scenario_impact": Case(functools.partial(ioresponse.scenario_impact, TABLE),
                            {"shock_vector": N}),
    "scenario_response_curves": Case(
        functools.partial(ioresponse.scenario_response_curves, TABLE, horizon=2.0, grid_dt=0.5),
        {"shock_vector": N},
    ),
    "step_response": Case(functools.partial(ioresponse.step_response, TABLE,
                                            grid=np.array([0.0, 0.7, 2.0])),
                          {"shock_vector": N}),
    "var_forecast": Case(functools.partial(ioresponse.var_forecast, VAR, steps=2), {"state": N}),
}

#: Entry faults, a wrong length (for an argument whose length is fixed), an
#: empty series (for one whose length is free) and the two scales; each scale
#: applies to every vector argument at once.
FAULTS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "length": None, "empty": None,
          "1e300": 1e300, "1e-300": 1e-300}


def _cases():
    for name in _targets():
        if name not in CASES:
            yield pytest.param(name, None, id=f"{name}-no-case")
            continue
        lengths = CASES[name].lengths.values()
        for fault in FAULTS:
            if fault == "length" and not any(lengths) or fault == "empty" and None not in lengths:
                continue
            yield pytest.param(name, fault, id=f"{name}-{fault}")


def _good(index: int, length: int | None) -> np.ndarray:
    """A valid value of the index-th vector argument: distinct entries in [1, 2^(index + 1)]."""
    return np.linspace(1.0, 2.0, length or SERIES_LEN) ** (index + 1)


def _finite(result) -> bool:
    """Whether every float in a result (an array, a float, or a dataclass or
    list of them) is finite."""
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (list, tuple)):
        return all(map(_finite, result))
    if isinstance(result, (float, np.ndarray)):
        return bool(np.isfinite(result).all())
    return True


@pytest.mark.parametrize("name, fault", _cases())
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_vector_arguments_are_checked_at_the_boundary(name, fault, data):
    assert name in CASES, f"{name} takes a vector or a series and has no case here"
    lengths = CASES[name].lengths
    args = {arg: _good(k, n) for k, (arg, n) in enumerate(lengths.items())}
    if fault in ("1e300", "1e-300"):
        for arg, value in args.items():
            signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(value),
                                       max_size=len(value)))
            mantissas = data.draw(st.lists(st.floats(1.0, 2.0), min_size=len(value),
                                           max_size=len(value)))
            args[arg] = value * np.array(signs) * np.array(mantissas) * FAULTS[fault]
        try:
            result = CASES[name].call(**args)
        except NumericalError:
            return
        assert _finite(result)
        return
    if fault == "empty":
        arg = data.draw(st.sampled_from([a for a, n in lengths.items() if n is None]))
        args[arg] = np.empty(0)
        with pytest.raises((ValueError, TooShortSeries)):
            CASES[name].call(**args)
        return
    if fault == "length":
        arg = data.draw(st.sampled_from([a for a, n in lengths.items() if n]))
        value = args[arg]
        args[arg] = value[:-1] if data.draw(st.booleans()) else np.append(value, 1.0)
    else:
        arg = data.draw(st.sampled_from(sorted(lengths)))
        args[arg][data.draw(st.integers(0, len(args[arg]) - 1))] = FAULTS[fault]
    with pytest.raises(ValueError, match=f"^{arg} must hold"):
        CASES[name].call(**args)
