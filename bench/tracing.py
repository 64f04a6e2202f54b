"""Outside-in layer tracing for the benchmark.

Spans are recorded around the calls into each module's public functions,
from the benchmark's own code: ``install`` replaces every binding of a
traced function in every ``ioresponse`` module namespace (a name imported
with ``from .susceptibility import truncated_susceptibility`` is bound at
import time, so patching only the defining module would miss it), and the
returned ``undo`` restores the originals.  Linear-algebra calls made by the
kernel modules and optimizer calls made by the baselines are counted, not
spanned, through proxies bound in those modules only.

A span holds its name, start, end, parent, trace id and thread.  Spans stay
in memory until the caller collects them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: module -> public functions that get a span named ``<layer>.<function>``.
SPANNED = {
    "ioresponse.iodata": ("load_panel", "write_panel"),
    "ioresponse.susceptibility": (
        "truncated_susceptibility", "monte_carlo_propagator", "aggregate_susceptibilities",
    ),
    "ioresponse.dynamics": ("simulate_batch",),
    "ioresponse.response": (
        "implied_shock", "lrt_forecast", "step_response", "impulse_response",
        "fluctuation_panel_regression",
    ),
    "ioresponse.baselines": ("fit_arima", "fit_var1", "evaluate_forecasts"),
    "ioresponse.scenario": ("scenario_impact", "scenario_response_curves"),
    "ioresponse.backbone": ("disparity_filter", "export_graph"),
}

#: Modules whose own numpy/scipy kernel calls are counted as ``linalg.*``.
KERNEL_MODULES = ("ioresponse.susceptibility", "ioresponse.response")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace: int = 0
    thread: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and counters; one trace id per program operation."""

    def __init__(self, trace_id: int = 0):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        # trace id -> counter name -> count
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()
        self._lock = threading.Lock()  # pool workers open spans and count too
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def open(self, name: str, **attrs) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's first span hangs under whatever the main
            # thread has open (the call that started the pool)
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent=parent, trace=self.trace_id,
                                   thread=threading.get_ident(), attrs=attrs))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[self.trace_id][name] += amount

    def to_json(self) -> dict:
        return {
            "spans": [vars(s) for s in self.spans],
            "counters": {str(t): dict(c) for t, c in self.counters.items()},
        }


def _span_wrapper(tracer: Tracer, name: str, fn, annotate=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if annotate is not None:
            annotate(tracer.spans[index].attrs, args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


class _Proxy:
    """A module stand-in that overrides a few attributes."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _annotate_load(attrs, args, kwargs, result):
    source = args[0] if args else kwargs.get("path")
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        attrs["rows"] = _lines(source)


def _annotate_write(attrs, args, kwargs, result):
    # the CLI hands write_panel a freshly opened file
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    attrs["bytes"] = stream.tell()


def _annotate_simulate(attrs, args, kwargs, result):
    import inspect

    from ioresponse import dynamics

    bound = inspect.signature(dynamics.simulate_batch).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    steps = int(round(a["burn_in"] / a["dt"])) + int(round(a["horizon"] / a["dt"]))
    attrs["steps"] = a["replicas"] * steps
    attrs["state_bytes"] = int(result.nbytes)


def install(tracer: Tracer):
    """Wrap the traced functions everywhere they are bound; returns undo."""
    import importlib

    import numpy as np
    import scipy.linalg
    from scipy import optimize

    import ioresponse.cli  # noqa: F401  (loads every module that gets patched)
    from ioresponse import iodata

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "ioresponse" or n.startswith("ioresponse.")]
    annotations = {
        "load_panel": _annotate_load,
        "write_panel": _annotate_write,
        "simulate_batch": _annotate_simulate,
    }
    replacements = {}
    for mod_name, names in SPANNED.items():
        mod = importlib.import_module(mod_name)
        layer = mod_name.rsplit(".", 1)[1]
        for name in names:
            original = getattr(mod, name, None)
            if original is None:  # gone from the program: nothing to trace
                continue
            replacements[id(original)] = _span_wrapper(
                tracer, f"{layer}.{name}", original, annotations.get(name)
            )

    restore = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                restore.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    from_flows = vars(iodata.IOTable)["from_flows"]
    iodata.IOTable.from_flows = classmethod(
        _span_wrapper(tracer, "iodata.from_flows", from_flows.__func__)
    )
    restore.append((iodata.IOTable, "from_flows", from_flows))

    expm = _count_wrapper(tracer, "linalg.expm_calls", scipy.linalg.expm)
    linalg = _Proxy(
        np.linalg,
        solve=_count_wrapper(tracer, "linalg.solve_calls", np.linalg.solve),
        cond=_count_wrapper(tracer, "linalg.cond_calls", np.linalg.cond),
    )
    numpy_proxy = _Proxy(np, linalg=linalg)
    minimize = _count_wrapper(
        tracer, "baselines.minimize_calls", optimize.minimize,
        on_result=lambda res: tracer.count("baselines.arima_nfev", int(res.nfev)),
    )
    proxies = [(mod_name, "expm", expm) for mod_name in KERNEL_MODULES]
    proxies += [(mod_name, "np", numpy_proxy) for mod_name in KERNEL_MODULES]
    proxies.append(("ioresponse.baselines", "optimize", _Proxy(optimize, minimize=minimize)))
    for mod_name, attr, value in proxies:
        mod = sys.modules[mod_name]
        if hasattr(mod, attr):
            restore.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)

    def undo():
        for mod, attr, value in reversed(restore):
            setattr(mod, attr, value)

    return undo


def self_times(spans) -> list[float]:
    """Wall time attributed to each span, excluding its child spans.

    Sweeps the span boundaries in time order.  Within each interval the
    innermost open span of every busy thread shares the interval equally,
    so self times never sum to more than the wall time they cover, even
    when a thread pool runs spans side by side.
    """
    events = []
    for index, span in enumerate(spans):
        events.append((span.start, 1, index))
        events.append((span.end, 0, index))
    events.sort()
    stacks: dict[int, list[int]] = defaultdict(list)
    out = [0.0] * len(spans)
    previous = None
    for when, is_start, index in events:
        if previous is not None and when > previous:
            tops = [stack[-1] for stack in stacks.values() if stack]
            for top in tops:
                out[top] += (when - previous) / len(tops)
        previous = when
        stack = stacks[spans[index].thread]
        if is_start:
            stack.append(index)
        else:
            stack.remove(index)
    return out
