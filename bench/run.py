"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 bench/run.py --workload {cli_panel,lib_kernel,estimators} \
        --seed N --seconds S --trace {0,1}

Set-up generates the workload's inputs from ``--seed`` (three times; the
median is ``setup_s``).  Then passes over the workload's operations repeat,
one operation at a time, while another pass still fits in ``--seconds``
(at least two passes).  Every operation is attempted once per pass and
fails if it exits non-zero or any of its output checks fails.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics:
self times and counts from the traced passes, per-pipeline times from the
untraced ones, and ``trace.overhead_s``, the difference of the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, pinned settings, each CLI operation's manifest, every pass)
goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads
from tracing import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_PASSES = 2
#: No single operation may run longer than this (seconds).
OP_TIMEOUT = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PIPELINES = (
    "ingest", "susceptibility", "forecast", "scenario", "response", "backbone",
    "regression", "benchmark_perturbed_io", "benchmark_arima", "benchmark_var",
    "susceptibility_mc",
)

# per-layer metric -> span whose self times it sums
SELF_TIME = {
    "iodata.scan_s": "iodata.load_panel",
    "iodata.validate_s": "iodata.from_flows",
    "iodata.write_s": "iodata.write_panel",
    "susceptibility.analytic_s": "susceptibility.truncated_susceptibility",
    "susceptibility.gk_s": "susceptibility.monte_carlo_propagator",
    "susceptibility.aggregate_s": "susceptibility.aggregate_susceptibilities",
    "dynamics.simulate_s": "dynamics.simulate_batch",
    "response.implied_shock_s": "response.implied_shock",
    "response.lrt_forecast_s": "response.lrt_forecast",
    "response.step_s": "response.step_response",
    "response.impulse_s": "response.impulse_response",
    "baselines.fit_arima_s": "baselines.fit_arima",
    "baselines.fit_var1_s": "baselines.fit_var1",
    "baselines.evaluate_s": "baselines.evaluate_forecasts",
    "scenario.impact_s": "scenario.scenario_impact",
    "scenario.curves_s": "scenario.scenario_response_curves",
    "backbone.filter_s": "backbone.disparity_filter",
    "backbone.export_s": "backbone.export_graph",
    "cli.import_s": "cli.import",
    "cli.self_s": "cli.run",
}
# per-layer metric -> span whose calls it counts
SPAN_CALLS = {
    "iodata.tables": "iodata.from_flows",
    "susceptibility.analytic_calls": "susceptibility.truncated_susceptibility",
    "response.implied_shock_calls": "response.implied_shock",
    "baselines.fit_arima_calls": "baselines.fit_arima",
}
COUNTERS = (
    "linalg.expm_calls", "linalg.solve_calls", "linalg.cond_calls",
    "baselines.minimize_calls", "baselines.arima_nfev",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in reporting order."""
    units = {}
    for name in SELF_TIME:
        units[name] = "s"
    for name in list(SPAN_CALLS) + list(COUNTERS):
        units[name] = "count"
    units.update({
        "iodata.rows": "count",
        "iodata.scan_us_per_row": "us/row",
        "iodata.write_mb": "MB",
        "dynamics.steps": "count",
        "dynamics.steps_per_s": "1/s",
        "dynamics.state_mb": "MB",
        "cli.output_mb": "MB",
        "susceptibility.gk_rel_err": "ratio",
        "trace.overhead_s": "s",
    })
    for name in PIPELINES:
        units[f"pipeline.{name}_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["vendor"] = "unknown"
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    info["threads"] = (os.environ.get("OPENBLAS_NUM_THREADS")
                       or os.environ.get("OMP_NUM_THREADS") or "default")
    return info


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ioresponse").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_max": _read("/sys/fs/cgroup/cpu.max") or "unreadable",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    name: str
    seconds: float
    ok: bool
    error: str = ""
    maxrss_kb: int = 0
    output_bytes: int = 0
    trace: dict | None = None


@dataclass
class PassRecord:
    traced: bool
    ops: list[OpRecord] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


def _child_env() -> dict:
    # the CLI reads IORESPONSE_* settings from the environment; drop them so
    # only the pinned flags configure a run
    env = {k: v for k, v in os.environ.items() if not k.startswith("IORESPONSE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(ctx, op) -> list[str]:
    flags = dict(workloads.PINNED)
    args = list(op.argv[1:])
    for key, value in zip(args[::2], args[1::2]):
        flags[key.lstrip("-")] = value.format(scenario_spec=ctx.scenario_spec)
    argv = [op.argv[0], "--data", str(ctx.data)]
    for key, value in flags.items():
        argv += [f"--{key}", value]
    return argv


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int, int]:
    """Run a child to completion: (seconds, exit code, ru_maxrss in KiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def run_cli_op(ctx, op, traced: bool, trace_id: int, corrupt) -> OpRecord:
    out = ctx.work / "out" / op.name
    if out.exists():
        shutil.rmtree(out)
    argv = cli_argv(ctx, op) + ["--out", str(out)]
    trace_file = ctx.work / f"trace_{op.name}.json"
    if traced:
        command = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file),
                   repr(time.perf_counter()), str(trace_id)] + argv
    else:
        command = [sys.executable, "-m", "ioresponse.cli"] + argv
    seconds, code, maxrss = spawn(command, ctx.work / f"stderr_{op.name}.txt")
    record = OpRecord(op.name, seconds, ok=False, maxrss_kb=maxrss)
    if traced and trace_file.exists():
        record.trace = json.loads(trace_file.read_text())
        trace_file.unlink()
    if code != 0:
        tail = (ctx.work / f"stderr_{op.name}.txt").read_text(errors="replace").strip()
        record.error = f"exit {code}: {tail.splitlines()[-1] if tail else ''}"
        return record
    if op.name in corrupt:
        op.damage(out)
    record.output_bytes = sum(p.stat().st_size for p in out.iterdir())
    try:
        op.check(ctx, out)
        record.ok = True
    except workloads.CHECK_ERRORS as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def call_lib_op(ctx, op, tracer) -> tuple[OpRecord, object]:
    """Time one library call; its checks run later, outside any trace."""
    start = time.perf_counter()
    index = tracer.open(f"op.{op.name}") if tracer is not None else None
    result, error = None, ""
    try:
        result = op.call(ctx)
    except Exception as exc:  # a failing operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if index is not None:
            tracer.close(index)
    return OpRecord(op.name, time.perf_counter() - start, ok=not error, error=error), result


def check_lib_op(ctx, op, record: OpRecord, result, corrupt) -> None:
    if not record.ok:
        return
    if op.name in corrupt:
        result = op.damage(result)
    try:
        op.check(ctx, result)
    except workloads.CHECK_ERRORS as exc:
        record.ok = False
        record.error = f"{type(exc).__name__}: {exc}"


def run_pass(ctx, ops, traced: bool, corrupt=()) -> PassRecord:
    record = PassRecord(traced)
    if ctx.panel is None:
        for trace_id, op in enumerate(ops):
            record.ops.append(run_cli_op(ctx, op, traced, trace_id, corrupt))
        return record
    tracer = undo = None
    if traced:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    results = []
    try:
        for trace_id, op in enumerate(ops):
            if tracer is not None:
                tracer.trace_id = trace_id
            op_record, result = call_lib_op(ctx, op, tracer)
            record.ops.append(op_record)
            results.append(result)
    finally:
        if undo is not None:
            undo()
    if tracer is not None:
        record.ops[0].trace = tracer.to_json()  # one in-process trace per pass
    for op, op_record, result in zip(ops, record.ops, results):
        check_lib_op(ctx, op, op_record, result, corrupt)
    return record


# ---------------------------------------------------------------------------
# set-up and warm-up
# ---------------------------------------------------------------------------

def warm_up(ctx) -> None:
    """First-call costs leave the timed passes: imports, bytecode, BLAS."""
    if ctx.panel is None:
        seconds, code, _ = spawn([sys.executable, "-m", "ioresponse.cli", "--help"],
                                 ctx.work / "stderr_warmup.txt")
        if code != 0:
            raise RuntimeError("the CLI does not start (ioresponse.cli --help failed)")
        return
    import numpy as np

    from ioresponse import response as R
    from ioresponse import scenario as SC
    from ioresponse import susceptibility as S

    country = ctx.spec.countries[0]
    years = ctx.spec.years
    for t in years[:-1]:
        table = ctx.panel.get(country, t)
        y_t, y_t1 = table.output, ctx.panel.get(country, t + 1).output
        R.implied_shock(table, y_t, y_t1)
        R.lrt_forecast(table, y_t, y_t1)
    table = ctx.panel.get(country, years[-1])
    grid = R.response_grid(1.0, 0.01)
    R.step_response(table, np.ones(table.n_sectors), grid)
    R.impulse_response(table, np.ones(table.n_sectors), grid)
    S.sector_susceptibility(S.susceptibility_analytic(table))
    spec = SC.parse_scenario_spec(workloads._scenario_spec(-1.0, years[-1]))
    SC.run_scenario(spec, ctx.panel)


def set_up(name: str, spec, seed: int, work: Path):
    start = time.perf_counter()
    ctx = workloads.setup(name, spec, seed, work)
    warm_up(ctx)
    return ctx, time.perf_counter() - start


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def op_counts(passed: PassRecord) -> dict[str, dict[str, float]]:
    """Exact counts of a traced pass per operation (trace id = op index)."""
    counts = {op.name: {k: 0.0 for k in list(SPAN_CALLS) + list(COUNTERS)} for op in passed.ops}
    calls = {v: k for k, v in SPAN_CALLS.items()}
    for op in passed.ops:
        if op.trace is None:
            continue
        for span in op.trace["spans"]:
            if span["name"] in calls:
                counts[passed.ops[span["trace"]].name][calls[span["name"]]] += 1
        for trace_id, counters in op.trace["counters"].items():
            for name in COUNTERS:
                counts[passed.ops[int(trace_id)].name][name] += counters.get(name, 0)
    return counts


def layer_metrics(passed: PassRecord) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    values = {name: 0.0 for name in SELF_TIME}
    for counts in op_counts(passed).values():
        for name, count in counts.items():
            values[name] = values.get(name, 0.0) + count
    by_span = {v: k for k, v in SELF_TIME.items()}
    attrs = {"rows": 0.0, "bytes": 0.0, "steps": 0.0, "state_bytes": 0.0}
    for op in passed.ops:
        if op.trace is None:
            continue
        spans = [Span(**s) for s in op.trace["spans"]]
        for span, own in zip(spans, tracing.self_times(spans)):
            if span.name in by_span:
                values[by_span[span.name]] += own
            for key in attrs:
                attrs[key] += span.attrs.get(key, 0)
    rows, steps = attrs["rows"], attrs["steps"]
    values["iodata.rows"] = rows
    values["iodata.scan_us_per_row"] = 1e6 * values["iodata.scan_s"] / rows if rows else 0.0
    values["iodata.write_mb"] = attrs["bytes"] / 1e6
    values["dynamics.steps"] = steps
    values["dynamics.steps_per_s"] = steps / values["dynamics.simulate_s"] if steps else 0.0
    values["dynamics.state_mb"] = attrs["state_bytes"] / 1e6
    values["cli.output_mb"] = sum(op.output_bytes for op in passed.ops) / 1e6
    return values


def self_time_total(passed: PassRecord) -> float:
    """Sum of every span's self time in a traced pass (for the self-test)."""
    total = 0.0
    for op in passed.ops:
        if op.trace is not None:
            total += sum(tracing.self_times([Span(**s) for s in op.trace["spans"]]))
    return total


def summarize(passes: list[PassRecord], setups: list[float], peak_kb: int, ctx,
              traced: bool) -> dict:
    untraced = [p for p in passes if not p.traced]
    if not traced:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall for p in untraced),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    with_trace = [p for p in passes if p.traced]
    per_pass = [layer_metrics(p) for p in with_trace]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["susceptibility.gk_rel_err"] = ctx.gk_rel_err
    values["trace.overhead_s"] = (statistics.median(p.wall for p in with_trace)
                                  - statistics.median(p.wall for p in untraced))
    for name in PIPELINES:
        times = [op.seconds for p in untraced for op in p.ops if op.name == name]
        values[f"pipeline.{name}_s"] = statistics.median(times) if times else 0.0
    units = per_layer_units()
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path,
            corrupt=(), shape=None) -> dict:
    """Set up, run passes and return the full record of one run.

    ``shape`` replaces the workload's panel shape and ``corrupt`` names
    operations whose outputs are damaged before their checks; both serve
    the self-test only.
    """
    spec = shape or workloads.SHAPES[workload]
    setups = []
    for _ in range(1 if traced else SETUP_REPEATS):
        ctx, took = set_up(workload, spec, seed, work)
        setups.append(took)
    ops = workloads.OPS[workload](ctx.spec)

    passes: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ctx, ops, traced and len(passes) % 2 == 1, corrupt))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break

    if ctx.panel is None:
        peak_kb = max(op.maxrss_kb for p in passes for op in p.ops)
        manifests = {op.name: (work / "out" / op.name / "manifest.txt").read_text()
                     for op in ops if (work / "out" / op.name / "manifest.txt").exists()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        manifests = {}
    records = [op for p in passes for op in p.ops]
    failed = [op for op in records if not op.ok]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "shape": vars(spec),
        "pinned": workloads.PINNED if ctx.panel is None else {},
        "manifests": manifests,
        "setup_s": setups,
        "passes": [{"traced": p.traced, "wall_s": p.wall,
                    "ops": {op.name: op.seconds for op in p.ops}} for p in passes],
        "self_time_s": [self_time_total(p) for p in passes if p.traced],
        "counts": [op_counts(p) for p in passes if p.traced],
        "failures": [f"{op.name}: {op.error}" for op in failed],
        "attempted": len(records),
        "failed": len(failed),
        "metrics": summarize(passes, setups, peak_kb, ctx, traced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ioresponse" / "cli.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = env
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for failure in record["failures"]:
        print("FAILED " + failure)
    print("record " + str(path.relative_to(ROOT)))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
