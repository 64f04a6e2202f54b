"""Self-test of the benchmark at a tiny shape (a few minutes).

Usage (from the repository root): ``python3 bench/selftest.py``

For every workload it checks that

* an untraced run reports every end-to-end metric with its unit and fails
  no operation;
* two traced runs report every per-layer metric with its unit, give
  identical exact counts, and attribute no more self time to the layers
  than each traced pass took;
* damaging an operation's output makes that operation fail (fault
  injection, applied to every operation in turn).

It also checks that the benchmark refuses to run without the program
source, and prints the counts per forecast cell and per response curve.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import gen
import run
import workloads

TINY = {
    "cli_panel": gen.PanelSpec(n_countries=2, n_sectors=15, first_year=2000, last_year=2008),
    "lib_kernel": gen.PanelSpec(n_countries=3, n_sectors=15, first_year=2000, last_year=2008),
    "estimators": gen.PanelSpec(n_countries=1, n_sectors=5, first_year=2000, last_year=2007),
}
EXACT = ("linalg.expm_calls", "linalg.solve_calls", "linalg.cond_calls",
         "response.implied_shock_calls", "baselines.arima_nfev", "dynamics.steps")


def fail(message: str) -> None:
    print(f"SELFTEST FAILED: {message}")
    sys.exit(1)


def measured(workload: str, traced: bool, corrupt=()) -> dict:
    return run.measure(workload, seed=11, seconds=0.1, traced=traced,
                       work=run.WORK / f"selftest-{workload}", corrupt=corrupt,
                       shape=TINY[workload])


def check_metrics(record: dict, units: dict[str, str]) -> None:
    metrics = record["metrics"]
    if sorted(metrics) != sorted(units):
        fail(f"{record['workload']}: metrics {sorted(set(metrics) ^ set(units))} missing or extra")
    for name, unit in units.items():
        if metrics[name]["unit"] != unit:
            fail(f"{record['workload']}: {name} has unit {metrics[name]['unit']}, expected {unit}")


def check_workload(workload: str) -> None:
    plain = measured(workload, traced=False)
    check_metrics(plain, run.END_TO_END)
    if plain["failed"]:
        fail(f"{workload}: {plain['failures']}")
    for name, metric in plain["metrics"].items():
        if not metric["value"] > 0:
            fail(f"{workload}: end-to-end metric {name} is {metric['value']}")

    first, second = measured(workload, traced=True), measured(workload, traced=True)
    for record in (first, second):
        check_metrics(record, run.per_layer_units())
        if record["failed"]:
            fail(f"{workload} traced: {record['failures']}")
        walls = [p["wall_s"] for p in record["passes"] if p["traced"]]
        for total, wall in zip(record["self_time_s"], walls):
            if total > wall:
                fail(f"{workload}: layer self times {total:.4f} s exceed traced wall {wall:.4f} s")
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            fail(f"{workload}: {name} differs between traced runs ({a} != {b})")
    if first["counts"] != second["counts"]:
        fail(f"{workload}: per-operation counts differ between traced runs")

    # damage every operation's output: each must be counted as failed
    ops = {op.name for op in workloads.OPS[workload](TINY[workload])}
    broken = measured(workload, traced=False, corrupt=ops)
    names = {f.split(":", 1)[0] for f in broken["failures"]}
    if broken["failed"] != broken["attempted"] or names != ops:
        fail(f"{workload}: corrupted outputs gave failures {broken['failures']}")
    print(f"ok {workload}: {len(plain['metrics'])} end-to-end and {len(first['metrics'])} "
          f"per-layer metrics; corrupted output caught in {broken['failed']} of "
          f"{broken['attempted']} operations")
    if workload == "lib_kernel":
        report_seed_counts(first)


def report_seed_counts(record: dict) -> None:
    counts = record["counts"][0]
    cells = len(workloads.forecast_cells(TINY["lib_kernel"]))
    curves = workloads.LIB_CURVE_CELLS
    forecast, response = counts["forecast"], counts["response"]
    print("per forecast cell: " + json.dumps({
        k.split(".")[1]: forecast[k] / cells
        for k in ("response.implied_shock_calls", "linalg.expm_calls",
                  "linalg.solve_calls", "linalg.cond_calls")
    }))
    # each cell has a step curve (rho(t') per point) and an impulse curve
    print("per 1001-point step + impulse curve pair: " + json.dumps({
        k.split(".")[1]: response[k] / curves for k in ("linalg.expm_calls", "linalg.solve_calls")
    }))


def check_refuses_without_source() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli_panel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran without the program source")
    print("ok refuses to run without the program source")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_refuses_without_source()
    for workload in sys.argv[1:] or list(TINY):
        check_workload(workload)
    for workload in TINY:
        shutil.rmtree(run.WORK / f"selftest-{workload}", ignore_errors=True)
    print("SELFTEST PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
