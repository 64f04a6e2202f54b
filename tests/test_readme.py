"""The README's library and scenario examples run against the public API,
and its table of defaults is the code's."""

import re
from pathlib import Path

import dataclasses

import numpy as np

from ioresponse.cli import _SCHEMA
from ioresponse.iodata import write_panel
from ioresponse.scenario import parse_scenario_spec, run_scenario
from ioresponse.susceptibility import SimulationBudget

from conftest import build_panel

README = Path(__file__).resolve().parents[1] / "README.md"


def _example(heading: str, language: str = "") -> str:
    """The first code block under a ``## `` heading of the README."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(f"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    panel = build_panel(countries=["USA", "DEU"], years=(2012, 2014))
    with open(tmp_path / "panel.csv", "w", encoding="utf-8") as stream:
        write_panel(panel, stream)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(_example("Library", "python"), "README.md", "exec"), scope)
    n = panel.get("USA", 2012).n_sectors
    assert scope["predicted"].shape == (n,)
    assert scope["curve"].values.shape == (1001, n)
    assert np.all(np.isfinite(scope["curve"].values))


def test_scenario_example_runs():
    spec = parse_scenario_spec(_example("Scenario files"))
    assert len(spec.shocks) == 5
    panel = build_panel(countries=["AUT", "BEL", "DEU", "FRA", "USA"], years=(2014, 2014),
                        codes=["C23", "C24", "C25"])
    result = run_scenario(spec, panel)
    # compensation gives the USA back what the four sources stop exporting to it
    removed = 0.0
    for c in ("AUT", "BEL", "DEU", "FRA"):
        table = panel.get(c, 2014)
        removed += table.export_demand[table.sector_index("C24"), table.destination_index("USA")]
    assert removed > 0.0
    usa = panel.get("USA", 2014)
    assert result.shock_vectors["USA"][usa.sector_index("C24")] == 350.0 + removed


#: ``SimulationBudget`` field behind each command-line key of the table.
_BUDGET_FIELDS = {
    "dt": "dt", "burn_in": "burn_in", "mc_replicas": "replicas",
    "mc_length": "length", "seed": "seed",
}


def _defaults_table() -> list[list[str]]:
    """The cells of the table under "Defaults worth knowing", one list per row."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Defaults worth knowing", 1)[1]
    rows = re.findall(r"^\| `--.*\|$", section, re.M)
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows]


def test_defaults_table_matches_the_code():
    rows = _defaults_table()
    assert len(rows) >= 11
    library = {}
    for flag, cli_default, budget_default, _ in rows:
        key = flag.removeprefix("--").replace("-", "_")
        parse, default = _SCHEMA[key]
        assert parse(cli_default) == default, flag
        if budget_default:
            library[_BUDGET_FIELDS[key]] = parse(budget_default)
    # every field of the library's budget is in the table, with its value
    assert library == dataclasses.asdict(SimulationBudget())
