"""Expected outputs of six command-line runs, for ``tests/test_golden.py``.

Run from the repository root, with the table cache wherever it should go:

    PYTHONPATH=src:tests python tests/golden/regenerate.py

It writes the panel to a temporary directory, runs each of ``RUNS`` there in
process through ``cli.run`` and replaces this directory's folder of that
run with what it wrote.  The paths in every run are relative, so a manifest
names ``panel.csv`` and the run's folder, not the temporary directory.
Regenerate only when an output is meant to change, and say in that change
which numbers moved and why.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from ioresponse.cli import run
from ioresponse.iodata import write_panel

from conftest import build_panel

HERE = Path(__file__).resolve().parent

_CELL = ("--country", "AAA", "--year", "2003")
#: run name -> its arguments, without ``--data`` and ``--out``
RUNS = {
    "panel_susceptibility": ("susceptibility",),
    "analytic_cell": ("susceptibility", *_CELL),
    "monte_carlo_cell": ("susceptibility", *_CELL, "--method", "monte_carlo",
                         "--mc-length", "50", "--mc-replicas", "3", "--horizon", "1"),
    "source_convention": ("susceptibility", *_CELL, "--convention", "source", "--horizon", "3"),
    # at the default significance of 0.05 this cell's backbone has no edge
    "backbone_edgelist": ("backbone", *_CELL, "--significance", "0.3", "--node-time", "1"),
    "backbone_graphml": ("backbone", *_CELL, "--significance", "0.3", "--node-time", "2.5",
                         "--graph-format", "graphml"),
}


def write_panel_file(directory: Path) -> None:
    """The runs' input, ``panel.csv``: two countries x 2000-2006 x 8 sectors."""
    with open(directory / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        write_panel(build_panel(2, (2000, 2006), 8, seed=3), fh)


def run_in(directory: Path, name: str) -> tuple[int, str]:
    """Run ``name`` with ``directory`` as the working directory, writing to
    its folder ``name``; return the exit code and what went to stderr."""
    previous = os.getcwd()
    stderr = io.StringIO()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(stderr):
            code = run([*RUNS[name], "--data", "panel.csv", "--out", name])
    finally:
        os.chdir(previous)
    return code, stderr.getvalue()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_panel_file(work)
        for name in RUNS:
            code, stderr = run_in(work, name)
            if code != 0 or stderr:
                print(f"{name}: exit {code}: {stderr}", file=sys.stderr)
                return 1
            shutil.rmtree(HERE / name, ignore_errors=True)
            shutil.copytree(work / name, HERE / name)
            print(f"{name}: {', '.join(sorted(p.name for p in (HERE / name).iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
