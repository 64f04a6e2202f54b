"""Golden outputs: six command-line runs against the files in ``tests/golden``.

Each run goes through ``cli.run`` in process, on the panel that
``golden/regenerate.py`` describes (built here, at test time).  The exit code
is 0, stderr is empty and the run writes exactly the expected files.  In
every file the headers and every non-numeric field match exactly; so does
every manifest line but the comments and the ``timestamp`` value.  A number
matches within 1e-12 of the largest ``|value|`` in its column (for GraphML,
among the ``<data>`` values of its key), which leaves room for the last bits
of another machine's BLAS.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from golden.regenerate import HERE, RUNS, run_in, write_panel_file

_REL_TOL = 1e-12
_DATA = re.compile(r'^(\s*<data key="([^"]+)">)([^<]*)(</data>)$')
_TIMESTAMP = re.compile(r"^timestamp = \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$")


def _cells(name: str, text: str) -> list[list[tuple[str | None, str]]]:
    """Each line of a file as (column, field) pairs; column ``None`` marks
    text that must match exactly."""
    lines = text.split("\n")
    if name == "manifest.txt":
        return [[(None, "timestamp")] if _TIMESTAMP.match(line) else [(None, line)]
                for line in lines if not line.startswith("#")]
    if name.endswith(".csv"):
        header = lines[0].split(",")
        return [[(None, lines[0])]] + [
            list(zip(header, line.split(","))) if line else [(None, line)]
            for line in lines[1:]
        ]
    rows = []
    for line in lines:
        match = _DATA.match(line)
        rows.append([(None, match[1]), (match[2], match[3]), (None, match[4])] if match
                    else [(None, line)])
    return rows


def _number(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _compare(name: str, got: str, want: str) -> None:
    got_rows, want_rows = _cells(name, got), _cells(name, want)
    assert [[c for c, _ in row] for row in got_rows] == [[c for c, _ in row] for row in want_rows]
    scale: dict[str, float] = {}
    for row in want_rows:
        for column, field in row:
            value = _number(field) if column is not None else None
            if value is not None:
                scale[column] = max(scale.get(column, 0.0), abs(value))
    for line, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        for (column, got_field), (_, want_field) in zip(got_row, want_row):
            want_value = _number(want_field) if column is not None else None
            got_value = _number(got_field) if want_value is not None else None
            if want_value is None or got_value is None:
                assert got_field == want_field, f"{name} line {line}, {column}"
            else:
                assert abs(got_value - want_value) <= _REL_TOL * scale[column], (
                    f"{name} line {line}, {column}: {got_field} != {want_field}"
                )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_panel_file(directory)
    return directory


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_its_golden_files(workdir, name):
    code, stderr = run_in(workdir, name)
    assert (code, stderr) == (0, "")
    expected = HERE / name
    got = sorted(p.name for p in (workdir / name).iterdir())
    assert got == sorted(p.name for p in expected.iterdir())
    for file_name in got:
        _compare(file_name, (workdir / name / file_name).read_text(encoding="utf-8"),
                 (expected / file_name).read_text(encoding="utf-8"))


def test_comparison_sees_a_moved_number_and_a_moved_label():
    want = "sector,value\nA01,1.0\nA02,-2.0\n"
    _compare("x.csv", "sector,value\nA01,1.000000000000001\nA02,-2.0\n", want)
    for got in ("sector,value\nA01,1.00000000001\nA02,-2.0\n",
                "sector,value\nA02,1.0\nA01,-2.0\n",
                "sector,value,stderr\nA01,1.0\nA02,-2.0\n"):
        with pytest.raises(AssertionError):
            _compare("x.csv", got, want)
