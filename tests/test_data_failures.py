"""The command line's failure contract on damaged data files.

A small panel is written once; each example damages one row of it: a value
becomes ``nan``, ``inf``, ``1e400``, negative, empty or text, the row is
deleted or duplicated, or its sector code, year or country is rewritten.
Every subcommand form below then runs in process (``run`` is what the
console script exits with).  It must exit 0, 2, 3 or 4, and a failure must
print exactly one ``ErrorClass: detail`` line and leave no output directory.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioresponse.cli import run
from ioresponse.iodata import write_panel

from conftest import build_panel

#: Columns of the canonical panel: record_type, country, year, row_sector,
#: col_sector_or_dest, value.
COUNTRY, YEAR, ROW_SECTOR, COL_SECTOR, VALUE = 1, 2, 3, 4, 5

FORMS = {
    "ingest": ("ingest",),
    "ranking": ("susceptibility",),
    "forecast": ("forecast", "--country", "AAA"),
    "response": ("response", "--country", "AAA", "--year", "2003",
                 "--shock-kind", "impulse", "--horizon", "2", "--grid-dt", "0.5"),
    "backbone": ("backbone", "--country", "AAA", "--year", "2003"),
    "perturbed_io": ("benchmark", "--baseline", "perturbed_io"),
    "monte_carlo": ("susceptibility", "--method", "monte_carlo", "--country", "AAA",
                    "--year", "2003", "--horizon", "0.5", "--mc-length", "2",
                    "--mc-replicas", "2", "--burn-in", "1"),
}


@pytest.fixture(scope="module")
def panel_lines():
    text = io.StringIO()
    write_panel(build_panel(2, (2000, 2005), 3, seed=4), text)
    return text.getvalue().splitlines()


ROWS = 2 * 6 * (3 + 9 + 3 * 2)  # countries x years x (OUTPUT + FLOW + FINAL rows)

_row = st.integers(1, ROWS)
_damage = st.one_of(
    st.tuples(st.just("set"), _row, st.just(VALUE),
              st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "", "abc", "0"])),
    st.tuples(st.just("set"), _row, st.just(ROW_SECTOR), st.sampled_from(["A99", "", "a01"])),
    st.tuples(st.just("set"), _row, st.just(COL_SECTOR), st.sampled_from(["A99", "", "CCC"])),
    st.tuples(st.just("set"), _row, st.just(YEAR), st.sampled_from(["1999", "2000.5", "", "x"])),
    st.tuples(st.just("set"), _row, st.just(COUNTRY), st.sampled_from(["CCC", "", "aaa"])),
    st.tuples(st.sampled_from(["delete", "duplicate"]), _row),
)


def _damaged(lines, damage):
    lines = list(lines)
    kind, row = damage[:2]
    if kind == "delete":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    else:
        _, _, column, value = damage
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_panel_has_the_rows_the_strategy_names(panel_lines):
    assert len(panel_lines) == 1 + ROWS


@pytest.mark.parametrize("form", list(FORMS))
@settings(derandomize=True, deadline=None, max_examples=60)
@given(damage=_damage)
def test_damaged_panel_exits_cleanly(panel_lines, form, damage):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "panel.csv"
        data.write_text(_damaged(panel_lines, damage), encoding="utf-8")
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run([*FORMS[form], "--data", str(data), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and re.match(r"\w+: ", lines[0]), lines
            assert not out.exists()


@pytest.mark.parametrize("form", list(FORMS))
def test_undamaged_panel_runs(panel_lines, form, tmp_path):
    data = tmp_path / "panel.csv"
    data.write_text("\n".join(panel_lines) + "\n", encoding="utf-8")
    assert run([*FORMS[form], "--data", str(data), "--out", str(tmp_path / "out")]) == 0
