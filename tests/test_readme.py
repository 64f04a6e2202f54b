"""The README's library example runs against the public API."""

import re
from pathlib import Path

import numpy as np

from ioresponse.iodata import write_panel

from conftest import build_panel

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    panel = build_panel(countries=["USA", "DEU"], years=(2012, 2014))
    with open(tmp_path / "panel.csv", "w", encoding="utf-8") as stream:
        write_panel(panel, stream)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(_library_example(), "README.md", "exec"), scope)
    n = panel.get("USA", 2012).n_sectors
    assert scope["predicted"].shape == (n,)
    assert scope["curve"].values.shape == (1001, n)
    assert np.all(np.isfinite(scope["curve"].values))
