"""Every source file parses as Python 3.10, the oldest version supported.

This checks syntax only, as far as ``ast.parse(feature_version=(3, 10))``
tells newer grammar apart (``except*``, for one, is refused).  It does not
check that the standard-library names a file uses exist in 3.10; only
running the tests on 3.10 does that.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
