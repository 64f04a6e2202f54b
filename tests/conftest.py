"""Shared fixtures: toy economies, random productive economies, and a
deterministic synthetic panel with export detail."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from ioresponse.iodata import IOTable, Panel, write_panel
from ioresponse.sectors import WIOD_SECTORS

DATA_DIR = Path(__file__).parent / "data"

_WIOD_CODES = list(WIOD_SECTORS)


def random_economy(
    n: int, seed: int, spectral_target: float = 0.6, country: str = "SYN", year: int = 2000
) -> IOTable:
    """Random productive economy with the requested spectral radius."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    radius = np.max(np.abs(np.linalg.eigvals(a)))
    a *= spectral_target / radius
    d = rng.uniform(0.5, 2.0, size=n)
    codes = [f"S{k:02d}" for k in range(n)]
    return IOTable.from_coefficients(country, year, codes, a, d)


def build_panel(
    n_countries: int = 4,
    years: tuple[int, int] = (2000, 2008),
    n_sectors: int = 5,
    seed: int = 7,
    countries: list[str] | None = None,
    codes: list[str] | None = None,
) -> Panel:
    """Complete synthetic panel with export-by-destination detail.

    Each country gets a fixed random productive A; demand follows a
    multiplicative random walk across years, outputs solve the equilibrium
    identity, and 40% of demand is spread over the other panel countries as
    export detail.
    """
    rng = np.random.default_rng(seed)
    if countries is None:
        countries = [chr(ord("A") + k) * 3 for k in range(n_countries)]
    if codes is None:
        codes = _WIOD_CODES[:n_sectors]
    n_sectors = len(codes)
    year_list = list(range(years[0], years[1] + 1))
    tables = []
    for c_idx, country in enumerate(countries):
        a = rng.uniform(0.0, 1.0, size=(n_sectors, n_sectors))
        a *= rng.uniform(0.45, 0.65) / np.max(np.abs(np.linalg.eigvals(a)))
        demand = rng.uniform(50.0, 150.0, size=n_sectors)
        others = [d for d in countries if d != country]
        share = rng.uniform(0.5, 1.5, size=(n_sectors, len(others)))
        if others:  # a lone country has no export partners to share among
            share *= 0.4 / share.sum(axis=1, keepdims=True)
        eye = np.eye(n_sectors)
        for year in year_list:
            output = np.linalg.solve(eye - a, demand)
            flows = a * output[None, :]
            final = demand[:, None] * share
            tables.append(
                IOTable.from_flows(
                    country, year, codes, flows, output,
                    final_demand=final, final_destinations=others,
                )
            )
            demand = demand * np.exp(rng.normal(0.01, 0.05, size=n_sectors))
    return Panel(tables)


@pytest.fixture(scope="session")
def two_sector_table() -> IOTable:
    return IOTable.from_flows(
        "AAA", 2014, ["S1", "S2"],
        np.array([[0.0, 1.0], [0.4, 0.0]]), np.array([2.0, 2.0]),
    )


@pytest.fixture(scope="session")
def panel() -> Panel:
    return build_panel()


@pytest.fixture(scope="session")
def panel_file(panel, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_panel(panel, fh)
    return path


@pytest.fixture(scope="session")
def two_sector_file() -> Path:
    return DATA_DIR / "two_sector.csv"


@pytest.fixture(scope="session")
def wiod_file() -> Path:
    """Canonical WIOD data file, or skip when unavailable."""
    path = os.environ.get("IORESPONSE_WIOD_DATA")
    if not path or not Path(path).exists():
        pytest.skip(
            "WIOD data not available; set IORESPONSE_WIOD_DATA to the "
            "canonical long-format file (see README for the recipe)"
        )
    return Path(path)
