"""Seeded WIOD-shaped panels for the benchmark.

The recipe follows the synthetic panel of the test suite (a fixed random
productive ``A`` per country, a multiplicative random walk for demand,
outputs from the equilibrium identity, 40% of demand spread over the other
panel countries as export detail), but lives here so that editing a test
fixture cannot change a workload.  A country with no trading partners gets
no export detail instead of a 0/0 share.

The program only ever sees what these functions hand it: a text file in the
canonical long format, or tables built through ``IOTable.from_flows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER = "record_type,country,year,row_sector,col_sector_or_dest,value"

#: The 56 WIOD 2016 industries, in release order.
WIOD_CODES = (
    "A01", "A02", "A03", "B", "C10-C12", "C13-C15", "C16", "C17", "C18", "C19",
    "C20", "C21", "C22", "C23", "C24", "C25", "C26", "C27", "C28", "C29", "C30",
    "C31-32", "C33", "D35", "E36", "E37-E39", "F", "G45", "G46", "G47", "H49",
    "H50", "H51", "H52", "H53", "I", "J58", "J59-J60", "J61", "J62-J63", "K64",
    "K65", "K66", "L68", "M69-M70", "M71", "M72", "M73", "M74-M75", "N", "O84",
    "P85", "Q", "R-S", "T", "U",
)

#: The 43 WIOD 2016 countries; panels take USA plus the first others.
WIOD_COUNTRIES = (
    "USA", "AUS", "AUT", "BEL", "BGR", "BRA", "CAN", "CHE", "CHN", "CYP", "CZE",
    "DEU", "DNK", "ESP", "EST", "FIN", "FRA", "GBR", "GRC", "HRV", "HUN", "IDN",
    "IND", "IRL", "ITA", "JPN", "KOR", "LTU", "LUX", "LVA", "MEX", "MLT", "NLD",
    "NOR", "POL", "PRT", "ROU", "RUS", "SVK", "SVN", "SWE", "TUR", "TWN",
)


@dataclass(frozen=True)
class Cell:
    """Generated arrays of one country-year: the benchmark's ground truth."""

    country: str
    year: int
    coefficients: np.ndarray   # A
    demand: np.ndarray         # D, so that Y = (I - A)^{-1} D
    output: np.ndarray         # Y
    flows: np.ndarray          # Z = A Y
    export: np.ndarray         # (N, len(destinations)) final demand abroad
    destinations: tuple[str, ...]


@dataclass(frozen=True)
class PanelSpec:
    n_countries: int
    n_sectors: int
    first_year: int
    last_year: int

    @property
    def countries(self) -> tuple[str, ...]:
        return WIOD_COUNTRIES[: self.n_countries]

    @property
    def codes(self) -> tuple[str, ...]:
        return WIOD_CODES[: self.n_sectors]

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(range(self.first_year, self.last_year + 1))


def generate(spec: PanelSpec, seed: int) -> dict[tuple[str, int], Cell]:
    """Every (country, year) cell of a complete panel, keyed and sorted."""
    rng = np.random.default_rng(seed)
    n = spec.n_sectors
    eye = np.eye(n)
    cells: dict[tuple[str, int], Cell] = {}
    for country in spec.countries:
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= rng.uniform(0.45, 0.65) / np.max(np.abs(np.linalg.eigvals(a)))
        demand = rng.uniform(50.0, 150.0, size=n)
        others = tuple(sorted(c for c in spec.countries if c != country))
        share = rng.uniform(0.5, 1.5, size=(n, len(others)))
        if others:
            share *= 0.4 / share.sum(axis=1, keepdims=True)
        for year in spec.years:
            output = np.linalg.solve(eye - a, demand)
            cells[(country, year)] = Cell(
                country=country,
                year=year,
                coefficients=a,
                demand=demand,
                output=output,
                flows=a * output[None, :],
                export=demand[:, None] * share,
                destinations=others,
            )
            demand = demand * np.exp(rng.normal(0.01, 0.05, size=n))
    return dict(sorted(cells.items()))


def row_count(cells) -> int:
    """Data rows (header excluded) that ``write_text`` emits."""
    total = 0
    for cell in cells.values():
        n = len(cell.output)
        total += n + int(np.count_nonzero(cell.flows)) + n * (1 + len(cell.destinations))
    return total


def write_text(cells, codes, path) -> None:
    """Canonical long-format file: OUTPUT rows, nonzero FLOWs, FINAL rows.

    The domestic FINAL value is the residual demand; the program recomputes
    it from flows and outputs anyway.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        for (c, y), cell in cells.items():
            output = cell.output.tolist()
            lines = [f"OUTPUT,{c},{y},{code},,{v!r}" for code, v in zip(codes, output)]
            for i, row_code in enumerate(codes):
                for j, v in enumerate(cell.flows[i].tolist()):
                    if v != 0.0:
                        lines.append(f"FLOW,{c},{y},{row_code},{codes[j]},{v!r}")
            domestic = (cell.demand - cell.export.sum(axis=1)).tolist()
            export = cell.export.tolist()
            for i, code in enumerate(codes):
                lines.append(f"FINAL,{c},{y},{code},{c},{domestic[i]!r}")
                for k, dest in enumerate(cell.destinations):
                    lines.append(f"FINAL,{c},{y},{code},{dest},{export[i][k]!r}")
            fh.write("\n".join(lines) + "\n")


def build_tables(cells, codes):
    """In-process tables through the program's validating constructor."""
    from ioresponse.iodata import IOTable, Panel

    return Panel(
        IOTable.from_flows(
            c, y, codes, cell.flows, cell.output,
            final_demand=cell.export, final_destinations=cell.destinations,
        )
        for (c, y), cell in cells.items()
    )
