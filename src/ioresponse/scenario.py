"""Demand-shock scenario engine.

A scenario is a list of shock terms on (country, sector) cells.  An
``export_to`` term scales the recorded export demand of the source sector to
one destination; when compensation is on (the default) the destination
country receives the absolute sum of what was removed as a positive demand
shock on the same sector, applied directly to its demand vector.  Stationary
impacts use the infinite-horizon susceptibility (a finite horizon is
available through the scenario file's ``horizon`` key), each
``rho(T) X`` by one solve against the country's shock vector
(:func:`~ioresponse.susceptibility.applied_susceptibility`); country
aggregates use compensated summation.  A shock sum, impact or aggregate
that overflows float64 raises :class:`~ioresponse.errors.NumericalError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

import numpy as np

from .errors import ConfigError, NumericalError
from .iodata import IOTable, Panel, _finite_vector, parse_bool, parse_horizon, write_table
from .response import ResponseCurve, response_grid, step_response
from .susceptibility import applied_susceptibility


@dataclass(frozen=True)
class ShockTerm:
    """One shock on a (country, sector) cell."""

    country: str
    sector: str
    kind: str                  # "export_to" | "absolute"
    dest: str | None = None
    fraction: float | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind == "export_to":
            if self.dest is None or self.fraction is None:
                raise ValueError("export_to terms need dest and fraction")
            if not -1.0 <= self.fraction <= 1.0:
                raise ValueError("fraction must lie in [-1, 1]")
        elif self.kind == "absolute":
            if self.value is None:
                raise ValueError("absolute terms need a value")
        else:
            raise ValueError(f"unknown shock kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    shocks: tuple[ShockTerm, ...]
    evaluation_year: int
    horizon: float = math.inf
    compensate: bool = True


@dataclass(frozen=True)
class SectorImpact:
    country: str
    sector: str
    delta_usd: float
    delta_pct: float


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    shock_vectors: Mapping[str, np.ndarray]
    impacts: tuple[SectorImpact, ...]
    aggregates: Mapping[str, float]
    curves: Mapping[str, ResponseCurve]


def parse_scenario_spec(text: str) -> ScenarioSpec:
    """Parse the key-value scenario format.

    Recognized keys: ``name``, ``evaluation_year``, ``horizon`` (years > 0
    or ``inf``), ``compensation`` (``on``/``off``; see
    :func:`~ioresponse.iodata.parse_bool`), and repeated ``shock`` lines::

        shock = <countries> <sector> export_to <dest> <fraction>
        shock = <country> <sector> absolute <value>

    ``<countries>`` may be a single code, a comma list, or ``*`` (every
    panel country except the destination, expanded at build time).
    """
    name = "scenario"
    year = None
    horizon = math.inf
    compensate = True
    shocks: list[ShockTerm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"scenario line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "name":
                name = value
            elif key == "evaluation_year":
                year = int(value)
            elif key == "horizon":
                horizon = parse_horizon(value)
            elif key == "compensation":
                compensate = parse_bool(value)
            elif key == "shock":
                parts = value.split()
                if len(parts) == 5 and parts[2] == "export_to":
                    for country in parts[0].split(","):
                        shocks.append(
                            ShockTerm(
                                country=country,
                                sector=parts[1],
                                kind="export_to",
                                dest=parts[3],
                                fraction=float(parts[4]),
                            )
                        )
                elif len(parts) == 4 and parts[2] == "absolute":
                    shocks.append(
                        ShockTerm(
                            country=parts[0],
                            sector=parts[1],
                            kind="absolute",
                            value=float(parts[3]),
                        )
                    )
                else:
                    raise ConfigError(f"scenario line {lineno}: malformed shock term")
            else:
                raise ConfigError(f"scenario line {lineno}: unknown key {key!r}")
        except ValueError as exc:  # a bad number or switch, or a value out of range
            raise ConfigError(f"scenario line {lineno}: {exc}") from None
    if year is None:
        raise ConfigError("scenario needs an evaluation_year")
    if not shocks:
        raise ConfigError("scenario defines no shocks")
    return ScenarioSpec(
        name=name,
        shocks=tuple(shocks),
        evaluation_year=year,
        horizon=horizon,
        compensate=compensate,
    )


def build_shock_vectors(spec: ScenarioSpec, panel: Panel) -> dict[str, np.ndarray]:
    """Per-country shock vectors implied by the scenario terms.

    Wildcard sources expand to every panel country except the destination.
    Compensation adds ``+|sum of removed export demand|`` on the destination
    country's shocked sector.  :class:`NumericalError` when a shock's sum
    overflows float64.
    """
    year = spec.evaluation_year
    countries = panel.countries()
    # Python floats: a sum that overflows is checked below, not warned about
    vectors = {c: [0.0] * panel.get(c, year).n_sectors for c in countries}
    removed: dict[tuple[str, str], float] = {}

    terms: list[ShockTerm] = []
    for term in spec.shocks:
        if term.country == "*" and term.kind == "export_to":
            for c in countries:
                if c != term.dest:
                    terms.append(
                        ShockTerm(
                            country=c,
                            sector=term.sector,
                            kind="export_to",
                            dest=term.dest,
                            fraction=term.fraction,
                        )
                    )
        else:
            terms.append(term)

    for term in terms:
        table = panel.get(term.country, year)
        i = table.sector_index(term.sector)
        if term.kind == "absolute":
            vectors[term.country][i] += term.value
            continue
        k = table.destination_index(term.dest)
        amount = term.fraction * float(table.export_demand[i, k])
        vectors[term.country][i] += amount
        key = (term.dest, term.sector)
        removed[key] = removed.get(key, 0.0) + amount

    if spec.compensate:
        for (dest, sector), total in sorted(removed.items()):
            table = panel.get(dest, year)
            vectors[dest][table.sector_index(sector)] += abs(total)
    for c, v in vectors.items():
        if not all(map(math.isfinite, v)):
            raise NumericalError(f"{c}/{year}: the scenario's shock overflows float64")
    return {c: np.array(v) for c, v in vectors.items()}


def scenario_impact(
    table: IOTable, shock_vector, horizon: float = math.inf
) -> list[SectorImpact]:
    """Sectoral impacts dY = rho(horizon) X, in USD and percent; stationary
    at the default horizon.

    ``rho(T) X`` is :func:`~ioresponse.susceptibility.applied_susceptibility`:
    one solve against one vector.  :class:`NumericalError` when an impact in
    USD or percent overflows float64.
    """
    y = table.output
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta = applied_susceptibility(
            table.coefficients, horizon, _finite_vector("shock_vector", shock_vector, len(y))
        )
        pct = np.where(y > 0.0, 100.0 * (delta / y), math.nan)
    if not (np.isfinite(delta).all() and np.isfinite(pct[y > 0.0]).all()):
        raise NumericalError(f"{table.country}/{table.year}: the scenario impact overflows float64")
    return [
        SectorImpact(country=table.country, sector=code, delta_usd=float(d), delta_pct=float(p))
        for code, d, p in zip(table.codes, delta, pct)
    ]


def scenario_response_curves(
    table: IOTable, shock_vector, horizon: float, grid_dt: float = 0.01
) -> ResponseCurve:
    """Step-response curve of the scenario shock over [0, horizon]."""
    return step_response(table, shock_vector, response_grid(horizon, grid_dt))


def run_scenario(
    spec: ScenarioSpec,
    panel: Panel,
    curve_countries: Sequence[str] = (),
    curve_horizon: float = 10.0,
    curve_dt: float = 0.01,
) -> ScenarioResult:
    """Evaluate a scenario over the whole panel."""
    vectors = build_shock_vectors(spec, panel)
    impacts: list[SectorImpact] = []
    aggregates: dict[str, float] = {}
    for c in sorted(vectors):
        table = panel.get(c, spec.evaluation_year)
        rows = scenario_impact(table, vectors[c], horizon=spec.horizon)
        impacts.extend(rows)
        try:
            aggregates[c] = math.fsum(r.delta_usd for r in rows)
        except OverflowError:
            raise NumericalError(f"{c}/{spec.evaluation_year}: the scenario aggregate "
                                 "overflows float64") from None
    curves = {
        c: scenario_response_curves(
            panel.get(c, spec.evaluation_year), vectors[c], curve_horizon, curve_dt
        )
        for c in curve_countries
    }
    return ScenarioResult(
        spec=spec,
        shock_vectors=vectors,
        impacts=tuple(impacts),
        aggregates=aggregates,
        curves=curves,
    )


def write_impacts(result: ScenarioResult, stream: TextIO) -> None:
    fields = ("country", "sector", "delta_usd", "delta_pct")
    write_table(stream, ",".join(fields), [[getattr(r, f) for r in result.impacts] for f in fields])


def write_aggregates(result: ScenarioResult, stream: TextIO) -> None:
    countries = sorted(result.aggregates)
    write_table(stream, "country,aggregate_usd",
                (countries, [result.aggregates[c] for c in countries]))
