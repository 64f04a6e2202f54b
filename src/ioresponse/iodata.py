"""Parsing, validation, and normalization of input-output tables.

One :class:`IOTable` holds a single country-year economy: intermediate flows
``Z`` (millions USD), gross outputs ``Y``, technical coefficients
``A = Z_ij / Y_j``, final demand ``D``, and the final-demand detail by
destination country that scenario construction needs.

Canonical input is a comma-separated long format with a mandatory header::

    record_type,country,year,row_sector,col_sector_or_dest,value

``record_type`` is one of ``FLOW`` (intermediate flow row_sector ->
col_sector), ``FINAL`` (final demand of row_sector, the col field holding the
destination country code), or ``OUTPUT`` (gross output of row_sector, col
field empty).  Values are in millions USD with a decimal point and no
thousands separators; the stream is UTF-8.  Rows may come in any order; the
OUTPUT rows of a table define its sector order.

Final demand ``D`` is *not* summed from the FINAL rows.  It is taken as the
residual ``D = (I - A) Y`` so that the equilibrium identity
``Y = (I - A)^{-1} D`` holds exactly on real data; the FINAL rows to foreign
destinations are kept verbatim as ``export_demand`` and the domestic
component is the remainder ``D - sum(export_demand, axis=1)``.  A warning is
emitted when a residual demand component is negative; the value is kept.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import stat
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence, TextIO

import numpy as np

from .errors import (
    InconsistentTable,
    MalformedRow,
    MissingCountryYear,
    MissingExportDetail,
    NonPositiveScale,
    NonProductiveEconomy,
    NumericalError,
    SingularSystem,
    UnknownSector,
    ZeroOutputSector,
)

CANONICAL_HEADER = "record_type,country,year,row_sector,col_sector_or_dest,value"
_HEADER_FIELDS = tuple(CANONICAL_HEADER.split(","))
_RECORD_TYPES = frozenset({"FLOW", "FINAL", "OUTPUT"})
#: A nonnegative A whose column sums are all below this is productive.  The
#: margin is far above rounding: the eigenvalues ``spectral_radius`` computes
#: are exact for some ``A + E`` with ``|E|_1`` a small multiple of machine
#: epsilon times ``|A|_1``, so they too lie below 1 and the bound decides as
#: they would.
_PRODUCTIVE_NORM = 1.0 - 1e-12


class NegativeResidualDemand(UserWarning):
    """Residual demand (I - A) Y has at least one negative component."""


@dataclass(frozen=True)
class NoiseSpec:
    """Covariance specification of the equilibrium driving noise.

    ``isotropic(eps)`` induces ``nu = eps^2 I``; ``output_proportional(eta)``
    induces ``nu = diag((eta * Y0_i)^2)`` with ``Y0`` the equilibrium output.
    """

    kind: str
    scale: float

    def __post_init__(self):
        if self.kind not in ("isotropic", "output_proportional"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise NonPositiveScale(
                f"noise scale must be > 0, got {self.scale!r}"
            )

    @classmethod
    def isotropic(cls, eps: float) -> "NoiseSpec":
        return cls(kind="isotropic", scale=float(eps))

    @classmethod
    def output_proportional(cls, eta: float) -> "NoiseSpec":
        return cls(kind="output_proportional", scale=float(eta))


#: Default driving noise: proportional to output, small enough to stay in the
#: linear regime.
DEFAULT_NOISE = NoiseSpec.output_proportional(0.01)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class IOTable:
    """A validated, immutable country-year economy.  Arrays are read-only."""

    country: str
    year: int
    codes: tuple[str, ...]       # sector codes, in table order
    flows: np.ndarray            # Z, N x N
    output: np.ndarray           # Y, N
    coefficients: np.ndarray     # A, N x N
    demand: np.ndarray           # D = (I - A) Y, N
    export_demand: np.ndarray    # N x len(destinations), foreign final demand
    destinations: tuple[str, ...]
    domestic_final: np.ndarray   # D - row sums of export_demand

    @property
    def n_sectors(self) -> int:
        return len(self.codes)

    def sector_index(self, code: str) -> int:
        try:
            return self.codes.index(code)
        except ValueError:
            raise UnknownSector(
                f"sector {code!r} not in table {self.country}/{self.year}"
            ) from None

    def destination_index(self, dest: str) -> int:
        try:
            return self.destinations.index(dest)
        except ValueError:
            raise MissingExportDetail(
                f"{self.country}/{self.year} has no export detail for destination {dest}"
            ) from None

    def equals(self, other: "IOTable") -> bool:
        """Field-by-field equality (used by round-trip tests)."""
        return (
            self.country == other.country
            and self.year == other.year
            and self.codes == other.codes
            and self.destinations == other.destinations
            and np.array_equal(self.flows, other.flows)
            and np.array_equal(self.output, other.output)
            and np.array_equal(self.export_demand, other.export_demand)
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_flows(
        cls,
        country: str,
        year: int,
        codes: Sequence[str],
        flows: np.ndarray,
        output: np.ndarray,
        final_demand: np.ndarray | None = None,
        final_destinations: Sequence[str] = (),
    ) -> "IOTable":
        """Build and validate a table from raw flows and outputs.

        ``final_demand`` columns follow ``final_destinations`` (which may
        include the home country; that column only pins down which
        destinations exist -- the domestic component is always recomputed as
        the residual).

        The table must be productive, ``rho(A) < 1``; otherwise
        :class:`NonProductiveEconomy` carries the eigenvalue radius.  Flows
        and outputs are nonnegative, so ``A >= 0`` and ``rho(A)`` is at most
        the largest column sum of ``A`` (its induced 1-norm).  A table whose
        largest column sum is below ``1 - 1e-12`` is accepted without an
        eigenvalue solve; any other table is decided by
        :func:`spectral_radius`.
        """
        codes = [str(c) for c in codes]
        n = len(codes)
        if n < 1:
            raise InconsistentTable("table has no sectors")
        if len(set(codes)) != n:
            raise InconsistentTable(f"duplicate sector codes in {country}/{year}")

        flows = np.asarray(flows, dtype=float)
        output = np.asarray(output, dtype=float)
        if flows.shape != (n, n):
            raise InconsistentTable(
                f"flow matrix shape {flows.shape} != ({n}, {n})"
            )
        if output.shape != (n,):
            raise InconsistentTable(f"output vector shape {output.shape} != ({n},)")
        if not np.all(np.isfinite(flows)) or not np.all(np.isfinite(output)):
            raise InconsistentTable("non-finite flow or output value")
        if np.any(output < 0.0):
            bad = codes[int(np.argmax(output < 0.0))]
            raise InconsistentTable(f"negative gross output for sector {bad}")
        if np.any(flows < 0.0):
            i, j = np.unravel_index(int(np.argmin(flows)), flows.shape)
            raise InconsistentTable(
                f"negative flow {flows[i, j]:.6g} from {codes[i]} to {codes[j]}"
            )

        zero_out = output == 0.0
        if np.any(zero_out):
            col_mass = np.abs(flows).sum(axis=0)
            offenders = zero_out & (col_mass > 0.0)
            if np.any(offenders):
                bad = codes[int(np.argmax(offenders))]
                raise ZeroOutputSector(
                    f"sector {bad} has zero output but nonzero input flows"
                )

        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = np.where(output[None, :] > 0.0, flows / output[None, :], 0.0)

        if coeff.sum(axis=0).max() >= _PRODUCTIVE_NORM:
            radius = spectral_radius(coeff)
            if radius >= 1.0:
                raise NonProductiveEconomy(radius, detail=f"{country}/{year}")

        demand = output - coeff @ output
        if np.any(demand < 0.0):
            worst = int(np.argmin(demand))
            warnings.warn(
                f"{country}/{year}: residual demand negative for sector "
                f"{codes[worst]} ({demand[worst]:.6g}); kept as-is",
                NegativeResidualDemand,
                stacklevel=2,
            )

        dests = [str(d) for d in final_destinations]
        if final_demand is None:
            final_demand = np.zeros((n, len(dests)))
        final_demand = np.asarray(final_demand, dtype=float)
        if final_demand.shape != (n, len(dests)):
            raise InconsistentTable(
                f"final demand shape {final_demand.shape} != ({n}, {len(dests)})"
            )
        if len(set(dests)) != len(dests):
            raise InconsistentTable("duplicate destination codes")

        foreign = [k for k, d in enumerate(dests) if d != country]
        order = sorted(foreign, key=lambda k: dests[k])
        export = final_demand[:, order] if order else np.zeros((n, 0))
        destinations = tuple(dests[k] for k in order)
        domestic = demand - export.sum(axis=1)

        return cls(
            country=str(country),
            year=int(year),
            codes=tuple(codes),
            flows=_readonly(flows),
            output=_readonly(output),
            coefficients=_readonly(coeff),
            demand=_readonly(demand),
            export_demand=_readonly(export),
            destinations=destinations,
            domestic_final=_readonly(domestic),
        )

    @classmethod
    def from_coefficients(
        cls,
        country: str,
        year: int,
        codes: Sequence[str],
        coefficients: np.ndarray,
        demand: np.ndarray,
    ) -> "IOTable":
        """Build a synthetic table from (A, D); Y solves (I - A) Y = D."""
        coefficients = np.asarray(coefficients, dtype=float)
        output = leontief_solve(coefficients, demand)
        flows = coefficients * output[None, :]
        return cls.from_flows(country, year, codes, flows, output)


def guarded_solve(system: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """Solve system X = rhs, or a stack of them; :class:`SingularSystem`,
    naming the system, when one is singular."""
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem(
            f"{name} is singular", condition=float(np.max(np.linalg.cond(system)))
        ) from None


def _finite_vector(name: str, x, n: int | None = None, stack: bool = False) -> np.ndarray:
    """``x`` as floats; :class:`ValueError`, naming it, unless it is a vector
    (or with ``stack`` an N x k stack) of ``n`` finite values, any number when None."""
    x = np.asarray(x, dtype=float)
    if not (x.ndim in ((1, 2) if stack else (1,)) and n in (None, len(x)) and np.isfinite(x).all()):
        raise ValueError(f"{name} must hold {'' if n is None else f'{n} '}finite values")
    return x


def _pow2_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``(x * 2**-e, e)`` with ``e`` the binary exponent of ``max |x|``, so the
    scaled entries are under 1 in magnitude.  Scaling by a power of two is
    exact: a ratio of sums formed from the scaled entries has the bits of
    the unscaled ratio wherever that does not overflow or underflow."""
    e = math.frexp(float(np.max(np.abs(x))))[1]
    return np.ldexp(x, -e), e


def leontief_solve(coefficients: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - A) X = rhs for a vector or an N x k stack; :class:`ValueError`
    unless rhs holds N finite values, :class:`SingularSystem` if I - A is singular."""
    return _leontief(coefficients, _finite_vector("rhs", rhs, len(coefficients), stack=True))


def _leontief(coefficients: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`leontief_solve` of a right-hand side formed from checked inputs."""
    return guarded_solve(np.eye(len(coefficients)) - coefficients, rhs, "I - A")


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def noise_covariance(spec: NoiseSpec, table: IOTable) -> np.ndarray:
    """Covariance matrix nu induced by a noise specification.

    ``isotropic(eps)`` gives ``eps^2 I``; ``output_proportional(eta)`` gives
    ``diag((eta Y0_i)^2)``.  :class:`NumericalError` when a variance
    overflows or all are 0, as a scale that underflows makes them, and when
    a sector has no variance and a zero row of ``A``: nothing moves it, so
    every Monte Carlo and VAR estimate on the table is singular.
    """
    with np.errstate(over="ignore"):
        diag = (np.full(table.n_sectors, np.float64(spec.scale) ** 2) if spec.kind == "isotropic"
                else (spec.scale * table.output) ** 2)
    if not (np.isfinite(diag).all() and diag.any()):
        raise NumericalError(f"{table.country}/{table.year}: noise variances at scale "
                             f"{spec.scale!r} overflow to inf or underflow to 0")
    unmoved = np.flatnonzero((diag == 0.0) & ~table.coefficients.any(axis=1))
    if unmoved.size:
        raise NumericalError(f"{table.country}/{table.year}: sector {table.codes[unmoved[0]]} has "
                             "no noise and supplies no input to any sector, so nothing moves it")
    return np.diag(diag)


# ---------------------------------------------------------------------------
# canonical long-format scanning
# ---------------------------------------------------------------------------

def _open_source(source, digest=None) -> tuple[TextIO, bool]:
    """A text stream over ``source`` and whether to close it.  A file named
    by path feeds every byte read from it to ``digest`` when one is given."""
    if not isinstance(source, (str, Path)):
        return source, False
    if digest is None:
        return open(source, "r", encoding="utf-8", newline=""), True
    raw = _HashingReader(open(source, "rb", buffering=0), digest)
    return io.TextIOWrapper(io.BufferedReader(raw, _HASH_BLOCK), encoding="utf-8", newline=""), True


class _HashingReader(io.RawIOBase):
    """A binary file that feeds every byte read through it to a digest."""

    def __init__(self, raw, digest):
        self._raw = raw
        self.digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        if n:
            self.digest.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


class _TableAccumulator:
    """Collects the rows of one (country, year) cell and assembles arrays.

    Each sector code gets an id the first time any row names it, and every
    FLOW and FINAL row is stored at once as compact (id, id, value) buffers,
    so a world-scale panel parses in tens of megabytes whatever the row
    order.  OUTPUT rows fix the sector order; ids are mapped to it at build
    time.
    """

    def __init__(self, country: str, year: int):
        self.country = country
        self.year = year
        self.ids: dict[str, int] = {}
        self.first_line: list[int] = []  # line of the first row naming each id
        self.rank: dict[str, int] = {}  # code -> position of its OUTPUT row
        self.dest_index: dict[str, int] = {}
        self.outputs: list[float] = []
        self.flow_cells = (array("i"), array("i"), array("d"))
        self.final_cells = (array("i"), array("i"), array("d"))

    def _new_id(self, code: str, lineno: int) -> int:
        self.first_line.append(lineno)
        return self.ids.setdefault(code, len(self.ids))

    def add(self, lineno: int, rtype: str, rsec: str, col: str, value: float):
        if rtype == "OUTPUT":
            if rsec in self.rank:
                raise InconsistentTable(
                    f"line {lineno}: duplicate OUTPUT row for sector {rsec} "
                    f"in {self.country}/{self.year}"
                )
            self.rank[rsec] = len(self.rank)
            self.outputs.append(value)
            return
        ids = self.ids
        i = ids.get(rsec)
        if i is None:
            i = self._new_id(rsec, lineno)
        if rtype == "FLOW":
            j = ids.get(col)
            if j is None:
                j = self._new_id(col, lineno)
            cells = self.flow_cells
        else:
            j = self.dest_index.setdefault(col, len(self.dest_index))
            cells = self.final_cells
        cells[0].append(i)
        cells[1].append(j)
        cells[2].append(value)

    def arrays(self) -> _TableArrays:
        """The table's arrays as :func:`_build_table` takes them, flows
        not yet clipped."""
        n = len(self.rank)
        if n == 0:
            raise MissingCountryYear(
                f"no OUTPUT rows for {self.country}/{self.year}"
            )
        # ids run in order of first use, so the first unranked one is the
        # code of the earliest row that names a sector without an OUTPUT row
        for code, lineno in zip(self.ids, self.first_line):
            if code not in self.rank:
                raise InconsistentTable(
                    f"line {lineno}: sector {code!r} has no OUTPUT row "
                    f"in {self.country}/{self.year}"
                )
        position = np.array([self.rank[code] for code in self.ids], dtype=np.intp)

        flows = np.zeros((n, n))
        fi, fj = (position[np.frombuffer(c, dtype=np.int32)] for c in self.flow_cells[:2])
        np.add.at(flows, (fi, fj), np.frombuffer(self.flow_cells[2]))

        final = np.zeros((n, len(self.dest_index)))
        gi, gj = (np.frombuffer(c, dtype=np.int32) for c in self.final_cells[:2])
        np.add.at(final, (position[gi], gj), np.frombuffer(self.final_cells[2]))
        return _TableArrays(self.country, self.year, list(self.rank), flows,
                            np.asarray(self.outputs), final, list(self.dest_index))


class _TableArrays(NamedTuple):
    """What one table is built from: read by the row scan or from a cache
    entry."""

    country: str
    year: int
    codes: list[str]
    flows: np.ndarray   # before clipping
    output: np.ndarray
    final: np.ndarray   # N x len(destinations)
    destinations: list[str]


def _build_table(arrays: _TableArrays, clip_negative_flows: bool) -> IOTable:
    flows = np.clip(arrays.flows, 0.0, None) if clip_negative_flows else arrays.flows
    return IOTable.from_flows(
        arrays.country,
        arrays.year,
        arrays.codes,
        flows,
        arrays.output,
        final_demand=arrays.final,
        final_destinations=arrays.destinations,
    )


# ---------------------------------------------------------------------------
# panels
# ---------------------------------------------------------------------------

class Panel:
    """An immutable collection of IOTables keyed by (country, year)."""

    def __init__(self, tables: Iterable[IOTable]):
        self._tables: dict[tuple[str, int], IOTable] = {}
        for t in tables:
            key = (t.country, t.year)
            if key in self._tables:
                raise InconsistentTable(f"duplicate table for {key}")
            self._tables[key] = t

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[IOTable]:
        for key in sorted(self._tables):
            yield self._tables[key]

    def __contains__(self, key: tuple[str, int]) -> bool:
        return tuple(key) in self._tables

    def get(self, country: str, year: int) -> IOTable:
        try:
            return self._tables[(country, int(year))]
        except KeyError:
            raise MissingCountryYear(f"no table for {country}/{year}") from None

    def countries(self) -> list[str]:
        return sorted({c for c, _ in self._tables})

    def years(self, country: str | None = None) -> list[int]:
        if country is None:
            return sorted({y for _, y in self._tables})
        return sorted(y for c, y in self._tables if c == country)

    def codes(self) -> tuple[str, ...]:
        """Common sector code tuple, validated across all tables."""
        tables = iter(self)
        first = next(tables, None)
        if first is None:
            raise MissingCountryYear("panel has no tables")
        for t in tables:
            if t.codes != first.codes:
                raise InconsistentTable(
                    f"sector lists differ between {first.country}/{first.year} "
                    f"and {t.country}/{t.year}"
                )
        return first.codes


def _scan_rows(lines, want_c, want_y) -> dict[tuple[str, int], _TableAccumulator]:
    """Check every row of a canonical text, in file order, and collect the
    selected ones by (country, year)."""
    accs: dict[tuple[str, int], _TableAccumulator] = {}
    year_of: dict[str, int] = {}  # each distinct year field, converted once
    rows = enumerate(csv.reader(lines), start=1)
    for lineno, row in rows:
        if row and (len(row) > 1 or row[0].strip()):
            break
    else:
        raise MalformedRow(1, "empty stream (header row required)")
    if tuple(f.strip() for f in row) != _HEADER_FIELDS:
        raise MalformedRow(lineno, f"expected header {CANONICAL_HEADER!r}")
    for lineno, row in rows:
        if len(row) != 6:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            raise MalformedRow(lineno, f"expected 6 fields, got {len(row)}")
        rtype, c, year_s, rsec, col, value_s = map(str.strip, row)
        if rtype not in _RECORD_TYPES:
            raise MalformedRow(lineno, f"unknown record_type {rtype!r}")
        if not c:
            raise MalformedRow(lineno, "empty country field")
        if not rsec:
            raise MalformedRow(lineno, "empty row_sector field")
        y = year_of.get(year_s)
        if y is None:
            try:
                y = year_of[year_s] = int(year_s)
            except ValueError:
                raise MalformedRow(lineno, f"year {year_s!r} is not an integer") from None
        try:
            value = float(value_s)
        except ValueError:
            raise MalformedRow(lineno, f"value {value_s!r} is not a number") from None
        if not math.isfinite(value):
            raise MalformedRow(lineno, f"non-finite value {value_s!r}")
        if rtype == "OUTPUT":
            if col:
                raise MalformedRow(lineno, "OUTPUT rows must leave the col field empty")
        elif not col:
            raise MalformedRow(lineno, f"{rtype} rows need a col_sector_or_dest field")
        if want_c is not None and c not in want_c:
            continue
        if want_y is not None and y not in want_y:
            continue
        acc = accs.get((c, y))
        if acc is None:
            acc = accs[(c, y)] = _TableAccumulator(c, y)
        acc.add(lineno, rtype, rsec, col, value)
    return accs


def _raise_first_bad_line(path, want_c, want_y, reason: str) -> NoReturn:
    """Raise the error of the first bad line of a file that is not UTF-8.

    The file is decoded one line at a time, which fails on the same byte as
    decoding it whole, since no multi-byte UTF-8 sequence contains ``\\r``
    or ``\\n``.  The lines before that byte get every row check, so a bad
    row among them is reported in its place.
    """
    lineno = 0

    def decoded():
        nonlocal lineno
        with open(path, "rb") as fh:
            for block in fh:
                for line in block.splitlines(keepends=True):
                    lineno += 1
                    yield line.decode("utf-8")

    try:
        _scan_rows(decoded(), want_c, want_y)
    except UnicodeDecodeError as exc:
        reason = exc.reason
    raise MalformedRow(lineno, f"not UTF-8 text ({reason})") from None


# ---------------------------------------------------------------------------
# the table cache
# ---------------------------------------------------------------------------

#: Layout of a cache entry.  It is part of the entry's name, so a reader
#: never opens an entry written in another layout.
_CACHE_FORMAT = "v1"
#: Entries kept after a write: the newest.
_CACHE_ENTRIES = 4
_HASH_BLOCK = 1 << 20


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/ioresponse``, or ``~/.cache/ioresponse`` when that
    variable is unset or not absolute; None without a home directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")  # returned as given without a home
        if not os.path.isabs(base):
            return None
    return Path(base) / "ioresponse"


def _file_digest(path) -> str | None:
    """SHA-256 of a regular file named by path; None for an open stream, a
    pipe, a directory, or a file that cannot be read (the scan reports it).
    Nothing else is read, so a pipe keeps its bytes for the scan."""
    import hashlib

    if not isinstance(path, (str, Path)):
        return None
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(_HASH_BLOCK):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def _entry_name(digest: str) -> str:
    return f"panel-{_CACHE_FORMAT}-{digest}.npz"


def _read_entry(path: Path) -> list[_TableArrays] | None:
    """The tables stored in a cache entry, or None when it cannot be read
    as one: missing, truncated, corrupt or of another layout."""
    try:
        with np.load(path, allow_pickle=False) as entry:
            sizes, bounds, flows, output, final = (
                entry[key] for key in ("sizes", "bounds", "flows", "output", "final"))
            text = entry["text"].tobytes()
        strings = [text[a:b].decode("utf-8")
                   for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        tables = []
        s = f = o = g = 0
        for n, d in sizes.tolist():
            tables.append(_TableArrays(
                strings[s], int(strings[s + 1]), strings[s + 2:s + 2 + n],
                flows[f:f + n * n].reshape(n, n), output[o:o + n],
                final[g:g + n * d].reshape(n, d), strings[s + 2 + n:s + 2 + n + d],
            ))
            s, f, o, g = s + 2 + n + d, f + n * n, o + n, g + n * d
        if (s, f, o, g) != (len(strings), flows.size, output.size, final.size):
            raise ValueError("entry arrays disagree with their sizes")
    except Exception:
        # a damaged zip raises many unrelated types (BadZipFile, EOFError,
        # KeyError, NotImplementedError for a compression method, ...): each
        # is a miss, and the text is read instead
        return None
    return tables


def _write_entry(directory: Path, name: str, tables: Sequence[_TableArrays]) -> None:
    """Store the tables as entry ``name``, then remove all but the
    ``_CACHE_ENTRIES`` newest entries.  An OSError, as a read-only or
    full disk raises, leaves the entry unwritten and the load unharmed.

    Text goes in as UTF-8 bytes with offsets: each table's country, year,
    sector codes and destinations, in that order.  Every string survives
    exactly, NUL characters and all.
    """
    import tempfile

    encoded = [str(v).encode("utf-8") for t in tables
               for v in (t.country, t.year, *t.codes, *t.destinations)]
    arrays = {
        "sizes": np.array([(len(t.codes), len(t.destinations)) for t in tables], dtype=np.int64),
        "text": np.frombuffer(b"".join(encoded), dtype=np.uint8),
        "bounds": np.cumsum([0, *map(len, encoded)], dtype=np.int64),
        "flows": np.concatenate([t.flows.ravel() for t in tables]),
        "output": np.concatenate([t.output for t in tables]),
        "final": np.concatenate([t.final.ravel() for t in tables]),
    }
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, temporary = tempfile.mkstemp(prefix=".panel-", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(temporary, directory / name)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temporary)
        # file times can tie, so the entry just written is kept by name
        others = sorted((entry for entry in directory.glob("panel-*.npz") if entry.name != name),
                        key=lambda entry: entry.stat().st_mtime_ns, reverse=True)
        for entry in others[_CACHE_ENTRIES - 1:]:
            entry.unlink(missing_ok=True)
    except OSError:
        pass


def load_panel(
    path,
    countries: Sequence[str] | None = None,
    years: Sequence[int] | None = None,
    clip_negative_flows: bool = False,
) -> Panel:
    """Parse every (or the selected) country-year table from a file.

    Every row is validated, inside the selection or not, and the first bad
    one raises :class:`MalformedRow` with its line number.  A file named by
    path that is not UTF-8 raises :class:`MalformedRow` at the line of its
    first undecodable byte, unless a bad row comes before that line.  An
    open stream's decoding is its owner's.

    A regular file is read once per content.  After a load without
    ``countries`` or ``years`` has scanned every row and built every table,
    the arrays each table is built from (flows before clipping) are stored
    under ``$XDG_CACHE_HOME/ioresponse/`` (default ``~/.cache/ioresponse/``),
    named by the SHA-256 of the bytes the scan read.  A later load of the
    same bytes, selected or not, builds its tables from that entry and
    scans nothing.  Either way every table comes from
    :meth:`IOTable.from_flows`, so the tables, warnings and errors are the
    same.  A stream, a pipe or a selected load that finds no entry writes
    none, and a bad entry is read as no entry.
    """
    import hashlib

    want_c = set(countries) if countries is not None else None
    want_y = {int(y) for y in years} if years is not None else None
    directory = _cache_dir()
    digest = _file_digest(path) if directory is not None else None
    cached = _read_entry(directory / _entry_name(digest)) if digest is not None else None
    scanned = None
    if cached is not None:
        cells = (t for t in cached if (want_c is None or t.country in want_c)
                 and (want_y is None or t.year in want_y))
    else:
        if digest is not None and want_c is None and want_y is None:
            scanned = hashlib.sha256()
        stream, close = _open_source(path, scanned)
        try:
            accs = _scan_rows(stream, want_c, want_y)
        except UnicodeDecodeError as exc:
            if not close:
                raise
            _raise_first_bad_line(path, want_c, want_y, exc.reason)
        finally:
            if close:
                stream.close()
        cells = (accs[key].arrays() for key in sorted(accs))
    kept, tables = [], []
    for arrays in cells:
        kept.append(arrays)
        tables.append(_build_table(arrays, clip_negative_flows))
    if not tables:
        raise MissingCountryYear("no matching rows in stream")
    panel = Panel(tables)
    if scanned is not None:
        _write_entry(directory, _entry_name(scanned.hexdigest()), kept)
    return panel


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    """The number format of every output file: shortest exact ``repr``."""
    return repr(float(v))


_BOOLEANS = {"on": True, "true": True, "yes": True, "1": True,
             "off": False, "false": False, "no": False, "0": False}


def parse_bool(value: str) -> bool:
    """The one reading of a switch in a config or scenario file, any case."""
    try:
        return _BOOLEANS[str(value).strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, true/false, yes/no or 1/0, got {value!r}") from None


def parse_horizon(value: str) -> float:
    """The one reading of a horizon: years > 0, or ``inf``/``infinite``."""
    value = str(value).strip().lower()
    horizon = math.inf if value in ("inf", "infinite") else float(value)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0 or inf, got {value!r}")
    return horizon


#: Rows formatted per write: bounds the text held in memory for long tables.
_CHUNK_ROWS = 4096


def _column_text(column) -> list[str]:
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(_fmt, column.tolist()))
    return [v if type(v) is str else _fmt(v) if isinstance(v, float) else str(v)
            for v in column]


def write_table(stream: TextIO, header: str, columns: Sequence) -> None:
    """Write a comma-separated table: the ``header`` line, then one row per
    index of the equal-length ``columns``, one column per header name.

    Floats, Python or numpy, are written by :func:`_fmt` and every other
    field by ``str``; a float array is formatted as a whole, row-major when
    it has more than one axis.  A column given as ``None`` is left out
    together with its header name, which is how optional ``stderr`` columns
    disappear.
    """
    kept = [(name, col) for name, col in zip(header.split(","), columns, strict=True)
            if col is not None]
    stream.write(",".join(name for name, _ in kept) + "\n")
    _write_rows(stream, [col for _, col in kept])


def _write_rows(stream: TextIO, columns: Sequence) -> None:
    """The row loop of :func:`write_table`, without the header line."""
    cols = [col.ravel() if isinstance(col, np.ndarray) else col for col in columns]
    n_rows = len(cols[0]) if cols else 0
    if any(len(col) != n_rows for col in cols):
        raise ValueError("table columns differ in length")
    for start in range(0, n_rows, _CHUNK_ROWS):
        text = [_column_text(col[start:start + _CHUNK_ROWS]) for col in cols]
        stream.write("\n".join(map(",".join, zip(*text))) + "\n")


def _io_table_columns(table: IOTable) -> tuple:
    """The six canonical columns of one table, in :func:`write_panel` order."""
    codes = list(table.codes)
    n = len(codes)
    dests = [table.country, *table.destinations]
    fi, fj = np.nonzero(table.flows)
    final = np.column_stack((table.domestic_final, table.export_demand))
    n_rows = n + len(fi) + final.size
    return (
        ["OUTPUT"] * n + ["FLOW"] * len(fi) + ["FINAL"] * final.size,
        [table.country] * n_rows,
        [str(table.year)] * n_rows,
        codes + [codes[i] for i in fi.tolist()] + [c for c in codes for _ in dests],
        [""] * n + [codes[j] for j in fj.tolist()] + dests * n,
        np.concatenate((table.output, table.flows[fi, fj], final.ravel())),
    )


def write_panel(panel: Panel, stream: TextIO) -> None:
    """Serialize every table of a panel under one canonical header.

    Per table, OUTPUT rows come first (they define the sector order), then
    nonzero FLOW cells in row-major order, then for each sector its FINAL
    cells: the domestic residual under the home country code, then the
    export detail by destination in sorted order.  Values use shortest exact
    ``repr`` so load -> write -> load is the identity.
    """
    stream.write(CANONICAL_HEADER + "\n")
    for table in panel:
        _write_rows(stream, _io_table_columns(table))
