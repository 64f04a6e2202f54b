"""Exception hierarchy shared across the package.

Data-quality problems raise :class:`DataError` subclasses; numerical failures
raise :class:`NumericalError` subclasses.  The command line uses the split to
map failures to exit codes (3 for data errors, 4 for numerical errors).
"""


class IOResponseError(Exception):
    """Base class for every error raised by this package."""


class DataError(IOResponseError):
    """Input data is malformed, inconsistent, or missing."""


class NumericalError(IOResponseError):
    """A numerical routine failed or left its validity envelope."""


# ---------------------------------------------------------------------------
# data errors
# ---------------------------------------------------------------------------

class MalformedRow(DataError):
    """A row of an input stream could not be interpreted."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class MissingCountryYear(DataError):
    """The requested (country, year) cell is not present in the data."""


class UnknownSector(DataError):
    """A sector code is not among the sectors of the table."""


class InconsistentTable(DataError):
    """Rows are individually well formed but contradict each other."""


class ZeroOutputSector(DataError):
    """A sector reports zero gross output but receives nonzero input flows."""


class NonProductiveEconomy(DataError):
    """The technical-coefficient matrix has spectral radius >= 1."""

    def __init__(self, spectral_radius: float, detail: str = ""):
        msg = f"spectral radius {spectral_radius:.6g} >= 1"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.spectral_radius = spectral_radius


class NonPositiveScale(DataError):
    """A noise scale parameter must be strictly positive."""


class MissingExportDetail(DataError):
    """Export demand to the requested destination is not in the table."""


class MissingPanelCell(DataError):
    """A panel operation needs (country, year) cells that are absent."""

    def __init__(self, cells):
        cells = sorted(cells)
        super().__init__(f"missing panel cells: {cells}")
        self.cells = cells


class MisalignedPanel(DataError):
    """Predictions and observations do not cover identical cells."""


class InvalidP(DataError):
    """Significance level must satisfy 0 < p < 1."""


class UnsupportedFormat(DataError):
    """Unknown export format name."""


class TooShortSeries(DataError):
    """The time series is too short for the requested model order."""


class DegenerateInput(DataError):
    """A statistic is undefined for the given input (e.g. constant series)."""


class InsufficientSamples(DataError):
    """Not enough replicas/samples for the requested estimate."""


class ConfigError(DataError):
    """A run configuration file or flag set is invalid."""


# ---------------------------------------------------------------------------
# numerical errors
# ---------------------------------------------------------------------------

class SingularSystem(NumericalError):
    """A linear system is numerically singular."""

    def __init__(self, detail: str = "", condition: float | None = None):
        msg = detail or "numerically singular linear system"
        if condition is not None:
            msg = f"{msg} (condition estimate {condition:.3e})"
        super().__init__(msg)
        self.condition = condition


class UnstableDrift(NumericalError):
    """The drift matrix A - I is not Hurwitz; no stationary state exists."""


class NumericalBlowup(NumericalError):
    """A simulated state left the plausible range (dt too large?)."""


class IllConditioned(NumericalError):
    """A solve was refused because the condition estimate exceeds the cap."""

    def __init__(self, condition: float, cap: float):
        super().__init__(
            f"condition estimate {condition:.3e} exceeds cap {cap:.3e}"
        )
        self.condition = condition
        self.cap = cap


class RankDeficientRegressors(NumericalError):
    """Least-squares regressors are rank deficient."""


class NonConvergent(NumericalError):
    """The ARIMA grid search found no MA coefficient with a finite sum of
    squares: the series' squares overflow float64."""
