"""The settings layer: the library's defaults and the readers of its setting
files, without numpy.

The command line resolves and checks a whole configuration from this module
alone, so ``--help``, usage errors and bad setting values end the run before
any numeric module is imported.  The numeric modules import their defaults
from here: :class:`NoiseSpec` and :data:`DEFAULT_NOISE` (:mod:`ioresponse.iodata`),
:data:`DEFAULT_DT` and :data:`DEFAULT_BURN_IN` (:mod:`ioresponse.dynamics`),
:class:`SimulationBudget` (:mod:`ioresponse.susceptibility`) and
:data:`RECOVERY_EPS` (:mod:`ioresponse.response`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import ConfigError, NonPositiveScale


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

DEFAULT_DT = 0.05
DEFAULT_BURN_IN = 50.0


@dataclass(frozen=True)
class SimulationBudget:
    """Monte Carlo budget: step size, per-replica length (years), replicas.

    Each path is sampled by the exact transition over ``dt``, so the step
    only sets the lag grid of the trapezoid rule.  The default (8 replicas
    of 2000 years at dt = 0.05) puts the relative Frobenius error of the
    Green-Kubo ``rho(1)`` at 4.6% for a 56-sector economy under the default
    noise.

    Memory: ``susceptibility_monte_carlo`` stores no states.  It holds the
    forcing and the deviations from ``Y0`` of one block of 256 steps, the
    Green-Kubo filter's buffer of N + 1 columns (the deviations and a
    constant) and one replica's FFT temporaries, whatever the length: a
    traced peak of 3.95 MB at N = 28 (dt = 0.01) and 7.8 MB at N = 56
    (dt = 0.05) for 8 replicas.  A process running it peaked at 61 MB at
    N = 28 and 66 MB at N = 56, for the default as for the command line's
    8 replicas of 400 years.
    """

    dt: float = DEFAULT_DT
    length: float = 2000.0
    replicas: int = 8
    burn_in: float = DEFAULT_BURN_IN
    seed: int = 0


#: Default relative threshold below which a sector counts as recovered.
RECOVERY_EPS = 0.05


_BOOLEANS = {"on": True, "true": True, "yes": True, "1": True,
             "off": False, "false": False, "no": False, "0": False}


def parse_bool(value: str) -> bool:
    """The one reading of a switch in a config or scenario file, any case."""
    try:
        return _BOOLEANS[str(value).strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, true/false, yes/no or 1/0, got {value!r}") from None


def key_value_lines(text: str, where: Callable[[int], str]) -> Iterator[tuple[int, str, str]]:
    """The one reading of a ``key = value`` file (config, manifest or
    scenario): ``(line number, lower-cased key, stripped value)`` for each
    line, ``#`` comments cut and blank lines skipped.  A line without ``=``
    raises :class:`ConfigError` located by ``where(line number)``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where(lineno)}: expected key = value")
        key, _, value = line.partition("=")
        yield lineno, key.strip().lower(), value.strip()


def parse_horizon(value: str) -> float:
    """The one reading of a horizon: years > 0, or ``inf``/``infinite``."""
    value = str(value).strip().lower()
    horizon = math.inf if value in ("inf", "infinite") else float(value)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0 or inf, got {value!r}")
    return horizon
