"""Time evolution of the linear production network.

The economy relaxes toward its fixed point ``Y0 = (I - A)^{-1} D`` under the
drift matrix ``M = A - I`` while being driven by white noise with covariance
``nu`` and, optionally, an external demand shock ``X(t)``:

    dY = [(A - I) Y + D + X(t)] dt + dW,   cov(dW) = nu dt.

This module provides the fixed point, the stationary covariance of the
unshocked process, and Euler-Maruyama sampling of trajectories: one fixed
linear map plus forcing, ``x(k+1) = F x(k) + g(k)`` on the deviations
``x = Y - Y0``, with ``F = I + dt (A - I)`` and the noise and shocks in ``g``.
``simulate_batch`` is the one public entry: it stores the states of every
replica, one path being ``replicas=1``.  The Monte Carlo Green-Kubo sums take
the deviations in blocks as the loop produces them instead
(``_euler_blocks``, which ``simulate_batch`` fills its array from).  All
randomness flows through :mod:`ioresponse.rng`, so a seed pins a trajectory
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    NumericalBlowup,
    NumericalError,
    SingularSystem,
    UnstableDrift,
)
from .iodata import leontief_solve
from .rng import GaussianStream

#: Relative residual allowed for the equilibrium solve.
EQUILIBRIUM_RTOL = 1e-10
#: Relative Frobenius residual allowed for the Lyapunov solve.
LYAPUNOV_RTOL = 1e-9
#: A state is declared blown up beyond this multiple of ||Y0||_inf.
BLOWUP_FACTOR = 1e12

DEFAULT_DT = 0.01
DEFAULT_BURN_IN = 50.0

#: Euler steps per block of noise draws.  The stream position depends only
#: on the count drawn, so the block size never changes a variate.
_NOISE_CHUNK = 1024
#: Float64 values in 2**57 bytes, the largest address space of a 64-bit Linux process.
_MAX_VALUES = 1 << 54


def _check_size(values: int, what: str) -> None:
    """MemoryError for more float64 ``values`` than fit (numpy: ValueError past 2**63 bytes)."""
    if values > _MAX_VALUES:
        raise MemoryError(f"{what} would take more than 2**57 bytes, beyond any address space")


def step_count(span: float, dt: float) -> int:
    """``span / dt`` rounded to whole steps.

    :class:`ValueError` when the quotient is not finite or too large to be an
    array length, as a horizon of 1e16 years in steps of 0.01 is.
    """
    steps = span / dt
    if not steps < _MAX_VALUES:
        raise ValueError(f"{span!r} in steps of {dt!r} is more steps than an array holds")
    return int(round(steps))


def drift_matrix(coefficients: np.ndarray) -> np.ndarray:
    """M = A - I."""
    a = np.asarray(coefficients, dtype=float)
    return a - np.eye(a.shape[0])


def equilibrium_output(coefficients: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Solve (I - A) Y0 = D directly, with one step of iterative refinement.

    Raises :class:`SingularSystem` when the system is numerically singular or
    the refined residual still exceeds ``EQUILIBRIUM_RTOL * ||D||_inf``.
    """
    a = np.asarray(coefficients, dtype=float)
    d = np.asarray(demand, dtype=float)
    system = np.eye(a.shape[0]) - a
    y = leontief_solve(a, d)
    y = y + leontief_solve(a, d - system @ y)
    scale = max(float(np.max(np.abs(d))), np.finfo(float).tiny)
    residual = float(np.max(np.abs(system @ y - d)))
    if not np.all(np.isfinite(y)) or residual > EQUILIBRIUM_RTOL * scale:
        raise SingularSystem(
            f"equilibrium residual {residual:.3e} exceeds tolerance",
            condition=float(np.linalg.cond(system)),
        )
    return y


def is_hurwitz(m: np.ndarray) -> bool:
    """True when every eigenvalue of m has strictly negative real part."""
    return bool(np.max(np.linalg.eigvals(np.asarray(m, dtype=float)).real) < 0.0)


def stationary_covariance(coefficients: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Stationary covariance sigma of the unshocked process.

    sigma solves the continuous Lyapunov equation
    ``M sigma + sigma M^T + nu = 0`` with ``M = A - I``.
    """
    from scipy.linalg import solve_continuous_lyapunov

    m = drift_matrix(coefficients)
    nu = np.asarray(nu, dtype=float)
    if not is_hurwitz(m):
        raise UnstableDrift("A - I has an eigenvalue with nonnegative real part")
    sigma = solve_continuous_lyapunov(m, -nu)
    sigma = 0.5 * (sigma + sigma.T)
    # a norm squares its entries: divide by the largest |nu| first, so that
    # variances near 1e200 do not overflow it
    scale = max(float(np.max(np.abs(nu))), np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm((m @ sigma + sigma @ m.T + nu) / scale))
    if not residual <= LYAPUNOV_RTOL * float(np.linalg.norm(nu / scale)):
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} (in units of the largest |nu|) exceeds "
            f"{LYAPUNOV_RTOL:.0e} relative tolerance"
        )
    return sigma


# ---------------------------------------------------------------------------
# shocks and trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShockProfile:
    """External demand shock X(t).

    Three kinds: ``none``; ``impulse`` (delta of weight ``vector`` at
    t = 0); ``step`` (``vector`` switched on from t = 0).
    """

    kind: str
    vector: np.ndarray | None = None

    @classmethod
    def none(cls) -> "ShockProfile":
        return cls(kind="none")

    @classmethod
    def impulse(cls, vector) -> "ShockProfile":
        return cls(kind="impulse", vector=np.asarray(vector, dtype=float))

    @classmethod
    def step(cls, vector) -> "ShockProfile":
        return cls(kind="step", vector=np.asarray(vector, dtype=float))

    def check_dimension(self, n: int) -> None:
        if self.kind in ("impulse", "step") and self.vector.shape != (n,):
            raise ValueError(f"shock vector must have length {n}")


def _noise_transform(nu: np.ndarray):
    """Map from standard normal draws (last axis N) to draws of covariance nu,
    through a factor nu = L L^T.  A diagonal nu, zero noise included, scales
    the draws in place."""
    nu = np.asarray(nu, dtype=float)
    off = nu - np.diag(np.diag(nu))
    if not off.any():
        diag = np.diag(nu)
        if np.any(diag < 0.0):
            raise ValueError("noise covariance has negative diagonal entries")
        scale = np.sqrt(diag)
        return lambda draws: np.multiply(draws, scale, out=draws)
    w, v = np.linalg.eigh(0.5 * (nu + nu.T))
    if np.min(w) < -1e-12 * max(np.max(np.abs(w)), 1.0):
        raise ValueError("noise covariance is not positive semidefinite")
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    return lambda draws: draws @ factor.T


def _recur(record: np.ndarray, f: np.ndarray, forcing: np.ndarray) -> None:
    """``record[k + 1] = F record[k] + forcing[k]`` in place for each k of the
    forcing: the one recursion of every sampled path, Euler's and the VAR's."""
    ft = f.T
    for k in range(len(forcing)):
        np.matmul(record[k], ft, out=record[k + 1])
        np.add(record[k + 1], forcing[k], out=record[k + 1])


def _euler_blocks(
    coefficients: np.ndarray,
    demand: np.ndarray,
    nu: np.ndarray,
    shock: ShockProfile,
    dt: float,
    horizon: float,
    burn_in: float,
    seed: int,
    replicas: int,
) -> tuple[np.ndarray, int, Iterator[np.ndarray]]:
    """Check the arguments, then return ``(Y0, records, blocks)``.

    ``blocks`` steps the deviations and yields the ``records`` recorded ones
    in time order as (replicas, b, N) arrays: one block per ``_NOISE_CHUNK``
    steps (fewer in the block that ends the burn-in), then the final state.
    A block's forcing ``g`` is its noise plus the equilibrium residual
    ``dt ((A - I) Y0 + D)`` (zero up to rounding), plus ``dt X`` after the
    burn-in for a step shock or ``X`` at its end for an impulse.  A block is
    yielded after its blow-up check and overwritten by the next, so a
    consumer copies what it keeps.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    a = np.asarray(coefficients, dtype=float)
    d = np.asarray(demand, dtype=float)
    n = a.shape[0]
    shock.check_dimension(n)
    m = drift_matrix(a)
    y0 = equilibrium_output(a, d)

    burn_steps = step_count(burn_in, dt)
    rec_steps = step_count(horizon, dt)
    total_steps = burn_steps + rec_steps

    transform = _noise_transform(nu)
    stream = GaussianStream(seed)
    blow_cap = BLOWUP_FACTOR * max(float(np.max(np.abs(y0))), 1.0)
    f = np.eye(n) + dt * m
    residual = dt * (y0 @ m.T + d)

    def blocks() -> Iterator[np.ndarray]:
        # time-major: rec[k] holds every replica's deviation k steps into the block
        rec = np.zeros((min(_NOISE_CHUNK, total_steps) + 1, replicas, n))
        for step in range(0, total_steps, _NOISE_CHUNK):
            chunk = min(_NOISE_CHUNK, total_steps - step)
            first = max(burn_steps - step, 0)  # the block's first step past the burn-in
            g = None  # free the last block before the next is drawn
            g = transform(stream.normals((chunk, replicas, n)))
            g *= np.sqrt(dt)
            g += residual
            if shock.kind == "step":
                g[first:] += dt * shock.vector
            elif shock.kind == "impulse" and step <= burn_steps < step + chunk:
                g[first] += shock.vector
            # overflow inside a diverging run is caught by the blowup check
            # below; the error state is not held across a yield
            with np.errstate(over="ignore", invalid="ignore"):
                _recur(rec, f, g)
                peak = float(np.max(np.abs(rec[chunk] + y0)))
            if not np.isfinite(peak) or peak > blow_cap:
                raise NumericalBlowup(
                    f"state magnitude exceeded {BLOWUP_FACTOR:.0e} x ||Y0||_inf "
                    f"at t = {(step + chunk - burn_steps) * dt:.4g}"
                )
            if first < chunk:
                yield rec[first:chunk].transpose(1, 0, 2)
            rec[0] = rec[chunk]
        yield rec[:1].transpose(1, 0, 2)

    return y0, rec_steps + 1, blocks()


def simulate_batch(
    coefficients: np.ndarray,
    demand: np.ndarray,
    nu: np.ndarray,
    shock: ShockProfile,
    dt: float,
    horizon: float,
    burn_in: float,
    seed: int,
    replicas: int,
) -> np.ndarray:
    """Euler-Maruyama integration of ``replicas`` independent paths.

    Returns states of shape (replicas, steps + 1, N), one per step of the
    ``horizon`` starting at t = 0, the end of the burn-in (every path sits at
    the deterministic fixed point Y0 when the run begins); one path is
    ``replicas=1`` and row 0 of the result.  Shock times refer to the
    recorded clock; the burn-in occupies t < 0.

    Beyond the returned states the run holds the forcing and the
    deviations of ``_NOISE_CHUNK`` steps, and the next noise block while it
    is drawn; ``Y0`` is added once per block.  A path that blows up stops at
    the end of its block.  A caller that needs only sums over the states can
    take the deviations as they are recorded instead (see
    :mod:`ioresponse.susceptibility`).
    """
    y0, records, blocks = _euler_blocks(
        coefficients, demand, nu, shock, dt, horizon, burn_in, seed, replicas
    )
    out = np.empty((replicas, records, y0.shape[0]))
    filled = 0
    for block in blocks:
        np.add(block, y0, out=out[:, filled:filled + block.shape[1]])
        filled += block.shape[1]
    return out
