"""Time evolution of the linear production network.

The economy relaxes toward its fixed point ``Y0 = (I - A)^{-1} D`` under the
drift matrix ``M = A - I`` while being driven by white noise with covariance
``nu`` and, optionally, an external demand shock ``X(t)``:

    dY = [(A - I) Y + D + X(t)] dt + dW,   cov(dW) = nu dt.

This module provides the fixed point, the package's matrix exponential
(``expm``, numpy only), the moments of the unshocked process, and sampling
of trajectories by the process's exact transition (Gillespie, Phys. Rev. E
54:2084, 1996).  The map ``F = exp((A - I) h)`` over a step ``h``, the
covariance ``Q(h)`` of a step's noise and the stationary covariance come
from one exponential of a block matrix (Van Loan, IEEE Trans. Autom.
Control 23:395, 1978) and Smith's doubling (SIAM J. Appl. Math. 16:198,
1968).  Every sampled path is ``x(k+1) = F x(k) + g(k)`` on the deviations
``x = Y - Y0``, with the noise and shocks in ``g``, at ``h = 1`` for the VAR
baseline and ``h = dt`` for the Monte Carlo route: exact at any step, so a
noiseless shocked path is the analytic response curve up to rounding.
``simulate_batch`` is the one public entry: it stores the states of every
replica, one path being ``replicas=1``.  The Monte Carlo Green-Kubo sums take
the deviations in blocks as the loop produces them instead
(``_path_blocks``, which ``simulate_batch`` fills its array from).  All
randomness flows through :mod:`ioresponse.rng`, so on one machine and
library build a seed pins a trajectory bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    NumericalBlowup,
    NumericalError,
    SingularSystem,
    UnstableDrift,
)
from .iodata import _finite_vector, _leontief
from .rng import GaussianStream
from .settings import DEFAULT_BURN_IN, DEFAULT_DT  # noqa: F401  (importable from here)

#: Relative residual allowed for the equilibrium solve.
EQUILIBRIUM_RTOL = 1e-10
#: Relative Frobenius residual allowed for the Lyapunov solve.
LYAPUNOV_RTOL = 1e-9
#: A state is declared blown up beyond this multiple of ||Y0||_inf.
BLOWUP_FACTOR = 1e12

#: Steps per block of noise draws.  The stream position depends only
#: on the count drawn, so the block size never changes a variate.  A block
#: of 8 replicas at N = 28 takes 0.46 MB.
_NOISE_CHUNK = 256
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
    d = _finite_vector("demand", demand, len(a))
    system = np.eye(a.shape[0]) - a
    y = _leontief(a, d)
    y = y + _leontief(a, d - system @ y)
    scale = max(float(np.max(np.abs(d))), np.finfo(float).tiny)
    residual = float(np.max(np.abs(system @ y - d)))
    if not np.all(np.isfinite(y)) or residual > EQUILIBRIUM_RTOL * scale:
        raise SingularSystem(
            f"equilibrium residual {residual:.3e} exceeds tolerance",
            condition=float(np.linalg.cond(system)),
        )
    return y


#: Largest 1-norm at which the degree-18 Taylor polynomial of exp has a
#: relative backward error under the unit roundoff 2^-53 (Bader, Blanes &
#: Casas, Mathematics 7:1174, 2019).
_THETA_18 = 1.090863719290036

#: 1/k! for k = 0..18, row j holding the factors of B^(4j) .. B^(4j+3): the
#: Paterson-Stockmeyer blocks of the Taylor polynomial in powers of B^4.
_TAYLOR_BLOCKS = np.array(
    [[1.0 / math.factorial(k) if k <= 18 else 0.0 for k in range(j, j + 4)]
     for j in range(0, 20, 4)]
)

#: Doubling rounds of the stationary sum; round r adds the years 2^r .. 2^(r+1) - 1.
_DOUBLINGS = 64


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor polynomial.

    ``exp(M) = exp(mu) exp(B)^(2^s)`` with ``mu`` the mean of the diagonal,
    ``B = (M - mu I) / 2^s`` and ``s`` the fewest halvings that bring
    ``||B||_1`` under ``_THETA_18``; ``exp(B)`` is its degree-18 Taylor
    polynomial, evaluated by Paterson-Stockmeyer in seven matrix products
    and no solve (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005).  On
    drift matrices it agrees with ``scipy.linalg.expm`` within 5e-14 of the
    largest entry up to ``t = 80``.  ``mu`` is taken from the diagonal's
    minimum, so a constant diagonal gives ``B = 0`` and ``exp(c I)`` is
    exactly ``exp(c) I``.  ``exp(mu / 2^s)`` scales the polynomial before
    the squarings, so a long horizon neither overflows nor underflows early.

    It is the one matrix function of the package, and it needs numpy only:
    every propagator goes through ``susceptibility.expm`` (this function,
    imported there), and so every response curve and forecast; the yearly
    noise covariance and the stationary covariance come from one call on a
    block matrix (:func:`_transition_moments`).
    """
    b = np.array(m, dtype=float, order="C")
    n = b.shape[0]
    diagonal = b.diagonal()
    low = diagonal.min()
    mu = low + (diagonal - low).mean()
    b.reshape(-1)[:: n + 1] -= mu
    _, s = math.frexp(np.abs(b).sum(axis=0).max() / _THETA_18)
    s = max(s, 0)
    b *= 0.5**s
    powers = np.zeros((4, n, n))
    powers[0].reshape(-1)[:: n + 1] = 1.0
    powers[1] = b
    np.matmul(b, b, out=powers[2])
    np.matmul(powers[2], b, out=powers[3])
    b4 = powers[2] @ powers[2]
    blocks = (_TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape(-1, n, n)
    e = blocks[-1]
    for block in blocks[-2::-1]:
        e = b4 @ e
        e += block
    e *= np.exp(mu * 0.5**s)
    for _ in range(s):
        e = e @ e
    return e


def _transition_moments(
    coefficients: np.ndarray, nu: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(P, Q, sigma)``: the map ``P = exp(M h)`` over a step of ``h``
    years, the covariance ``Q = int_0^h exp(M s) nu exp(M^T s) ds`` of a
    step's noise, and the stationary covariance ``sigma = sum_k P^k Q P^kT``.

    ``P`` and ``Q`` come from one :func:`expm` of
    ``[[-M, nu / c], [0, M^T]] h``, ``c`` the largest ``|nu|``: its lower
    right block is ``P^T``, and ``P`` times its upper right block is
    ``Q / c`` (Van Loan, IEEE Trans. Autom. Control 23:395, 1978).  Without
    ``c`` a variance of 1e200 would take hundreds of halvings and round
    ``M`` away.  ``sigma / c`` follows by
    Smith's doubling (SIAM J. Appl. Math. 16:198, 1968): ``S = Q / c``,
    ``E = P``, then ``S += E S E^T`` and ``E = E E`` until the increment is
    below 1e-17 of ``S``.  :class:`UnstableDrift` when the sum overflows or
    has not settled after ``_DOUBLINGS`` rounds; :class:`NumericalError`
    when ``sigma`` fails the Lyapunov residual check.
    """
    m = drift_matrix(coefficients)
    nu = np.asarray(nu, dtype=float)
    n = m.shape[0]
    # a norm squares its entries: work in units of the largest |nu|, so that
    # variances near 1e200 do not overflow it
    scale = max(float(np.max(np.abs(nu))), np.finfo(float).tiny)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -m
    block[:n, n:] = nu / scale
    block[n:, n:] = m.T
    settled = False
    # an unstable drift overflows: it is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        f = expm(block * h)
        p = f[n:, n:].T
        q = p @ f[:n, n:]
        s, e = q, p
        for _ in range(_DOUBLINGS):
            increment = e @ s @ e.T
            s = s + increment
            # inf <= 1e-17 * inf holds: a sum that overflowed has not settled
            if not np.all(np.isfinite(s)):
                break
            settled = np.max(np.abs(increment)) <= 1e-17 * np.max(np.abs(s))
            if settled:
                break
            e = e @ e
        sigma = 0.5 * (s + s.T) * scale
        residual = float(np.linalg.norm((m @ sigma + sigma @ m.T + nu) / scale))
    if not settled:
        raise UnstableDrift(
            "the stationary covariance diverges: A - I has an eigenvalue with "
            "nonnegative real part"
        )
    if not residual <= LYAPUNOV_RTOL * float(np.linalg.norm(nu / scale)):
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} (in units of the largest |nu|) exceeds "
            f"{LYAPUNOV_RTOL:.0e} relative tolerance"
        )
    return p, q * scale, sigma


def stationary_covariance(coefficients: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Stationary covariance sigma of the unshocked process.

    sigma solves the continuous Lyapunov equation
    ``M sigma + sigma M^T + nu = 0`` with ``M = A - I``; it is formed from
    one block exponential and a doubling (:func:`_transition_moments`).  An
    unstable drift raises :class:`UnstableDrift` once the noise reaches it;
    a mode that no noise excites keeps the sum finite and goes unreported
    (a productive table, ``rho(A) < 1``, has no unstable mode).
    """
    return _transition_moments(coefficients, nu, 1.0)[2]


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


def _noise_transform(nu: np.ndarray):
    """Map from standard normal draws (last axis N) to draws of covariance nu,
    through a factor nu = L L^T, applied as one matrix product over all
    draws."""
    nu = np.asarray(nu, dtype=float)
    w, v = np.linalg.eigh(0.5 * (nu + nu.T))
    if np.min(w) < -1e-12 * max(np.max(np.abs(w)), 1.0):
        raise ValueError("noise covariance is not positive semidefinite")
    factor_t = (v * np.sqrt(np.clip(w, 0.0, None))).T
    return lambda draws: (draws.reshape(-1, len(nu)) @ factor_t).reshape(draws.shape)


def _recur(record: np.ndarray, f: np.ndarray, forcing: np.ndarray) -> None:
    """``record[k + 1] = F record[k] + forcing[k]`` in place for each k of the
    forcing: the one recursion of every sampled path, the Monte Carlo
    sampler's and the VAR's."""
    ft = f.T
    for k in range(len(forcing)):
        np.matmul(record[k], ft, out=record[k + 1])
        np.add(record[k + 1], forcing[k], out=record[k + 1])


def _path_blocks(
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

    ``blocks`` steps the deviations by the exact transition over ``dt``,
    ``F = exp((A - I) dt)``, and yields the ``records`` recorded ones in
    time order as (replicas, b, N) arrays: one block per ``_NOISE_CHUNK``
    steps (fewer in the block that ends the burn-in), then the final state.
    It holds the deviations and the forcing of one block, and the next
    block's standard normals while they are drawn and transformed.
    A block's forcing ``g`` is its noise, of covariance ``Q(dt)``, plus
    ``rho(dt) X = (I - A)^{-1} (I - F) X`` after the burn-in for a step
    shock or ``X`` at its end for an impulse.  A block is yielded after its
    blow-up check and overwritten by the next, so a consumer copies what it
    keeps.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    a = np.asarray(coefficients, dtype=float)
    n = a.shape[0]
    if shock.kind != "none":
        _finite_vector("shock vector", shock.vector, n)
    y0 = equilibrium_output(a, demand)

    burn_steps = step_count(burn_in, dt)
    rec_steps = step_count(horizon, dt)
    total_steps = burn_steps + rec_steps

    f, q, _ = _transition_moments(a, nu, dt)
    transform = _noise_transform(q)
    if shock.kind == "step":
        step_forcing = _leontief(a, shock.vector - f @ shock.vector)
    stream = GaussianStream(seed)
    blow_cap = BLOWUP_FACTOR * max(float(np.max(np.abs(y0))), 1.0)

    def blocks() -> Iterator[np.ndarray]:
        # time-major: rec[k] holds every replica's deviation k steps into the block
        rec = np.zeros((min(_NOISE_CHUNK, total_steps) + 1, replicas, n))
        for step in range(0, total_steps, _NOISE_CHUNK):
            chunk = min(_NOISE_CHUNK, total_steps - step)
            first = max(burn_steps - step, 0)  # the block's first step past the burn-in
            g = None  # free the last block before the next is drawn
            g = transform(stream.normals((chunk, replicas, n)))
            if shock.kind == "step":
                g[first:] += step_forcing
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
    """``replicas`` independent paths, sampled by the exact transition
    over each step of ``dt``.

    Returns states of shape (replicas, steps + 1, N), one per step of the
    ``horizon`` starting at t = 0, the end of the burn-in (every path sits at
    the deterministic fixed point Y0 when the run begins); one path is
    ``replicas=1`` and row 0 of the result.  Shock times refer to the
    recorded clock; the burn-in occupies t < 0.

    Beyond the returned states the run holds the forcing and the
    deviations of ``_NOISE_CHUNK`` steps, and the next noise block and its
    standard normals while it is drawn; ``Y0`` is added once per block.  A
    path that blows up stops at the end of its block; an unstable drift that
    the noise reaches raises :class:`UnstableDrift` before the first step.
    A caller that needs only sums over the states can take the deviations
    as they are recorded instead (see :mod:`ioresponse.susceptibility`).
    """
    y0, records, blocks = _path_blocks(
        coefficients, demand, nu, shock, dt, horizon, burn_in, seed, replicas
    )
    out = np.empty((replicas, records, y0.shape[0]))
    filled = 0
    for block in blocks:
        np.add(block, y0, out=out[:, filled:filled + block.shape[1]])
        filled += block.shape[1]
    return out
