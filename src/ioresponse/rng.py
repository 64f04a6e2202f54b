"""Deterministic Gaussian streams for reproducible simulation.

Every stochastic routine in the package draws its noise through
:class:`GaussianStream`.  The stream combines the Philox 4x64-10 counter-based
bit generator (keyed through ``numpy.random.SeedSequence`` with spawn key 0)
with an inverse-CDF transform, ``scipy.special.ndtri``.  Both pieces are fully
specified algorithms with no rejection step, so a given seed yields the
same variates in the same order on one machine and library build, and the
stream position is a pure function of how many variates were drawn.  The
inverse CDF goes through the C library's ``log``, which can round
differently on another CPU or build: across platforms the variates agree
to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np

_TWO_53 = 1 << 53
_INV_TWO_53 = 1.0 / _TWO_53
#: The largest double below 1.
_BELOW_ONE = 1.0 - _INV_TWO_53


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles ``(k + 0.5) * 2**-53`` from 53-bit words ``k``, inside (0, 1).

    The top word ``2**53 - 1`` rounds to exactly 1.0, where the inverse
    normal CDF is infinite; it is clamped to the largest double below 1,
    and every other word maps below it.
    """
    u = words.astype(np.float64)
    u += 0.5
    u *= _INV_TWO_53
    return np.minimum(u, _BELOW_ONE, out=u)


class GaussianStream:
    """Seeded stream of standard normal variates.

    Uniform doubles are built from 53-bit Philox words (:func:`_uniforms`),
    then mapped through the inverse normal CDF.  One bit-generator draw is
    consumed per variate.
    """

    def __init__(self, seed: int):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0,))
        self._gen = np.random.Generator(np.random.Philox(seed=ss))

    def normals(self, shape) -> np.ndarray:
        """Return an array of independent N(0, 1) draws.

        The uniforms are transformed in place, so the call holds at most
        the integer draw and one float array of ``shape``.
        """
        from scipy.special import ndtri

        u = _uniforms(self._gen.integers(0, _TWO_53, size=shape, dtype=np.uint64))
        return ndtri(u, out=u)
