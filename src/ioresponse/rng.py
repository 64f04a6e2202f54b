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

#: Half the spacing of the uniform grid ``k * 2**-53``.
_HALF_STEP = 2.0**-54
#: The largest double below 1.
_BELOW_ONE = 1.0 - 2.0**-53


class GaussianStream:
    """Seeded stream of standard normal variates.

    Each variate takes one Philox word: ``Generator.random`` gives its top 53
    bits ``k`` as ``k * 2**-53``, which ``+ 2**-54`` moves to the midpoint
    ``(k + 0.5) * 2**-53``, inside (0, 1).  The top word ``k = 2**53 - 1``
    rounds to exactly 1.0, where the inverse normal CDF is infinite; it is
    clamped to the largest double below 1, and every other word maps below
    it.  The midpoints then go through the inverse normal CDF.
    """

    def __init__(self, seed: int):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0,))
        self._gen = np.random.Generator(np.random.Philox(seed=ss))

    def normals(self, shape) -> np.ndarray:
        """Return an array of independent N(0, 1) draws.

        One float array of ``shape`` is drawn and transformed in place, so
        the call holds nothing else: 0.46 MB for a block of 256 steps of 8
        replicas at N = 28.
        """
        from scipy.special import ndtri

        u = self._gen.random(shape)
        u += _HALF_STEP
        np.minimum(u, _BELOW_ONE, out=u)
        return ndtri(u, out=u)
