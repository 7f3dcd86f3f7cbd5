"""A fixed reference kernel that measures how fast the CPU runs right now.

The benchmark runs on shared hosts whose cores slow down by up to 2.5 times
for minutes at a time, while a neighbour loads them.  Wall times of one
program then differ more between runs than the regressions the benchmark
must catch.  So the benchmark times this kernel right before and right
after each measured call, on the same CPU, and reports every end-to-end
time at reference speed: the wall time multiplied by
`REFERENCE_S / (kernel time)`.  A slowdown of the host stretches both
times alike and cancels; a slowdown of the program does not.

The kernel mimics one ADMM iteration of the package without calling it, so
that no change to the package can change the reference: a sparse LU solve,
a batched symmetric eigendecomposition with its PSD reconstruction, a few
small vector operations and a short pure-Python loop.  Its data are fixed,
its working set (about 100 KB) stays in cache, and its duration depends
only on the machine and on the numpy and scipy versions, which every result
records.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# About the kernel's time on an uncontended core of the 2-vCPU x86_64 VM
# the benchmark was tuned on (numpy 2.4.6, scipy 1.17.1; the fastest of
# 3,000 calls took 0.28 ms): the scale of "reference speed".
REFERENCE_S = 0.3e-3

_ROUNDS = 3  # mock ADMM iterations per kernel call


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20241105)
        n = 256
        a = sp.random(n, n, density=0.02, random_state=rng, format="csc")
        self._lu = splu((a + a.T + 8.0 * sp.eye(n)).tocsc())
        mats = rng.standard_normal((9, 4, 4))
        self._mats = mats + mats.transpose(0, 2, 1)
        self._rhs = rng.standard_normal(n)
        self.kernel()  # first call pays for lazy set-up inside numpy and scipy

    def kernel(self) -> float:
        x = self._rhs
        for _ in range(_ROUNDS):
            x = self._lu.solve(x)
            x = x / np.abs(x).max()
            w, v = np.linalg.eigh(self._mats)
            psd = (v * np.maximum(w, 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
            x = np.clip(x, -1.0, 1.0) + 1e-3 * psd[0, 0, 0]
            total = 0
            for i in range(100):
                total += i * i
        return float(np.linalg.norm(x, np.inf)) + total

    def time(self) -> float:
        """Seconds of one kernel call: the faster of two back-to-back calls,
        so that a single interrupt does not count."""
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.kernel()
        t2 = perf_counter()
        return min(t1 - t0, t2 - t1)
