"""The reference work that end-to-end times are scaled by.

On a shared virtual machine with 2 Intel Xeon vCPUs, CPU speed changes by
20-60% over seconds as other tenants load the host, and a 20-second run
cannot average that out. The worker therefore runs this fixed piece of work
before and after every timed call, and reports each call's time relative to
it. The work uses the same kind of operations as marscore's fits (small
numpy products, ``expit``, a Python-loop Cholesky factor and scipy's
``solve_triangular``) but none of marscore's code, so a change to marscore
moves the call time and leaves the reference alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import expit

# Nominal time of one loop of the reference work. A time "at reference speed"
# is the call's wall time scaled as if one loop had taken exactly this long.
LOOP_MS = 0.5
_ROWS = 1000


def _cholesky(a: np.ndarray) -> np.ndarray:
    k = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(k):
        lower[j, j] = np.sqrt(a[j, j] - lower[j, :j] @ lower[j, :j])
        if j + 1 < k:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


class Reference:
    """``loops`` Newton fits of a two-column logistic model on fixed data."""

    def __init__(self, loops: int):
        self.loops = loops
        rng = np.random.default_rng(0)
        self.x = np.column_stack([np.ones(_ROWS), rng.standard_normal(_ROWS)])
        self.d = (rng.random(_ROWS) < 0.6).astype(float)

    def seconds(self) -> float:
        """Run the work once; return its wall time."""
        x, d = self.x, self.d
        t0 = perf_counter()
        for _ in range(self.loops):
            beta = np.zeros(2)
            for _ in range(5):
                pi = expit(x @ beta)
                lower = _cholesky(x.T @ (x * (pi * (1.0 - pi))[:, None]))
                half = solve_triangular(lower, x.T @ (d - pi), lower=True)
                beta = beta + solve_triangular(lower.T, half, lower=False)
        return perf_counter() - t0

    def nominal_seconds(self) -> float:
        return self.loops * LOOP_MS / 1e3
