"""Numerical substrate: small SPD linear algebra, normal CDF, and
reproducible random streams.

Everything here is a pure function of its inputs. Streams are counter-based
(Philox keyed by ``(seed, stream_id)``), so replication ``r`` of a Monte Carlo
run can use ``stream_id = r`` and reproduce identically under any execution
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import erfc, ndtri

from .exceptions import SingularMatrix

# Relative pivot floor for Cholesky; below this the matrix is treated as
# singular rather than silently factored.
_PIVOT_RTOL = 1e-12

_SYM_RTOL = 1e-10


def cholesky_spd(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises
    ------
    SingularMatrix
        If a pivot falls below ``1e-12`` times the largest diagonal entry,
        or the matrix is not symmetric to within 1e-10 relative.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SingularMatrix(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > _SYM_RTOL * scale:
        raise SingularMatrix("matrix is not symmetric")
    k = a.shape[0]
    max_diag = float(np.max(a.diagonal())) if k else 0.0
    floor = _PIVOT_RTOL * max(max_diag, 0.0)
    lower = np.zeros_like(a)
    for j in range(k):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if not pivot > floor:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below {floor:.3e} at column {j}; "
                "matrix is not positive definite"
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < k:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def solve_spd(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``m @ u = v`` for symmetric positive definite ``m``.

    ``v`` may be a vector or a matrix of right-hand sides.
    """
    lower = cholesky_spd(m)
    half = solve_triangular(lower, np.asarray(v, dtype=float), lower=True)
    return solve_triangular(lower.T, half, lower=False)


def quad_form_inv(m: np.ndarray, v: np.ndarray) -> float:
    """Return ``v.T @ inv(m) @ v`` for SPD ``m`` without forming the inverse."""
    lower = cholesky_spd(m)
    half = solve_triangular(lower, np.asarray(v, dtype=float), lower=True)
    return float(half @ half)


def normal_cdf(t):
    """Standard normal distribution function, erfc-based.

    Accepts scalars or arrays; absolute error below 1e-12.
    """
    t = np.asarray(t, dtype=float)
    out = 0.5 * erfc(-t / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def normal_quantile(p):
    """Inverse of :func:`normal_cdf`."""
    p = np.asarray(p, dtype=float)
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical ``(seed, stream_id)`` pairs produce bit-identical draw
    sequences; distinct ``stream_id`` values give statistically independent
    streams from the same seed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= int(value) < 2**64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))

