"""Numerical substrate: small SPD solves through LAPACK, normal CDF, and
reproducible random streams.

:func:`solve_spd` checks and solves any SPD matrix; :func:`solve_gram` is its fast
path for the weighted Gram matrices the fits solve, and hands it any matrix it cannot vouch for.

Everything here is a pure function of its inputs. Streams are counter-based
(Philox keyed by ``(seed, stream_id)``), so replication ``r`` of a Monte Carlo
run can use ``stream_id = r`` and reproduce identically under any execution
schedule.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.special import erfc, ndtri

from .exceptions import SingularMatrix

# Pivot floor for Cholesky, relative to the pivot's own diagonal entry (the
# floor of the Jacobi-scaled matrix, so a verdict does not depend on units);
# below it the matrix is treated as singular rather than silently factored.
_PIVOT_RTOL = 1e-12

_SYM_RTOL = 1e-10

# Largest order whose finiteness and symmetry pre-check runs on Python floats. Those
# cost O(k²) interpreted steps: best of 7×2000 calls on a 2-core x86-64 host, an SPD
# solve took 11.5 µs against 9.9 µs with numpy's checks at k = 7, 14.7 against 8.7 at
# k = 9 and 40.2 against 15.2 at k = 16, and 7.7 against 10.1 at k = 4.
_PYTHON_CHECKS_MAX_K = 7

# Rounding noise of a sum, in ulps of its terms' summed magnitude.
_NOISE_ULPS = 256


@functools.cache
def _transposed(k: int) -> tuple:
    """Where the entries of a k×k matrix's transpose lie in its row-major list."""
    return tuple(c * k + r for r in range(k) for c in range(k))


def solve_spd(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``m @ u = v`` for symmetric positive definite ``m`` by one LAPACK ``dposv`` call.

    ``v`` may be a vector or a matrix of right-hand sides.

    Raises
    ------
    SingularMatrix
        If an entry is not finite, the matrix is not symmetric to within
        1e-10 relative, or a pivot (a squared diagonal entry of the factor)
        is not above ``1e-12`` times its own diagonal entry of the matrix.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SingularMatrix(f"expected a square matrix, got shape {a.shape}")
    # On a small matrix Python floats are cheaper than numpy reductions. A sum of finite
    # entries is finite unless it overflows; a - aᵀ is antisymmetric, so its largest entry
    # is its largest magnitude; and max |a| is at least the largest diagonal entry. So a
    # matrix these say is finite and symmetric is; any other gets the full checks.
    k = a.shape[0]
    if k > _PYTHON_CHECKS_MAX_K:
        diagonal, checked = a.diagonal().tolist(), False
    else:
        flat = a.ravel().tolist()
        diagonal = flat[:: k + 1]
        checked = (math.isfinite(sum(flat))
                   and max(map(operator.sub, flat, map(flat.__getitem__, _transposed(k))), default=0.0)
                   <= _SYM_RTOL * max(diagonal, default=0.0))
    if not checked:
        scale = abs(a).max(initial=0.0)
        if not math.isfinite(scale):
            raise SingularMatrix(f"non-finite entry at column {np.argmin(np.isfinite(a).all(axis=0))}")
        if abs(a - a.T).max(initial=0.0) > _SYM_RTOL * scale:
            raise SingularMatrix("matrix is not symmetric")
    return _factor_and_solve(a, v, diagonal)


def _factor_and_solve(a: np.ndarray, v: np.ndarray, diagonal: list) -> np.ndarray:
    """One ``dposv`` call on ``a``, a finite symmetric matrix whose diagonal is ``diagonal``,
    then :func:`solve_spd`'s per-pivot floor."""
    lower, u, info = dposv(a, v, lower=True)
    for j, (l_jj, a_jj) in enumerate(zip(lower.diagonal().tolist(), diagonal)):
        # LAPACK stops at the first non-positive pivot and leaves it on the diagonal
        pivot = l_jj if j == info - 1 else l_jj * l_jj
        floor = _PIVOT_RTOL * a_jj
        if not pivot > floor:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below {floor:.3e} at column {j}; "
                "matrix is not positive definite"
            )
    return u


# Smallest diagonal entry the Gram path takes. Above it a Gram matrix's rounding is
# relative; below it a subnormal partial sum can err by more than 1e-10 of the matrix.
_GRAM_MIN_DIAG = 1e-200


def solve_gram(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`solve_spd` for a weighted Gram matrix ``m = XᵀWX`` with ``W ≥ 0`` of ``n``
    rows, ``n`` at most 4·10⁵: the same solution bits, or the same refusal and message.

    Each entry of such a matrix sums n products, so rounding puts ``|a_ij − a_ji|`` within
    about ``2(n + 2)·2⁻⁵³·max a_ii``, inside solve_spd's 1e-10 symmetry bound for those
    n, and the symmetry check is skipped. One sum over every entry checks finiteness,
    above the diagonal too, which ``dposv`` never reads; above order 7, where Python
    floats cost more, ``np.isfinite`` checks instead. Then come solve_spd's ``dposv``
    call and pivot floor. A matrix with a non-finite entry or sum, or a diagonal entry
    under 1e-200, goes to solve_spd itself.
    """
    k = m.shape[0]
    if k > _PYTHON_CHECKS_MAX_K:
        finite, diagonal = np.isfinite(m).all(), m.diagonal().tolist()
    else:
        flat = m.ravel().tolist()
        finite, diagonal = math.isfinite(sum(flat)), flat[:: k + 1]
    if finite and k and min(diagonal) > _GRAM_MIN_DIAG:
        return _factor_and_solve(m, v, diagonal)
    return solve_spd(m, v)


def quad_form_inv(m: np.ndarray, v: np.ndarray) -> float:
    """Return ``v.T @ inv(m) @ v`` for SPD ``m`` without forming the inverse."""
    return float(np.asarray(v, dtype=float) @ solve_spd(m, v))


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
            value = operator.index(getattr(self, name))
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))

