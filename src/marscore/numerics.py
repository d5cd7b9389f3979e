"""Numerical substrate: small SPD solves through LAPACK, normal CDF, and
reproducible random streams.

:func:`solve_spd` checks any SPD matrix with numpy reductions (finite entries,
symmetry to 1e-10) and solves it; :func:`solve_gram`, its fast path for the fits' weighted
Gram matrices, solves first, checks the factor and one sum of Python floats, and hands
solve_spd any matrix it cannot vouch for.

Everything here is a pure function of its inputs. Streams are counter-based
(Philox keyed by ``(seed, stream_id)``), so replication ``r`` of a Monte Carlo
run can use ``stream_id = r`` and reproduce identically under any execution
schedule.
"""

from __future__ import annotations

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

# Rounding noise of a sum, in ulps of its terms' summed magnitude.
_NOISE_ULPS = 256


def solve_spd(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``m @ u = v`` for symmetric positive definite ``m`` by one LAPACK ``dposv`` call.

    ``v`` may be a vector or a matrix of right-hand sides.

    Raises
    ------
    SingularMatrix
        If the matrix is empty or not square, an entry is not finite, the matrix
        is not symmetric to within 1e-10 relative, or a pivot (a squared diagonal
        entry of the factor) is not above ``1e-12`` times its own diagonal entry
        of the matrix.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise SingularMatrix(f"expected a nonempty square matrix, got shape {a.shape}")
    scale = abs(a).max()
    if not math.isfinite(scale):
        raise SingularMatrix(f"non-finite entry at column {np.argmin(np.isfinite(a).all(axis=0))}")
    if abs(a - a.T).max() > _SYM_RTOL * scale:
        raise SingularMatrix("matrix is not symmetric")
    lower, u, info = dposv(a, v, lower=True)
    if low := _low_pivot(lower, a.diagonal().tolist(), info):
        raise SingularMatrix(low)
    return u


def _low_pivot(lower: np.ndarray, diagonal: list, info: int) -> str | None:
    """Why the first pivot of ``dposv``'s factor ``lower`` not above ``_PIVOT_RTOL`` times its
    entry of the matrix's ``diagonal`` fails, or None if every pivot clears that floor. LAPACK
    stops at the first non-positive pivot, column ``info - 1``, and leaves it on the diagonal.
    A failing column whose diagonal entry is not positive is named by that entry: it has no floor."""
    j, last = 0, info - 1  # counted by hand: enumerate would cost solve_gram 0.1 µs a call
    for l_jj, a_jj in zip(lower.diagonal().tolist(), diagonal):
        pivot = l_jj if j == last else l_jj * l_jj
        if not pivot > _PIVOT_RTOL * a_jj:
            if not a_jj > 0.0:
                return (f"diagonal entry {a_jj:.3e} at column {j} is not positive; "
                        "matrix is not positive definite")
            return (f"pivot {pivot:.3e} below {_PIVOT_RTOL * a_jj:.3e} at column {j}; "
                    "matrix is not positive definite")
        j += 1


# Smallest diagonal entry the Gram path takes. Above it a Gram matrix's rounding is
# relative; below it a subnormal partial sum can err by more than 1e-10 of the matrix.
_GRAM_MIN_DIAG = 1e-200


def solve_gram(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`solve_spd` for a weighted Gram matrix ``m = XᵀWX`` with ``W ≥ 0`` of ``n``
    rows, ``n`` at most 4·10⁵: the same solution bits, or the same refusal and message.

    Each entry of such a matrix sums n products, so rounding puts ``|a_ij − a_ji|`` within
    about ``2(n + 2)·2⁻⁵³·max a_ii``, inside solve_spd's 1e-10 symmetry bound for those
    n, and the symmetry check is skipped. solve_spd's ``dposv`` call comes first; its
    solution is taken if LAPACK factored the matrix, every pivot clears solve_spd's floor,
    every diagonal entry exceeds 1e-200 and one sum of Python floats over every entry is
    finite, above the diagonal too, which ``dposv`` never reads. Any other matrix goes to
    solve_spd itself, which gives the refusal and its message.
    """
    k = m.shape[0]
    if k:
        # lower=True, passed by position: f2py's keyword parsing would cost a quarter µs
        lower, u, info = dposv(m, v, 1)
        if not info:
            flat = m.ravel().tolist()
            diagonal = flat[:: k + 1]
            if (min(diagonal) > _GRAM_MIN_DIAG and math.isfinite(sum(flat))
                    and _low_pivot(lower, diagonal, info) is None):
                return u
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

