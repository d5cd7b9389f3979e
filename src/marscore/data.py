"""Partially observed samples.

A :class:`Dataset` holds n rows of (missingness indicator, outcome where
observed, covariate vector). Outcomes of missing rows are never stored, not
even as a sentinel: the outcome array is indexed by the complete cases only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Immutable array-backed collection of partially observed rows.

    Attributes
    ----------
    x : (n, p) covariate matrix, first column identically 1.
    d : (n,) 0/1 missingness indicators (1 = outcome observed).
    y_complete : (n_complete,) outcomes for rows with ``d == 1``, in row order.
    labels : optional passthrough string columns (e.g. a grouping variable),
        keyed by column name.
    """

    x: np.ndarray
    d: np.ndarray
    y_complete: np.ndarray
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        d = np.asarray(self.d, dtype=np.int8)
        y = np.asarray(self.y_complete, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("x must be a nonempty (n, p) matrix")
        if d.shape != (x.shape[0],):
            raise ValueError("d must have one entry per row of x")
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("d must be 0/1")
        if y.shape != (int(d.sum()),):
            raise ValueError("y_complete must have one entry per d == 1 row")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("all stored values must be finite")
        if not np.all(x[:, 0] == 1.0):
            raise ValueError("first covariate column must be the constant 1")
        for name, vals in self.labels.items():
            if len(vals) != x.shape[0]:
                raise ValueError(f"label column {name!r} must have one entry per row")
        x.flags.writeable = False
        d.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "y_complete", y)

    @classmethod
    def from_generated(cls, x: np.ndarray, d: np.ndarray, y_full: np.ndarray) -> "Dataset":
        """Build from a simulated full outcome vector, erasing y where d == 0."""
        d = np.asarray(d)
        return cls(x=x, d=d, y_complete=np.asarray(y_full, dtype=float)[d == 1])

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def complete_idx(self) -> np.ndarray:
        return np.flatnonzero(self.d == 1)

    @property
    def missing_idx(self) -> np.ndarray:
        return np.flatnonzero(self.d == 0)

    @property
    def n_complete(self) -> int:
        return int(self.d.sum())

    @property
    def missing_fraction(self) -> float:
        return 1.0 - self.n_complete / self.n

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New dataset holding the given rows (order preserved)."""
        rows = np.asarray(rows, dtype=int)
        mask_complete = self.d[rows] == 1
        full_pos = np.cumsum(self.d) - 1
        labels = {k: tuple([v[i] for i in rows.tolist()]) for k, v in self.labels.items()}
        return Dataset(
            x=self.x[rows],
            d=self.d[rows],
            y_complete=self.y_complete[full_pos[rows[mask_complete]]],
            labels=labels,
        )
