"""Partially observed samples.

A :class:`Dataset` holds n rows of (missingness indicator, outcome where
observed, covariate vector). Outcomes of missing rows are never stored, not
even as a sentinel: the outcome array is indexed by the complete cases only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import design_matrix
from .exceptions import RankDeficientDesign


@dataclass(frozen=True)
class Dataset:
    """Immutable array-backed collection of partially observed rows.

    Attributes
    ----------
    x : (n, p) covariate matrix, first column identically 1, F-ordered.
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
        x = np.asfortranarray(np.asarray(self.x, dtype=float))
        d = np.asarray(self.d)
        y = np.asarray(self.y_complete, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("x must be a nonempty (n, p) matrix")
        if d.shape != (x.shape[0],):
            raise ValueError("d must have one entry per row of x")
        # checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0
        if not ((d == 0) | (d == 1)).all():
            raise ValueError("d must be 0/1")
        d = d.astype(np.int8, copy=False)
        if y.shape != (int(d.sum()),):
            raise ValueError("y_complete must have one entry per d == 1 row")
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise ValueError("all stored values must be finite")
        if not (x[:, 0] == 1.0).all():
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

    @cached_property
    def complete_idx(self) -> np.ndarray:
        idx = self.d.nonzero()[0]
        idx.flags.writeable = False
        return idx

    @property
    def n_complete(self) -> int:
        return self.complete_idx.size

    def design(self, terms, complete: bool = False) -> np.ndarray:
        """The design of basis ``terms`` over all rows, or over the complete rows when
        ``complete``, read-only and F-ordered. Each basis is evaluated once per dataset,
        and its complete rows are gathered from that evaluation.

        Raises
        ------
        RankDeficientDesign
            If a term's product of covariate columns overflows.
        """
        terms = tuple(terms)
        designs = self._designs.get(terms)
        if designs is None:
            with np.errstate(over="ignore"):
                out = design_matrix(terms, self.x)
            if not np.isfinite(out).all():
                k = int(np.isfinite(out).all(axis=0).argmin())
                raise RankDeficientDesign(f"design column {k} ({terms[k]}) overflows")
            out.flags.writeable = False
            designs = self._designs[terms] = (out, _rows(out, self.complete_idx))
        return designs[1] if complete else designs[0]

    @cached_property
    def _designs(self) -> dict:
        return {}

    @cached_property
    def _solutions(self) -> dict:
        """Least-squares coefficients per complete-rows design, kept by ``marscore.model``."""
        return {}

    @property
    def missing_fraction(self) -> float:
        return 1.0 - self.n_complete / self.n

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New dataset holding the given rows (order preserved), integer indices in ``[0, n)``:
        a negative, fractional or boolean index is refused, not read as numpy would read it."""
        rows = np.asarray(rows)
        if (rows.ndim != 1 or rows.dtype.kind not in "iu"
                or rows.size and not 0 <= rows.min() <= rows.max() < self.n):
            raise ValueError(f"rows must be a 1-D array of integer row indices in [0, {self.n})")
        mask_complete = self.d[rows] == 1
        full_pos = np.cumsum(self.d) - 1
        labels = {k: tuple([v[i] for i in rows.tolist()]) for k, v in self.labels.items()}
        return Dataset(
            x=_rows(self.x, rows),
            d=self.d[rows],
            y_complete=self.y_complete[full_pos[rows[mask_complete]]],
            labels=labels,
        )


def _rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows of an F-ordered matrix, read-only and F-ordered: ``take`` along the
    rows of its C-ordered transpose costs a fraction of a 2-D fancy index."""
    out = x.T.take(rows, axis=1).T
    out.flags.writeable = False
    return out
