"""Basis terms over a covariate vector.

Mean and log-variance models are linear combinations of declared terms
(intercept, raw column, square, pairwise product) evaluated on the covariate
matrix whose first column is the constant 1. Terms are declared explicitly in
run configuration rather than inferred from data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BasisTerm:
    """One column of a design matrix: ``intercept``, ``raw``, ``square`` or
    ``product`` of covariate-matrix columns ``i`` (and ``j``)."""

    kind: str
    i: int = 0
    j: int = 0

    _KINDS = ("intercept", "raw", "square", "product")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown basis term kind {self.kind!r}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on covariate matrix ``x`` of shape (n, p); returns (n,)."""
        x = np.atleast_2d(x)
        if self.kind == "intercept":
            return np.ones(x.shape[0])
        if self.kind == "raw":
            return x[:, self.i].copy()
        if self.kind == "square":
            return x[:, self.i] ** 2
        return x[:, self.i] * x[:, self.j]


def intercept() -> BasisTerm:
    return BasisTerm("intercept")


def raw(i: int) -> BasisTerm:
    return BasisTerm("raw", i)


def square(i: int) -> BasisTerm:
    return BasisTerm("square", i)


def product(i: int, j: int) -> BasisTerm:
    return BasisTerm("product", i, j)


def design_matrix(terms, x: np.ndarray) -> np.ndarray:
    """Stack term columns into an (n, len(terms)) design matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not terms:
        raise ValueError("basis must contain at least one term")
    return np.column_stack([t.evaluate(x) for t in terms])
