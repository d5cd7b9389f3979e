"""Basis terms over a covariate vector.

Mean and log-variance models are linear combinations of declared terms
evaluated on the covariate matrix whose column 0 is the constant 1. Every
term is the product of two covariate-matrix columns ``i >= j``, so the
intercept is column 0 times column 0, a raw column ``i`` is column ``i``
times column 0, and a square is a column times itself. Terms are declared
explicitly in run configuration rather than inferred from data. A design
matrix is term-major: each term's column is contiguous in memory.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BasisTerm:
    """One column of a design matrix: the product of covariate-matrix
    columns ``i`` and ``j``, stored with ``i >= j >= 0``."""

    i: int
    j: int

    def __post_init__(self):
        try:
            i, j = operator.index(self.i), operator.index(self.j)
        except TypeError:
            i = j = -1
        if min(i, j) < 0:
            raise ValueError(f"basis term indices must be non-negative integers, got ({self.i!r}, {self.j!r})")
        object.__setattr__(self, "i", max(i, j))
        object.__setattr__(self, "j", min(i, j))


# one shared instance: a basis built from intercept() finds it by identity
_INTERCEPT = BasisTerm(0, 0)


def intercept() -> BasisTerm:
    return _INTERCEPT


def raw(i: int) -> BasisTerm:
    return BasisTerm(i, 0)


def square(i: int) -> BasisTerm:
    return BasisTerm(i, i)


def product(i: int, j: int) -> BasisTerm:
    return BasisTerm(i, j)


def design_matrix(terms, x: np.ndarray) -> np.ndarray:
    """Stack term columns into an (n, len(terms)) term-major (F-ordered) design matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not terms:
        raise ValueError("basis must contain at least one term")
    for t in terms:
        if t.i >= x.shape[1]:
            raise ValueError(f"basis term {t} reads column {t.i}, but x has {x.shape[1]} columns")
    # each term's column is contiguous: row weights then scale whole columns, and the
    # fits' Gram and mat-vec products hand BLAS a column-major operand
    return np.array([x[:, t.i] * x[:, t.j] for t in terms]).T
