"""Exception types raised by marscore.

Every error that aborts a fit, a test, or an ingestion run is a subclass of
:class:`MarscoreError`, so callers (and the CLI) can map failures to a single
structured diagnostic line.
"""


class MarscoreError(Exception):
    """Base class for all marscore errors."""


class SingularMatrix(MarscoreError):
    """A matrix that must be positive definite failed factorization."""


class RankDeficientDesign(MarscoreError):
    """A design matrix does not have full column rank (or too few rows)."""


class Separation(MarscoreError):
    """Complete or quasi-complete separation: the logistic MLE does not exist."""


class NoConvergence(MarscoreError):
    """An iterative fit exceeded its iteration budget."""


class DegenerateVariance(MarscoreError):
    """The fitted conditional variance collapsed below the working floor.

    Carries the mean coefficients at the point of failure in ``mean_coef``
    so callers can inspect the partial fit.
    """

    def __init__(self, message, mean_coef=None, row=None):
        super().__init__(message)
        self.mean_coef = mean_coef
        self.row = row


class FitMismatch(MarscoreError):
    """Fit results passed to a score test disagree with the dataset."""


class NegativeVariance(MarscoreError):
    """An assembled plug-in variance estimate was not positive.

    Signals violated regularity conditions or model misuse; the offending
    component set is attached as ``components`` for diagnosis.
    """

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components


class InvalidAlpha(MarscoreError):
    """Significance level outside (0, 1)."""


class MissingColumn(MarscoreError):
    """A declared column is absent from the input file."""


class NonNumericCell(MarscoreError):
    """A cell that must be numeric could not be parsed."""


class MissingCovariate(MarscoreError):
    """A covariate cell is empty or NA; covariates may never be missing."""


class EmptyDataset(MarscoreError):
    """The input file contains no data rows."""


class IoFailure(MarscoreError):
    """An input file could not be read or decoded, or an output could not be written."""
