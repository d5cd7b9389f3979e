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
    """An iterative fit stopped short of its optimum: it exceeded its iteration
    budget, a line search found no ascent in 30 halvings, the propensity
    information was singular after the first step, the outcome information
    was singular even without its cross block, or the outcome fit's final
    step was taken without its cross block."""


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
    """A plug-in variance estimate was zero within rounding, not positive or
    not finite, or could not be formed because a matrix it solves was
    singular: the propensity information ``A_hat``, the mean block of S1's
    ``B_hat`` or S2's ``C1_hat``.

    The estimate is a sum of squares, never negative; zero means violated
    regularity conditions or model misuse, and a non-finite value an
    overflowing term. The offending component set is attached as
    ``components`` for diagnosis, with the report-only terms filled in by
    ``score.with_report_terms``; from ``score.test_report`` (only hand-built
    components reach it) it is the set as given, report terms maybe None.
    For a singular matrix it is None, the ``SingularMatrix`` is the
    ``__cause__``, and the message starts ``propensity information A_hat is
    singular: ``, ``S1 variance: mean information block is singular: `` or
    ``S2 variance: C1_hat is singular: `` and names the failing pivot.
    """

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components


class NonFiniteDraw(MarscoreError):
    """A simulated outcome overflowed, or an observation probability is nan."""


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
