"""marscore: score tests for missing at random versus missing not at random.

Two tests of the null hypothesis that a missing-outcome mechanism is MAR,
under a linear logistic propensity model: S1 plugs a parametric Gaussian
outcome model into the gamma-score, S2 a semiparametric least-squares
location model. Both need estimation only under the null, so no
identification conditions (and no instrumental variable) are required under
the alternative.
"""

from .basis import BasisTerm, design_matrix, intercept, product, raw, square
from .data import Dataset
from .exceptions import (
    DegenerateVariance,
    EmptyDataset,
    FitMismatch,
    InvalidAlpha,
    IoFailure,
    MarscoreError,
    MissingColumn,
    MissingCovariate,
    NegativeVariance,
    NoConvergence,
    NonFiniteDraw,
    NonNumericCell,
    RankDeficientDesign,
    Separation,
    SingularMatrix,
)
from .io import (
    ColumnSpec,
    GroupTestFailure,
    GroupTestRecord,
    RunConfig,
    group_by,
    read_csv,
    run_configured_tests,
    write_report,
)
from .model import (
    GaussianOutcomeFamily,
    LocationFit,
    ParametricOutcomeFit,
    PropensityFit,
    fit_location,
    fit_outcome_parametric,
    fit_propensity_null,
)
from .numerics import (
    RngStream,
    normal_cdf,
    normal_quantile,
    solve_spd,
)
from .score import (
    ScoreTestResult,
    VarianceComponentsS1,
    VarianceComponentsS2,
    analytic_local_power,
    score_statistic_s1,
    score_statistic_s2,
    test_report,
    variance_s1,
    variance_s2,
)
from .sim import (
    Example1Config,
    Example2Config,
    RejectionRateReport,
    generate_example1,
    generate_example2,
    power_curve,
    run_rejection_study,
)

__version__ = "0.1.0"
