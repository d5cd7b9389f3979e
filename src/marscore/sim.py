"""Data generators and the Monte Carlo replication engine.

Two generator families:

* Example 1: trivariate normal hierarchy (Y | U, Z), (U | Z), Z with a
  probit missingness mechanism ``Phi(c0 + c1 * w(Y) + c2 * U)``; the tested
  propensity model is still the linear logistic one. The probit intercept
  ``c0`` is a required configuration value (library default 0.5) that
  controls the base missingness rate.
* Example 2: univariate standard-normal covariate, Gaussian outcome with
  quadratic mean and log-linear variance, logistic missingness
  ``pi(beta0 + beta1 * x + gamma * y)``; ``gamma = 0`` is the null.

Replication ``r`` of a study always uses ``stream_id = r``, so any single
replication can be re-run from ``(base_seed, r)`` alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .basis import intercept, raw, square
from .data import Dataset
from .exceptions import MarscoreError
from .model import (
    GaussianOutcomeFamily,
    fit_location,
    fit_outcome_parametric,
    fit_propensity_null,
)
from .numerics import RngStream, normal_cdf, normal_quantile
from .score import (
    score_statistic_s1,
    score_statistic_s2,
    test_report,
    variance_s1,
    variance_s2,
)

W_VARIANTS = ("identity", "quad04", "indicator")


@dataclass(frozen=True)
class Example1Config:
    """Generator settings for the instrumented trivariate-normal design."""

    departure = "c1"  # the field a power curve varies

    n: int
    b_z: float = 0.5
    c1: float = 0.0
    c2: float = 0.0
    c0: float = 0.5
    w_variant: str = "identity"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.w_variant not in W_VARIANTS:
            raise ValueError(f"w_variant must be one of {W_VARIANTS}, got {self.w_variant!r}")

    def to_dict(self) -> dict:
        return {
            "example": 1,
            "n": self.n,
            "b_z": self.b_z,
            "c0": self.c0,
            "c1": self.c1,
            "c2": self.c2,
            "w_variant": self.w_variant,
        }


@dataclass(frozen=True)
class Example2Config:
    """Generator settings for the no-instrument quadratic-mean design."""

    departure = "gamma"

    n: int
    xi_true: tuple = (-1.0, 1.0, 0.5, 0.0)
    beta0: float = 0.85
    beta1: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        xi = tuple(float(v) for v in self.xi_true)
        if len(xi) != 4:
            raise ValueError(f"xi_true must have 4 entries, got {len(xi)}")
        object.__setattr__(self, "xi_true", xi)

    def to_dict(self) -> dict:
        return {
            "example": 2,
            "n": self.n,
            "xi_true": list(self.xi_true),
            "beta0": self.beta0,
            "beta1": self.beta1,
            "gamma": self.gamma,
        }


def w_function(variant: str, y: np.ndarray) -> np.ndarray:
    if variant == "identity":
        return y
    if variant == "quad04":
        return 0.4 * y**2
    return 2.5 * (y > 1.0)


def generate_example1(cfg: Example1Config, stream: RngStream) -> Dataset:
    """Draw one Example-1 dataset; covariate vector is (1, U, Z)."""
    rng = stream.generator()
    z = rng.standard_normal(cfg.n)
    u = 1.0 - z + rng.standard_normal(cfg.n)
    y = 1.0 + u + cfg.b_z * z + rng.standard_normal(cfg.n)
    p_obs = normal_cdf(cfg.c0 + cfg.c1 * w_function(cfg.w_variant, y) + cfg.c2 * u)
    d = (rng.random(cfg.n) < p_obs).astype(np.int8)
    x = np.column_stack([np.ones(cfg.n), u, z])
    return Dataset.from_generated(x, d, y)


def generate_example2(cfg: Example2Config, stream: RngStream) -> Dataset:
    """Draw one Example-2 dataset; covariate vector is (1, X)."""
    rng = stream.generator()
    x = rng.standard_normal(cfg.n)
    xi1, xi2, xi3, xi4 = cfg.xi_true
    mean = xi1 * x + xi2 * x**2
    sd = np.exp(0.5 * (xi3 + xi4 * x))
    y = mean + sd * rng.standard_normal(cfg.n)
    p_obs = expit(cfg.beta0 + cfg.beta1 * x + cfg.gamma * y)
    d = (rng.random(cfg.n) < p_obs).astype(np.int8)
    design = np.column_stack([np.ones(cfg.n), x])
    return Dataset.from_generated(design, d, y)


def example1_family() -> GaussianOutcomeFamily:
    """Unit-variance-style working model: linear mean in (1, U, Z), constant variance."""
    return GaussianOutcomeFamily(
        mean_basis=(intercept(), raw(1), raw(2)),
        logvar_basis=(intercept(),),
    )


def example1_location_basis() -> tuple:
    return (intercept(), raw(1), raw(2))


def example1_propensity_columns() -> tuple:
    """Propensity design (1, U): Z affects the outcome but not the
    missingness, and must stay out of the fitted propensity.

    With Z included, the outcome mean basis spans the propensity design and
    the logistic/least-squares normal equations absorb the whole score: the
    statistic degenerates and the tests lose all power against MNAR.
    """
    return (0, 1)


def example2_family(heteroskedastic: bool = True) -> GaussianOutcomeFamily:
    """Working model with mean (x, x^2); log variance (1, x) or constant."""
    logvar = (intercept(), raw(1)) if heteroskedastic else (intercept(),)
    return GaussianOutcomeFamily(mean_basis=(raw(1), square(1)), logvar_basis=logvar)


def example2_location_basis() -> tuple:
    return (raw(1), square(1))


def default_models(cfg) -> tuple:
    """Outcome family, location basis, and propensity columns of the design.

    Example 1 fits the propensity on ``(1, U)``; Example 2 uses every
    covariate column (``None``).
    """
    if isinstance(cfg, Example1Config):
        return example1_family(), example1_location_basis(), example1_propensity_columns()
    if isinstance(cfg, Example2Config):
        return example2_family(), example2_location_basis(), None
    raise TypeError(f"unknown config type {type(cfg).__name__}")


def generate(cfg, stream: RngStream) -> Dataset:
    if isinstance(cfg, Example1Config):
        return generate_example1(cfg, stream)
    if isinstance(cfg, Example2Config):
        return generate_example2(cfg, stream)
    raise TypeError(f"unknown config type {type(cfg).__name__}")


@dataclass(frozen=True)
class StudyDetails:
    """Per-replication traces kept when a study is run with keep_details."""

    stat_s1: np.ndarray
    sigma_sq_s1: np.ndarray
    z_s1: np.ndarray
    stat_s2: np.ndarray
    sigma_sq_s2: np.ndarray
    z_s2: np.ndarray
    failed: np.ndarray

    def ok(self) -> np.ndarray:
        return ~self.failed


@dataclass(frozen=True)
class RejectionRateReport:
    """Empirical rejection rates with binomial standard errors."""

    config: object
    replications: int
    alpha: float
    rate_s1: float
    se_s1: float
    rate_s2: float
    se_s2: float
    fit_failure_count: int
    base_seed: int
    details: StudyDetails | None = None

    @property
    def failure_warning(self) -> bool:
        return self.fit_failure_count > 0.01 * self.replications

    @property
    def grid_value(self) -> float:
        """The config's departure parameter (``config.departure``)."""
        return getattr(self.config, self.config.departure)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "replications": self.replications,
            "alpha": self.alpha,
            "rate_s1": self.rate_s1,
            "se_s1": self.se_s1,
            "rate_s2": self.rate_s2,
            "se_s2": self.se_s2,
            "fit_failure_count": self.fit_failure_count,
            "failure_warning": self.failure_warning,
            "base_seed": self.base_seed,
        }

    def report_rows(self) -> list[dict]:
        """Flat rows (one per test variant) for CSV output."""
        common = self.config.to_dict()
        return [
            {
                **common,
                "variant": variant,
                "rate": rate,
                "se": se,
                "replications": self.replications,
                "alpha": self.alpha,
                "fit_failure_count": self.fit_failure_count,
                "base_seed": self.base_seed,
            }
            for variant, rate, se in (("S1", self.rate_s1, self.se_s1), ("S2", self.rate_s2, self.se_s2))
        ]


def run_single_replication(cfg, stream: RngStream, family=None):
    """Generate one dataset and run both tests; returns the two reports.

    ``family`` replaces the design's outcome family when given.
    """
    design_family, location_basis, propensity_columns = default_models(cfg)
    data = generate(cfg, stream)
    pf = fit_propensity_null(data, columns=propensity_columns)
    of = fit_outcome_parametric(data, family or design_family)
    lf = fit_location(data, location_basis)
    r1 = test_report(score_statistic_s1(data, pf, of), variance_s1(data, pf, of), data.n)
    r2 = test_report(score_statistic_s2(data, pf, lf), variance_s2(data, pf, lf), data.n)
    return r1, r2


def run_rejection_study(
    cfg,
    replications: int,
    alpha: float = 0.05,
    base_seed: int = 0,
    family=None,
    keep_details: bool = False,
) -> RejectionRateReport:
    """Estimate empirical rejection rates of both tests over replications.

    Replication ``r`` owns stream ``(base_seed, r)``; failed fits are counted
    and excluded from the denominator. The models are the design's
    (:func:`default_models`), with ``family`` replacing its outcome family
    when given.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")

    traces = np.full((6, replications), np.nan)  # the six StudyDetails traces, in field order
    failed = np.zeros(replications, dtype=bool)
    for r in range(replications):
        try:
            r1, r2 = run_single_replication(cfg, RngStream(base_seed, r), family)
        except MarscoreError:
            failed[r] = True
            continue
        traces[:, r] = (r1.statistic, r1.sigma_sq_hat, r1.z, r2.statistic, r2.sigma_sq_hat, r2.z)

    details = StudyDetails(*traces, failed=failed)
    ok = details.ok()
    n_ok = int(ok.sum())
    if n_ok == 0:
        raise MarscoreError("every replication failed to fit; nothing to aggregate")
    # p < alpha is exactly |z| > z_crit for the two-sided normal p-value
    z_crit = normal_quantile(1.0 - alpha / 2.0)
    rate1 = float((np.abs(details.z_s1[ok]) > z_crit).mean())
    rate2 = float((np.abs(details.z_s2[ok]) > z_crit).mean())
    return RejectionRateReport(
        config=cfg,
        replications=replications,
        alpha=alpha,
        rate_s1=rate1,
        se_s1=float(np.sqrt(rate1 * (1.0 - rate1) / n_ok)),
        rate_s2=rate2,
        se_s2=float(np.sqrt(rate2 * (1.0 - rate2) / n_ok)),
        fit_failure_count=int(failed.sum()),
        base_seed=base_seed,
        details=details if keep_details else None,
    )


def power_curve(
    cfg,
    grid,
    replications: int,
    alpha: float = 0.05,
    base_seed: int = 0,
) -> list[RejectionRateReport]:
    """One rejection study per grid value of the departure parameter.

    The grid varies ``cfg.departure`` (``c1`` for Example 1, ``gamma`` for
    Example 2). All grid points share the same base seed (common random
    numbers), which smooths the estimated power curve.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    return [
        run_rejection_study(
            dataclasses.replace(cfg, **{cfg.departure: value}),
            replications,
            alpha=alpha,
            base_seed=base_seed,
        )
        for value in grid
    ]
