"""Data generators and the Monte Carlo replication engine.

Each design is one config class that owns its draw (``generate``), its
working models (``family``, ``location_basis``, ``propensity_columns``) and
its departure parameter (``departure``):

* Example 1: trivariate normal hierarchy (Y | U, Z), (U | Z), Z with a
  probit missingness mechanism ``Phi(c0 + c1 * w(Y) + c2 * U)``; the tested
  propensity model is still the linear logistic one. The probit intercept
  ``c0`` is a required configuration value (library default 0.5) that
  controls the base missingness rate.
* Example 2: univariate standard-normal covariate, Gaussian outcome with
  quadratic mean and log-linear variance, logistic missingness
  ``pi(beta0 + beta1 * x + gamma * y)``; ``gamma = 0`` is the null.

A study under other working models is a subclass that sets them as class
attributes, e.g. ``family = dataclasses.replace(Example2Config.family,
logvar_basis=(intercept(),))``. A replication's outcome and location fits
hold fitted values; their designs come from the drawn ``Dataset.design``.

Replication ``r`` of a study always uses ``stream_id = r``, so any single
replication can be re-run from ``(base_seed, r)`` alone.
"""

from __future__ import annotations

import dataclasses
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .basis import intercept, raw, square
from .data import Dataset
from .exceptions import MarscoreError, NonFiniteDraw
from .model import (
    GaussianOutcomeFamily,
    fit_location,
    fit_outcome_parametric,
    fit_propensity_null,
)
from .numerics import RngStream, normal_cdf, normal_quantile
from .score import (
    _check_alpha,
    score_statistic_s1,
    score_statistic_s2,
    test_report,
    variance_s1,
    variance_s2,
)

W_VARIANTS = ("identity", "quad04", "indicator")


def _sample_size(n) -> int:
    """``n`` as a Python int, at least 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return n


@dataclass(frozen=True)
class Example1Config:
    """The instrumented trivariate-normal design: its settings are fields;
    its draw and working models are methods and class attributes."""

    departure = "c1"  # the field a power curve varies
    family = GaussianOutcomeFamily(mean_basis=(intercept(), raw(1), raw(2)), logvar_basis=(intercept(),))
    location_basis = family.mean_basis
    # Z affects the outcome but not the missingness, so it stays out of the
    # fitted propensity: with Z included, the outcome mean basis spans the
    # propensity design, the logistic/least-squares normal equations absorb
    # the whole score, and the tests lose all power against MNAR.
    propensity_columns = (0, 1)

    n: int
    b_z: float = 0.5
    c1: float = 0.0
    c2: float = 0.0
    c0: float = 0.5
    w_variant: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "n", _sample_size(self.n))
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

    @np.errstate(over="ignore", invalid="ignore")  # _observe checks the outcomes and probabilities
    def generate(self, stream: RngStream) -> Dataset:
        """Draw one dataset; covariate vector is (1, U, Z)."""
        rng = stream.generator()
        z = rng.standard_normal(self.n)
        u = 1.0 - z + rng.standard_normal(self.n)
        y = 1.0 + u + self.b_z * z + rng.standard_normal(self.n)
        p_obs = normal_cdf(self.c0 + self.c1 * w_function(self.w_variant, y) + self.c2 * u)
        x = np.array([np.ones(self.n), u, z]).T  # column-major, as Dataset stores it
        return _observe(x, y, p_obs, rng)


@dataclass(frozen=True)
class Example2Config:
    """The no-instrument quadratic-mean design: its settings are fields;
    its draw and working models are methods and class attributes."""

    departure = "gamma"
    family = GaussianOutcomeFamily(mean_basis=(raw(1), square(1)), logvar_basis=(intercept(), raw(1)))
    location_basis = family.mean_basis
    propensity_columns = None  # every covariate column

    n: int
    xi_true: tuple = (-1.0, 1.0, 0.5, 0.0)
    beta0: float = 0.85
    beta1: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _sample_size(self.n))
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

    @np.errstate(over="ignore", invalid="ignore")  # _observe checks the outcomes and probabilities
    def generate(self, stream: RngStream) -> Dataset:
        """Draw one dataset; covariate vector is (1, X)."""
        rng = stream.generator()
        x = rng.standard_normal(self.n)
        xi1, xi2, xi3, xi4 = self.xi_true
        mean = xi1 * x + xi2 * x**2
        sd = np.exp(0.5 * (xi3 + xi4 * x))
        y = mean + sd * rng.standard_normal(self.n)
        p_obs = expit(self.beta0 + self.beta1 * x + self.gamma * y)
        design = np.array([np.ones(self.n), x]).T  # column-major, as Dataset stores it
        return _observe(design, y, p_obs, rng)


def _observe(x: np.ndarray, y: np.ndarray, p_obs: np.ndarray, rng) -> Dataset:
    """Covariates ``x`` and outcomes ``y``, each observed where ``rng``'s next uniform is below
    ``p_obs``; ``NonFiniteDraw`` if an outcome, observed or not, or a ``p_obs`` is nan."""
    if not np.isfinite(y).all() or np.isnan(p_obs).any():
        row = int((~np.isfinite(y) | np.isnan(p_obs)).argmax())
        raise NonFiniteDraw(f"row {row} drew outcome {float(y[row])} with observation "
                            f"probability {float(p_obs[row])}")
    d = (rng.random(y.size) < p_obs).astype(np.int8)
    return Dataset.from_generated(x, d, y)


generate_example1 = Example1Config.generate
generate_example2 = Example2Config.generate


def w_function(variant: str, y: np.ndarray) -> np.ndarray:
    if variant == "identity":
        return y
    if variant == "quad04":
        return 0.4 * y**2
    return 2.5 * (y > 1.0)


def generate(cfg, stream: RngStream) -> Dataset:
    """One dataset of ``cfg``'s design, drawn from ``stream``."""
    return cfg.generate(stream)


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


def run_single_replication(cfg, stream: RngStream):
    """Generate one dataset, fit the config's models and run both tests; returns the two reports."""
    data = generate(cfg, stream)
    pf = fit_propensity_null(data, columns=cfg.propensity_columns)
    of = fit_outcome_parametric(data, cfg.family)
    lf = fit_location(data, cfg.location_basis)
    r1 = test_report(score_statistic_s1(data, pf, of), variance_s1(data, pf, of), data.n)
    r2 = test_report(score_statistic_s2(data, pf, lf), variance_s2(data, pf, lf), data.n)
    return r1, r2


def run_rejection_study(
    cfg,
    replications: int,
    alpha: float = 0.05,
    base_seed: int = 0,
    keep_details: bool = False,
) -> RejectionRateReport:
    """Estimate empirical rejection rates of both tests over replications.

    Replication ``r`` owns stream ``(base_seed, r)``; failed fits are counted
    and excluded from the denominator. The models are the config's
    (``cfg.family``, ``cfg.location_basis``, ``cfg.propensity_columns``).
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    _check_alpha(alpha)

    traces = np.full((6, replications), np.nan)  # the six StudyDetails traces, in field order
    failed = np.zeros(replications, dtype=bool)
    classes, first = Counter(), None  # failures per class; the first one's "<Class>: <message>"
    for r in range(replications):
        try:
            r1, r2 = run_single_replication(cfg, RngStream(base_seed, r))
        except MarscoreError as exc:
            failed[r] = True
            classes[type(exc).__name__] += 1
            if first is None:
                first = f"replication {r}: {type(exc).__name__}: {exc}"
            continue
        traces[:, r] = (r1.statistic, r1.sigma_sq_hat, r1.z, r2.statistic, r2.sigma_sq_hat, r2.z)
        del r1, r2  # their components hold the replication's arrays for the report terms

    details = StudyDetails(*traces, failed=failed)
    ok = details.ok()
    n_ok = int(ok.sum())
    if n_ok == 0:
        counts = ", ".join(f"{count} {name}" for name, count in classes.most_common())
        raise MarscoreError(f"every replication failed to fit; nothing to aggregate ({counts}); "
                            f"first, {first}")
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
