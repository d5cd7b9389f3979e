"""Score statistics for testing MAR against MNAR, with plug-in variances.

Under the working propensity ``P(D=1 | x, y) = logistic(x'beta + gamma*y)``
the null hypothesis is ``gamma = 0``. Both statistics are the gamma-score of
the observed-data likelihood evaluated at null-restricted estimates:

* S1 plugs in a parametric (Gaussian) conditional-outcome fit;
* S2 plugs in a least-squares location fit.

Each comes with a consistent variance estimator assembled from sample
averages; the standardized statistic is compared to the standard normal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .exceptions import FitMismatch, InvalidAlpha, NegativeVariance
from .model import LocationFit, ParametricOutcomeFit, PropensityFit, gaussian_information
from .numerics import normal_cdf, normal_quantile, quad_form_inv, solve_spd


def _check_same_data(data: Dataset, *fits) -> None:
    for fit in fits:
        if fit.n != data.n:
            raise FitMismatch(
                f"fit covers {fit.n} rows but dataset has {data.n}; "
                "fits must come from the dataset under test"
            )


def _components_dict(components) -> dict:
    """Report form of variance components: fields in declaration order, arrays as lists."""
    out = {}
    for f in dataclasses.fields(components):
        value = getattr(components, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


@dataclass(frozen=True)
class VarianceComponentsS1:
    """Plug-in components of the S1 asymptotic variance."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    A1_hat: np.ndarray
    B1_hat: np.ndarray
    A2_hat: float
    B2_hat: float
    sigma_sq_hat: float

    variant = "S1"

    def assemble(self) -> float:
        """Compute sigma^2 from the stored components."""
        return (
            self.A2_hat
            + self.B2_hat
            - quad_form_inv(self.A_hat, self.A1_hat)
            - quad_form_inv(self.B_hat, self.B1_hat)
        )

    def noncentrality_base(self) -> float:
        """Local-alternative mean shift per unit gamma0 (equals sigma^2 for S1)."""
        return self.sigma_sq_hat

    to_dict = _components_dict


@dataclass(frozen=True)
class VarianceComponentsS2:
    """Plug-in components of the S2 asymptotic variance (robust form)."""

    A_hat: np.ndarray
    A1_hat: np.ndarray
    A2_hat: float
    B3_hat: np.ndarray
    B4_hat: float
    C1_hat: np.ndarray
    C2_hat: np.ndarray
    C3_hat: np.ndarray
    sigma_sq_hat: float

    variant = "S2"

    def _projected(self) -> float:
        """A2 + B4 - A1' A^{-1} A1, shared by every S2 quantity below."""
        return self.A2_hat + self.B4_hat - quad_form_inv(self.A_hat, self.A1_hat)

    def assemble(self) -> float:
        """Compute sigma^2 from the stored components."""
        z = solve_spd(self.C1_hat, self.B3_hat)
        return self._projected() + float(z @ self.C2_hat @ z) - 2.0 * float(z @ self.C3_hat)

    def cross_term(self) -> float:
        """The B3' C1^{-1} C3 term entering the local-power shift."""
        return float(solve_spd(self.C1_hat, self.B3_hat) @ self.C3_hat)

    def noncentrality_base(self) -> float:
        """Local-alternative mean shift per unit gamma0."""
        return self._projected() - self.cross_term()

    def reduced_sigma_sq(self, residual_variance: float) -> float:
        """Homoskedastic reduction of sigma^2 given Var(eps | D=1).

        Valid when the location-model errors are independent of the
        covariates among complete cases; a diagnostic, not the default.
        """
        return self._projected() - quad_form_inv(self.C1_hat, self.B3_hat) * residual_variance

    to_dict = _components_dict


@dataclass(frozen=True)
class ScoreTestResult:
    """Standardized score test with its two-sided normal p-value."""

    statistic: float
    sigma_sq_hat: float
    z: float
    p_value: float
    variant: str
    components: object = field(repr=False)
    n: int = 0

    def reject(self, alpha: float) -> bool:
        if not 0.0 < alpha < 1.0:
            raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value < alpha

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "statistic": self.statistic,
            "sigma_sq_hat": self.sigma_sq_hat,
            "z": self.z,
            "p_value": self.p_value,
            "n": self.n,
            "components": self.components.to_dict() if self.components is not None else None,
        }


def _score_statistic(data: Dataset, pf: PropensityFit, fit, plug_in: np.ndarray) -> float:
    """Complete rows contribute ``(1 - pi) * y``; missing rows contribute
    ``-pi`` times the plug-in conditional mean."""
    _check_same_data(data, pf, fit)
    observed_part = float((1.0 - pf.pi[data.complete_idx]) @ data.y_complete)
    missing = data.missing_idx
    missing_part = float(pf.pi[missing] @ plug_in[missing])
    return observed_part - missing_part


def score_statistic_s1(data: Dataset, pf: PropensityFit, of: ParametricOutcomeFit) -> float:
    """Score statistic with the parametric outcome mean ``E[Y | x]`` plugged in."""
    return _score_statistic(data, pf, of, of.m1)


def score_statistic_s2(data: Dataset, pf: PropensityFit, lf: LocationFit) -> float:
    """Score statistic with the least-squares location model plugged in."""
    return _score_statistic(data, pf, lf, lf.mu)


def _checked(components):
    """Store the assembled sigma^2 in ``components``; raise if it is not positive."""
    sigma_sq = components.assemble()
    components = dataclasses.replace(components, sigma_sq_hat=float(sigma_sq))
    if not sigma_sq > 0.0:
        raise NegativeVariance(
            f"assembled {components.variant} variance {sigma_sq:.6e} is not positive; "
            "model misuse or violated regularity conditions",
            components=components,
        )
    return components


def variance_s1(data: Dataset, pf: PropensityFit, of: ParametricOutcomeFit) -> VarianceComponentsS1:
    """Assemble the S1 variance estimator from sample averages.

    All conditional-outcome integrals use the Gaussian closed forms: the
    first and second conditional moments, and from
    :func:`~marscore.model.gaussian_information` the mean gradient
    (``B1_hat``, weighted by pi (1 - pi)) and minus the integrated Hessian
    (``B_hat``, the pi-weighted Fisher information).
    """
    _check_same_data(data, pf, of)
    n = data.n
    pi = pf.pi
    m1 = of.m1
    w = pi * (1.0 - pi)
    b1_hat, b_hat = gaussian_information(of.mean_design_all, of.logvar_design_all, of.var, w, pi)

    return _checked(VarianceComponentsS1(
        A_hat=pf.info_matrix,
        B_hat=b_hat / n,
        A1_hat=pf.design.T @ (w * m1) / n,
        B1_hat=b1_hat / n,
        A2_hat=float(np.sum(pi * (1.0 - pi) ** 2 * of.m2) / n),
        B2_hat=float(np.sum(pi**2 * (1.0 - pi) * m1**2) / n),
        sigma_sq_hat=np.nan,
    ))


def variance_s2(data: Dataset, pf: PropensityFit, lf: LocationFit) -> VarianceComponentsS2:
    """Assemble the S2 variance estimator (heteroskedasticity-robust)."""
    _check_same_data(data, pf, lf)
    n = data.n
    pi = pf.pi
    mu = lf.mu
    g = lf.design_all
    complete = lf.complete_idx
    r2 = lf.residuals**2
    w = pi * (1.0 - pi)
    gc = g[complete]

    return _checked(VarianceComponentsS2(
        A_hat=pf.info_matrix,
        A1_hat=pf.design.T @ (w * mu) / n,
        # (1-pi)^2 [d r^2 + pi mu^2]: mu^2 part over all rows, r^2 over complete
        A2_hat=float(
            (np.sum(pi * mu**2 * (1.0 - pi) ** 2) + np.sum((1.0 - pi[complete]) ** 2 * r2)) / n
        ),
        B3_hat=g.T @ w / n,
        B4_hat=float(np.sum(pi**2 * (1.0 - pi) * mu**2) / n),
        C1_hat=g.T @ (g * pi[:, None]) / n,
        C2_hat=gc.T @ (gc * r2[:, None]) / n,
        C3_hat=gc.T @ ((1.0 - pi[complete]) * r2) / n,
        sigma_sq_hat=np.nan,
    ))


def test_report(statistic: float, components, n: int) -> ScoreTestResult:
    """Standardize a score statistic and compute its two-sided p-value."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    sigma_sq = components.sigma_sq_hat
    if not sigma_sq > 0.0:
        raise NegativeVariance(
            f"variance estimate {sigma_sq:.6e} is not positive", components=components
        )
    z = statistic / (np.sqrt(n) * np.sqrt(sigma_sq))
    p_value = 2.0 - 2.0 * normal_cdf(abs(z))
    return ScoreTestResult(
        statistic=float(statistic),
        sigma_sq_hat=float(sigma_sq),
        z=float(z),
        p_value=float(p_value),
        variant=components.variant,
        components=components,
        n=int(n),
    )


def analytic_local_power(
    gamma0: float,
    sigma: float,
    alpha: float,
    variant: str = "S1",
    cross_term: float | None = None,
) -> float:
    """Asymptotic power against the local alternative gamma = gamma0 / sqrt(n).

    The standardized statistic is asymptotically normal with unit variance
    and mean ``lam = gamma0 * base / sigma``, where ``base`` is the mean
    shift per unit gamma0: ``sigma**2`` for S1 (the default), and for S2 the
    value of :meth:`VarianceComponentsS2.noncentrality_base` supplied via
    ``cross_term``. Power is ``Phi(-z + lam) + Phi(-z - lam)`` at the
    two-sided critical value ``z``.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    variant = variant.upper()
    if variant not in ("S1", "S2"):
        raise ValueError(f"variant must be S1 or S2, got {variant!r}")
    if variant == "S2" and cross_term is None:
        raise ValueError("S2 local power needs the components' noncentrality base")
    base = sigma**2 if cross_term is None else cross_term
    lam = gamma0 * base / sigma
    crit = normal_quantile(1.0 - alpha / 2.0)
    return float(normal_cdf(-crit + lam) + normal_cdf(-crit - lam))
