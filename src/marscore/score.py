"""Score statistics for testing MAR against MNAR, with plug-in variances.

Under the working propensity ``P(D=1 | x, y) = logistic(x'beta + gamma*y)``
the null hypothesis is ``gamma = 0``. Both statistics are the gamma-score of
the observed-data likelihood evaluated at null-restricted estimates:

* S1 plugs in a parametric (Gaussian) conditional-outcome fit;
* S2 plugs in a least-squares location fit.

Each statistic and its consistent variance estimator are sums of per-row
projected terms that S1 and S2 share; σ² is a sum of squares, never
negative. The standardized statistic is compared to the standard normal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .exceptions import FitMismatch, InvalidAlpha, NegativeVariance
from .model import LocationFit, ParametricOutcomeFit, PropensityFit, gaussian_information
from .numerics import _NOISE_ULPS, normal_cdf, normal_quantile, solve_spd
# unused here; perfbench/tracing.py looks the name up in this module and wraps it
from .numerics import quad_form_inv  # noqa: F401


def _check_same_data(data: Dataset, *fits) -> None:
    for fit in fits:
        if fit.n != data.n:
            raise FitMismatch(
                f"fit covers {fit.n} rows but dataset has {data.n}; "
                "fits must come from the dataset under test"
            )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")


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

    def noncentrality_base(self) -> float:
        """Local-alternative mean shift per unit gamma0, ``A2 + B4 - A1ᵀA⁻¹A1 - zᵀC3`` with
        ``z = C1⁻¹B3``, as ``σ² + zᵀ(C3 - C2 z)``, which cancels no large sums."""
        z = solve_spd(self.C1_hat, self.B3_hat)
        return float(self.sigma_sq_hat + z @ (self.C3_hat - self.C2_hat @ z))

    to_dict = _components_dict


@dataclass(frozen=True)
class ScoreTestResult:
    """Standardized score test with its two-sided normal p-value ``2 Phi(-|z|)``."""

    statistic: float
    sigma_sq_hat: float
    z: float
    p_value: float
    variant: str
    components: object = field(repr=False)
    n: int = 0

    def reject(self, alpha: float) -> bool:
        _check_alpha(alpha)
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


def _unexplained(pf: PropensityFit, m: np.ndarray):
    """``A1_hat`` and ``e = m - X A_hat⁻¹A1_hat``: the part of the plug-in mean ``m``
    that the propensity design ``X`` leaves unexplained (pi (1 - pi)-weighted)."""
    a1 = pf.design.T @ (pf.pi * (1.0 - pf.pi) * m) / pf.n
    return a1, m - pf.design @ solve_spd(pf.info_matrix, a1)


def _score_statistic(data: Dataset, pf: PropensityFit, fit, plug_in: np.ndarray) -> float:
    """``Σ (d - pi) e + Σ_complete (1 - pi)(y - m)``. At the propensity MLE, where
    ``Xᵀ(d - pi) = 0``, this is the gamma-score ``Σ_complete (1 - pi) y - Σ_missing pi m``
    without the part of ``m`` spanned by ``X``, which would cancel only to rounding."""
    _check_same_data(data, pf, fit)
    _, e = _unexplained(pf, plug_in)
    complete = data.complete_idx
    return float((data.d - pf.pi) @ e + (1.0 - pf.pi[complete]) @ (data.y_complete - plug_in[complete]))


def _sigma_sq(pf: PropensityFit, e: np.ndarray, u: np.ndarray, weights: np.ndarray) -> float:
    """``(Σ pi (1 - pi) e² + Σ weights u²) / n``: S1's and S2's σ² as one sum of squares."""
    return float(((pf.pi * (1.0 - pf.pi)) @ (e * e) + weights @ (u * u)) / pf.n)


def score_statistic_s1(data: Dataset, pf: PropensityFit, of: ParametricOutcomeFit) -> float:
    """Score statistic with the parametric outcome mean ``E[Y | x]`` plugged in."""
    return _score_statistic(data, pf, of, of.m1)


def score_statistic_s2(data: Dataset, pf: PropensityFit, lf: LocationFit) -> float:
    """Score statistic with the least-squares location model plugged in."""
    return _score_statistic(data, pf, lf, lf.mu)


def _checked(components):
    """Return ``components``; raise unless their σ² exceeds the rounding noise of ``A2_hat``."""
    if not components.sigma_sq_hat > _NOISE_ULPS * np.spacing(components.A2_hat):
        raise NegativeVariance(
            f"{components.variant} variance {components.sigma_sq_hat:.6e} is zero within rounding; "
            "model misuse or violated regularity conditions",
            components=components,
        )
    return components


def variance_s1(data: Dataset, pf: PropensityFit, of: ParametricOutcomeFit) -> VarianceComponentsS1:
    """The S1 variance estimator and its components, from sample averages.

    All conditional-outcome integrals use the Gaussian closed forms: the
    first and second conditional moments, and from
    :func:`~marscore.model.gaussian_information` the mean gradient
    (``B1_hat``, weighted by pi (1 - pi)) and minus the integrated Hessian
    (``B_hat``, the pi-weighted Fisher information). σ²'s outcome term
    weights ``u``, the part of ``1 - pi`` the mean gradient leaves
    unexplained (pi / var-weighted), by the model variance ``pi var``.
    """
    _check_same_data(data, pf, of)
    n = data.n
    pi = pf.pi
    m1 = of.m1
    bm = of.mean_design_all
    b1_hat, b_hat = gaussian_information(bm, of.logvar_design_all, of.var, pi * (1.0 - pi), pi)
    b1_hat, b_hat = b1_hat / n, b_hat / n
    a1_hat, e = _unexplained(pf, m1)
    # B_hat is block diagonal and B1_hat is zero in the log-variance block
    qm = bm.shape[1]
    c = solve_spd(b_hat[:qm, :qm], b1_hat[:qm])
    u = (1.0 - pi) - bm @ c / of.var

    return _checked(VarianceComponentsS1(
        A_hat=pf.info_matrix,
        B_hat=b_hat,
        A1_hat=a1_hat,
        B1_hat=b1_hat,
        A2_hat=float(np.sum(pi * (1.0 - pi) ** 2 * of.m2) / n),
        B2_hat=float(np.sum(pi**2 * (1.0 - pi) * m1**2) / n),
        sigma_sq_hat=_sigma_sq(pf, e, u, pi * of.var),
    ))


def variance_s2(data: Dataset, pf: PropensityFit, lf: LocationFit) -> VarianceComponentsS2:
    """The S2 variance estimator (heteroskedasticity-robust) and its components.

    σ²'s outcome term weights ``u``, the part of ``1 - pi`` the location
    gradient leaves unexplained (pi-weighted), by each complete row's ``r²``.
    """
    _check_same_data(data, pf, lf)
    n = data.n
    pi = pf.pi
    mu = lf.mu
    g = lf.design_all
    complete = lf.complete_idx
    r2 = lf.residuals**2
    gc = g[complete]
    a1_hat, e = _unexplained(pf, mu)
    b3_hat = g.T @ (pi * (1.0 - pi)) / n
    c1_hat = g.T @ (g * pi[:, None]) / n
    u = (1.0 - pi[complete]) - gc @ solve_spd(c1_hat, b3_hat)

    return _checked(VarianceComponentsS2(
        A_hat=pf.info_matrix,
        A1_hat=a1_hat,
        # (1-pi)^2 [d r^2 + pi mu^2]: mu^2 part over all rows, r^2 over complete
        A2_hat=float(
            (np.sum(pi * mu**2 * (1.0 - pi) ** 2) + np.sum((1.0 - pi[complete]) ** 2 * r2)) / n
        ),
        B3_hat=b3_hat,
        B4_hat=float(np.sum(pi**2 * (1.0 - pi) * mu**2) / n),
        C1_hat=c1_hat,
        C2_hat=gc.T @ (gc * r2[:, None]) / n,
        C3_hat=gc.T @ ((1.0 - pi[complete]) * r2) / n,
        sigma_sq_hat=_sigma_sq(pf, e, u, r2),
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
    p_value = 2.0 * normal_cdf(-abs(z))  # the upper tail, free of cancellation for large |z|
    return ScoreTestResult(
        statistic=float(statistic),
        sigma_sq_hat=float(sigma_sq),
        z=float(z),
        p_value=float(p_value),
        variant=components.variant,
        components=components,
        n=int(n),
    )


def analytic_local_power(gamma0: float, sigma: float, alpha: float, base: float | None = None) -> float:
    """Asymptotic power against the local alternative gamma = gamma0 / sqrt(n).

    The standardized statistic is asymptotically normal with unit variance
    and mean ``lam = gamma0 * base / sigma``, where ``base`` is the mean
    shift per unit gamma0: ``sigma**2`` for S1 (the default), and
    :meth:`VarianceComponentsS2.noncentrality_base` for S2. Power is
    ``Phi(-z + lam) + Phi(-z - lam)`` at the two-sided critical value ``z``.
    """
    _check_alpha(alpha)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if base is None:
        base = sigma**2
    lam = gamma0 * base / sigma
    crit = normal_quantile(1.0 - alpha / 2.0)
    return float(normal_cdf(-crit + lam) + normal_cdf(-crit - lam))
