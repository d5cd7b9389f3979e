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
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .data import Dataset
from .exceptions import FitMismatch, InvalidAlpha, NegativeVariance
from .model import LocationFit, ParametricOutcomeFit, PropensityFit, _solve, gaussian_information
from .numerics import _NOISE_ULPS, normal_cdf, normal_quantile, solve_spd
# unused here; perfbench/tracing.py looks the name up in this module and wraps it
from .numerics import quad_form_inv  # noqa: F401


_SQRT2 = math.sqrt(2.0)


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


def _deferred(cls, terms, **values):
    """Components of class ``cls`` with the fields ``values``; its other fields, terms that
    no σ² reads, come from the dict ``terms()``, called on the first read of any of them."""
    components = object.__new__(cls)
    components.__dict__.update(values, _terms=terms)
    return components


def _resolved(components):
    """``components`` with its deferred terms computed, so that it no longer holds the
    arrays they read."""
    terms = components.__dict__.pop("_terms", None)
    if terms is not None:
        # an overflowing term reads inf, as the σ² terms beside it do
        with np.errstate(over="ignore", invalid="ignore"):
            components.__dict__.update(terms())
    return components


def _read_deferred(components, name: str):
    """``__getattr__`` of the components classes: a deferred term is computed when first read."""
    if "_terms" not in components.__dict__:
        raise AttributeError(f"{type(components).__name__!r} object has no attribute {name!r}")
    return getattr(_resolved(components), name)


@dataclass(frozen=True)
class VarianceComponentsS1:
    """Plug-in components of the S1 asymptotic variance. From :func:`variance_s1`,
    ``B_hat``, ``B1_hat`` and ``B2_hat`` are computed when first read."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    A1_hat: np.ndarray
    B1_hat: np.ndarray
    A2_hat: float
    B2_hat: float
    sigma_sq_hat: float

    variant = "S1"

    to_dict = _components_dict
    __getattr__ = _read_deferred


@dataclass(frozen=True)
class VarianceComponentsS2:
    """Plug-in components of the S2 asymptotic variance (robust form). From
    :func:`variance_s2`, ``B4_hat``, ``C2_hat`` and ``C3_hat`` are computed when first read."""

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
    __getattr__ = _read_deferred


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


def _unexplained(pf: PropensityFit, fit, m: np.ndarray):
    """``A1_hat`` and ``e = m - X A_hat⁻¹A1_hat``: the part of the plug-in mean ``m``
    that the propensity design ``X`` leaves unexplained (pi (1 - pi)-weighted).

    Both read-only, and kept on the plug-in ``fit`` for the propensity fit they were
    computed against, so a test's statistic and variance share one projection."""
    memo = fit.projection
    if memo is None or memo[0] is not pf:
        a1 = pf.design.T @ (pf.weights * m) / pf.n
        e = m - pf.design @ _solve(pf.info_matrix, a1, NegativeVariance,
                                   "propensity information A_hat is singular")
        a1.flags.writeable = e.flags.writeable = False
        memo = (pf, a1, e)
        object.__setattr__(fit, "projection", memo)
    return memo[1], memo[2]


def _score_statistic(data: Dataset, pf: PropensityFit, fit, plug_in: np.ndarray) -> float:
    """``Σ (d - pi) e + Σ_complete (1 - pi)(y - m)``. At the propensity MLE, where
    ``Xᵀ(d - pi) = 0``, this is the gamma-score ``Σ_complete (1 - pi) y - Σ_missing pi m``
    without the part of ``m`` spanned by ``X``, which would cancel only to rounding."""
    _check_same_data(data, pf, fit)
    _, e = _unexplained(pf, fit, plug_in)
    complete = data.complete_idx
    return float((data.d - pf.pi) @ e + pf.q[complete] @ (data.y_complete - plug_in[complete]))


def _sigma_sq(pf: PropensityFit, e: np.ndarray, u: np.ndarray, weights: np.ndarray) -> float:
    """``(Σ pi (1 - pi) e² + Σ weights u²) / n``: S1's and S2's σ² as one sum of squares."""
    return float((pf.weights @ (e * e) + weights @ (u * u)) / pf.n)


def score_statistic_s1(data: Dataset, pf: PropensityFit, of: ParametricOutcomeFit) -> float:
    """Score statistic with the parametric outcome mean ``E[Y | x]`` plugged in."""
    return _score_statistic(data, pf, of, of.m1)


def score_statistic_s2(data: Dataset, pf: PropensityFit, lf: LocationFit) -> float:
    """Score statistic with the least-squares location model plugged in."""
    return _score_statistic(data, pf, lf, lf.mu)


def _checked(components):
    """Return ``components``; raise unless their σ² is finite and exceeds the rounding
    noise of ``A2_hat``."""
    sigma_sq = components.sigma_sq_hat
    if math.isfinite(sigma_sq) and sigma_sq > _NOISE_ULPS * math.ulp(components.A2_hat):
        return components
    problem = ("is zero within rounding; model misuse or violated regularity conditions"
               if math.isfinite(sigma_sq) else "is not finite: a plug-in term overflowed")
    raise NegativeVariance(f"{components.variant} variance {sigma_sq:.6e} {problem}",
                           components=_resolved(components))


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
    pi, q = pf.pi, pf.q
    m1 = of.m1
    bm = data.design(of.family.mean_basis)
    # an overflow (an outcome near the double range) ends as a non-finite σ², which _checked names
    with np.errstate(over="ignore", invalid="ignore"):
        # B_hat is block diagonal and B1_hat is zero in the log-variance block, so σ² reads
        # their mean blocks alone
        b1_mean, b_mean = gaussian_information(bm, None, of.var, pf.weights, pi)
        a1_hat, e = _unexplained(pf, of, m1)
        c = _solve(b_mean / n, b1_mean / n, NegativeVariance,
                   "S1 variance: mean information block is singular")
        u = q - bm @ c / of.var

        def report_terms():
            b1_hat, b_hat = gaussian_information(bm, data.design(of.family.logvar_basis), of.var,
                                                 pf.weights, pi)
            return {"B_hat": b_hat / n, "B1_hat": b1_hat / n,
                    "B2_hat": float((pi**2 * q * m1**2).sum() / n)}

        return _checked(_deferred(
            VarianceComponentsS1,
            report_terms,
            A_hat=pf.info_matrix,
            A1_hat=a1_hat,
            A2_hat=float((pi * q**2 * of.m2).sum() / n),
            sigma_sq_hat=_sigma_sq(pf, e, u, pi * of.var),
        ))


def variance_s2(data: Dataset, pf: PropensityFit, lf: LocationFit) -> VarianceComponentsS2:
    """The S2 variance estimator (heteroskedasticity-robust) and its components.

    σ²'s outcome term weights ``u``, the part of ``1 - pi`` the location
    gradient leaves unexplained (pi-weighted), by each complete row's ``r²``.
    """
    _check_same_data(data, pf, lf)
    n = data.n
    pi, q = pf.pi, pf.q
    mu = lf.mu
    g = data.design(lf.mean_basis)
    gc = data.design(lf.mean_basis, complete=True)
    q_c = q[data.complete_idx]
    # an overflow (an outcome near the double range) ends as a non-finite σ², which _checked names
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = lf.residuals**2
        a1_hat, e = _unexplained(pf, lf, mu)
        b3_hat = g.T @ pf.weights / n
        c1_hat = g.T @ (g * pi[:, None]) / n
        u = q_c - gc @ _solve(c1_hat, b3_hat, NegativeVariance, "S2 variance: C1_hat is singular")
        return _checked(_deferred(
            VarianceComponentsS2,
            lambda: {"B4_hat": float((pi**2 * q * mu**2).sum() / n),
                     "C2_hat": gc.T @ (gc * r2[:, None]) / n,
                     "C3_hat": gc.T @ (q_c * r2) / n},
            A_hat=pf.info_matrix,
            A1_hat=a1_hat,
            # (1-pi)^2 [d r^2 + pi mu^2]: mu^2 part over all rows, r^2 over complete
            A2_hat=float(((pi * mu**2 * q**2).sum() + (q_c**2 * r2).sum()) / n),
            B3_hat=b3_hat,
            C1_hat=c1_hat,
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
    z = statistic / (math.sqrt(n) * math.sqrt(sigma_sq))
    # 2 Φ(−|z|) as normal_cdf computes it, on a Python float: the upper tail, free of
    # cancellation for large |z|
    p_value = 2.0 * (0.5 * erfc(abs(z) / _SQRT2))
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
