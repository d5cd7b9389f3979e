"""Null-hypothesis model fits for the score tests.

Three fits, all requiring estimation only under the missing-at-random null:

* :func:`fit_propensity_null` — logistic regression of the missingness
  indicator on covariates (Newton with step halving, then a full step once
  its predicted gain is within rounding noise).
* :func:`fit_outcome_parametric` — Gaussian conditional outcome model with
  linear mean and log-variance bases, fit on complete cases.
* :func:`fit_location` — least-squares mean model on complete cases.

The Gaussian family exposes closed-form conditional moments and the
moment/information gradients the plug-in variance estimators need.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .basis import BasisTerm, design_matrix
from .data import Dataset
from .exceptions import (
    DegenerateVariance,
    NoConvergence,
    RankDeficientDesign,
    Separation,
    SingularMatrix,
)
from .numerics import _NOISE_ULPS, cholesky_spd, solve_spd

_MAX_ITER = 100
_SEPARATION_BOUND = 30.0
_VARIANCE_FLOOR = 1e-12
_HALVINGS = 30


@contextmanager
def _singular_as(error, what: str):
    """Report a singular matrix met in the block as ``error``, its message prefixed by ``what``."""
    try:
        yield
    except SingularMatrix as exc:
        raise error(f"{what}: {exc}") from exc


def _halving_search(what: str, x, step, grad, loglik: float, evaluate, size: float):
    """Step-halving search along the Newton ``step`` at ``x``.

    ``evaluate(cand)`` returns ``(loglik_cand, extra)``; the search returns
    ``(cand, loglik_cand, extra, final)``. If the predicted gain
    ``grad @ step / 2`` is within the rounding noise of ``loglik``, a sum of
    terms whose magnitudes add to ``size``, ``x`` is one Newton step from
    the optimum: the full step is taken and ``final`` is true. Otherwise the
    first of 30 halvings whose log-likelihood exceeds ``loglik`` is taken,
    or ``NoConvergence`` raised; an overflowing trial fails through its -inf.
    """
    final = 0.5 * (grad @ step) <= _NOISE_ULPS * np.spacing(size)
    with np.errstate(over="ignore"):
        scale = 1.0
        for _ in range(_HALVINGS):
            cand = x + scale * step
            loglik_cand, extra = evaluate(cand)
            if final or loglik_cand > loglik:
                return cand, loglik_cand, extra, final
            scale *= 0.5
    raise NoConvergence(f"{what} line search found no ascent in {_HALVINGS} halvings")


def _loglik_bernoulli(eta: np.ndarray, d: np.ndarray) -> float:
    return float(d @ eta - np.logaddexp(0.0, eta).sum())


@dataclass(frozen=True)
class PropensityFit:
    """Null logistic propensity MLE with its averaged information matrix."""

    beta_hat: np.ndarray
    info_matrix: np.ndarray  # (1/n) sum pi (1-pi) x x^T at beta_hat
    loglik: float
    iterations: int
    converged: bool
    pi: np.ndarray  # fitted observation probabilities, all rows
    design: np.ndarray  # propensity design, all rows

    @property
    def n(self) -> int:
        return self.design.shape[0]


def fit_propensity_null(data: Dataset, columns=None) -> PropensityFit:
    """Maximize the null propensity likelihood over beta.

    Parameters
    ----------
    data : Dataset
    columns : optional sequence of covariate-matrix column indices forming
        the propensity design; defaults to all columns of ``data.x``.

    Raises
    ------
    Separation
        If either missingness pattern is absent or a coefficient exceeds
        magnitude 30 during iteration (the MLE does not exist).
    RankDeficientDesign, NoConvergence
    """
    if columns is None:
        design = data.x
    else:
        design = np.ascontiguousarray(data.x[:, [int(c) for c in columns]])
    d = data.d.astype(float)
    n, p = design.shape
    n1 = data.n_complete
    if n1 == 0 or n1 == n:
        raise Separation(
            "all outcomes are "
            + ("observed" if n1 == n else "missing")
            + "; the null propensity MLE does not exist"
        )
    # rank deficiency is classified here; the Hessian's weights can also make it singular
    with _singular_as(RankDeficientDesign, "propensity design is rank deficient"):
        cholesky_spd(design.T @ design / n)

    def evaluate(cand):
        eta_cand = design @ cand
        return _loglik_bernoulli(eta_cand, d), eta_cand

    beta = np.zeros(p)
    eta = design @ beta
    pi = expit(eta)
    loglik = _loglik_bernoulli(eta, d)
    for iterations in range(1, _MAX_ITER + 1):
        grad = design.T @ (d - pi)
        hessian = design.T @ (design * (pi * (1.0 - pi))[:, None])
        step = solve_spd(hessian, grad)
        # each row's term is negative, so their magnitudes add to |loglik|
        beta, loglik, eta, final = _halving_search(
            "propensity", beta, step, grad, loglik, evaluate, abs(loglik)
        )
        pi = expit(eta)
        if np.max(np.abs(beta)) > _SEPARATION_BOUND:
            raise Separation(
                "a propensity coefficient exceeded magnitude 30; "
                "complete or quasi-complete separation"
            )
        if final:
            break
    else:
        raise NoConvergence(f"propensity fit did not converge in {_MAX_ITER} iterations")

    observed = data.d == 1
    if np.all(pi[observed] >= 1.0 - 1e-6) and np.all(pi[~observed] <= 1e-6):
        # the Newton gain can fall into rounding noise while beta still diverges
        raise Separation(
            "fitted probabilities perfectly classify the missingness indicator; "
            "the null propensity MLE does not exist"
        )

    weights = pi * (1.0 - pi)
    info = design.T @ (design * weights[:, None]) / n
    return PropensityFit(
        beta_hat=beta,
        info_matrix=info,
        loglik=loglik,
        iterations=iterations,
        converged=True,
        pi=pi,
        design=design,
    )


@dataclass(frozen=True)
class GaussianOutcomeFamily:
    """Conditional Gaussian outcome model.

    Mean is ``mean_basis(x) @ xi_mean`` and variance is
    ``exp(logvar_basis(x) @ xi_logvar)``; the parameter vector stacks the
    mean coefficients first.
    """

    mean_basis: tuple[BasisTerm, ...]
    logvar_basis: tuple[BasisTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "mean_basis", tuple(self.mean_basis))
        object.__setattr__(self, "logvar_basis", tuple(self.logvar_basis))
        if not self.mean_basis or not self.logvar_basis:
            raise ValueError("mean and log-variance bases must be nonempty")

    @property
    def dim_mean(self) -> int:
        return len(self.mean_basis)

    @property
    def dim_logvar(self) -> int:
        return len(self.logvar_basis)

    @property
    def dim_xi(self) -> int:
        return self.dim_mean + self.dim_logvar

    def split(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.dim_xi,):
            raise ValueError(f"xi must have length {self.dim_xi}, got {xi.shape}")
        return xi[: self.dim_mean], xi[self.dim_mean :]

    def mean_design(self, x: np.ndarray) -> np.ndarray:
        return design_matrix(self.mean_basis, x)

    def logvar_design(self, x: np.ndarray) -> np.ndarray:
        return design_matrix(self.logvar_basis, x)


@dataclass(frozen=True)
class ParametricOutcomeFit:
    """Gaussian outcome MLE plus per-row moment caches over the full dataset."""

    family: GaussianOutcomeFamily
    xi_hat: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    mean_design_all: np.ndarray = field(repr=False)
    logvar_design_all: np.ndarray = field(repr=False)
    m1: np.ndarray = field(repr=False)  # conditional mean, all rows
    var: np.ndarray = field(repr=False)  # conditional variance, all rows

    @property
    def n(self) -> int:
        return self.m1.shape[0]

    @property
    def m2(self) -> np.ndarray:
        """Conditional second moment per row."""
        return self.m1**2 + self.var


def _gaussian_loglik(s, r2_over_v, n_complete) -> float:
    return float(-0.5 * (n_complete * np.log(2.0 * np.pi) + s.sum() + r2_over_v.sum()))


def _outcome_fit(data, family, xi, bm_all, bv_all, iterations) -> ParametricOutcomeFit:
    """The family at ``xi``, with moments over the all-row designs."""
    xi_m, xi_v = family.split(xi)
    m1 = bm_all @ xi_m
    var = np.exp(bv_all @ xi_v)
    complete = data.complete_idx
    r = data.y_complete - m1[complete]
    loglik = _gaussian_loglik(np.log(var[complete]), r * r / var[complete], complete.size)
    return ParametricOutcomeFit(
        family=family,
        xi_hat=xi,
        loglik=loglik,
        converged=True,
        iterations=iterations,
        mean_design_all=bm_all,
        logvar_design_all=bv_all,
        m1=m1,
        var=var,
    )


def outcome_fit_at(data: Dataset, family: GaussianOutcomeFamily, xi) -> ParametricOutcomeFit:
    """Evaluate the family at a given parameter without optimizing.

    Useful for oracles and for plugging known truths into the score
    machinery; the returned fit is marked converged.
    """
    xi = np.asarray(xi, dtype=float)
    bm_all = family.mean_design(data.x)
    bv_all = family.logvar_design(data.x)
    return _outcome_fit(data, family, xi, bm_all, bv_all, iterations=0)


def fit_outcome_parametric(data: Dataset, family: GaussianOutcomeFamily) -> ParametricOutcomeFit:
    """Maximize the complete-case Gaussian likelihood over xi.

    Newton steps on the joint xi with step halving, from the least-squares
    mean and the projected log residual variance. Each step solves the
    observed information ``[[bmᵀW bm, C], [Cᵀ, ½ bvᵀU bv]]``, or where that
    is not positive definite its two diagonal blocks apart (``NoConvergence``
    if either is singular). Any step whose predicted gain is within rounding
    noise ends the fit: a joint one at the optimum, a block one with
    ``NoConvergence``, its gradient about zero where the joint solve fails.
    """
    complete = data.complete_idx
    nc = complete.size
    if nc < family.dim_xi + 1:
        raise RankDeficientDesign(
            f"need at least dim_xi + 1 = {family.dim_xi + 1} complete cases, have {nc}"
        )
    yc = data.y_complete
    bm_all = family.mean_design(data.x)
    bv_all = family.logvar_design(data.x)
    bm = bm_all[complete]
    bv = bv_all[complete]
    qm = family.dim_mean

    with _singular_as(RankDeficientDesign, "outcome mean design is rank deficient"):
        xi_m = solve_spd(bm.T @ bm, bm.T @ yc)
    r = yc - bm @ xi_m
    # project log residual variance onto the log-variance basis as a start
    target = np.log(max(float(np.mean(r * r)), 1e-300))
    with _singular_as(RankDeficientDesign, "outcome log-variance design is rank deficient"):
        xi_v = solve_spd(bv.T @ bv, bv.T @ np.full(nc, target))
    xi = np.concatenate([xi_m, xi_v])

    def _floor_check(cand):
        s_all = bv_all @ cand[qm:]
        if np.min(s_all) < np.log(_VARIANCE_FLOOR):
            raise DegenerateVariance(
                "fitted conditional variance fell below 1e-12",
                mean_coef=cand[:qm].copy(),
                row=int(np.argmin(s_all)),
            )

    def evaluate(cand):
        s_cand = bv @ cand[qm:]
        r_cand = yc - bm @ cand[:qm]
        u_cand = r_cand * r_cand * np.exp(-s_cand)
        return _gaussian_loglik(s_cand, u_cand, nc), (r_cand, s_cand, u_cand)

    _floor_check(xi)
    loglik, (r, s_c, u) = evaluate(xi)
    for iterations in range(1, _MAX_ITER + 1):
        w = np.exp(-s_c)
        grad = np.concatenate([bm.T @ (r * w), 0.5 * bv.T @ (u - 1.0)])
        info_m = bm.T @ (bm * w[:, None])
        info_v = 0.5 * bv.T @ (bv * u[:, None])
        cross = bm.T @ (bv * (r * w)[:, None])
        try:
            step = solve_spd(np.block([[info_m, cross], [cross.T, info_v]]), grad)
            joint = True
        except SingularMatrix:
            # far from the optimum the cross block can make the information indefinite
            with _singular_as(NoConvergence, "outcome information block is singular"):
                step = np.concatenate([solve_spd(info_m, grad[:qm]), solve_spd(info_v, grad[qm:])])
            joint = False
        # the log variances' sum can cancel the constant, leaving |loglik| far below its terms
        size = 0.5 * (nc * np.log(2.0 * np.pi) + np.abs(s_c).sum() + u.sum())
        xi, loglik, (r, s_c, u), final = _halving_search(
            "outcome", xi, step, grad, loglik, evaluate, size
        )
        _floor_check(xi)
        if final and joint:
            break
        if final:
            raise NoConvergence("outcome fit did not converge: its gradient vanished where the "
                                "joint information is not positive definite")
    else:
        raise NoConvergence(f"outcome fit did not converge in {_MAX_ITER} iterations")
    return _outcome_fit(data, family, xi, bm_all, bv_all, iterations)


@dataclass(frozen=True)
class LocationFit:
    """Complete-case least-squares mean model y = mu(x, theta) + eps."""

    theta_hat: np.ndarray
    mean_basis: tuple[BasisTerm, ...]
    design_all: np.ndarray = field(repr=False)  # gradient of mu per row
    mu: np.ndarray = field(repr=False)  # fitted mean, all rows
    residuals: np.ndarray = field(repr=False)  # complete-case residuals
    complete_idx: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def fit_location(data: Dataset, mean_basis) -> LocationFit:
    """Least-squares fit of the location model on complete cases."""
    mean_basis = tuple(mean_basis)
    complete = data.complete_idx
    if complete.size < len(mean_basis) + 1:
        raise RankDeficientDesign(
            f"need at least {len(mean_basis) + 1} complete cases, have {complete.size}"
        )
    g = design_matrix(mean_basis, data.x[complete])
    with _singular_as(RankDeficientDesign, "location design is rank deficient"):
        theta = solve_spd(g.T @ g, g.T @ data.y_complete)
    return location_fit_at(data, mean_basis, theta)


def location_fit_at(data: Dataset, mean_basis, theta) -> LocationFit:
    """Evaluate the location model at a given theta without fitting."""
    mean_basis = tuple(mean_basis)
    theta = np.asarray(theta, dtype=float)
    g_all = design_matrix(mean_basis, data.x)
    mu = g_all @ theta
    complete = data.complete_idx
    return LocationFit(
        theta_hat=theta,
        mean_basis=mean_basis,
        design_all=g_all,
        mu=mu,
        residuals=data.y_complete - mu[complete],
        complete_idx=complete,
    )


def gaussian_information(bm, bv, var, grad_weights, info_weights):
    """Weighted row sums of the Gaussian family's mean gradient and Fisher information.

    Row ``i`` has mean basis ``bm[i]``, log-variance basis ``bv[i]`` and
    variance ``var[i]``. Its mean gradient in xi is ``bm[i]`` padded with
    zeros for the log-variance coefficients; its Fisher information is block
    diagonal, ``bm bmᵀ / var`` and ``½ bv bvᵀ``. Returns the
    ``grad_weights``-weighted sum of the gradients and the
    ``info_weights``-weighted sum of the informations.
    """
    qm, qv = bm.shape[1], bv.shape[1]
    info = np.zeros((qm + qv, qm + qv))
    info[:qm, :qm] = bm.T @ (bm * (info_weights / var)[:, None])
    info[qm:, qm:] = 0.5 * bv.T @ (bv * info_weights[:, None])
    return np.concatenate([bm.T @ grad_weights, np.zeros(qv)]), info


def outcome_moment_gradients(fit: ParametricOutcomeFit, x):
    """Gradient of the conditional mean in xi, and the model-integrated
    Hessian of the log density, at covariate ``x``.

    The one-row view of :func:`gaussian_information`: the integrated Hessian
    is the negative Fisher information at ``(x, xi_hat)``.
    """
    row = np.atleast_2d(np.asarray(x, dtype=float))
    family = fit.family
    bv = family.logvar_design(row)
    _, xi_v = family.split(fit.xi_hat)
    one = np.ones(1)
    grad_m1, info = gaussian_information(family.mean_design(row), bv, np.exp(bv @ xi_v), one, one)
    return grad_m1, -info
