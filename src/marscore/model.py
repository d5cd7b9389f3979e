"""Null-hypothesis model fits for the score tests.

Three fits, all requiring estimation only under the missing-at-random null:

* :func:`fit_propensity_null` — logistic regression of the missingness
  indicator on covariates (Newton with step halving, then a full step once
  its predicted gain is within rounding noise).
* :func:`fit_outcome_parametric` — Gaussian conditional outcome model with
  linear mean and log-variance bases, fit on complete cases (in closed form
  when the log-variance basis is the intercept alone).
* :func:`fit_location` — least-squares mean model on complete cases.

Each fit builds its result once, from the values it accepted; one that
returns has converged, since one that cannot raises. The outcome and location
fits hold their fitted values over all rows, not their designs: those are the
dataset's (``Dataset.design``), one evaluation of each basis that the fits
and the variance estimators share. :func:`gaussian_information` gives the
Gaussian family's moment gradients and information, which the plug-in
variance estimators need.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import BasisTerm, intercept
from .data import Dataset
from .exceptions import (
    DegenerateVariance,
    NoConvergence,
    RankDeficientDesign,
    Separation,
    SingularMatrix,
)
from .numerics import _NOISE_ULPS, solve_gram
from .numerics import solve_spd  # noqa: F401  perfbench/tracing.py wraps marscore.model.solve_spd

_MAX_ITER = 100
_SEPARATION_BOUND = 30.0
_PERFECT_MARGIN = np.log((1.0 - 1e-6) / 1e-6)  # every fitted probability within 1e-6 of d
_LOG_VARIANCE_FLOOR = np.log(1e-12)
_LOG_2PI = np.log(2.0 * np.pi)
_HALVINGS = 30

# The Newton loops take products with ndarray.dot, not @: the same BLAS routine and bits,
# without @'s ufunc dispatch, which at n = 15 costs as much as the product (a matrix-vector
# one, best of 5×20000 on a 2-core x86-64 host: 1.1 µs against 1.9 µs). Their per-trial sums
# call the reduction that ndarray.sum wraps in Python, for the same bits.
_sum = np.add.reduce


def _solve(m, v, error, what: str):
    """``solve_gram(m, v)``; a singular ``m`` raises ``error``, its message prefixed by ``what``."""
    try:
        return solve_gram(m, v)
    except SingularMatrix as exc:
        raise error(f"{what}: {exc}") from exc


def _least_squares(data: Dataset, basis, what: str) -> np.ndarray:
    """The complete-case least-squares coefficients of ``y`` on ``basis``. A rank-deficient
    design raises ``RankDeficientDesign``, its message prefixed by ``what``."""
    g = data.design(basis, complete=True)
    return _solve(g.T @ g, g.T @ data.y_complete, RankDeficientDesign, what)


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
    final = 0.5 * grad.dot(step) <= _NOISE_ULPS * math.ulp(size)
    for halvings in range(_HALVINGS):
        cand = x + (0.5**halvings * step if halvings else step)
        loglik_cand, extra = evaluate(cand)
        if final or loglik_cand > loglik:
            return cand, loglik_cand, extra, final
    raise NoConvergence(f"{what} line search found no ascent in {_HALVINGS} halvings")


def _bernoulli(eta: np.ndarray, d: np.ndarray):
    """The logistic log-likelihood ``Σ d·η − log(1 + exp η)`` and the probabilities
    ``π = 1 / (1 + exp −η)``, both from one ``exp(−|η|)`` per row, which never overflows."""
    e = np.exp(-np.abs(eta))
    loglik = float(d.dot(eta) - _sum(np.maximum(eta, 0.0) + np.log1p(e)))
    return loglik, np.where(eta >= 0.0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class PropensityFit:
    """Null logistic propensity MLE with its averaged information matrix."""

    beta_hat: np.ndarray
    info_matrix: np.ndarray  # (1/n) sum pi (1-pi) x x^T at beta_hat
    loglik: float
    iterations: int
    pi: np.ndarray  # fitted observation probabilities, all rows
    design: np.ndarray  # propensity design, all rows

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @cached_property
    def q(self) -> np.ndarray:
        """The fitted missing probabilities ``1 - pi``, all rows."""
        return 1.0 - self.pi

    @cached_property
    def weights(self) -> np.ndarray:
        """The Bernoulli variances ``pi (1 - pi)``, all rows."""
        return self.pi * self.q


def _propensity_start(columns, n1: int, n: int) -> np.ndarray:
    """The propensity fit's start (see :func:`fit_propensity_null`)."""
    beta = np.zeros(len(columns))
    if 0 in columns:
        beta[columns.index(0)] = math.log(n1 / (n - n1))
    return beta


def fit_propensity_null(data: Dataset, columns=None) -> PropensityFit:
    """Maximize the null propensity likelihood over beta.

    Newton starts at β = 0, except that when covariate column 0 (the
    constant) is in the design, its coefficient starts at the intercept-only
    MLE ``log(n₁/(n − n₁))``, so every fitted probability starts at the
    observed fraction ``n₁/n``.

    Parameters
    ----------
    data : Dataset
    columns : optional nonempty sequence of covariate-matrix column indices,
        each in ``[0, data.p)``, forming the propensity design; defaults to all
        columns of ``data.x``.

    Raises
    ------
    ValueError
        If ``columns`` is given and is not such a sequence.
    Separation
        If either missingness pattern is absent, or after a Newton step a
        coefficient exceeds magnitude 30 or every fitted probability is
        within 1e-6 of its indicator (the MLE does not exist).
    RankDeficientDesign
        If the first Newton information is singular. Every row starts at one
        weight ``w``, so that information is ``w·XᵀX`` and its per-pivot floor,
        relative to each diagonal entry, gives ``XᵀX``'s verdict.
    NoConvergence
        If a later information is singular or the line search stalls.
    """
    if columns is None:
        columns, design = range(data.p), data.x
    else:
        try:
            columns = [operator.index(c) for c in columns]
        except TypeError:
            columns = None
        if not columns or not 0 <= min(columns) <= max(columns) < data.p:
            raise ValueError("propensity columns must be a nonempty sequence of integer "
                             f"indices in [0, {data.p})")
        design = data.x.T[columns].T
    d = data.d.astype(float)
    n = data.n
    n1 = data.n_complete
    if n1 == 0 or n1 == n:
        raise Separation(f"all outcomes are {'observed' if n1 == n else 'missing'}; "
                         "the null propensity MLE does not exist")
    sign = 2.0 * d - 1.0

    def evaluate(cand):
        eta_cand = design.dot(cand)
        loglik_cand, pi_cand = _bernoulli(eta_cand, d)
        return loglik_cand, (eta_cand, pi_cand)

    beta = _propensity_start(columns, n1, n)
    loglik, (eta, pi) = evaluate(beta)
    # an overflow in the loop ends as a rejected -inf trial or as solve_spd's non-finite verdict
    with np.errstate(over="ignore"):
        for iterations in range(1, _MAX_ITER + 1):
            grad = design.T.dot(d - pi)
            hessian = design.T.dot(design * (pi * (1.0 - pi))[:, None])
            # every row starts at one weight, so the first solve is the design's rank check
            error, what = ((RankDeficientDesign, "propensity design is rank deficient") if iterations == 1
                           else (NoConvergence, "propensity information is singular"))
            step = _solve(hessian, grad, error, what)
            # each row's term is negative, so their magnitudes add to |loglik|
            beta, loglik, (eta, pi), final = _halving_search(
                "propensity", beta, step, grad, loglik, evaluate, abs(loglik)
            )
            # only separated data are classified perfectly, so no existing MLE is rejected
            k = int(abs(beta).argmax())
            if abs(beta[k]) > _SEPARATION_BOUND:
                raise Separation(f"the propensity coefficient of design column {k} is {beta[k]:.6g}, "
                                 "beyond magnitude 30; complete or quasi-complete separation")
            if (sign * eta).min() >= _PERFECT_MARGIN:
                raise Separation("the propensity fit classifies every row within 1e-6; "
                                 "complete or quasi-complete separation")
            if final:
                break
        else:
            raise NoConvergence(f"propensity fit did not converge in {_MAX_ITER} iterations")

    q = 1.0 - pi
    weights = pi * q
    fit = PropensityFit(
        beta_hat=beta,
        info_matrix=design.T @ (design * weights[:, None]) / n,
        loglik=loglik,
        iterations=iterations,
        pi=pi,
        design=design,
    )
    # fill the cached properties with the arrays just computed
    fit.__dict__["q"], fit.__dict__["weights"] = q, weights
    return fit


@dataclass(frozen=True)
class GaussianOutcomeFamily:
    """Conditional Gaussian outcome model.

    Mean is ``mean_basis(x) @ xi_mean`` and variance is
    ``exp(logvar_basis(x) @ xi_logvar)``; the parameter vector stacks the
    mean coefficients first.
    """

    mean_basis: tuple[BasisTerm, ...]
    logvar_basis: tuple[BasisTerm, ...]
    # whether the log-variance basis is the intercept alone, so the MLE has a closed form
    constant_variance: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean_basis", tuple(self.mean_basis))
        object.__setattr__(self, "logvar_basis", tuple(self.logvar_basis))
        if not self.mean_basis or not self.logvar_basis:
            raise ValueError("mean and log-variance bases must be nonempty")
        object.__setattr__(self, "constant_variance", self.logvar_basis == (intercept(),))

    @property
    def dim_mean(self) -> int:
        return len(self.mean_basis)

    @property
    def dim_xi(self) -> int:
        return self.dim_mean + len(self.logvar_basis)


@dataclass(frozen=True)
class ParametricOutcomeFit:
    """Gaussian outcome MLE plus its fitted moments over the full dataset; its designs
    are the dataset's (``Dataset.design`` of the family's bases)."""

    family: GaussianOutcomeFamily
    xi_hat: np.ndarray
    loglik: float
    iterations: int
    m1: np.ndarray = field(repr=False)  # conditional mean, all rows
    var: np.ndarray = field(repr=False)  # conditional variance, all rows
    # (propensity fit, A1_hat, e) of the last projection of m1, kept by marscore.score
    projection: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.m1.shape[0]

    @property
    def m2(self) -> np.ndarray:
        """Conditional second moment per row."""
        return self.m1**2 + self.var


def _logvar_start(r, rss: float, bv, logvar_basis) -> np.ndarray:
    """The outcome fit's log-variance start from its least-squares residuals ``r``, whose
    mean square is ``rss``: the projection of ``log r²`` onto ``bv`` (Harvey 1976), its
    intercept then moved by ``log mean(r²·exp(−bv·ξ_v))`` to the likelihood's maximiser
    along the intercept. A basis without an intercept term starts at the projection of
    the constant ``log rss``. Each ``r²`` is floored at 1e-300."""
    const = intercept()  # the shared instance, found by identity
    if const in logvar_basis:
        target = np.log(np.maximum(r * r, 1e-300))
    else:
        target = np.full(r.size, np.log(max(rss, 1e-300)))
    xi_v = _solve(bv.T @ bv, bv.T @ target, RankDeficientDesign,
                  "outcome log-variance design is rank deficient")
    if const in logvar_basis:
        # log mean exp(t), t = log r² − bv·ξ_v, taken about its largest t so no exp overflows
        t = target - bv @ xi_v
        top = t.max()
        xi_v[logvar_basis.index(const)] += top + math.log(float(np.exp(t - top).sum() / t.size))
    return xi_v


def fit_outcome_parametric(data: Dataset, family: GaussianOutcomeFamily) -> ParametricOutcomeFit:
    """Maximize the complete-case Gaussian likelihood over xi.

    With an intercept-only log-variance basis the MLE has a closed form,
    returned with ``iterations = 0``: under a constant variance the mean's
    score equations are the least-squares normal equations, whatever the
    variance, and the variance's score equation then gives ``RSS / n_c``,
    so ``xi = (OLS mean, log(RSS / n_c))``.

    Any other basis takes Newton steps on the joint xi with step halving,
    from the least-squares mean and a log variance fitted to its squared
    residuals: the projection of ``log r²`` onto the log-variance basis, its
    intercept moved to the maximiser along the intercept (see
    :func:`_logvar_start`). Each step
    solves the observed information ``[[bmᵀW bm, C], [Cᵀ, ½ bvᵀU bv]]``,
    formed as the weighted Gram matrix ``zᵀW z`` of ``z = [bm, r·bv]`` with
    its log-variance block halved, or where that is not positive definite
    the same matrix with ``C`` zeroed, whose per-pivot floor gives each
    diagonal block its own verdict (``NoConvergence`` if either is singular). Any
    step whose predicted gain is within rounding noise ends the fit: a joint
    one at the optimum, a block one with ``NoConvergence``, its gradient
    about zero where the joint solve fails.
    """
    nc = data.n_complete
    if nc < family.dim_xi + 1:
        raise RankDeficientDesign(
            f"need at least dim_xi + 1 = {family.dim_xi + 1} complete cases, have {nc}"
        )
    yc = data.y_complete
    bm = data.design(family.mean_basis, complete=True)
    closed = family.constant_variance
    if not closed:  # the closed form needs no log-variance design
        bv = data.design(family.logvar_basis, complete=True)
        bv_all = data.design(family.logvar_basis)
    qm = family.dim_mean

    def _floor_check(cand):
        s_all = bv_all.dot(cand[qm:])
        if s_all.min() < _LOG_VARIANCE_FLOOR:
            raise DegenerateVariance(
                "fitted conditional variance fell below 1e-12",
                mean_coef=cand[:qm].copy(),
                row=int(s_all.argmin()),
            )
        return s_all

    def evaluate(cand):
        s_cand = bv.dot(cand[qm:])
        r_cand = yc - bm.dot(cand[:qm])
        w_cand = np.exp(-s_cand)
        u_cand = r_cand * r_cand * w_cand
        u_sum = _sum(u_cand)
        return float(-0.5 * (nc * _LOG_2PI + _sum(s_cand) + u_sum)), (r_cand, s_cand, w_cand, u_cand, u_sum)

    # an overflow ends as solve_spd's non-finite verdict, a rejected -inf trial, or the
    # start's classified error
    with np.errstate(over="ignore"):
        xi_m = _least_squares(data, family.mean_basis, "outcome mean design is rank deficient")
        r = yc - bm @ xi_m
        rss = float((r * r).sum() / r.size)
        if not math.isfinite(rss):
            raise NoConvergence(f"outcome fit cannot start: its mean residual square {rss} "
                                "is not finite")
        if closed:
            xi_v = math.log(rss) if rss > 0.0 else -math.inf
            if xi_v < _LOG_VARIANCE_FLOOR:
                raise DegenerateVariance("fitted conditional variance fell below 1e-12",
                                         mean_coef=xi_m, row=0)
            return ParametricOutcomeFit(
                family=family,
                xi_hat=np.append(xi_m, xi_v),
                loglik=float(-0.5 * nc * (_LOG_2PI + xi_v + 1.0)),
                iterations=0,
                m1=data.design(family.mean_basis) @ xi_m,
                var=np.full(data.n, rss),
            )
        xi = np.concatenate([xi_m, _logvar_start(r, rss, bv, family.logvar_basis)])
        _floor_check(xi)
        loglik, (r, s_c, w, u, u_sum) = evaluate(xi)
        # row i adds w·z zᵀ with z = [bm, r·bv]; its log-variance block w·r² = u
        z = np.empty((nc, family.dim_xi), order="F")
        z[:, :qm] = bm
        for iterations in range(1, _MAX_ITER + 1):
            grad = np.concatenate([bm.T.dot(r * w), 0.5 * bv.T.dot(u - 1.0)])
            np.multiply(bv, r[:, None], out=z[:, qm:])
            info = z.T.dot(z * w[:, None])
            info[qm:, qm:] *= 0.5
            try:
                step = solve_gram(info, grad)
                joint = True
            except SingularMatrix:
                # far from the optimum the cross block can make the information indefinite
                info[:qm, qm:] = info[qm:, :qm] = 0.0
                step = _solve(info, grad, NoConvergence, "outcome information block is singular")
                joint = False
            # the log variances' sum can cancel the constant, leaving |loglik| far below its terms
            size = 0.5 * (nc * _LOG_2PI + _sum(np.abs(s_c)) + u_sum)
            xi, loglik, (r, s_c, w, u, u_sum), final = _halving_search(
                "outcome", xi, step, grad, loglik, evaluate, size
            )
            s_all = _floor_check(xi)
            if final and joint:
                break
            if final:
                raise NoConvergence("outcome fit did not converge: its gradient vanished where the "
                                    "joint information is not positive definite")
        else:
            raise NoConvergence(f"outcome fit did not converge in {_MAX_ITER} iterations")
    return ParametricOutcomeFit(
        family=family,
        xi_hat=xi,
        loglik=loglik,
        iterations=iterations,
        m1=data.design(family.mean_basis) @ xi[:qm],
        var=np.exp(s_all),
    )


@dataclass(frozen=True)
class LocationFit:
    """Complete-case least-squares mean model y = mu(x, theta) + eps; the gradient of mu
    per row is the dataset's design of ``mean_basis``."""

    theta_hat: np.ndarray
    mean_basis: tuple[BasisTerm, ...]
    mu: np.ndarray = field(repr=False)  # fitted mean, all rows
    residuals: np.ndarray = field(repr=False)  # complete-case residuals
    # (propensity fit, A1_hat, e) of the last projection of mu, kept by marscore.score
    projection: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def fit_location(data: Dataset, mean_basis) -> LocationFit:
    """Least-squares fit of the location model on complete cases."""
    mean_basis = tuple(mean_basis)
    if data.n_complete < len(mean_basis) + 1:
        raise RankDeficientDesign(
            f"need at least {len(mean_basis) + 1} complete cases, have {data.n_complete}"
        )
    with np.errstate(over="ignore"):  # an overflowing Gram matrix is solve_spd's non-finite verdict
        theta = _least_squares(data, mean_basis, "location design is rank deficient")
    mu = data.design(mean_basis) @ theta
    return LocationFit(
        theta_hat=theta,
        mean_basis=mean_basis,
        mu=mu,
        residuals=data.y_complete - mu[data.complete_idx],
    )


def gaussian_information(bm, bv, var, grad_weights, info_weights):
    """Weighted row sums of the Gaussian family's mean gradient and Fisher information.

    Row ``i`` has mean basis ``bm[i]``, log-variance basis ``bv[i]`` and
    variance ``var[i]``. Its mean gradient in xi is ``bm[i]`` padded with
    zeros for the log-variance coefficients; its Fisher information is block
    diagonal, ``bm bmᵀ / var`` and ``½ bv bvᵀ``. Returns the
    ``grad_weights``-weighted sum of the gradients and the
    ``info_weights``-weighted sum of the informations; with ``bv`` None, their
    mean blocks alone.
    """
    grad_m = bm.T @ grad_weights
    info_m = bm.T @ (bm * (info_weights / var)[:, None])
    if bv is None:
        return grad_m, info_m
    qm, qv = bm.shape[1], bv.shape[1]
    info = np.zeros((qm + qv, qm + qv))
    info[:qm, :qm] = info_m
    info[qm:, qm:] = 0.5 * bv.T @ (bv * info_weights[:, None])
    return np.concatenate([grad_m, np.zeros(qv)]), info
