"""Independent oracles used by the test suite.

Nothing here calls the score-statistic code paths it is used to check: the
observed-data log-likelihood is assembled directly from its definition with
the missing-row integral evaluated by quadrature, and derivative checks use
central finite differences. ``read_csv_rowwise`` is the per-cell CSV reader
that the columnar ``marscore.io.read_csv`` must agree with, and
``solve_spd_loop`` and ``quad_form_inv_loop`` are the column-by-column
Cholesky solves that the LAPACK ones in ``marscore.numerics`` must agree with,
and ``solve_spd_numpy_checks`` is ``solve_spd`` with its input checks made by
numpy reductions, whose verdicts and messages the Python-float checks must give.
``assemble`` and ``reduced_sigma_sq`` are the paper's σ² formulas over the
variance components, which ``marscore.score``'s per-row kernel must agree with.
``outcome_fit_at`` plugs a known parameter into an outcome family, and
``outcome_moment_gradients`` is the one-row view of ``marscore.model``'s
``gaussian_information`` that the finite-difference checks compare with.
``write_dataset_csv`` writes a dataset as the CSV that ``read_csv`` reads back.
``former_starts`` runs both null fits from their earlier starts, β = 0 and the
projection of the constant ``log mean(r²)``, which the closed-form starts must
reach the same optimum as.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dposv
from scipy.special import expit, log_expit

from marscore import model
from marscore.basis import design_matrix
from marscore.data import Dataset
from marscore.exceptions import (
    EmptyDataset,
    IoFailure,
    MissingColumn,
    MissingCovariate,
    NonNumericCell,
    RankDeficientDesign,
    SingularMatrix,
)
from marscore.io import _NA_STRINGS, _undecodable_offset
from marscore.model import _outcome_fit, gaussian_information
from marscore.numerics import _PIVOT_RTOL, _SYM_RTOL


def cholesky_loop(m):
    """Lower Cholesky factor, one column at a time, with ``solve_spd``'s
    symmetry check and pivot floor relative to each diagonal entry."""
    a = np.asarray(m, dtype=float)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > _SYM_RTOL * scale:
        raise SingularMatrix("matrix is not symmetric")
    k = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(k):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        floor = _PIVOT_RTOL * a[j, j]
        if not pivot > floor:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below {floor:.3e} at column {j}; "
                "matrix is not positive definite"
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < k:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def solve_spd_loop(m, v):
    """``marscore.numerics.solve_spd`` through :func:`cholesky_loop` and two triangular solves."""
    lower = cholesky_loop(m)
    half = solve_triangular(lower, np.asarray(v, dtype=float), lower=True)
    return solve_triangular(lower.T, half, lower=False)


def solve_spd_numpy_checks(m, v):
    """``marscore.numerics.solve_spd`` with its finiteness and symmetry checks made by
    numpy reductions over the whole matrix."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SingularMatrix(f"expected a square matrix, got shape {a.shape}")
    scale = abs(a).max(initial=0.0)
    if not math.isfinite(scale):
        raise SingularMatrix(f"non-finite entry at column {np.argmin(np.isfinite(a).all(axis=0))}")
    if abs(a - a.T).max(initial=0.0) > _SYM_RTOL * scale:
        raise SingularMatrix("matrix is not symmetric")
    lower, u, info = dposv(a, v, lower=True)
    for j, (l_jj, a_jj) in enumerate(zip(lower.diagonal().tolist(), a.diagonal().tolist())):
        pivot = l_jj if j == info - 1 else l_jj * l_jj
        floor = _PIVOT_RTOL * a_jj
        if not pivot > floor:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below {floor:.3e} at column {j}; "
                "matrix is not positive definite"
            )
    return u


def quad_form_inv_loop(m, v):
    """``v.T @ inv(m) @ v`` as the squared norm of ``inv(L) @ v``, ``L`` from
    :func:`cholesky_loop`."""
    half = solve_triangular(cholesky_loop(m), np.asarray(v, dtype=float), lower=True)
    return float(half @ half)


def assemble(comp):
    """σ² from a component set, as the paper writes it: ``A2 + B2 - A1ᵀA⁻¹A1 -
    B1ᵀB⁻¹B1`` for S1, and ``A2 + B4 - A1ᵀA⁻¹A1 + zᵀC2z - 2zᵀC3`` with
    ``z = C1⁻¹B3`` for S2."""
    projected = comp.A2_hat - quad_form_inv_loop(comp.A_hat, comp.A1_hat)
    if comp.variant == "S1":
        return projected + comp.B2_hat - quad_form_inv_loop(comp.B_hat, comp.B1_hat)
    z = solve_spd_loop(comp.C1_hat, comp.B3_hat)
    return projected + comp.B4_hat + float(z @ comp.C2_hat @ z) - 2.0 * float(z @ comp.C3_hat)


def reduced_sigma_sq(comp, residual_variance):
    """S2's σ² when the location-model errors have variance ``residual_variance``
    independently of the covariates among complete cases:
    ``A2 + B4 - A1ᵀA⁻¹A1 - residual_variance · B3ᵀC1⁻¹B3``."""
    return (
        comp.A2_hat
        + comp.B4_hat
        - quad_form_inv_loop(comp.A_hat, comp.A1_hat)
        - quad_form_inv_loop(comp.C1_hat, comp.B3_hat) * residual_variance
    )


def outcome_fit_at(data, family, xi):
    """The family evaluated at ``xi`` without optimizing, marked converged."""
    xi = np.asarray(xi, dtype=float)
    s_all = data.design(family.logvar_basis) @ family.split(xi)[1]
    return _outcome_fit(data, family, xi, iterations=0, s_all=s_all)


def outcome_moment_gradients(fit, x):
    """Gradient of the conditional mean in xi, and the model-integrated
    Hessian of the log density, at covariate ``x``.

    The one-row view of ``gaussian_information``: the integrated Hessian is
    the negative Fisher information at ``(x, xi_hat)``.
    """
    row = np.atleast_2d(np.asarray(x, dtype=float))
    family = fit.family
    bv = design_matrix(family.logvar_basis, row)
    _, xi_v = family.split(fit.xi_hat)
    one = np.ones(1)
    grad_m1, info = gaussian_information(design_matrix(family.mean_basis, row), bv, np.exp(bv @ xi_v), one, one)
    return grad_m1, -info


def propensity_start_zero(columns, n1, n):
    """The propensity fit's former start, β = 0."""
    return np.zeros(len(columns))


def logvar_start_constant(r, rss, bv, logvar_basis):
    """The outcome fit's former log-variance start: the projection of the constant
    ``log rss`` onto the log-variance basis, whatever its terms."""
    target = np.log(max(rss, 1e-300))
    return model._solve(bv.T @ bv, bv.T @ np.full(r.size, target), RankDeficientDesign,
                        "outcome log-variance design is rank deficient")


@contextmanager
def former_starts():
    """Inside the block, ``marscore.model``'s null fits start where they used to."""
    with mock.patch.object(model, "_propensity_start", propensity_start_zero), \
            mock.patch.object(model, "_logvar_start", logvar_start_constant):
        yield


def observed_loglik(data, pf, of, gamma, order=60):
    """Full observed-data log-likelihood at (gamma, beta_hat, f(.|., xi_hat)).

    Complete rows contribute log pi(x'b + gamma y) + log f(y | x); missing
    rows contribute log of the quadrature-evaluated integral
    int {1 - pi(x'b + gamma y)} f(y | x) dy.
    """
    nodes, weights = hermgauss(order)
    eta = pf.design @ pf.beta_hat
    complete, missing = data.complete_idx, np.flatnonzero(data.d == 0)
    y = data.y_complete
    ll = float(np.sum(log_expit(eta[complete] + gamma * y)))
    m, v = of.m1[complete], of.var[complete]
    ll += float(np.sum(-0.5 * np.log(2.0 * np.pi * v) - (y - m) ** 2 / (2.0 * v)))
    mm, vm = of.m1[missing], of.var[missing]
    yy = mm[:, None] + np.sqrt(2.0 * vm)[:, None] * nodes[None, :]
    integrand = 1.0 - expit(eta[missing][:, None] + gamma * yy)
    integrals = integrand @ weights / np.sqrt(np.pi)
    ll += float(np.sum(np.log(integrals)))
    return ll


def fd_gamma_score(data, pf, of, step=1e-5, order=60):
    """Central difference of the observed-data log-likelihood in gamma at 0."""
    up = observed_loglik(data, pf, of, step, order=order)
    down = observed_loglik(data, pf, of, -step, order=order)
    return (up - down) / (2.0 * step)


def gaussian_moment(j: int) -> float:
    """Exact value of int t^j exp(-t^2) dt: 0 for odd j, else
    sqrt(pi) (j-1)!! / 2^(j/2)."""
    if j % 2 == 1:
        return 0.0
    m = j // 2
    return math.sqrt(math.pi) * math.factorial(2 * m) / (math.factorial(m) * 4**m)


def gaussian_density(family, y, x_row, xi):
    """Conditional density f(y | x_row) of a Gaussian outcome family at xi,
    for an array of outcomes y."""
    xi_m, xi_v = family.split(xi)
    row = np.atleast_2d(np.asarray(x_row, dtype=float))
    m = float(design_matrix(family.mean_basis, row)[0] @ xi_m)
    v = float(np.exp(design_matrix(family.logvar_basis, row)[0] @ xi_v))
    return np.exp(-((y - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)


def quadrature_moments(fit, x, order=30):
    """First and second conditional moments of the outcome at covariate x,
    by Gauss-Hermite integration of the family density (no closed forms)."""
    row = np.atleast_2d(np.asarray(x, dtype=float))
    xi_m, xi_v = fit.family.split(fit.xi_hat)
    m = float(design_matrix(fit.family.mean_basis, row)[0] @ xi_m)
    v = float(np.exp(design_matrix(fit.family.logvar_basis, row)[0] @ xi_v))
    nodes, weights = hermgauss(order)
    sigma = np.sqrt(v)
    y = m + np.sqrt(2.0) * sigma * nodes
    dens = gaussian_density(fit.family, y, row[0], fit.xi_hat)
    total_w = weights * np.exp(nodes * nodes) * np.sqrt(2.0) * sigma
    m1 = float(np.sum(total_w * y * dens))
    m2 = float(np.sum(total_w * y * y * dens))
    return m1, m2


def fd_mean_gradient(family, data, xi, x, step=1e-5, order=30):
    """Finite-difference gradient of int y f(y|x, xi) dy in xi, with the
    integral evaluated by quadrature at each perturbed parameter."""
    xi = np.asarray(xi, dtype=float)
    grad = np.zeros(xi.size)
    for j in range(xi.size):
        bump = np.zeros(xi.size)
        bump[j] = step
        up = quadrature_moments(outcome_fit_at(data, family, xi + bump), x, order=order)[0]
        down = quadrature_moments(outcome_fit_at(data, family, xi - bump), x, order=order)[0]
        grad[j] = (up - down) / (2.0 * step)
    return grad


def fd_integrated_hessian(family, xi, x, step=1e-4, order=40):
    """Finite-difference Hessian in xi' of G(xi') = int log f(y|x, xi')
    f(y|x, xi) dy, the measure held fixed at xi."""
    xi = np.asarray(xi, dtype=float)
    row = np.atleast_2d(np.asarray(x, dtype=float))
    xi_m, xi_v = family.split(xi)
    m = float(design_matrix(family.mean_basis, row)[0] @ xi_m)
    v = float(np.exp(design_matrix(family.logvar_basis, row)[0] @ xi_v))
    nodes, weights = hermgauss(order)
    yy = m + np.sqrt(2.0 * v) * nodes

    def integrated_logdensity(xi_prime):
        dens = gaussian_density(family, yy, row[0], xi_prime)
        return float(weights @ np.log(dens) / np.sqrt(np.pi))

    q = xi.size
    hess = np.zeros((q, q))
    for i in range(q):
        for j in range(q):
            ei = np.zeros(q)
            ej = np.zeros(q)
            ei[i] = step
            ej[j] = step
            hess[i, j] = (
                integrated_logdensity(xi + ei + ej)
                - integrated_logdensity(xi + ei - ej)
                - integrated_logdensity(xi - ei + ej)
                + integrated_logdensity(xi - ei - ej)
            ) / (4.0 * step * step)
    return hess


def example2_population_components(xi_true, beta0, beta1, order=100):
    """Population S1 and S2 null variance components of an Example-2 design.

    The expectations over X ~ N(0, 1) are taken by quadrature from the design
    law alone: outcome mean ``xi1 x + xi2 x^2``, log variance ``xi3 + xi4 x``,
    null propensity ``logistic(beta0 + beta1 x)``. The working models of
    ``Example2Config.family`` and ``Example2Config.location_basis`` are then correctly
    specified, so the location fit's limit is the true mean and the squared
    residual has the true variance. No generator or estimator code is called.

    Returns ``(sigma_sq_s1, sigma_sq_s2, noncentrality_base_s2)``: the limits
    of ``variance_s1(...).sigma_sq_hat``, ``variance_s2(...).sigma_sq_hat``
    and ``variance_s2(...).noncentrality_base()``.
    """
    nodes, weights = hermgauss(order)
    x = math.sqrt(2.0) * nodes
    prob = weights / math.sqrt(math.pi)

    def expect(values):
        return np.tensordot(prob, values, axes=1)

    def outer(a, b, w):
        return expect(a[:, :, None] * b[:, None, :] * w[:, None, None])

    xi1, xi2, xi3, xi4 = xi_true
    mean = xi1 * x + xi2 * x**2
    var = np.exp(xi3 + xi4 * x)
    pi = expit(beta0 + beta1 * x)
    h = pi * (1.0 - pi)
    design = np.column_stack([np.ones_like(x), x])
    g = np.column_stack([x, x**2])

    a = outer(design, design, h)
    a1 = expect(design * (h * mean)[:, None])
    # terms shared by both statistics: A2 + B2 - A1' A^-1 A1 (B4 = B2)
    shared = (
        expect(pi * (1.0 - pi) ** 2 * (var + mean**2))
        + expect(pi**2 * (1.0 - pi) * mean**2)
        - a1 @ np.linalg.solve(a, a1)
    )
    b1 = expect(g * h[:, None])
    # S1: the log-variance block of the information has no gamma cross term
    sigma_sq_s1 = shared - b1 @ np.linalg.solve(outer(g, g, pi / var), b1)
    # S2: heteroskedasticity-robust form
    z = np.linalg.solve(outer(g, g, pi), b1)
    c3 = expect(g * (h * var)[:, None])
    sigma_sq_s2 = shared + z @ outer(g, g, pi * var) @ z - 2.0 * z @ c3
    return float(sigma_sq_s1), float(sigma_sq_s2), float(shared - z @ c3)


def _rowwise_cell(row, line_no, col):
    """Cell ``col`` of a ``csv.DictReader`` row as a finite float, or None if it
    is blank, NA or past the row's end; raises NonNumericCell otherwise."""
    cell = row.get(col)
    cell = "" if cell is None else cell.strip()
    if cell.lower() in _NA_STRINGS:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericCell(f"row {line_no}, column {col!r}: cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise NonNumericCell(f"row {line_no}, column {col!r}: {value} is not a finite number")
    return value


def read_csv_rowwise(path, spec, keep_columns=()):
    """``marscore.io.read_csv`` one cell at a time through ``csv.DictReader``.

    Same datasets and the same first error (class and message), except that
    a selected column the header repeats reads its last copy here.
    """
    keep_columns = tuple(keep_columns)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            for col in (spec.outcome_column, *spec.covariate_columns, *keep_columns):
                if col not in header:
                    raise MissingColumn(f"column {col!r} not found in {path} (header: {header})")
            d_list: list[int] = []
            y_list: list[float] = []
            x_rows: list[list[float]] = []
            labels: dict[str, list] = {c: [] for c in keep_columns}
            for line_no, row in enumerate(reader, start=2):
                y = _rowwise_cell(row, line_no, spec.outcome_column)
                d_list.append(0 if y is None else 1)
                if y is not None:
                    y_list.append(y)
                x_row = [1.0]
                for col in spec.covariate_columns:
                    value = _rowwise_cell(row, line_no, col)
                    if value is None:
                        raise MissingCovariate(
                            f"row {line_no}, column {col!r}: covariates may never be missing"
                        )
                    x_row.append(value)
                x_rows.append(x_row)
                for col in keep_columns:
                    value = row.get(col)
                    labels[col].append("" if value is None else value.strip())
            if not x_rows:
                raise EmptyDataset(f"{path} contains no data rows")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise IoFailure(f"cannot parse {path}, line {reader.reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path} is not UTF-8: byte {_undecodable_offset(path)}: {exc.reason}") from None
    return Dataset(
        x=np.array(x_rows, dtype=float),
        d=np.array(d_list, dtype=np.int8),
        y_complete=np.array(y_list, dtype=float),
        labels={c: tuple(v) for c, v in labels.items()},
    )


def write_dataset_csv(data, path, outcome_column, covariate_columns):
    """Write a dataset as CSV: the covariates (intercept column omitted) at full
    precision, the outcome, empty where missing, then the label columns, so
    ``read_csv`` reads the same dataset back."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([*covariate_columns, outcome_column, *data.labels])
        y_iter = iter(data.y_complete.tolist())
        for i in range(data.n):
            cells = [repr(v) for v in data.x[i, 1:].tolist()]
            cells.append(repr(next(y_iter)) if data.d[i] == 1 else "")
            cells.extend(data.labels[c][i] for c in data.labels)
            writer.writerow(cells)
