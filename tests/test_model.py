import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit, logit

import marscore
from marscore import model
from marscore.basis import intercept, raw, square
from marscore.data import Dataset
from marscore.exceptions import (
    DegenerateVariance,
    NoConvergence,
    RankDeficientDesign,
    Separation,
    SingularMatrix,
)
from marscore.model import (
    GaussianOutcomeFamily,
    fit_location,
    fit_outcome_parametric,
    fit_propensity_null,
    location_fit_at,
)
from marscore.numerics import RngStream, solve_spd
from marscore.sim import (
    Example1Config,
    Example2Config,
    generate_example1,
    generate_example2,
    run_single_replication,
)
from tests.oracles import (
    fd_integrated_hessian,
    fd_mean_gradient,
    former_starts,
    outcome_fit_at,
    outcome_moment_gradients,
    quadrature_moments,
    solve_spd_loop,
)

GRAD_RTOL = 1e-8


def dataset_from_full(x_cols, d, y):
    x = np.column_stack([np.ones(len(d)), *x_cols])
    return Dataset.from_generated(x, np.asarray(d, dtype=np.int8), np.asarray(y, dtype=float))


def propensity_standard_errors(fit):
    """Conventional logistic SEs from the inverse averaged information."""
    k = fit.info_matrix.shape[0]
    return np.sqrt(np.diag(solve_spd(fit.info_matrix, np.eye(k))) / fit.n)


class TestSolve:
    def test_a_singular_matrix_is_raised_as_the_given_class(self):
        with pytest.raises(NoConvergence, match=r"^block is singular: pivot .* at column 1;") as caught:
            model._solve(np.ones((2, 2)), np.ones(2), NoConvergence, "block is singular")
        assert isinstance(caught.value.__cause__, SingularMatrix)

    def test_other_errors_pass_through(self, monkeypatch):
        error = ValueError("not a singular matrix")
        calls = []

        def failing(m, v):
            calls.append(m)
            raise error

        monkeypatch.setattr(model, "solve_gram", failing)
        with pytest.raises(ValueError) as caught:
            model._solve(np.eye(2), np.ones(2), NoConvergence, "block is singular")
        assert caught.value is error
        assert len(calls) == 1


class TestHalvingSearch:
    def test_a_step_that_only_ties_is_halved(self):
        def evaluate(cand):
            return (-10.0 if cand[0] == 1.0 else -9.0), None

        cand, loglik, _, final = model._halving_search(
            "test", np.zeros(1), np.ones(1), np.ones(1), -10.0, evaluate, 10.0)
        assert (cand[0], loglik, final) == (0.5, -9.0, False)

    def test_a_gain_within_rounding_noise_takes_the_full_step(self):
        def evaluate(cand):
            return -10.0 - cand[0], None  # every trial compares worse

        step = np.array([1e-8])
        cand, _, _, final = model._halving_search(
            "test", np.zeros(1), step, step, -10.0, evaluate, 10.0)
        assert cand[0] == 1e-8 and final


# below -log(DBL_MAX) expit's exp(-eta) overflows and it returns 0
_EXPIT_UNDERFLOW = -np.log(np.finfo(float).max)


class TestLogisticKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 745.0, -745.0, 1e300, -1e300]),
                                        st.floats(-800.0, 800.0), st.floats(-1e300, 1e300)),
                              st.booleans()), min_size=1, max_size=60))
    @example([(0.0, True), (745.0, False), (-745.0, True), (1e300, True), (-1e300, False)])
    def test_matches_expit_and_logaddexp(self, rows):
        # the suite turns any escaping floating-point warning into a failure
        eta = np.array([e for e, _ in rows])
        d = np.array([float(obs) for _, obs in rows])
        loglik, pi = model._bernoulli(eta, d)
        assert np.all((pi >= 0.0) & (pi <= 1.0))
        want = expit(eta)
        # measured: at most 3 ulps apart over 23 000 arrays; where expit underflows to 0,
        # pi is subnormal
        tracked = eta > _EXPIT_UNDERFLOW
        assert np.all(np.abs(pi - want)[tracked] <= 4 * np.spacing(np.maximum(pi, want)[tracked]))
        assert np.all(pi[~tracked] < np.finfo(float).tiny)
        softplus = np.logaddexp(0.0, eta)
        # measured: at most 2 ulps of the terms' summed magnitude apart, over the same arrays
        size = np.abs(d * eta).sum() + softplus.sum()
        assert abs(loglik - (d @ eta - softplus.sum())) <= 4 * np.spacing(size)


class TestFitPropensityNull:
    def test_intercept_only_half_observed(self):
        data = dataset_from_full([], [1, 1, 0, 0], [1.0, 2.0, 0.0, 0.0])
        fit = fit_propensity_null(data)
        assert abs(fit.beta_hat[0]) < 1e-12
        assert_allclose(fit.pi, 0.5)

    def test_constant_propensity_slopes_near_zero(self):
        rng = np.random.default_rng(3)
        n = 10_000
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        d = (rng.random(n) < 0.5).astype(np.int8)
        data = dataset_from_full([x1, x2], d, np.zeros(n))
        fit = fit_propensity_null(data)
        se = propensity_standard_errors(fit)
        assert abs(fit.beta_hat[1]) < 3 * se[1]
        assert abs(fit.beta_hat[2]) < 3 * se[2]
        assert abs(fit.beta_hat[0] - logit(d.mean())) < 3 * se[0]

    def test_example2_design_recovers_truth(self):
        cfg = Example2Config(n=100_000, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(11, 0))
        fit = fit_propensity_null(data)
        se = propensity_standard_errors(fit)
        assert abs(fit.beta_hat[0] - 0.85) < 3 * se[0]
        assert abs(fit.beta_hat[1] - 0.0) < 3 * se[1]

    def test_gradient_tolerance_met(self):
        cfg = Example2Config(n=5000, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25)
        data = generate_example2(cfg, RngStream(12, 0))
        fit = fit_propensity_null(data)
        grad = fit.design.T @ (data.d - fit.pi)
        assert np.max(np.abs(grad)) <= GRAD_RTOL * data.n

    def test_info_matrix_is_average_information(self):
        data = dataset_from_full([[0.3, 0.5, -0.2, -0.4]], [1, 0, 1, 0], [1.0, 0.0, 2.0, 0.0])
        fit = fit_propensity_null(data)
        w = fit.pi * (1 - fit.pi)
        expected = fit.design.T @ (fit.design * w[:, None]) / data.n
        assert_allclose(fit.info_matrix, expected, atol=1e-14)

    def test_separation_raises(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0, 3.0, -3.0])
        d = (x > 0).astype(np.int8)
        # from x·10 up, the line search stalls before any coefficient passes magnitude 30
        for scale in (1.0, 10.0, 100.0, 1e3, 1e4):
            data = dataset_from_full([scale * x], d, np.where(d == 1, 1.0, 0.0))
            with pytest.raises(Separation):
                fit_propensity_null(data)

    def test_separation_names_the_rule_that_fired(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0, 3.0, -3.0])
        d = (x > 0).astype(np.int8)
        y = np.where(d == 1, 1.0, 0.0)
        with pytest.raises(Separation, match="classifies every row within 1e-6"):
            fit_propensity_null(dataset_from_full([x], d, y))
        with pytest.raises(Separation, match=r"coefficient of design column 1 is [0-9.]+, beyond magnitude 30"):
            fit_propensity_null(dataset_from_full([0.01 * x], d, y))

    def test_quasi_complete_separation_is_classified(self):
        # x = 0 holds both patterns; the information nears singular as beta diverges
        x = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 3.0, -3.0])
        d = np.array([0, 0, 1, 0, 1, 1, 1, 0])
        data = dataset_from_full([x], d, np.where(d == 1, 1.0, 0.0))
        with pytest.raises(marscore.MarscoreError) as caught:
            fit_propensity_null(data)
        assert not isinstance(caught.value, SingularMatrix)

    def test_all_observed_raises(self):
        data = dataset_from_full([[0.1, 0.2]], [1, 1], [1.0, 2.0])
        with pytest.raises(Separation):
            fit_propensity_null(data)

    def test_collinear_design_raises(self):
        x = np.array([0.5, 1.5, -0.5, 2.0])
        data = dataset_from_full([x, 2 * x], [1, 0, 1, 0], [1.0, 0.0, 2.0, 0.0])
        with pytest.raises(RankDeficientDesign):
            fit_propensity_null(data)

    def test_collinear_design_with_zero_start_gradient_raises(self):
        # the gradient at beta = 0 is exactly zero, so only the first Newton solve sees the collinearity
        x = np.array([1.0, 1.0, 2.0, 2.0])
        data = dataset_from_full([x, 2 * x], [1, 0, 1, 0], [1.0, 0.0, 2.0, 0.0])
        with pytest.raises(RankDeficientDesign):
            fit_propensity_null(data)

    def test_an_overflow_is_a_classified_error_not_a_warning(self):
        # at 1e160 the first information, with entries about 1e320, overflows in its matmul
        data = Example2Config(n=200).generate(RngStream(3, 0))
        scaled = Dataset(x=data.x * np.array([1.0, 1e160]), d=data.d, y_complete=data.y_complete)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(marscore.MarscoreError):
                fit_propensity_null(scaled)

    def test_rounding_noise_stall_converges_with_one_blas_thread(self):
        # Near the optimum the full step's predicted gain (about 4e-11) lies below
        # the rounding noise of this 100 000-term log-likelihood, and with one
        # BLAS thread every halving compares worse. The fit must take the full
        # step and stop, not crawl through halvings that only compare equal.
        script = (
            "from marscore.model import fit_propensity_null\n"
            "from marscore.numerics import RngStream\n"
            "from marscore.sim import Example1Config, generate_example1\n"
            "data = generate_example1(Example1Config(n=100_000, b_z=0.5, c2=0.25), RngStream(2, 0))\n"
            "fit = fit_propensity_null(data, columns=(0, 1))\n"
            "grad = fit.design.T @ (data.d - fit.pi)\n"
            "print(abs(grad).max() <= 1e-8 * data.n, fit.iterations)\n"
        )
        src = str(Path(marscore.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        converged, iterations = done.stdout.split()
        assert converged == "True"
        assert int(iterations) <= 6

    def test_column_subset(self):
        rng = np.random.default_rng(4)
        n = 2000
        u = rng.standard_normal(n)
        z = rng.standard_normal(n)
        d = (rng.random(n) < expit(0.5 + 0.5 * u)).astype(np.int8)
        data = dataset_from_full([u, z], d, np.zeros(n))
        fit = fit_propensity_null(data, columns=(0, 1))
        assert fit.beta_hat.shape == (2,)
        assert fit.design.shape == (n, 2)

    def test_rescaling_equivariance(self):
        rng = np.random.default_rng(5)
        n = 3000
        x = rng.standard_normal(n)
        d = (rng.random(n) < expit(0.3 + 0.8 * x)).astype(np.int8)
        data = dataset_from_full([x], d, np.zeros(n))
        scaled = dataset_from_full([4.0 * x], d, np.zeros(n))
        fit = fit_propensity_null(data)
        fit_scaled = fit_propensity_null(scaled)
        assert fit_scaled.beta_hat[1] == pytest.approx(fit.beta_hat[1] / 4.0, rel=1e-10)
        assert np.max(np.abs(fit.pi - fit_scaled.pi)) < 1e-8


def homoskedastic_family():
    return GaussianOutcomeFamily((intercept(), raw(1), square(1)), (intercept(),))


class TestFitOutcomeParametric:
    def test_recovers_known_truth(self):
        rng = np.random.default_rng(6)
        n = 100_000
        x = rng.standard_normal(n)
        y = 2.0 - x + x**2 + np.exp(0.25) * rng.standard_normal(n)
        d = np.ones(n, dtype=np.int8)
        d[:100] = 0  # keep a token missing group; fit uses complete cases
        data = dataset_from_full([x], d, y)
        fit = fit_outcome_parametric(data, homoskedastic_family())
        bm = data.design(fit.family.mean_basis, complete=True)
        cov = solve_spd(bm.T @ bm, np.eye(3)) * np.exp(0.5)
        se_mean = np.sqrt(np.diag(cov))
        se_logvar = np.sqrt(2.0 / data.n_complete)
        xi_mean, xi_logvar = fit.family.split(fit.xi_hat)
        for got, want, se in zip(xi_mean, (2.0, -1.0, 1.0), se_mean):
            assert abs(got - want) < 3 * se
        assert abs(xi_logvar[0] - 0.5) < 3 * se_logvar

    def test_example2_truth_under_mar(self):
        cfg = Example2Config(n=100_000, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(13, 0))
        fit = fit_outcome_parametric(data, Example2Config.family)
        nc = data.n_complete
        bm = data.design(fit.family.mean_basis, complete=True)
        w = 1.0 / fit.var[data.complete_idx]
        se_mean = np.sqrt(np.diag(solve_spd(bm.T @ (bm * w[:, None]), np.eye(2))))
        bv = data.design(fit.family.logvar_basis, complete=True)
        se_logvar = np.sqrt(np.diag(solve_spd(0.5 * bv.T @ bv, np.eye(2))))
        truth = (-1.0, 1.0, 0.5, 0.0)
        for got, want, se in zip(fit.xi_hat, truth, np.concatenate([se_mean, se_logvar])):
            assert abs(got - want) < 3 * se

    def test_constant_outcome_flags_degenerate_variance(self):
        data = dataset_from_full([], [1] * 6 + [0, 0], [3.3] * 6 + [0.0, 0.0])
        family = GaussianOutcomeFamily((intercept(),), (intercept(),))
        with pytest.raises(DegenerateVariance) as excinfo:
            fit_outcome_parametric(data, family)
        assert excinfo.value.mean_coef[0] == pytest.approx(3.3)

    def test_joint_gradient_tolerance(self):
        cfg = Example2Config(n=4000, xi_true=(1, 1, 0.5, 1), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(14, 0))
        fit = fit_outcome_parametric(data, Example2Config.family)
        complete = data.complete_idx
        bm = data.design(fit.family.mean_basis, complete=True)
        bv = data.design(fit.family.logvar_basis, complete=True)
        r = data.y_complete - fit.m1[complete]
        u = r * r / fit.var[complete]
        grad_m = bm.T @ (r / fit.var[complete])
        grad_v = 0.5 * bv.T @ (u - 1.0)
        assert max(np.max(np.abs(grad_m)), np.max(np.abs(grad_v))) <= GRAD_RTOL * data.n

    @staticmethod
    def refusing_joint_solves(monkeypatch, family, refusals):
        """Make ``model.solve_gram``, which every fit solve goes through, refuse the first
        ``refusals`` joint information solves: those whose cross block is nonzero, so the
        solve without it still goes through."""
        solve = model.solve_gram
        qm = family.dim_mean
        refused = []

        def refuse_joint(m, v):
            if m.shape[0] == family.dim_xi and np.any(m[:qm, qm:]) and len(refused) < refusals:
                refused.append(m)
                raise SingularMatrix("pivot -1.000e+00 below 1.000e-12 at column 3")
            return solve(m, v)

        monkeypatch.setattr(model, "solve_gram", refuse_joint)
        return refused

    def test_block_step_after_a_refused_joint_solve_reaches_the_same_fit(self, monkeypatch):
        cfg = Example2Config(n=400, xi_true=(1, 1, 0.5, 1), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(14, 0))
        family = Example2Config.family
        want = fit_outcome_parametric(data, family)
        refused = self.refusing_joint_solves(monkeypatch, family, refusals=1)
        got = fit_outcome_parametric(data, family)
        assert len(refused) == 1
        assert_allclose(got.xi_hat, want.xi_hat, rtol=1e-12)

    def test_block_steps_alone_never_end_the_fit(self, monkeypatch):
        cfg = Example2Config(n=400, xi_true=(1, 1, 0.5, 1), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(14, 0))
        family = Example2Config.family
        refused = self.refusing_joint_solves(monkeypatch, family, refusals=np.inf)
        with pytest.raises(NoConvergence, match="did not converge"):
            fit_outcome_parametric(data, family)
        # a final block step ends the fit at once instead of repeating until the iteration cap
        assert 0 < len(refused) < model._MAX_ITER

    @pytest.mark.parametrize("r", [357, 470, 715, 831, 1311, 1760])
    def test_small_sample_fits_end_alike_under_both_kernels(self, monkeypatch, r):
        # draws whose fits end where rounding, not the gradient, limits progress, so a stopping
        # rule that reads the gradient cycles there and depends on the SPD kernel
        data = generate_example2(Example2Config(n=15), RngStream(2, r))
        family = Example2Config.family
        lapack = fit_outcome_parametric(data, family)
        calls = []

        def loop_solve(m, v):
            calls.append(m)
            return solve_spd_loop(m, v)

        # every fit solve goes through model.solve_gram; a fresh dataset holds no solved
        # least-squares start, so the loop kernel solves that start too
        monkeypatch.setattr(model, "solve_gram", loop_solve)
        loop = fit_outcome_parametric(Dataset(x=data.x, d=data.d, y_complete=data.y_complete), family)
        # the two least-squares starts, and per step a joint solve and any block solve after it
        assert len(calls) >= loop.iterations + 2
        assert_allclose(loop.xi_hat, lapack.xi_hat, rtol=1e-12)

    def test_loglik_near_zero_still_finishes(self):
        # y -> a*y + b with a small |a| leaves |loglik| about 0.35 against terms of size 400, so
        # rounding noise must be judged on the terms, not on |loglik|
        cfg = Example2Config(n=247, xi_true=(1, 1, 0.5, 1), beta0=0.5, beta1=0.5, gamma=0.25)
        data = generate_example2(cfg, RngStream(743517409, 0))
        family = GaussianOutcomeFamily((intercept(), raw(1), square(1)), (intercept(), raw(1)))
        a, b = -0.1716513234565807, 7.8727832454451985
        mapped = Dataset(x=data.x, d=data.d, y_complete=a * data.y_complete + b)
        fit = fit_outcome_parametric(data, family)
        fit_mapped = fit_outcome_parametric(mapped, family)
        want = fit.xi_hat * np.array([a, a, a, 1.0, 1.0]) + np.array([b, 0, 0, 2 * np.log(-a), 0])
        assert abs(fit_mapped.loglik) < 1.0
        assert_allclose(fit_mapped.xi_hat, want, rtol=1e-10, atol=1e-12)

    def test_too_few_complete_cases(self):
        data = dataset_from_full([[0.1, 0.2, 0.3, 0.4]], [1, 1, 0, 0], [1.0, 2.0, 0, 0])
        with pytest.raises(RankDeficientDesign):
            fit_outcome_parametric(data, homoskedastic_family())

    @pytest.mark.parametrize("mean_basis, logvar_basis, what", [
        ((intercept(), raw(1), raw(2)), (intercept(),), "outcome mean"),
        ((intercept(), raw(1)), (intercept(), raw(1), raw(2)), "outcome log-variance"),
    ], ids=["mean", "log-variance"])
    def test_collinear_terms_raise(self, mean_basis, logvar_basis, what):
        x = np.array([-1.0, -0.5, 0.2, 0.7, 1.1, 1.6, 0.4, -0.3])
        y = np.array([0.3, -1.2, 0.8, 2.0, -0.4, 1.1, 0.0, 0.0])
        data = dataset_from_full([x, 2 * x], [1] * 6 + [0, 0], y)
        family = GaussianOutcomeFamily(mean_basis, logvar_basis)
        with pytest.raises(RankDeficientDesign, match=what):
            fit_outcome_parametric(data, family)


def fits_and_z(cfg, stream):
    """``(β̂, ξ̂, (z_S1, z_S2))`` of one replication, or the class of the error that ends it."""
    try:
        data = cfg.generate(stream)
        pf = fit_propensity_null(data, cfg.propensity_columns)
        of = fit_outcome_parametric(data, cfg.family)
        r1, r2 = run_single_replication(cfg, stream)
    except marscore.MarscoreError as exc:
        return type(exc)
    return pf.beta_hat, of.xi_hat, np.array([r1.z, r2.z])


# the mc_ex2_het_n1000 benchmark design
HET_N1000 = Example2Config(n=1000, xi_true=(1.0, 1.0, 0.5, 1.0), beta0=0.5, beta1=0.5, gamma=0.25)


class TestClosedFormStarts:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 300),
           xi_true=st.sampled_from([(-1.0, 1.0, 0.5, 0.0), (1.0, 1.0, 0.5, 1.0)]))
    def test_same_optimum_as_the_former_starts(self, seed, n, xi_true):
        cfg = Example2Config(n=n, xi_true=xi_true)
        got = fits_and_z(cfg, RngStream(seed, 0))
        with former_starts():
            want = fits_and_z(cfg, RngStream(seed, 0))
        if isinstance(want, type):
            assert got is want
            return
        assert not isinstance(got, type), got
        # relative to each vector's largest entry: an entry near zero keeps only absolute rounding
        # (ξ̂₄ = -2.4e-4 on RngStream(516890627, 0) at n = 267 moves by 2.7e-14)
        for got_part, want_part in zip(got, want):
            assert_allclose(got_part, want_part, rtol=0, atol=1e-10 * np.abs(want_part).max())

    def test_propensity_without_the_constant_keeps_the_zero_start(self):
        data = HET_N1000.generate(RngStream(1, 0))
        got = fit_propensity_null(data, columns=(1,))
        with former_starts():
            want = fit_propensity_null(data, columns=(1,))
        assert np.array_equal(got.beta_hat, want.beta_hat) and np.array_equal(got.pi, want.pi)
        assert (got.loglik, got.iterations) == (want.loglik, want.iterations)

    def test_log_variance_basis_without_an_intercept_keeps_the_constant_start(self):
        data = HET_N1000.generate(RngStream(1, 0))
        family = GaussianOutcomeFamily((raw(1), square(1)), (raw(1), square(1)))
        got = fit_outcome_parametric(data, family)
        with former_starts():
            want = fit_outcome_parametric(data, family)
        assert np.array_equal(got.xi_hat, want.xi_hat)
        assert (got.loglik, got.iterations) == (want.loglik, want.iterations)

    def test_a_duplicated_column_fails_the_first_solve_with_the_intercept_started(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(40)
        d = np.array([1] * 30 + [0] * 10)  # the constant starts at log 3, not 0
        data = dataset_from_full([x, x], d, x)
        with pytest.raises(RankDeficientDesign, match="propensity design is rank deficient"):
            fit_propensity_null(data)

    def test_example1_at_n10000_takes_few_iterations(self):
        cfg = Example1Config(n=10_000, c1=0.0)
        data = cfg.generate(RngStream(1, 0))
        assert fit_outcome_parametric(data, cfg.family).iterations == 1
        assert fit_propensity_null(data, cfg.propensity_columns).iterations <= 3

    def test_heteroskedastic_outcome_fits_take_at_most_five_iterations_on_average(self):
        iterations = [fit_outcome_parametric(HET_N1000.generate(RngStream(1, r)), HET_N1000.family)
                      .iterations for r in range(20)]
        assert np.mean(iterations) <= 5.0


class TestFitLocation:
    def test_exact_fit(self):
        x = np.array([1.0, 2.0, -1.0, 4.0])
        data = dataset_from_full([x], [1, 1, 1, 0], 3.0 * x)
        fit = fit_location(data, (raw(1),))
        assert fit.theta_hat[0] == pytest.approx(3.0, abs=1e-12)
        assert np.max(np.abs(fit.residuals)) < 1e-12

    def test_example1_mar_recovers_mean(self):
        cfg = Example1Config(n=100_000, b_z=0.5, c1=0.0, c2=0.5)
        data = generate_example1(cfg, RngStream(15, 0))
        fit = fit_location(data, Example1Config.location_basis)
        g = data.design(fit.mean_basis, complete=True)
        se = np.sqrt(np.diag(solve_spd(g.T @ g, np.eye(3))))
        for got, want, s in zip(fit.theta_hat, (1.0, 1.0, 0.5), se):
            assert abs(got - want) < 3 * s

    def test_matches_parametric_mean_when_homoskedastic(self):
        cfg = Example1Config(n=4000, b_z=1.0, c1=0.0, c2=0.25)
        data = generate_example1(cfg, RngStream(16, 0))
        of = fit_outcome_parametric(data, Example1Config.family)
        lf = fit_location(data, Example1Config.location_basis)
        xi_mean, _ = of.family.split(of.xi_hat)
        assert np.max(np.abs(xi_mean - lf.theta_hat)) < 1e-8

    def test_normal_equations(self):
        cfg = Example1Config(n=3000, b_z=0.5, c1=0.1, c2=0.25)
        data = generate_example1(cfg, RngStream(17, 0))
        fit = fit_location(data, Example1Config.location_basis)
        g = data.design(fit.mean_basis, complete=True)
        assert np.max(np.abs(g.T @ fit.residuals)) <= GRAD_RTOL * data.n

    def test_rank_deficient_raises(self):
        x = np.array([1.0, 1.0, 1.0, 1.0])
        data = dataset_from_full([x], [1, 1, 1, 0], x)
        with pytest.raises(RankDeficientDesign):
            fit_location(data, (intercept(), raw(1)))

    def test_the_outcome_start_and_the_location_fit_share_one_solve(self, monkeypatch):
        cfg = Example2Config(n=200)
        data = cfg.generate(RngStream(5, 0))
        fresh = Dataset(x=data.x, d=data.d, y_complete=data.y_complete)
        want = fit_location(fresh, cfg.location_basis).theta_hat
        fit_outcome_parametric(data, cfg.family)
        solves = []
        monkeypatch.setattr(model, "solve_gram", lambda m, v: solves.append(m))
        got = fit_location(data, cfg.location_basis).theta_hat
        assert solves == []
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable  # the fit's own copy, not the dataset's

    def test_a_rank_deficient_basis_is_named_by_each_fit(self):
        # x is 1 on every complete row, so x and x² are one column there
        x = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        data = dataset_from_full([x], [1, 1, 1, 1, 1, 1, 0], np.arange(7.0))
        family = Example2Config.family
        for fit, basis, what in [(fit_outcome_parametric, family, "outcome mean"),
                                 (fit_location, family.mean_basis, "location"),
                                 (fit_outcome_parametric, family, "outcome mean")]:
            with pytest.raises(RankDeficientDesign, match=f"^{what} design is rank deficient: pivot"):
                fit(data, basis)


class TestOverflowOutsideTheLoops:
    """An overflow in a design, a Gram matrix or the outcome fit's start is a classified
    error, not a warning (which the suite would turn into a failure anyway)."""

    @staticmethod
    def scaled(x_scale=1.0, y_scale=1.0):
        data = Example2Config(n=200).generate(RngStream(3, 0))
        return Dataset(x=data.x * np.array([1.0, x_scale]), d=data.d, y_complete=data.y_complete * y_scale)

    @pytest.mark.parametrize("x_scale, match", [
        (1e160, r"design column 1 \(BasisTerm\(i=1, j=1\)\) overflows"),  # x² is beyond the double range
        (1e100, "design is rank deficient: non-finite entry"),  # x² is not, but the Gram matrix's x⁴ is
    ], ids=["design", "gram-matrix"])
    def test_a_covariate_scale(self, x_scale, match):
        data = self.scaled(x_scale=x_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficientDesign, match=match):
                fit_outcome_parametric(data, Example2Config.family)
            with pytest.raises(RankDeficientDesign, match=match):
                fit_location(data, Example2Config.location_basis)

    def test_an_outcome_scale(self):
        # the start's mean residual square, about 1e320, overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="cannot start: its mean residual square inf"):
                fit_outcome_parametric(self.scaled(y_scale=1e160), Example2Config.family)


def synthetic_fit(xi, family=None, x_value=0.7):
    family = family or GaussianOutcomeFamily((intercept(),), (intercept(),))
    data = dataset_from_full([[x_value]], [1], [0.0]) if family.mean_basis[0] != intercept() else dataset_from_full([], [1], [0.0])
    return outcome_fit_at(data, family, np.asarray(xi, dtype=float))


class TestOutcomeMoments:
    def test_standard_normal(self):
        fit = synthetic_fit([0.0, 0.0])
        assert (fit.m1[0], fit.m2[0]) == (0.0, 1.0)

    def test_mean_two_var_three(self):
        fit = synthetic_fit([2.0, np.log(3.0)])
        assert fit.m1[0] == pytest.approx(2.0)
        assert fit.m2[0] == pytest.approx(7.0)

    def test_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(8)
        family = GaussianOutcomeFamily((raw(1), square(1)), (intercept(), raw(1)))
        for _ in range(20):
            xi = np.concatenate([rng.normal(0, 1, 2), rng.normal(0, 0.5, 2)])
            x = np.array([1.0, rng.normal()])
            fit = outcome_fit_at(dataset_from_full([[x[1]]], [1], [0.1]), family, xi)
            closed = fit.m1[0], fit.m2[0]
            quad = quadrature_moments(fit, x, order=30)
            assert quad[0] == pytest.approx(closed[0], abs=1e-10 * (1 + abs(closed[0])))
            assert quad[1] == pytest.approx(closed[1], abs=1e-10 * (1 + abs(closed[1])))

    def test_positive_conditional_variance_on_rows(self):
        cfg = Example2Config(n=2000, xi_true=(1, 1, 0.5, 1), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(18, 0))
        fit = fit_outcome_parametric(data, Example2Config.family)
        assert np.all(fit.m2 - fit.m1**2 > 0)


class TestOutcomeMomentGradients:
    def test_mean_gradient_is_padded_basis(self):
        family = GaussianOutcomeFamily((intercept(), raw(1)), (intercept(),))
        data = dataset_from_full([[2.0]], [1], [0.0])
        fit = outcome_fit_at(data, family, np.array([0.3, -0.2, 0.1]))
        grad, _ = outcome_moment_gradients(fit, np.array([1.0, 2.0]))
        assert_allclose(grad, [1.0, 2.0, 0.0])

    def test_standard_normal_hessian_entry(self):
        fit = synthetic_fit([0.0, 0.0])
        _, hess = outcome_moment_gradients(fit, np.array([1.0]))
        assert hess[0, 0] == pytest.approx(-1.0)
        assert hess[1, 1] == pytest.approx(-0.5)
        assert hess[0, 1] == 0.0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(9)
        family = GaussianOutcomeFamily((raw(1), square(1)), (intercept(), raw(1)))
        data = dataset_from_full([[0.3]], [1], [0.1])
        for _ in range(10):
            xi = np.concatenate([rng.normal(0, 1, 2), rng.normal(0, 0.5, 2)])
            x = np.array([1.0, rng.normal()])
            fit = outcome_fit_at(data, family, xi)
            grad, hess = outcome_moment_gradients(fit, x)
            fd_grad = fd_mean_gradient(family, data, xi, x)
            assert np.max(np.abs(fd_grad - grad) / (1 + np.abs(grad))) < 1e-6
            fd_hess = fd_integrated_hessian(family, xi, x)
            assert np.max(np.abs(fd_hess - hess) / (1 + np.abs(hess))) < 1e-6


class TestEvaluators:
    def test_outcome_fit_at_matches_mle_loglik(self):
        cfg = Example2Config(n=1500, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(19, 0))
        mle = fit_outcome_parametric(data, Example2Config.family)
        pinned = outcome_fit_at(data, Example2Config.family, mle.xi_hat)
        assert pinned.loglik == pytest.approx(mle.loglik, rel=1e-12)

    def test_location_fit_at(self):
        x = np.array([1.0, 2.0, 3.0])
        data = dataset_from_full([x], [1, 1, 1], 2.0 * x)
        fit = location_fit_at(data, (raw(1),), np.array([2.0]))
        assert np.max(np.abs(fit.residuals)) == 0.0
