import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import expit

from marscore.basis import intercept, raw, square
from marscore.data import Dataset
from marscore.exceptions import (
    FitMismatch,
    InvalidAlpha,
    MarscoreError,
    NegativeVariance,
    SingularMatrix,
)
from marscore.model import (
    GaussianOutcomeFamily,
    PropensityFit,
    fit_location,
    fit_outcome_parametric,
    fit_propensity_null,
    location_fit_at,
    outcome_fit_at,
    outcome_moment_gradients,
)
from marscore.numerics import RngStream, normal_cdf
from marscore.score import (
    VarianceComponentsS1,
    analytic_local_power,
    score_statistic_s1,
    score_statistic_s2,
    variance_s1,
    variance_s2,
)
from marscore.score import test_report as score_report
from marscore.sim import (
    Example2Config,
    example2_family,
    example2_location_basis,
    generate_example2,
)
from tests.oracles import (
    assemble,
    fd_gamma_score,
    quad_form_inv_loop,
    reduced_sigma_sq,
    solve_spd_loop,
)


def dataset_from_full(x_cols, d, y):
    x = np.column_stack([np.ones(len(d)), *x_cols])
    return Dataset.from_generated(x, np.asarray(d, dtype=np.int8), np.asarray(y, dtype=float))


def toy_two_rows():
    """One observed row (y=2) and one missing row, intercept-only covariate."""
    data = dataset_from_full([], [1, 0], [2.0, 0.0])
    pf = fit_propensity_null(data)
    family = GaussianOutcomeFamily((intercept(),), (intercept(),))
    of = outcome_fit_at(data, family, np.array([2.0, 0.0]))
    return data, pf, of


def random_small_dataset(rng, n=50):
    x = rng.standard_normal(n)
    mean = rng.normal(0, 1) * x + rng.normal(0, 1) * x**2
    y = mean + np.exp(0.5 * (0.3 + 0.3 * x)) * rng.standard_normal(n)
    p = expit(0.6 + 0.4 * x)
    d = (rng.random(n) < p).astype(np.int8)
    if d.sum() < 8 or d.sum() > n - 3:
        return None
    return dataset_from_full([x], d, y)


class TestScoreStatisticS1:
    def test_all_observed(self):
        data = dataset_from_full([[0.2, -0.1, 0.4]], [1, 1, 1], [1.0, 2.0, 3.0])
        pf = PropensityFit(
            beta_hat=np.zeros(2),
            info_matrix=0.25 * np.eye(2),
            loglik=0.0,
            iterations=0,
            converged=True,
            pi=np.full(3, 0.5),
            design=data.x,
        )
        family = GaussianOutcomeFamily((intercept(),), (intercept(),))
        of = outcome_fit_at(data, family, np.array([0.0, 0.0]))
        s1 = score_statistic_s1(data, pf, of)
        assert s1 == pytest.approx(0.5 * (1 + 2 + 3), abs=1e-14)

    def test_balanced_two_rows_cancel(self):
        data, pf, of = toy_two_rows()
        assert pf.beta_hat[0] == pytest.approx(0.0, abs=1e-12)
        assert score_statistic_s1(data, pf, of) == pytest.approx(0.0, abs=1e-12)

    def test_matches_loglik_derivative_oracle(self):
        rng = np.random.default_rng(21)
        family = GaussianOutcomeFamily((raw(1), square(1)), (intercept(), raw(1)))
        checked = 0
        while checked < 20:
            data = random_small_dataset(rng)
            if data is None:
                continue
            pf = fit_propensity_null(data)
            of = fit_outcome_parametric(data, family)
            s1 = score_statistic_s1(data, pf, of)
            fd = fd_gamma_score(data, pf, of, step=1e-5)
            assert abs(s1 - fd) <= 1e-5 * (1 + abs(s1))
            checked += 1

    def test_fit_mismatch(self):
        data, pf, of = toy_two_rows()
        other = dataset_from_full([], [1, 0, 1], [2.0, 0.0, 1.0])
        with pytest.raises(FitMismatch):
            score_statistic_s1(other, pf, of)


class TestScoreStatisticS2:
    def test_balanced_two_rows_cancel(self):
        data, pf, _ = toy_two_rows()
        lf = location_fit_at(data, (intercept(),), np.array([2.0]))
        assert score_statistic_s2(data, pf, lf) == pytest.approx(0.0, abs=1e-12)

    def test_equals_s1_for_matching_homoskedastic_bases(self):
        family = example2_family(heteroskedastic=False)
        basis = example2_location_basis()
        cfg = Example2Config(n=1000, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        for r in range(25):
            data = generate_example2(cfg, RngStream(22, r))
            pf = fit_propensity_null(data)
            of = fit_outcome_parametric(data, family)
            lf = fit_location(data, basis)
            s1 = score_statistic_s1(data, pf, of)
            s2 = score_statistic_s2(data, pf, lf)
            assert abs(s1 - s2) <= 1e-10 * (1 + abs(s1))


class TestVarianceS1:
    def test_a2_single_row_plugin(self):
        data = dataset_from_full([], [1], [0.0])
        pf = PropensityFit(
            beta_hat=np.zeros(1),
            info_matrix=np.array([[0.25]]),
            loglik=0.0,
            iterations=0,
            converged=True,
            pi=np.array([0.5]),
            design=data.x,
        )
        family = GaussianOutcomeFamily((intercept(),), (intercept(),))
        of = outcome_fit_at(data, family, np.array([0.0, 0.0]))  # m1=0, m2=1
        # one row leaves nothing for the variance: sigma^2 is zero, only its components are read
        with pytest.raises(NegativeVariance) as excinfo:
            variance_s1(data, pf, of)
        comp = excinfo.value.components
        assert comp.A2_hat == pytest.approx(0.5 * 0.25 * 1.0, abs=1e-15)

    def test_intercept_only_hand_assembly(self):
        # with x identically (1) and a constant mean model the nuisance
        # corrections absorb the score entirely: the hand-assembled value is
        # exactly zero and the estimator must report it, never clamp it
        y = np.array([0.7, -0.4, 1.9, 0.3])
        data = dataset_from_full([], [1, 1, 1, 1, 0, 0, 0, 0], np.concatenate([y, np.zeros(4)]))
        pf = fit_propensity_null(data)
        family = GaussianOutcomeFamily((intercept(),), (intercept(),))
        of = fit_outcome_parametric(data, family)
        with pytest.raises(NegativeVariance) as excinfo:
            variance_s1(data, pf, of)
        comp = excinfo.value.components

        p = 0.5  # intercept-only fit, half observed
        m = float(y.mean())
        v = float(np.mean((y - m) ** 2))
        assert comp.A_hat[0, 0] == pytest.approx(p * (1 - p), rel=1e-12)
        assert comp.A1_hat[0] == pytest.approx(p * (1 - p) * m, rel=1e-12)
        assert comp.A2_hat == pytest.approx(p * (1 - p) ** 2 * (m * m + v), rel=1e-12)
        assert comp.B2_hat == pytest.approx(p * p * (1 - p) * m * m, rel=1e-12)
        assert comp.B_hat[0, 0] == pytest.approx(p / v, rel=1e-12)
        assert comp.B1_hat[0] == pytest.approx(p * (1 - p), rel=1e-12)
        hand = (
            comp.A2_hat
            + comp.B2_hat
            - comp.A1_hat[0] ** 2 / comp.A_hat[0, 0]
            - comp.B1_hat[0] ** 2 / comp.B_hat[0, 0]
        )
        assert abs(comp.sigma_sq_hat - hand) < 1e-12
        assert abs(hand) < 1e-12

    def test_assembly_integrity(self):
        cfg = Example2Config(n=1500, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25)
        data = generate_example2(cfg, RngStream(23, 0))
        pf = fit_propensity_null(data)
        of = fit_outcome_parametric(data, example2_family())
        comp = variance_s1(data, pf, of)
        assert assemble(comp) == pytest.approx(comp.sigma_sq_hat, rel=1e-12)
        assert comp.sigma_sq_hat > 0

    def test_b_components_sum_the_moment_gradients(self):
        # ties S1's B_hat and B1_hat to the per-row formulas that criterion 11
        # checks against finite differences
        cfg = Example2Config(n=400, xi_true=(1, 1, 0.5, 1), beta0=0.5, beta1=0.5, gamma=0.25)
        data = generate_example2(cfg, RngStream(24, 0))
        pf = fit_propensity_null(data)
        of = fit_outcome_parametric(data, example2_family())
        comp = variance_s1(data, pf, of)
        b_sum = np.zeros_like(comp.B_hat)
        b1_sum = np.zeros_like(comp.B1_hat)
        for x, pi in zip(data.x, pf.pi):
            grad, hess = outcome_moment_gradients(of, x)
            b_sum -= pi * hess
            b1_sum += pi * (1.0 - pi) * grad
        np.testing.assert_allclose(comp.B_hat, b_sum / data.n, rtol=1e-12, atol=0)
        np.testing.assert_allclose(comp.B1_hat, b1_sum / data.n, rtol=1e-12, atol=0)


class TestVarianceS2:
    def test_assembly_integrity_and_positivity(self):
        cfg = Example2Config(n=1500, xi_true=(1, 1, 0.5, 1), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(24, 0))
        pf = fit_propensity_null(data)
        lf = fit_location(data, example2_location_basis())
        comp = variance_s2(data, pf, lf)
        assert assemble(comp) == pytest.approx(comp.sigma_sq_hat, rel=1e-12)
        assert comp.sigma_sq_hat > 0

    def test_identical_rows_raise_singular(self):
        n = 30
        x = np.full(n, 2.0)
        d = np.array([1, 0] * 15, dtype=np.int8)
        y = np.where(d == 1, 1.5, 0.0) + np.linspace(0, 0.1, n) * d
        data = dataset_from_full([x], d, y)
        pf = PropensityFit(
            beta_hat=np.zeros(2),
            info_matrix=0.25 * data.x.T @ data.x / n,
            loglik=0.0,
            iterations=0,
            converged=True,
            pi=np.full(n, 0.5),
            design=data.x,
        )
        lf = location_fit_at(data, (intercept(), raw(1)), np.array([0.0, 0.75]))
        with pytest.raises(SingularMatrix):
            variance_s2(data, pf, lf)

    def test_reduced_form_identity_under_exact_homoskedasticity(self):
        # with C2 = C1 * v and C3 = B3 * v the robust assembly collapses to
        # the reduced formula exactly
        rng = np.random.default_rng(25)
        r = rng.standard_normal((2, 2))
        c1 = r @ r.T + 2 * np.eye(2)
        b3 = rng.standard_normal(2)
        a = np.array([[0.2]])
        a1 = np.array([0.1])
        v = 0.8
        comp = _s2_components(a, a1, 0.9, b3, 0.3, c1, c1 * v, b3 * v)
        assert reduced_sigma_sq(comp, v) == pytest.approx(assemble(comp), rel=1e-12)


def _s2_components(a, a1, a2, b3, b4, c1, c2, c3):
    from marscore.score import VarianceComponentsS2

    return VarianceComponentsS2(
        A_hat=a, A1_hat=a1, A2_hat=a2, B3_hat=b3, B4_hat=b4,
        C1_hat=c1, C2_hat=c2, C3_hat=c3, sigma_sq_hat=1.0,
    )


def _s1_components(sigma_sq):
    return VarianceComponentsS1(
        A_hat=np.array([[1.0]]),
        B_hat=np.array([[1.0]]),
        A1_hat=np.array([0.0]),
        B1_hat=np.array([0.0]),
        A2_hat=sigma_sq / 2,
        B2_hat=sigma_sq / 2,
        sigma_sq_hat=sigma_sq,
    )


class TestTestReport:
    def test_zero_statistic(self):
        res = score_report(0.0, _s1_components(1.0), 4)
        assert res.z == 0.0
        assert res.p_value == 1.0

    def test_published_quantile(self):
        res = score_report(1.959964, _s1_components(1.0), 1)
        assert res.p_value == pytest.approx(0.05, abs=1e-5)

    def test_p_value_identity(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            stat = rng.normal(0, 5)
            n = rng.integers(1, 500)
            res = score_report(stat, _s1_components(float(rng.uniform(0.1, 3.0))), int(n))
            assert res.p_value == pytest.approx(2 - 2 * normal_cdf(abs(res.z)), abs=1e-12)
            assert 0.0 <= res.p_value <= 1.0

    @pytest.mark.parametrize("statistic", [9.0, -9.0])
    def test_p_value_keeps_the_tail(self, statistic):
        # 2 Phi(-9) = erfc(9 / sqrt 2) to 16 digits; the form 2 - 2 Phi(9) rounds it to zero
        res = score_report(statistic, _s1_components(1.0), 1)
        assert res.p_value == pytest.approx(2.257176811907681e-19, rel=1e-12, abs=0.0)

    def test_negative_variance_propagates(self):
        comp = dataclasses.replace(_s1_components(1.0), sigma_sq_hat=-0.5)
        with pytest.raises(NegativeVariance):
            score_report(1.0, comp, 10)

    def test_reject(self):
        res = score_report(1.959964, _s1_components(1.0), 1)
        assert res.reject(0.051)
        assert not res.reject(0.049)
        with pytest.raises(InvalidAlpha):
            res.reject(1.5)


def z_values(ds, family=None, location_basis=None):
    """S1 and S2 ``z`` with the Example-2 models unless others are given."""
    pf = fit_propensity_null(ds)
    of = fit_outcome_parametric(ds, family or example2_family())
    lf = fit_location(ds, location_basis or example2_location_basis())
    r1 = score_report(score_statistic_s1(ds, pf, of), variance_s1(ds, pf, of), ds.n)
    r2 = score_report(score_statistic_s2(ds, pf, lf), variance_s2(ds, pf, lf), ds.n)
    return r1.z, r2.z


class TestScaleEquivariance:
    def test_z_invariant_under_outcome_scaling(self):
        cfg = Example2Config(n=800, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.25)
        data = generate_example2(cfg, RngStream(27, 0))
        scaled = Dataset(x=data.x, d=data.d, y_complete=3.7 * data.y_complete)
        z_base = z_values(data)
        z_scaled = z_values(scaled)
        assert z_scaled[0] == pytest.approx(z_base[0], rel=1e-10)
        assert z_scaled[1] == pytest.approx(z_base[1], rel=1e-10)


# Models with an intercept in every design, so that an affine map of y or of
# x changes no column span and z must not move.
INTERCEPT_FAMILY = GaussianOutcomeFamily((intercept(), raw(1), square(1)), (intercept(), raw(1)))
INTERCEPT_LOCATION = (intercept(), raw(1), square(1))
magnitudes = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)


def heteroskedastic_draw(seed, n):
    """An Example-2 heteroskedastic draw and its ``z``; a draw whose fit fails is rejected."""
    cfg = Example2Config(n=n, xi_true=(1.0, 1.0, 0.5, 1.0), beta0=0.5, beta1=0.5, gamma=0.25)
    data = generate_example2(cfg, RngStream(seed, 0))
    try:
        return data, z_values(data, INTERCEPT_FAMILY, INTERCEPT_LOCATION)
    except MarscoreError:
        reject()


def with_x(data, x):
    return Dataset(x=np.column_stack([np.ones(data.n), x]), d=data.d, y_complete=data.y_complete)


class TestInvarianceProperties:
    """Invariances that the theory guarantees, to 1e-10 relative on z."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 300),
           perm_seed=st.integers(0, 2**32 - 1))
    def test_row_permutation_leaves_z(self, seed, n, perm_seed):
        data, z = heteroskedastic_draw(seed, n)
        order = np.random.default_rng(perm_seed).permutation(n)
        y = np.zeros(n)
        y[data.complete_idx] = data.y_complete
        permuted = Dataset.from_generated(data.x[order], data.d[order], y[order])
        z_perm = z_values(permuted, INTERCEPT_FAMILY, INTERCEPT_LOCATION)
        assert z_perm == pytest.approx(z, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 300), a=magnitudes,
           b=st.floats(-10.0, 10.0))
    # a small scale and a large shift of y: a difference of large sums in σ² or in
    # either statistic would move z by more than the bound here
    @example(seed=84, n=84, a=0.1, b=4.0)
    @example(seed=86700155, n=165, a=0.135, b=9.0)
    def test_affine_outcome_map_gives_signed_z(self, seed, n, a, b):
        data, z = heteroskedastic_draw(seed, n)
        mapped = Dataset(x=data.x, d=data.d, y_complete=a * data.y_complete + b)
        z_mapped = z_values(mapped, INTERCEPT_FAMILY, INTERCEPT_LOCATION)
        assert z_mapped == pytest.approx(tuple(np.sign(a) * np.array(z)), rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 300), scale=magnitudes,
           shift=st.floats(-5.0, 5.0))
    def test_rescaled_or_shifted_covariate_leaves_z(self, seed, n, scale, shift):
        data, z = heteroskedastic_draw(seed, n)
        x = data.x[:, 1]
        for moved in (scale * x, x + shift):
            z_moved = z_values(with_x(data, moved), INTERCEPT_FAMILY, INTERCEPT_LOCATION)
            assert z_moved == pytest.approx(z, rel=1e-10)


class TestNoncentralityBase:
    """S2's noncentrality base on the draw whose affine map exposed the cancellation
    of the paper's difference of large sums."""

    @staticmethod
    def s2_components(data):
        pf = fit_propensity_null(data)
        return variance_s2(data, pf, fit_location(data, INTERCEPT_LOCATION))

    def test_scales_with_the_outcome(self):
        data, _ = heteroskedastic_draw(84, 84)
        a, b = 0.1, 4.0
        mapped = Dataset(x=data.x, d=data.d, y_complete=a * data.y_complete + b)
        base = self.s2_components(data).noncentrality_base()
        base_mapped = self.s2_components(mapped).noncentrality_base()
        assert base_mapped / a**2 == pytest.approx(base, rel=1e-10, abs=0.0)

    def test_equals_the_paper_difference(self):
        data, _ = heteroskedastic_draw(84, 84)
        comp = self.s2_components(data)
        paper = (
            comp.A2_hat
            + comp.B4_hat
            - quad_form_inv_loop(comp.A_hat, comp.A1_hat)
            - float(solve_spd_loop(comp.C1_hat, comp.B3_hat) @ comp.C3_hat)
        )
        assert comp.noncentrality_base() == pytest.approx(paper, rel=1e-9, abs=0.0)


class TestAnalyticLocalPower:
    def test_null_gives_alpha(self):
        for alpha in (0.01, 0.05, 0.2):
            assert analytic_local_power(0.0, 0.7, alpha) == pytest.approx(alpha, abs=1e-12)

    def test_monotone_in_gamma0(self):
        grid = np.arange(0.0, 5.5, 0.5)
        powers = [analytic_local_power(g, 0.7, 0.05) for g in grid]
        assert all(b >= a for a, b in zip(powers, powers[1:]))
        assert powers[-1] > 0.9

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            analytic_local_power(1.0, 0.7, 0.0)
        with pytest.raises(InvalidAlpha):
            analytic_local_power(1.0, 0.7, 1.0)

    def test_s2_formula(self):
        sigma = 0.7
        base = 0.45
        lam = 2.0 * base / sigma
        crit = 1.959963984540054
        want = normal_cdf(-crit + lam) + normal_cdf(-crit - lam)
        got = analytic_local_power(2.0, sigma, 0.05, base=base)
        assert got == pytest.approx(want, abs=1e-12)
