import dataclasses
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import expit

from marscore import data as data_module
from marscore.basis import intercept, raw, square
from marscore.data import Dataset
from marscore.exceptions import (
    FitMismatch,
    InvalidAlpha,
    MarscoreError,
    NegativeVariance,
    SingularMatrix,
)
from marscore.io import ColumnSpec, RunConfig, run_configured_tests
from marscore.model import (
    GaussianOutcomeFamily,
    PropensityFit,
    fit_location,
    fit_outcome_parametric,
    fit_propensity_null,
)
from marscore.numerics import RngStream, normal_cdf
from marscore.score import (
    VarianceComponentsS1,
    analytic_local_power,
    score_statistic_s1,
    score_statistic_s2,
    variance_s1,
    variance_s2,
    with_report_terms,
)
from marscore.score import test_report as score_report
from marscore.sim import (
    Example1Config,
    Example2Config,
    generate_example2,
    run_single_replication,
)
from tests.oracles import (
    assemble,
    eager_components,
    eager_noncentrality_base,
    fd_gamma_score,
    location_fit_at,
    outcome_fit_at,
    outcome_moment_gradients,
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
        family = dataclasses.replace(Example2Config.family, logvar_basis=(intercept(),))
        basis = Example2Config.location_basis
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
        of = fit_outcome_parametric(data, Example2Config.family)
        comp = with_report_terms(variance_s1(data, pf, of), data, pf, of)
        assert assemble(comp) == pytest.approx(comp.sigma_sq_hat, rel=1e-12)
        assert comp.sigma_sq_hat > 0

    def test_b_components_sum_the_moment_gradients(self):
        # ties S1's B_hat and B1_hat to the per-row formulas that criterion 11
        # checks against finite differences
        cfg = Example2Config(n=400, xi_true=(1, 1, 0.5, 1), beta0=0.5, beta1=0.5, gamma=0.25)
        data = generate_example2(cfg, RngStream(24, 0))
        pf = fit_propensity_null(data)
        of = fit_outcome_parametric(data, Example2Config.family)
        comp = with_report_terms(variance_s1(data, pf, of), data, pf, of)
        b_sum = np.zeros_like(comp.B_hat)
        b1_sum = np.zeros_like(comp.B1_hat)
        for x, pi in zip(data.x, pf.pi):
            grad, hess = outcome_moment_gradients(of, x)
            b_sum -= pi * hess
            b1_sum += pi * (1.0 - pi) * grad
        np.testing.assert_allclose(comp.B_hat, b_sum / data.n, rtol=1e-12, atol=0)
        np.testing.assert_allclose(comp.B1_hat, b1_sum / data.n, rtol=1e-12, atol=0)


    def test_a_singular_mean_block_is_a_classified_failure(self):
        # mc_ex2_hom_n15's design: the fit ends with a log-variance slope near
        # -8.4, so the pi / var weights span about twelve orders of magnitude
        cfg = Example2Config(n=15, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0, gamma=0)
        data = generate_example2(cfg, RngStream(424242, 280))
        pf = fit_propensity_null(data, columns=cfg.propensity_columns)
        of = fit_outcome_parametric(data, cfg.family)
        with pytest.raises(
            NegativeVariance, match=r"^S1 variance: mean information block is singular: pivot .* at column 1;"
        ) as info:
            variance_s1(data, pf, of)
        assert isinstance(info.value.__cause__, SingularMatrix)
        assert info.value.components is None


class TestVarianceS2:
    def test_assembly_integrity_and_positivity(self):
        cfg = Example2Config(n=1500, xi_true=(1, 1, 0.5, 1), beta0=0.85, beta1=0.0)
        data = generate_example2(cfg, RngStream(24, 0))
        pf = fit_propensity_null(data)
        lf = fit_location(data, Example2Config.location_basis)
        comp = with_report_terms(variance_s2(data, pf, lf), data, pf, lf)
        assert assemble(comp) == pytest.approx(comp.sigma_sq_hat, rel=1e-12)
        assert comp.sigma_sq_hat > 0

    def test_identical_rows_raise_singular(self):
        # a constant covariate makes singular both A_hat, when it is in the propensity
        # design, and C1_hat, whose location basis holds it beside the intercept
        n = 30
        x = np.full(n, 2.0)
        d = np.array([1, 0] * 15, dtype=np.int8)
        y = np.where(d == 1, 1.5, 0.0) + np.linspace(0, 0.1, n) * d
        data = dataset_from_full([x], d, y)
        lf = location_fit_at(data, (intercept(), raw(1)), np.array([0.0, 0.75]))
        for design, match in ((data.x, "propensity information A_hat is singular: pivot"),
                              (data.x[:, :1], "S2 variance: C1_hat is singular: pivot")):
            pf = PropensityFit(
                beta_hat=np.zeros(design.shape[1]),
                info_matrix=0.25 * design.T @ design / n,
                loglik=0.0,
                iterations=0,
                pi=np.full(n, 0.5),
                design=design,
            )
            with pytest.raises(NegativeVariance, match=f"^{match}") as info:
                variance_s2(data, pf, lf)
            assert isinstance(info.value.__cause__, SingularMatrix)
            assert info.value.components is None

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


class TestOverflow:
    """An outcome scale near the double range ends a variance as a classified error,
    not a warning: the squares of the fitted means (and S2's residuals) overflow."""

    @staticmethod
    def scaled():
        data = Example2Config(n=200).generate(RngStream(3, 0))
        return data, Dataset(x=data.x, d=data.d, y_complete=data.y_complete * 1e160)

    def test_s1(self):
        data, scaled = self.scaled()
        # the outcome fit refuses this scale at its start, so its mean is scaled by hand
        xi = fit_outcome_parametric(data, Example2Config.family).xi_hat * np.array([1e160, 1e160, 1.0, 1.0])
        with np.errstate(over="ignore"):  # in the pinned fit's log-likelihood
            of = outcome_fit_at(scaled, Example2Config.family, xi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NegativeVariance, match=r"^S1 variance inf is not finite"):
                variance_s1(scaled, fit_propensity_null(scaled), of)

    def test_s2(self):
        _, scaled = self.scaled()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lf = fit_location(scaled, Example2Config.location_basis)
            with pytest.raises(NegativeVariance, match=r"^S2 variance inf is not finite"):
                variance_s2(scaled, fit_propensity_null(scaled), lf)


class TestSharedWork:
    """A replication evaluates each basis once per dataset and projects each plug-in
    mean once per propensity fit; neither cache changes a result."""

    @staticmethod
    def results(data, pf, of, lf, variance_first):
        """Each test's statistic and variance components, in the order asked for."""
        out = []
        for statistic, variance, fit in ((score_statistic_s1, variance_s1, of),
                                         (score_statistic_s2, variance_s2, lf)):
            if variance_first:
                components = with_report_terms(variance(data, pf, fit), data, pf, fit).to_dict()
                out += [statistic(data, pf, fit), components]
            else:
                out += [statistic(data, pf, fit),
                        with_report_terms(variance(data, pf, fit), data, pf, fit).to_dict()]
        return out

    def test_the_projection_follows_the_propensity_fit(self):
        cfg = Example2Config(n=300)
        data = cfg.generate(RngStream(4, 0))
        of, lf = fit_outcome_parametric(data, cfg.family), fit_location(data, cfg.location_basis)
        intercept_only, full = fit_propensity_null(data, columns=(0,)), fit_propensity_null(data)
        # each propensity fit is met again after the other, once in each order of the calls
        for variance_first, pf in zip((False, False, True, True), (intercept_only, full, full, intercept_only)):
            got = self.results(data, pf, of, lf, variance_first)
            # a new dataset holds no designs, and new fits hold no projection
            fresh = Dataset(x=data.x, d=data.d, y_complete=data.y_complete)
            want = self.results(fresh, pf, fit_outcome_parametric(fresh, cfg.family),
                                fit_location(fresh, cfg.location_basis), False)
            assert got == want  # floats and lists of floats, compared exactly
            assert of.projection[0] is pf and lf.projection[0] is pf
        cached = (data.design(cfg.family.mean_basis), data.design(cfg.family.logvar_basis),
                  data.design(cfg.location_basis, complete=True), *of.projection[1:], *lf.projection[1:])
        assert not any(array.flags.writeable for array in cached)

    @pytest.mark.parametrize("cfg", [Example1Config(n=200), Example2Config(n=200)],
                             ids=["example1", "example2"])
    def test_a_replication_evaluates_each_basis_once(self, monkeypatch, cfg):
        # the location basis is the outcome mean basis, and complete rows are gathered
        # from the all-row design, so two evaluations serve all three fits and both tests;
        # under a constant variance only the report terms read the log-variance design, and a
        # replication leaves them out, so one does
        calls = Counter()
        evaluate = data_module.design_matrix

        def counted(terms, x):
            calls[terms, x.shape[0]] += 1
            return evaluate(terms, x)

        monkeypatch.setattr(data_module, "design_matrix", counted)
        r1, _ = run_single_replication(cfg, RngStream(4, 1))
        want = {(cfg.family.mean_basis, cfg.n): 1, (cfg.family.logvar_basis, cfg.n): 1}
        if cfg.family.constant_variance:
            del want[cfg.family.logvar_basis, cfg.n]
        assert calls == want
        assert r1.components.B_hat is None and r1.components.to_dict()["B_hat"] is None
        assert calls == want


def _bits(value):
    """``value`` with every float as its hex string, so that ``==`` compares bits."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return float.hex(value)


class TestReportTerms:
    """``with_report_terms`` fills in the report terms that no σ² reads with the bits that
    computing every term at once gives."""

    DESIGNS = {
        "het-n200": Example2Config(n=200, xi_true=(1.0, 1.0, 0.5, 1.0), beta0=0.5, beta1=0.5, gamma=0.25),
        "ex1-n300": Example1Config(n=300),
        "hom-n15": Example2Config(n=15),
    }

    @pytest.mark.parametrize("cfg", DESIGNS.values(), ids=DESIGNS.keys())
    def test_reports_equal_the_eager_oracle_bit_for_bit(self, cfg):
        compared = 0
        for r in range(12):
            data = cfg.generate(RngStream(11, r))
            try:
                pf = fit_propensity_null(data, columns=cfg.propensity_columns)
                fits = [(variance_s1, fit_outcome_parametric(data, cfg.family)),
                        (variance_s2, fit_location(data, cfg.location_basis))]
                components = [with_report_terms(variance(data, pf, fit), data, pf, fit)
                              for variance, fit in fits]
            except MarscoreError:
                continue
            for comp, (_, fit) in zip(components, fits):
                want = eager_components(data, pf, fit)
                got = comp.to_dict()
                assert list(got) == list(want)
                assert _bits(got) == _bits(want)
            assert float.hex(components[1].noncentrality_base()) == float.hex(eager_noncentrality_base(want))
            compared += 1
        assert compared >= 8

    def test_the_variance_leaves_the_report_terms_out(self):
        cfg = self.DESIGNS["het-n200"]
        data = cfg.generate(RngStream(11, 0))
        pf = fit_propensity_null(data)
        lf = fit_location(data, cfg.location_basis)
        comp = variance_s2(data, pf, lf)
        assert comp.B4_hat is None and comp.C2_hat is None and comp.C3_hat is None
        with pytest.raises(ValueError, match="^noncentrality_base reads C2_hat and C3_hat: call with_report_terms"):
            comp.noncentrality_base()
        full = with_report_terms(comp, data, pf, lf)
        assert comp.C2_hat is None  # a new value; the components it came from are unchanged
        assert None not in full.to_dict().values()
        assert dataclasses.replace(full, B4_hat=None, C2_hat=None, C3_hat=None).to_dict() == comp.to_dict()

    def test_explicit_components_keep_their_terms(self):
        comp = _s1_components(2.0)
        assert comp.B2_hat == 1.0 and comp.to_dict()["B2_hat"] == 1.0
        with pytest.raises(AttributeError):
            comp.C2_hat


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


class TestPickle:
    """Results, components and errors are plain data, so each pickles and comes back equal."""

    def test_replication_results(self):
        for result in run_single_replication(Example2Config(n=200), RngStream(1, 0)):
            back = _round_trip(result)
            assert type(back.components) is type(result.components)
            assert back.to_dict() == result.to_dict()  # floats and lists of floats, compared exactly

    def test_configured_test_records(self):
        data = Example2Config(n=300).generate(RngStream(4, 0))
        spec = ColumnSpec(outcome_column="y", covariate_columns=("x",), mean_basis_spec=("x", "x^2"))
        records = run_configured_tests(data, RunConfig(columns=spec))
        assert [r.result.variant for r in records] == ["S1", "S2"]
        for record in records:
            assert _round_trip(record).to_dict() == record.to_dict()

    def test_variance_components(self):
        cfg = Example2Config(n=200)
        data = cfg.generate(RngStream(1, 0))
        pf = fit_propensity_null(data)
        for variance, fit in ((variance_s1, fit_outcome_parametric(data, cfg.family)),
                              (variance_s2, fit_location(data, cfg.location_basis))):
            comp = variance(data, pf, fit)
            for value in (comp, with_report_terms(comp, data, pf, fit)):
                back = _round_trip(value)
                assert type(back) is type(value) and back.to_dict() == value.to_dict()

    def test_negative_variance_with_its_components(self):
        y = np.array([0.7, -0.4, 1.9, 0.3])
        data = dataset_from_full([], [1, 1, 1, 1, 0, 0, 0, 0], np.concatenate([y, np.zeros(4)]))
        of = fit_outcome_parametric(data, GaussianOutcomeFamily((intercept(),), (intercept(),)))
        with pytest.raises(NegativeVariance) as excinfo:
            variance_s1(data, fit_propensity_null(data), of)
        error = excinfo.value
        back = _round_trip(error)
        assert type(back) is NegativeVariance and str(back) == str(error)
        assert back.components.to_dict() == error.components.to_dict()
        assert None not in back.components.to_dict().values()


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
        with pytest.raises(NegativeVariance) as caught:
            score_report(1.0, comp, 10)
        assert caught.value.components is comp

    def test_reject(self):
        res = score_report(1.959964, _s1_components(1.0), 1)
        assert res.reject(0.051)
        assert not res.reject(0.049)
        with pytest.raises(InvalidAlpha):
            res.reject(1.5)


def z_values(ds, family=None, location_basis=None):
    """S1 and S2 ``z`` with the Example-2 models unless others are given."""
    pf = fit_propensity_null(ds)
    of = fit_outcome_parametric(ds, family or Example2Config.family)
    lf = fit_location(ds, location_basis or Example2Config.location_basis)
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


def log_uniform(low, high):
    """Scales of either sign, their magnitude log-uniform on [10**low, 10**high]."""
    return st.builds(lambda e, sign: sign * 10.0**e, st.floats(low, high), st.sampled_from((1.0, -1.0)))


# (a, b) with |b| <= 100·|a|, the ratio that a in [0.1, 10] and b in [-10, 10] reach: a
# larger shift against the outcome's spread leaves the fitted means fewer digits for z
affine_maps = log_uniform(-4, 6).flatmap(
    lambda a: st.tuples(st.just(a), st.floats(-100.0, 100.0).map(lambda c: a * c)))


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
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 300), ab=affine_maps)
    # a small scale and a large shift of y: a difference of large sums in σ² or in
    # either statistic would move z by more than the bound here
    @example(seed=84, n=84, ab=(0.1, 4.0))
    @example(seed=86700155, n=165, ab=(0.135, 9.0))
    # a large scale: the joint information's mean block is far below its log-variance block
    @example(seed=238506309, n=132, ab=(1e6, 0.0))
    def test_affine_outcome_map_gives_signed_z(self, seed, n, ab):
        a, b = ab
        data, z = heteroskedastic_draw(seed, n)
        mapped = Dataset(x=data.x, d=data.d, y_complete=a * data.y_complete + b)
        z_mapped = z_values(mapped, INTERCEPT_FAMILY, INTERCEPT_LOCATION)
        assert z_mapped == pytest.approx(tuple(np.sign(a) * np.array(z)), rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 300), scale=log_uniform(-1, 6),
           shift=st.floats(-5.0, 5.0))
    # the x² column's Gram diagonal is about 1e12 times the intercept's
    @example(seed=84, n=84, scale=1000.0, shift=0.0)
    def test_rescaled_or_shifted_covariate_leaves_z(self, seed, n, scale, shift):
        data, z = heteroskedastic_draw(seed, n)
        x = data.x[:, 1]
        for moved in (scale * x, x + shift):
            z_moved = z_values(with_x(data, moved), INTERCEPT_FAMILY, INTERCEPT_LOCATION)
            assert z_moved == pytest.approx(z, rel=1e-10)


@pytest.mark.parametrize("x_scale, y_scale", [(1e3, 1.0), (1e6, 1.0), (1.0, 1e9)],
                         ids=["x-1e3", "x-1e6", "y-1e9"])
def test_unit_changes_leave_z(x_scale, y_scale):
    """Covariate and outcome units far from one leave z: no rank verdict depends on units."""
    cfg = Example2Config(n=500, xi_true=(1.0, 1.0, 0.5, 1.0), beta0=0.5, beta1=0.5, gamma=0.25)
    data = generate_example2(cfg, RngStream(3, 0))
    z = z_values(data, INTERCEPT_FAMILY, INTERCEPT_LOCATION)
    mapped = Dataset(x=np.column_stack([np.ones(data.n), x_scale * data.x[:, 1]]), d=data.d,
                     y_complete=y_scale * data.y_complete)
    assert z_values(mapped, INTERCEPT_FAMILY, INTERCEPT_LOCATION) == pytest.approx(z, rel=1e-10)


class TestNoncentralityBase:
    """S2's noncentrality base on the draw whose affine map exposed the cancellation
    of the paper's difference of large sums."""

    @staticmethod
    def s2_components(data):
        pf = fit_propensity_null(data)
        lf = fit_location(data, INTERCEPT_LOCATION)
        return with_report_terms(variance_s2(data, pf, lf), data, pf, lf)

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
