import dataclasses
import json
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marscore import sim
from marscore.basis import intercept, raw
from marscore.data import Dataset
from marscore.exceptions import DegenerateVariance, InvalidAlpha, MarscoreError, NonFiniteDraw
from marscore.model import fit_location, fit_outcome_parametric, fit_propensity_null
from marscore.numerics import RngStream, normal_cdf
from marscore.score import score_statistic_s1, score_statistic_s2, variance_s1, variance_s2
from marscore.score import test_report as score_report
from marscore.sim import (
    Example1Config,
    Example2Config,
    generate_example1,
    generate_example2,
    power_curve,
    run_rejection_study,
    run_single_replication,
    w_function,
)


class TestExample1Generator:
    def test_constant_propensity_rate(self):
        cfg = Example1Config(n=100_000, b_z=0.5, c0=0.0, c1=0.0, c2=0.0)
        data = generate_example1(cfg, RngStream(31, 0))
        se = np.sqrt(0.25 / cfg.n)
        assert abs(data.n_complete / cfg.n - 0.5) < 3 * se

    def test_marginal_outcome_moments(self):
        # Y = 2 + (b_z - 1) Z + eps_u + eps_y: var = (b_z-1)^2 + 2
        cfg = Example1Config(n=100_000, b_z=0.5, c0=8.0, c1=0.0, c2=0.0)
        data = generate_example1(cfg, RngStream(31, 1))
        assert data.missing_fraction == 0.0  # c0=8 keeps every outcome
        y = data.y_complete
        var_want = 2.25
        se_mean = np.sqrt(var_want / cfg.n)
        se_var = var_want * np.sqrt(2.0 / cfg.n)
        assert abs(y.mean() - 2.0) < 3 * se_mean
        assert abs(y.var() - var_want) < 3 * se_var

    def test_indicator_w_mean(self):
        cfg = Example1Config(n=100_000, b_z=0.5, c0=8.0, c1=0.5, c2=0.0, w_variant="indicator")
        data = generate_example1(cfg, RngStream(31, 2))
        w = w_function("indicator", data.y_complete)
        p_above = 1.0 - normal_cdf((1.0 - 2.0) / np.sqrt(2.25))
        want = 2.5 * p_above
        se = 2.5 * np.sqrt(p_above * (1 - p_above) / cfg.n)
        assert abs(w.mean() - want) < 3 * se

    def test_covariates_are_intercept_u_z(self):
        cfg = Example1Config(n=50, b_z=1.0)
        data = generate_example1(cfg, RngStream(31, 3))
        assert data.p == 3
        assert np.all(data.x[:, 0] == 1.0)

    def test_w_variants(self):
        y = np.array([-1.0, 0.5, 2.0])
        assert np.allclose(w_function("identity", y), y)
        assert np.allclose(w_function("quad04", y), 0.4 * y**2)
        assert np.allclose(w_function("indicator", y), [0.0, 0.0, 2.5])
        with pytest.raises(ValueError):
            Example1Config(n=10, w_variant="cubic")


class TestExample2Generator:
    def test_missing_rate_constant_propensity(self):
        cfg = Example2Config(n=100_000, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0, gamma=0.0)
        data = generate_example2(cfg, RngStream(32, 0))
        want = 1.0 - 1.0 / (1.0 + np.exp(-0.85))
        se = np.sqrt(want * (1 - want) / cfg.n)
        assert abs(data.missing_fraction - want) < 3 * se

    def test_mar_complete_case_regression(self):
        cfg = Example2Config(n=100_000, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.5, gamma=0.0)
        data = generate_example2(cfg, RngStream(32, 1))
        xc = data.x[data.complete_idx, 1]
        design = np.column_stack([xc, xc**2])
        coef, *_ = np.linalg.lstsq(design, data.y_complete, rcond=None)
        resid = data.y_complete - design @ coef
        cov = np.linalg.inv(design.T @ design) * np.mean(resid**2)
        se = np.sqrt(np.diag(cov))
        assert abs(coef[0] - (-1.0)) < 3 * se[0]
        assert abs(coef[1] - 1.0) < 3 * se[1]

    def test_deterministic_regeneration(self):
        cfg = Example2Config(n=500, xi_true=(1, 1, 0.5, 1), beta0=0.7, beta1=0.25, gamma=0.1)
        a = generate_example2(cfg, RngStream(33, 4))
        b = generate_example2(cfg, RngStream(33, 4))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.y_complete, b.y_complete)

    def test_an_undefined_observation_probability_is_refused(self):
        # exp(500·X) overflows where X > 1.42, and γ·y = 0·inf is nan
        cfg = Example2Config(n=50, xi_true=(0.0, 0.0, 0.0, 1e3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDraw, match=r"^row \d+ drew outcome -?inf with observation probability nan$"):
                cfg.generate(RngStream(0, 0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Example2Config(n=0)
        with pytest.raises(ValueError):
            Example2Config(n=10, xi_true=(1.0, 2.0))


class TestRejectionStudy:
    def test_deterministic_across_runs(self):
        cfg = Example2Config(n=300, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0, gamma=0.0)
        first = run_rejection_study(cfg, 40, base_seed=7, keep_details=True)
        second = run_rejection_study(cfg, 40, base_seed=7, keep_details=True)
        assert first.to_dict() == second.to_dict()
        assert np.array_equal(first.details.stat_s1, second.details.stat_s1, equal_nan=True)
        assert np.array_equal(
            first.details.sigma_sq_s2, second.details.sigma_sq_s2, equal_nan=True
        )

    def test_matches_single_replications(self):
        cfg = Example2Config(n=300, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0, gamma=0.0)
        report = run_rejection_study(cfg, 10, base_seed=3, keep_details=True)
        r1, _ = run_single_replication(cfg, RngStream(3, 4))
        assert report.details.stat_s1[4] == r1.statistic

    def test_rates_and_errors_populated(self):
        cfg = Example1Config(n=400, b_z=0.5, c1=0.0, c2=0.25)
        report = run_rejection_study(cfg, 30, base_seed=5)
        for rate, se in ((report.rate_s1, report.se_s1), (report.rate_s2, report.se_s2)):
            assert 0.0 <= rate <= 1.0
            assert se == pytest.approx(
                np.sqrt(rate * (1 - rate) / (30 - report.fit_failure_count))
            )

    def test_failure_warning_threshold(self):
        cfg = Example2Config(n=300, xi_true=(-1, 1, 0.5, 0))
        report = run_rejection_study(cfg, 20, base_seed=3)
        assert report.fit_failure_count == 0
        assert not report.failure_warning
        flagged = dataclasses.replace(report, fit_failure_count=1)
        assert flagged.failure_warning

    def test_overflowing_trial_step_is_silent(self):
        # a trial of the outcome fit's variance search overflows exp(-s); it is
        # rejected through its -inf log-likelihood, and the fit then fails
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateVariance):
                run_single_replication(Example2Config(n=15), RngStream(2, 1441))

    def test_overflowing_draws_are_counted_as_failures(self):
        class Overflowing(Example1Config):
            """Even replications draw Z·1e308, which overflows where |Z| > 1.8: about 7% of
            rows, so some row of every n = 1000 draw."""

            def generate(self, stream):
                cfg = dataclasses.replace(self, b_z=1e308) if stream.stream_id % 2 == 0 else self
                return Example1Config.generate(cfg, stream)

        cfg = Overflowing(n=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_rejection_study(cfg, 6, base_seed=5, keep_details=True)
            for r in range(0, 6, 2):
                with pytest.raises(NonFiniteDraw, match=r"^row \d+ drew outcome -?inf with observation"):
                    run_single_replication(cfg, RngStream(5, r))
            with pytest.raises(MarscoreError, match=r"^every replication failed to fit; nothing to "
                               r"aggregate \(3 NonFiniteDraw\); first, replication 0: NonFiniteDraw: "
                               r"row \d+ drew outcome -?inf with observation probability nan$"):
                run_rejection_study(Example1Config(n=1000, b_z=1e308), 3, base_seed=5)
            # counts by class, most frequent first and ties in order of first failure
            with pytest.raises(MarscoreError) as caught:
                run_rejection_study(Overflowing(n=5), 6, base_seed=5)
        assert str(caught.value) == (
            "every replication failed to fit; nothing to aggregate (2 NonFiniteDraw, 2 Separation, "
            "2 RankDeficientDesign); first, replication 0: NonFiniteDraw: row 4 drew outcome inf "
            "with observation probability nan")
        assert report.details.failed.tolist() == [True, False] * 3
        assert report.fit_failure_count == 3
        assert report.details.z_s1[1::2].tolist() == [
            run_single_replication(Example1Config(n=1000), RngStream(5, r))[0].z for r in (1, 3, 5)
        ]

    def test_example1_null_z_rarely_outside_4(self):
        cfg = Example1Config(n=1000, b_z=0.5, c1=0.0, c2=0.25)
        report = run_rejection_study(cfg, 5000, base_seed=13, keep_details=True)
        det = report.details
        ok = det.ok()
        inside = np.abs(det.z_s2[ok]) < 4.0
        assert inside.mean() >= 0.999


class TestHeldReplication:
    """A study keeps the last replication's dataset alive while the next one runs, so that
    the next one reuses its memory; it keeps none once it returns or raises."""

    @staticmethod
    def track(monkeypatch):
        """Weak references to each dataset the study draws, and per draw, the indices of the
        earlier draws still alive just before it."""
        drawn, alive = [], []
        draw = sim.generate

        def tracked(cfg, stream):
            alive.append([i for i, ref in enumerate(drawn) if ref() is not None])
            data = draw(cfg, stream)
            drawn.append(weakref.ref(data))
            return data

        monkeypatch.setattr(sim, "generate", tracked)
        return drawn, alive

    def test_only_the_previous_dataset_is_alive(self, monkeypatch):
        drawn, alive = self.track(monkeypatch)
        # replications 5 and 8 fail to fit: a failed one is held as a fitted one is
        report = run_rejection_study(Example2Config(n=15), 12, base_seed=2, keep_details=True)
        assert report.details.failed.nonzero()[0].tolist() == [5, 8]
        assert alive == [[]] + [[r - 1] for r in range(1, 12)]
        assert [ref() for ref in drawn] == [None] * 12

    def test_no_dataset_is_alive_after_every_replication_failed(self, monkeypatch):
        drawn, alive = self.track(monkeypatch)
        # n = 3 leaves too few complete cases for any fit
        with pytest.raises(MarscoreError, match="^every replication failed to fit") as caught:
            run_rejection_study(Example2Config(n=3), 5, base_seed=0)
        assert caught.value.__traceback__ is not None
        assert alive == [[]] + [[r - 1] for r in range(1, 5)]
        assert [ref() for ref in drawn] == [None] * 5


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_invalid_alpha_raises_before_any_replication(monkeypatch, alpha):
    def replication(*args):
        pytest.fail("a replication ran with an invalid alpha")

    monkeypatch.setattr(sim, "run_single_replication", replication)
    cfg = Example2Config(n=300)
    with pytest.raises(InvalidAlpha):
        run_rejection_study(cfg, 5, alpha=alpha)
    with pytest.raises(InvalidAlpha):
        power_curve(cfg, [0.0, 0.1], 5, alpha=alpha)


class TestPowerCurve:
    def test_single_point_matches_study(self):
        cfg = Example2Config(n=300, xi_true=(-1, 1, 0.5, 0), beta0=0.85, beta1=0.0)
        curve = power_curve(cfg, [0.1], 25, base_seed=9)
        single = run_rejection_study(
            dataclasses.replace(cfg, gamma=0.1), 25, base_seed=9
        )
        assert curve[0].to_dict() == single.to_dict()

    def test_grid_values_recorded(self):
        cfg = Example1Config(n=300, b_z=1.0, c2=0.0)
        curve = power_curve(cfg, [0.0, 0.3], 20, base_seed=9)
        assert [r.grid_value for r in curve] == [0.0, 0.3]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            power_curve(Example1Config(n=10), [], 5, base_seed=0)

    def test_fig1_monotone_s2_curve(self):
        # same shape as the published power-vs-c1 figure: each step up the
        # grid may not drop by more than 2 Monte Carlo standard errors
        cfg = Example1Config(n=1000, b_z=0.5, c2=0.0, w_variant="identity")
        grid = np.arange(0.0, 0.55, 0.1)
        curve = power_curve(cfg, grid, 400, base_seed=41)
        rates = [r.rate_s2 for r in curve]
        ses = [r.se_s2 for r in curve]
        for k in range(1, len(rates)):
            slack = 2.0 * np.sqrt(ses[k] ** 2 + ses[k - 1] ** 2)
            assert rates[k] >= rates[k - 1] - slack
        assert rates[-1] > rates[0] + 0.3


@pytest.mark.parametrize("config", [Example1Config, Example2Config])
def test_sample_size_is_an_exact_integer(config):
    with pytest.raises(TypeError):
        config(n=2.5)
    cfg = config(n=np.int64(200))
    assert type(cfg.n) is int and cfg == config(n=200)
    json.dumps(run_rejection_study(cfg, 2, base_seed=1).to_dict())


def test_stream_seed_and_id_are_exact_integers():
    with pytest.raises(TypeError):
        RngStream(1.5)
    with pytest.raises(TypeError):
        RngStream(1, 2.0)
    stream = RngStream(np.uint64(3), np.int64(4))
    assert (type(stream.seed), type(stream.stream_id)) == (int, int)
    assert stream.generator().random() == RngStream(3, 4).generator().random()


def _composed(cfg, data, family):
    """(statistic, σ², z) of S1 and S2 on ``data``, composed by hand from the config's parts."""
    pf = fit_propensity_null(data, columns=cfg.propensity_columns)
    of = fit_outcome_parametric(data, family)
    lf = fit_location(data, cfg.location_basis)
    r1 = score_report(score_statistic_s1(data, pf, of), variance_s1(data, pf, of), data.n)
    r2 = score_report(score_statistic_s2(data, pf, lf), variance_s2(data, pf, lf), data.n)
    return [(r.statistic, r.sigma_sq_hat, r.z) for r in (r1, r2)]


@pytest.mark.parametrize(
    "cfg, other_logvar",
    [
        (Example1Config(n=400, c1=0.2, c2=0.25), (intercept(), raw(1))),
        (Example2Config(n=300, xi_true=(1.0, 1.0, 0.5, 1.0), beta0=0.5, beta1=0.5, gamma=0.25), (intercept(),)),
    ],
    ids=["example1", "example2"],
)
def test_replication_is_the_configs_own_composition(cfg, other_logvar):
    class OtherModel(type(cfg)):  # another working outcome model is a subclass that sets it
        family = dataclasses.replace(cfg.family, logvar_basis=other_logvar)

    other = OtherModel(**dataclasses.asdict(cfg))
    for seed, r in ((1, 0), (2, 3)):
        got = [(t.statistic, t.sigma_sq_hat, t.z) for t in run_single_replication(cfg, RngStream(seed, r))]
        assert got == _composed(cfg, cfg.generate(RngStream(seed, r)), cfg.family)
        # a replacement family changes S1 only
        s1, _ = _composed(cfg, cfg.generate(RngStream(seed, r)), other.family)
        replaced = run_single_replication(other, RngStream(seed, r))
        assert [(t.statistic, t.sigma_sq_hat, t.z) for t in replaced] == [s1, got[1]]
        assert s1 != got[0]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(15, 200), example=st.sampled_from([1, 2]))
def test_fits_do_not_depend_on_the_memory_order_of_x(seed, n, example):
    cfg = Example1Config(n=n) if example == 1 else Example2Config(n=n)
    drawn = cfg.generate(RngStream(seed, 0))

    def outcome(order):
        data = Dataset(x=np.array(drawn.x, order=order), d=drawn.d, y_complete=drawn.y_complete)
        try:
            fits = (fit_propensity_null(data, columns=cfg.propensity_columns).beta_hat,
                    fit_outcome_parametric(data, cfg.family).xi_hat,
                    fit_location(data, cfg.location_basis).theta_hat)
            return [f.tolist() for f in fits], _composed(cfg, data, cfg.family)
        except MarscoreError as exc:
            return type(exc).__name__

    assert outcome("C") == outcome("F")
