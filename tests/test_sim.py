import dataclasses
import warnings

import numpy as np
import pytest

from marscore.exceptions import DegenerateVariance
from marscore.numerics import RngStream, normal_cdf
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

    def test_example1_null_z_rarely_outside_4(self):
        cfg = Example1Config(n=1000, b_z=0.5, c1=0.0, c2=0.25)
        report = run_rejection_study(cfg, 5000, base_seed=13, keep_details=True)
        det = report.details
        ok = det.ok()
        inside = np.abs(det.z_s2[ok]) < 4.0
        assert inside.mean() >= 0.999


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
