import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.testing import assert_allclose
from scipy.special import ndtr

from marscore.exceptions import SingularMatrix
from marscore.numerics import (
    RngStream,
    normal_cdf,
    normal_quantile,
    solve_spd,
)
from tests.oracles import gaussian_moment


class TestSolveSpd:
    def test_identity(self):
        assert_allclose(solve_spd(np.eye(2), np.array([3.0, -1.0])), [3.0, -1.0])

    def test_diagonal(self):
        assert_allclose(solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0])

    def test_random_spd_known_solution(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal((4, 4))
        m = r @ r.T + 4.0 * np.eye(4)
        u = np.array([1.0, 2.0, 3.0, 4.0])
        v = m @ u
        out = solve_spd(m, v)
        assert np.max(np.abs(m @ out - v)) <= 1e-8 * (1 + np.max(np.abs(v)))
        assert_allclose(out, u, rtol=1e-8)

    def test_recovers_solution_up_to_dim_12(self):
        rng = np.random.default_rng(1)
        for k in range(1, 13):
            r = rng.standard_normal((k, k))
            m = r @ r.T + k * np.eye(k)
            u = rng.standard_normal(k)
            assert_allclose(solve_spd(m, m @ u), u, rtol=1e-8, atol=1e-10)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((3, 3))
        m = r @ r.T + 3.0 * np.eye(3)
        b = rng.standard_normal((3, 2))
        assert_allclose(m @ solve_spd(m, b), b, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_spd(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))

    def test_indefinite_raises(self):
        with pytest.raises(SingularMatrix):
            solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]))

    def test_asymmetric_raises(self):
        with pytest.raises(SingularMatrix):
            solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_published_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_bisection_inverse(self):
        # invert the implementation's own cdf at 0.975 by bisection
        lo, hi = 0.0, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(1.959964, abs=1e-5)

    def test_symmetry(self):
        t = 2.3
        assert normal_cdf(-t) == pytest.approx(1.0 - normal_cdf(t), abs=1e-15)

    def test_monotone_on_grid(self):
        grid = np.linspace(-8.0, 8.0, 10_000)
        vals = normal_cdf(grid)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_against_reference(self):
        grid = np.linspace(-8.0, 8.0, 2001)
        assert np.max(np.abs(normal_cdf(grid) - ndtr(grid))) <= 1e-12

    def test_quantile_roundtrip(self):
        p = np.array([0.025, 0.5, 0.975, 0.999])
        assert_allclose(normal_cdf(normal_quantile(p)), p, atol=1e-12)


class TestGaussHermite:
    """The Gauss-Hermite rule that tests/oracles.py integrates with."""

    def test_order_one(self):
        nodes, weights = hermgauss(1)
        assert_allclose(nodes, [0.0])
        assert_allclose(weights, [np.sqrt(np.pi)])

    def test_order_two(self):
        nodes, weights = hermgauss(2)
        assert_allclose(np.sort(nodes), [-1.0 / np.sqrt(2), 1.0 / np.sqrt(2)], atol=1e-12)
        assert_allclose(weights, [np.sqrt(np.pi) / 2] * 2, atol=1e-12)

    def test_second_moment_order_five(self):
        nodes, weights = hermgauss(5)
        assert float(weights @ nodes**2) == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 12, 30, 64])
    def test_polynomial_exactness(self, order):
        nodes, weights = hermgauss(order)
        assert float(np.sum(weights)) == pytest.approx(np.sqrt(np.pi), rel=1e-10)
        for j in range(2 * order):
            exact = gaussian_moment(j)
            got = float(weights @ nodes**j)
            if exact == 0.0:
                assert abs(got) <= 1e-9 * gaussian_moment(j + 1 if j % 2 else j)
            else:
                assert got == pytest.approx(exact, rel=1e-9)

    def test_odd_order_has_zero_node(self):
        nodes, _ = hermgauss(31)
        assert np.min(np.abs(nodes)) <= 1e-14


class TestRngStream:
    def test_deterministic(self):
        a = RngStream(1, 0).generator().standard_normal(3)
        b = RngStream(1, 0).generator().standard_normal(3)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(1, 0).generator().standard_normal(8)
        b = RngStream(1, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_cross_stream_correlation(self):
        a = RngStream(1, 0).generator().standard_normal(100_000)
        b = RngStream(1, 1).generator().standard_normal(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_moments(self):
        draws = RngStream(123, 7).generator().standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)
