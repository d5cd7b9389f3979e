
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.testing import assert_allclose
from scipy.linalg import block_diag
from scipy.linalg.lapack import dposv, dpotrf, dpotrs
from scipy.special import ndtr

from marscore import model, numerics, score
from marscore.exceptions import SingularMatrix
from marscore.numerics import (
    RngStream,
    normal_cdf,
    normal_quantile,
    quad_form_inv,
    solve_gram,
    solve_spd,
)
from marscore.sim import Example1Config, Example2Config, run_rejection_study
from tests.oracles import (
    gaussian_moment,
    quad_form_inv_loop,
    solve_spd_loop,
    solve_spd_numpy_checks,
)

_CHECKED_KINDS = ("spd", "asymmetric", "non-finite", "indefinite", "under-the-floor")


def checked_matrix(kind: str, k: int, seed: int, log_scale: float) -> np.ndarray:
    """A k×k matrix of the given kind: symmetric with random eigenvalues (all positive,
    some not, or one under the pivot floor) and unequal diagonal scales, or such a
    matrix with one entry moved near the 1e-10 symmetry bound or entries made non-finite."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    eigen = 10.0 ** rng.uniform(-3.0, 3.0, k)
    if kind == "indefinite" or kind == "asymmetric" and rng.random() < 0.5:
        eigen[rng.integers(k)] *= rng.choice([-1.0, 0.0])
    elif kind == "under-the-floor":
        eigen[rng.integers(k)] = 10.0 ** rng.uniform(-20.0, -11.0)
    m = (q * eigen) @ q.T
    d = 10.0 ** rng.uniform(-2.0, 2.0, k)
    m = (m + m.T) * np.outer(d, d) * 10.0 ** log_scale  # exactly symmetric
    if kind == "asymmetric" and k > 1:
        i, j = rng.choice(k, 2, replace=False)
        m[i, j] += rng.choice([0.5, 0.99, 1.0, 1.01, 2.0]) * 1e-10 * abs(m).max()
    elif kind == "non-finite":
        rows, cols = rng.integers(k, size=(2, rng.integers(1, k + 2)))
        m[rows, cols] = rng.choice([np.nan, np.inf, -np.inf], rows.size)
    return m


def verdict(solve, m, v):
    try:
        return "solved", solve(m, v)
    except SingularMatrix as exc:
        return "raised", str(exc)


def assert_same_verdict(m, v):
    (want, want_out), (got, got_out) = verdict(solve_spd_numpy_checks, m, v), verdict(solve_spd, m, v)
    assert got == want
    assert got_out == want_out if want == "raised" else np.array_equal(got_out, want_out)


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

    @pytest.mark.parametrize("solve", [solve_spd, solve_gram], ids=["solve_spd", "solve_gram"])
    def test_an_empty_matrix_is_refused(self, solve):
        with pytest.raises(SingularMatrix, match=r"^expected a nonempty square matrix, got shape \(0, 0\)$"):
            solve(np.empty((0, 0)), np.empty(0))

    def test_positive_pivot_under_the_floor_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        assert dpotrf(m, lower=True)[1] == 0  # LAPACK alone factors it
        with pytest.raises(SingularMatrix, match="at column 1"):
            solve_spd(m, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("row, col, value", [(0, 0, np.nan), (1, 0, np.inf), (0, 1, np.nan),
                                                 (2, 2, -np.inf)])
    def test_non_finite_entry_raises(self, row, col, value):
        m = np.eye(3)
        m[row, col] = value
        if row != col:
            m[col, row] = value if np.isinf(value) else 0.0
        with pytest.raises(SingularMatrix, match=f"column {col}"):
            solve_spd(m, np.ones(3))

    @pytest.mark.parametrize("m, column, pivot, floor", [
        ([[1.0, 2.0], [2.0, 1.0]], 1, "-3.000e+00", "1.000e-12"),
        ([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 1, "0.000e+00", "1.000e-12"),
        ([[-1.0, 0.0], [0.0, 1.0]], 0, "-1.000e+00", "-1.000e-12"),
        ([[1.0, 1.0], [1.0, 1.0]], 1, "0.000e+00", "1.000e-12"),
        ([[1.0, 0.0], [0.0, -1.0]], 1, "-1.000e+00", "-1.000e-12"),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-14]], 1, "9.992e-15", "1.000e-12"),
    ], ids=["indefinite", "singular", "negative-first", "singular-2x2", "negative-last",
            "under-the-floor"])
    def test_message_names_the_failing_pivot_and_column(self, m, column, pivot, floor):
        with pytest.raises(SingularMatrix) as caught:
            solve_spd(np.array(m), np.ones(len(m)))
        assert str(caught.value) == (f"pivot {pivot} below {floor} at column {column}; "
                                     "matrix is not positive definite")

    def test_one_call_equals_factor_then_solve_bitwise(self):
        # dposv runs dpotrf and dpotrs, so the one call changes no bit of a solution
        rng = np.random.default_rng(4)
        for k in range(1, 9):
            for _ in range(25):
                r = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-3, 3, k)
                m = r @ r.T + 1e-3 * np.eye(k)
                lower = dpotrf(m, lower=True, clean=True)[0]
                for v in (rng.standard_normal(k), rng.standard_normal((k, 3))):
                    assert np.array_equal(solve_spd(m, v), dpotrs(lower, v, lower=True)[0])

    def test_matches_the_column_loop(self):
        rng = np.random.default_rng(3)
        for k in range(1, 8):
            r = rng.standard_normal((k, k))
            m = r @ r.T + 0.1 * np.eye(k)
            v = rng.standard_normal(k)
            assert_allclose(solve_spd(m, v), solve_spd_loop(m, v), rtol=1e-10)
            assert quad_form_inv(m, v) == pytest.approx(quad_form_inv_loop(m, v), rel=1e-10)

    @pytest.mark.parametrize("q1, q2", [(2, 2), (3, 1), (5, 2)])
    def test_block_diagonal_solve_is_the_two_block_solves(self, q1, q2):
        # the pivot floor is per pivot, so each block of a block-diagonal matrix gets the verdict
        # and, within rounding, the solution it would get alone
        rng = np.random.default_rng(q1 * 10 + q2)

        def spd(q, rank):
            b = rng.standard_normal((q, rank))
            scale = 10.0 ** rng.uniform(-6, 6, q)
            return (b @ b.T + (0.1 * np.eye(q) if rank == q else 0.0)) * np.outer(scale, scale)

        for _ in range(200):
            m1, m2 = spd(q1, q1), spd(q2, q2)
            g = rng.standard_normal(q1 + q2)
            got = solve_spd(block_diag(m1, m2), g)
            assert_allclose(got[:q1], solve_spd(m1, g[:q1]), rtol=1e-12)
            assert_allclose(got[q1:], solve_spd(m2, g[q1:]), rtol=1e-12)
        # a second block of rank q2 - 1 first fails its last pivot, column q2 - 1 on its own
        singular = spd(q2, q2 - 1)
        with pytest.raises(SingularMatrix, match=f"at column {q2 - 1};"):
            solve_spd(singular, np.ones(q2))
        with pytest.raises(SingularMatrix, match=f"at column {q1 + q2 - 1};"):
            solve_spd(block_diag(spd(q1, q1), singular), np.ones(q1 + q2))


@pytest.mark.parametrize("cfg", [
    Example1Config(n=200),
    Example2Config(n=100, xi_true=(1.0, 1.0, 0.5, 1.0), beta0=0.5, beta1=0.5, gamma=0.25),
    Example2Config(n=15),
], ids=["example1", "example2-heteroskedastic", "example2-homoskedastic-n15"])
def test_lapack_kernel_matches_the_column_loop_in_studies(monkeypatch, cfg):
    """Whole replications through the column-loop solves give the same z and failures."""
    checked = []

    def recording(m, v):
        u = solve_spd(m, v)
        checked.append(m)
        return u

    # every fit and variance solve that succeeds takes solve_gram's fast path: none pays for
    # solve_spd's checks, which only a refusal reaches
    with monkeypatch.context() as patch:
        for module in (numerics, model, score):
            patch.setattr(module, "solve_spd", recording)
        lapack = run_rejection_study(cfg, 40, base_seed=2, keep_details=True).details
    assert checked == []
    calls = []

    def loop_solve(m, v):
        calls.append(m)
        return solve_spd_loop(m, v)

    # every fit and variance solve goes through model.solve_gram
    monkeypatch.setattr(model, "solve_gram", loop_solve)
    monkeypatch.setattr(score, "solve_spd", solve_spd_loop)
    monkeypatch.setattr(score, "quad_form_inv", quad_form_inv_loop)
    loop = run_rejection_study(cfg, 40, base_seed=2, keep_details=True).details
    assert len(calls) >= 40 * 5  # at least a propensity step, two starts, an outcome step, A_hat
    assert np.array_equal(lapack.failed, loop.failed)
    assert_allclose(lapack.z_s1, loop.z_s1, rtol=1e-10)
    assert_allclose(lapack.z_s2, loop.z_s2, rtol=1e-10)


class TestSolveSpdChecks:
    """solve_spd's checks are numpy reductions over the whole matrix, as the reference's are:
    the same verdict and message at every order and scale, and near the symmetry bound."""

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(_CHECKED_KINDS), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.floats(-150.0, 150.0))
    def test_same_verdict_and_message_as_the_numpy_checks(self, kind, k, seed, log_scale):
        assert_same_verdict(checked_matrix(kind, k, seed, log_scale), np.ones(k))

    @pytest.mark.parametrize("m, want", [
        ([[1.0, 100.0], [100.0 + 5e-9, 1.0]], "pivot -9.999e+03 below 1.000e-12 at column 1; "
                                               "matrix is not positive definite"),
        ([[1.0, 100.0], [100.0 + 2e-8, 1.0]], "matrix is not symmetric"),
        ([[4.0, 0.0], [4e-10, 1.0]], "solved"),
        ([[4.0, 0.0], [np.nextafter(4e-10, 1.0), 1.0]], "matrix is not symmetric"),
    ], ids=["past-the-diagonal-bound", "past-the-entry-bound", "on-the-bound", "one-ulp-over"])
    def test_asymmetry_near_the_bound(self, m, want):
        # the symmetry bound is 1e-10 max |a_ij|, which an off-diagonal entry can set: then
        # it lies above 1e-10 times the largest diagonal entry
        m = np.array(m)
        assert_same_verdict(m, np.ones(2))
        kind, out = verdict(solve_spd, m, np.ones(2))
        assert (kind if kind == "solved" else out) == want


# the matrices of the verdict tests above, at their own order
VERDICT_CASES = {
    "indefinite": [[1.0, 2.0], [2.0, 1.0]],
    "singular": [[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "negative-first": [[-1.0, 0.0], [0.0, 1.0]],
    "singular-2x2": [[1.0, 1.0], [1.0, 1.0]],
    "negative-last": [[1.0, 0.0], [0.0, -1.0]],
    "under-the-floor": [[1.0, 1.0], [1.0, 1.0 + 1e-14]],
    "asymmetric": [[1.0, 0.5], [0.0, 1.0]],
    "nan-diagonal": [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "inf-pair": [[1.0, np.inf, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "nan-above": [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "minus-inf-last": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -np.inf]],
    "past-the-diagonal-bound": [[1.0, 100.0], [100.0 + 5e-9, 1.0]],
    "past-the-entry-bound": [[1.0, 100.0], [100.0 + 2e-8, 1.0]],
    "on-the-bound": [[4.0, 0.0], [4e-10, 1.0]],
    "one-ulp-over": [[4.0, 0.0], [np.nextafter(4e-10, 1.0), 1.0]],
}


@pytest.mark.parametrize("m", VERDICT_CASES.values(), ids=VERDICT_CASES.keys())
def test_the_verdict_cases_at_k12(m):
    """Each case as the leading block of a 12×12 identity: the same pivots, columns and
    symmetry bounds, so the same verdict and message as the case alone."""
    m = np.array(m)
    k = len(m)
    big = np.eye(12)
    big[:k, :k] = m
    assert_same_verdict(big, np.ones(12))
    (small, small_out), (got, got_out) = verdict(solve_spd, m, np.ones(k)), verdict(solve_spd, big, np.ones(12))
    assert got == small
    if got == "raised":
        assert got_out == small_out


_WEIGHT_KINDS = ("ordinary", "zero", "tiny", "huge", "nan")
# log10 ranges of each kind's weights: "tiny" makes subnormal entries, and "huge" with
# the columns' spread of scales overflows some entries of a matrix and not others
_WEIGHT_LOG10 = {"ordinary": (-1.0, 1.0), "tiny": (-322.0, -300.0), "huge": (280.0, 308.0)}


@st.composite
def weighted_grams(draw):
    """``(XᵀWX, v)`` with X of order n×k, 1 ≤ k ≤ 16, k − 1 ≤ n ≤ 50, and W ≥ 0 or NaN."""
    k = draw(st.integers(1, 16))
    n = draw(st.integers(k - 1, 50))
    kinds = draw(st.lists(st.sampled_from(_WEIGHT_KINDS), min_size=1, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-5.0, 5.0, k)
    w = np.empty(n)
    for i, kind in enumerate(rng.choice(kinds, n)):
        w[i] = 0.0 if kind == "zero" else np.nan if kind == "nan" else 10.0 ** rng.uniform(*_WEIGHT_LOG10[kind])
    with np.errstate(over="ignore", invalid="ignore"):
        return x.T @ (x * w[:, None]), rng.standard_normal(k)


def _gram_refusals():
    """``(k, case)`` pairs of the refusal table: a non-finite entry below, on or above the
    diagonal, a diagonal entry under 1e-200, and a failing first or later pivot."""
    for k in range(1, 8):
        places = ("on",) if k == 1 else ("below", "on", "above")
        for place in places:
            for value in ("nan", "inf", "-inf"):
                yield k, f"{value}-{place}"
        yield k, "diagonal-1e-250"
        yield k, "negative-first-pivot"
        if k > 1:
            yield k, "singular-last-pivot"


def _gram_refusal(k: int, case: str) -> np.ndarray:
    """A weighted Gram matrix of order ``k`` made into the table's ``case``."""
    x = np.random.default_rng(k).standard_normal((20, k))
    m = x.T @ (x * np.random.default_rng(k + 7).random(20)[:, None])
    if case == "diagonal-1e-250":
        m[-1, :] = m[:, -1] = 0.0
        m[-1, -1] = 1e-250
    elif case == "negative-first-pivot":
        m[0, 0] = -1.0
    elif case == "singular-last-pivot":
        m[-1, :], m[:, -1] = m[0, :], m[:, 0]
    else:
        value, place = case.rsplit("-", 1)
        m[{"below": (k - 1, 0), "on": (k - 1, k - 1), "above": (0, k - 1)}[place]] = float(value)
    return m


class TestGramPath:
    """``solve_gram`` takes a checked fast path for the fits' weighted Gram matrices and
    hands any matrix it cannot vouch for to solve_spd: either way the verdict is solve_spd's."""

    @staticmethod
    def assert_as_solve_spd(m, v):
        (want, want_out), (got, got_out) = verdict(solve_spd, m, v), verdict(solve_gram, m, v)
        assert got == want
        assert got_out == want_out if want == "raised" else got_out.tobytes() == want_out.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(weighted_grams())
    def test_same_bits_or_the_same_refusal_as_solve_spd(self, gram):
        self.assert_as_solve_spd(*gram)

    @pytest.fixture
    def handed_on(self, monkeypatch):
        """The matrices solve_gram hands to solve_spd."""
        handed = []

        def recording(m, v):
            handed.append(m)
            return solve_spd(m, v)

        monkeypatch.setattr(numerics, "solve_spd", recording)
        return handed

    # both sides of order 7, the largest that any benchmark design solves
    @pytest.mark.parametrize("k", [2, 7, 8, 16])
    def test_the_fast_path_solves_an_ordinary_gram_matrix(self, handed_on, k):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, k))
        m, v = x.T @ (x * rng.random(20)[:, None]), rng.standard_normal(k)
        assert solve_gram(m, v).tobytes() == solve_spd(m, v).tobytes()
        assert handed_on == []

    def test_the_fast_path_refuses_a_singular_gram_matrix_as_solve_spd_does(self, handed_on):
        # three rows span at most three of the four columns
        x = np.random.default_rng(7).standard_normal((3, 4))
        m, v = x.T @ x, np.ones(4)
        self.assert_as_solve_spd(m, v)
        assert verdict(solve_gram, m, v)[0] == "raised"
        # each of the two solve_gram calls hands the refused matrix to solve_spd for its message
        assert len(handed_on) == 2

    def test_a_non_finite_entry_above_the_diagonal_only_is_refused(self, handed_on):
        # dposv reads the lower triangle alone, so it would solve this matrix
        x = np.random.default_rng(6).standard_normal((20, 3))
        m, v = x.T @ x, np.ones(3)
        m[0, 2] = np.inf
        assert dposv(m, v, lower=True)[2] == 0
        with pytest.raises(SingularMatrix, match="^non-finite entry at column 2$"):
            solve_gram(m, v)
        assert len(handed_on) == 1

    @pytest.mark.parametrize("k, case", list(_gram_refusals()))
    def test_each_matrix_it_cannot_vouch_for_gets_solve_spds_verdict(self, handed_on, k, case):
        m, v = _gram_refusal(k, case), np.linspace(1.0, 2.0, k)
        kind, out = verdict(solve_gram, m, v)
        assert len(handed_on) == 1
        # every case but the tiny diagonal entry is a refusal, with solve_spd's message
        assert kind == ("solved" if case == "diagonal-1e-250" else "raised")
        self.assert_as_solve_spd(m, v)

    def test_a_matrix_of_subnormal_entries_goes_to_solve_spd(self, handed_on):
        # XᵀWX of three rows with weights near 1e-310: subnormal rounding is absolute, so
        # entry (1, 2) lies one step of 2⁻¹⁰⁷⁴ from entry (2, 1), past the symmetry bound,
        # though every pivot clears the floor
        m = np.array([[1560.0, -682.0, -227680.0],
                      [-682.0, 316.0, 100839.0],
                      [-227680.0, 100840.0, 33328076.0]]) * 2.0**-1074
        with pytest.raises(SingularMatrix, match="^matrix is not symmetric$"):
            solve_gram(m, np.ones(3))
        assert len(handed_on) == 1


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
