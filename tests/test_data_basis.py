import numpy as np
import pytest

from marscore import io, sim
from marscore.basis import design_matrix, intercept, product, raw, square
from marscore.data import Dataset
from marscore.exceptions import RankDeficientDesign
from marscore.model import fit_location, fit_outcome_parametric, fit_propensity_null
from marscore.numerics import RngStream
from marscore.score import variance_s1, variance_s2


def small_dataset():
    x = np.array([[1.0, 0.5], [1.0, -1.0], [1.0, 2.0], [1.0, 0.0]])
    d = np.array([1, 0, 1, 0])
    return Dataset(x=x, d=d, y_complete=np.array([2.0, -1.0]))


class TestDataset:
    def test_counts(self):
        data = small_dataset()
        assert data.n == 4 and data.p == 2
        assert data.n_complete == 2
        assert data.missing_fraction == 0.5
        assert list(data.complete_idx) == [0, 2]

    def test_from_generated_erases_missing(self):
        x = np.column_stack([np.ones(3), np.arange(3.0)])
        data = Dataset.from_generated(x, np.array([0, 1, 0]), np.array([9.0, 4.0, 9.0]))
        assert data.y_complete.tolist() == [4.0]

    def test_immutable(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            data.x[0, 0] = 5.0

    def test_intercept_column_required(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([[2.0]]), d=np.array([0]), y_complete=np.array([]))

    def test_y_count_must_match(self):
        with pytest.raises(ValueError):
            Dataset(
                x=np.ones((2, 1)), d=np.array([1, 0]), y_complete=np.array([1.0, 2.0])
            )

    # each y_complete fits the indicators an int8 cast would make of d
    @pytest.mark.parametrize("d, y", [([1, 256, 257], [1.0, 2.0]), ([1, 0.5, 1], [1.0, 2.0]),
                                      ([1.7, 0.2], [1.0])],
                             ids=["wraps-in-int8", "half", "truncates"])
    def test_indicators_are_checked_before_the_cast(self, d, y):
        with pytest.raises(ValueError, match="d must be 0/1"):
            Dataset(x=np.ones((len(d), 1)), d=np.array(d), y_complete=np.array(y))

    def test_subset_keeps_order_and_outcomes(self):
        data = small_dataset()
        sub = data.subset(np.array([2, 3]))
        assert sub.n == 2
        assert sub.y_complete.tolist() == [-1.0]
        assert sub.x[0, 1] == 2.0

    @pytest.mark.parametrize("rows", [[-1], [1.7], [True, False, True, True], [4], [[0, 1]]],
                             ids=["negative", "fractional", "boolean-mask", "past-the-end", "2-d"])
    def test_subset_refuses_rows_that_are_not_indices(self, rows):
        with pytest.raises(ValueError, match="row indices"):
            small_dataset().subset(rows)

    def test_complete_rows_are_gathered_once_column_major(self):
        data = small_dataset()
        assert data.x.flags["F_CONTIGUOUS"] and data.complete_idx is data.complete_idx
        terms = (intercept(), raw(1), square(1))
        complete = data.design(terms, complete=True)
        # the complete rows of the all-row design are the design of the complete rows, bit for bit
        assert np.array_equal(complete, design_matrix(terms, data.x[data.complete_idx]))
        assert complete.flags["F_CONTIGUOUS"] and complete is data.design(terms, complete=True)

    def test_complete_rows_are_gathered_only_on_request(self):
        # Example 1's closed-form outcome fit needs no log-variance design; S1's report term
        # B_hat reads that design over all rows only
        cfg = sim.Example1Config(n=300)
        data = cfg.generate(RngStream(3, 0))
        pf = fit_propensity_null(data, columns=cfg.propensity_columns)
        of, lf = fit_outcome_parametric(data, cfg.family), fit_location(data, cfg.location_basis)
        components = variance_s1(data, pf, of)
        variance_s2(data, pf, lf)
        mean, logvar = cfg.family.mean_basis, (intercept(),)
        assert set(data._designs) == {(mean, False), (mean, True)}
        components.B_hat
        assert set(data._designs) == {(mean, False), (mean, True), (logvar, False)}
        for terms, complete in list(data._designs):
            if complete:
                got = data.design(terms, complete=True)
                want = data.design(terms)[data.complete_idx]
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert not got.flags.writeable and data.design(terms, complete=True) is got

    def test_an_overflowing_design_is_rank_deficient(self):
        # 1e160 squared is beyond the double range; the suite turns an escaping warning into a failure
        data = small_dataset()
        scaled = Dataset(x=data.x * np.array([1.0, 1e160]), d=data.d, y_complete=data.y_complete)
        assert np.isfinite(scaled.design((intercept(), raw(1)))).all()
        with pytest.raises(RankDeficientDesign, match=r"design column 1 \(BasisTerm\(i=1, j=1\)\) overflows"):
            scaled.design((raw(1), square(1)))

    @pytest.mark.parametrize("build", ["example1", "example2", "read_csv"])
    def test_builders_hand_over_a_column_major_x_uncopied(self, build, monkeypatch, tmp_path):
        handed = []

        class Recording(Dataset):
            def __post_init__(self):
                handed.append(self.x)
                super().__post_init__()

        monkeypatch.setattr(io if build == "read_csv" else sim, "Dataset", Recording)
        if build == "read_csv":
            path = tmp_path / "data.csv"
            path.write_text("y,u\n1.5,0.25\nNA,-1\n2.0,3\n", encoding="utf-8")
            data = io.read_csv(path, io.ColumnSpec(outcome_column="y", covariate_columns=("u",)))
        else:
            cfg = sim.Example1Config(n=30) if build == "example1" else sim.Example2Config(n=30)
            data = cfg.generate(RngStream(5, 0))
        assert np.shares_memory(handed[0], data.x)


class TestBasis:
    def test_terms_evaluate(self):
        x = np.array([[1.0, 2.0, -3.0]])
        out = design_matrix((intercept(), raw(1), square(2), product(1, 2)), x)
        assert out.tolist() == [[1.0, 2.0, 9.0, -6.0]]

    def test_design_matrix(self):
        x = np.array([[1.0, 2.0], [1.0, -1.0]])
        out = design_matrix((intercept(), raw(1), square(1)), x)
        np.testing.assert_allclose(out, [[1.0, 2.0, 4.0], [1.0, -1.0, 1.0]])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            design_matrix((), np.ones((1, 1)))

    def test_term_past_the_columns_rejected(self):
        # numpy would raise a bare IndexError from inside the fit that asked for the design
        with pytest.raises(ValueError, match=r"^basis term BasisTerm\(i=5, j=0\) reads column 5, "
                                             "but x has 2 columns$"):
            design_matrix((intercept(), raw(5)), np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"BasisTerm\(i=2, j=2\)"):
            small_dataset().design((intercept(), square(2)))

    def test_negative_and_non_integer_indices_rejected(self):
        # a negative index would otherwise read a column from the end
        for make in (lambda: raw(-1), lambda: square(-2), lambda: product(1, -1)):
            with pytest.raises(ValueError):
                make()
        with pytest.raises(ValueError, match="integer"):
            raw(1.5)

    def test_every_term_is_one_product(self):
        assert product(2, 1) == product(1, 2)
        assert product(1, 1) == square(1)
        assert product(1, 0) == raw(1)
        assert product(0, 0) == intercept()

    @pytest.mark.parametrize("terms", [(raw(1),), (intercept(), raw(1), square(2), product(1, 2))])
    def test_design_is_f_contiguous(self, terms):
        # term-major: the fits weight rows down contiguous columns and hand BLAS
        # column-major operands, whatever the covariate matrix's own order
        x = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 0.5])
        for order in "CF":
            assert design_matrix(terms, np.asarray(x, order=order)).flags["F_CONTIGUOUS"]
