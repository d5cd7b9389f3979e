import numpy as np
import pytest

from marscore.basis import design_matrix, intercept, product, raw, square
from marscore.data import Dataset


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
        assert list(data.missing_idx) == [1, 3]

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

    def test_subset_keeps_order_and_outcomes(self):
        data = small_dataset()
        sub = data.subset(np.array([2, 3]))
        assert sub.n == 2
        assert sub.y_complete.tolist() == [-1.0]
        assert sub.x[0, 1] == 2.0


class TestBasis:
    def test_terms_evaluate(self):
        x = np.array([[1.0, 2.0, -3.0]])
        assert intercept().evaluate(x)[0] == 1.0
        assert raw(1).evaluate(x)[0] == 2.0
        assert square(2).evaluate(x)[0] == 9.0
        assert product(1, 2).evaluate(x)[0] == -6.0

    def test_design_matrix(self):
        x = np.array([[1.0, 2.0], [1.0, -1.0]])
        out = design_matrix((intercept(), raw(1), square(1)), x)
        np.testing.assert_allclose(out, [[1.0, 2.0, 4.0], [1.0, -1.0, 1.0]])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            design_matrix((), np.ones((1, 1)))

    def test_unknown_kind_rejected(self):
        from marscore.basis import BasisTerm

        with pytest.raises(ValueError):
            BasisTerm("cubic", 1)

