"""Probability-object validation and linear-algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyshift.categorical import (CategorySpec, condition_number, numeric_row_rank,
                                    right_pseudoinverse, validate_stochastic)
from proxyshift.errors import SingularMatrixError, ValidationError

RANK_DEFICIENT_3X3 = np.array([
    [0.23, 0.3, 0.2],
    [0.46, 0.6, 0.4],
    [0.31, 0.1, 0.4],
])


def random_stochastic(rng, rows, cols):
    m = rng.random((rows, cols)) + 0.05
    return m / m.sum(axis=0, keepdims=True)


class TestValidateStochastic:
    def test_valid_matrix(self):
        m = np.array([[0.3, 0.6], [0.7, 0.4]])
        assert validate_stochastic(m, tol=1e-12) is None

    def test_bad_column_sum_reports_column(self):
        report = validate_stochastic(np.array([[0.5], [0.6]]))
        assert report is not None
        assert "column 0" in report
        assert "1.1" in report

    def test_strict_positive_rejects_identity(self):
        report = validate_stochastic(np.eye(3), strict_positive=True)
        assert report is not None
        assert "strictly positive" in report

    def test_identity_ok_without_strict(self):
        assert validate_stochastic(np.eye(3)) is None

    def test_negative_entry(self):
        report = validate_stochastic(np.array([[-0.1, 0.5], [1.1, 0.5]]))
        assert "non-negative" in report

    def test_reports_print_plain_floats(self):
        assert (validate_stochastic(np.array([[-0.1, 0.5], [1.1, 0.5]]))
                == "entry (0, 0) is -0.1, must be non-negative")
        assert (validate_stochastic(np.eye(2), strict_positive=True)
                == "entry (0, 1) is 0.0, must be strictly positive")
        assert validate_stochastic(np.array([[0.5], [0.6]]), tol=0.01).startswith(
            "column 0 sums to 1.1, expected")


class TestTypes:
    def test_category_spec_rejects_zero(self):
        with pytest.raises(ValidationError):
            CategorySpec(k_e=0, k_u=1, k_w=1, k_x=1, k_y=1)

    def test_category_spec_message_prints_plain_numbers(self):
        with pytest.raises(ValidationError,
                           match="^k_e must be a positive integer, got 0$"):
            CategorySpec(np.int64(0), 2, 2, 2, 2)
        with pytest.raises(ValidationError,
                           match="^k_w must be a positive integer, got '2'$"):
            CategorySpec(2, 2, "2", 2, 2)

    def test_category_spec_label_mismatch(self):
        with pytest.raises(ValidationError):
            CategorySpec(k_e=2, k_u=1, k_w=1, k_x=1, k_y=1, labels_e=("a",))
        with pytest.raises(ValidationError):
            CategorySpec(k_e=2, k_u=1, k_w=1, k_x=1, k_y=1, labels_e=("a", "a"))


class TestRightPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(right_pseudoinverse(np.eye(3)), np.eye(3),
                                   atol=1e-12)

    def test_square_invertible_matches_inverse(self):
        a = np.array([[0.3, 0.6], [0.7, 0.4]])
        expected = np.array([[0.4, -0.6], [-0.7, 0.3]]) / -0.3
        got = right_pseudoinverse(a)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(a @ got, np.eye(2), atol=1e-10)

    def test_wide_orthonormal_rows_gives_transpose(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(right_pseudoinverse(a), a.T, atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            right_pseudoinverse(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_right_inverse_property_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rows = int(rng.integers(1, 5))
            cols = rows + int(rng.integers(0, 4))
            a = rng.random((rows, cols)) + 0.1
            prod = a @ right_pseudoinverse(a)
            assert np.max(np.abs(prod - np.eye(rows))) < 1e-9

    def test_square_equals_ordinary_inverse_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_stochastic(rng, 3, 3) + np.eye(3)
            np.testing.assert_allclose(right_pseudoinverse(a), np.linalg.inv(a),
                                       atol=1e-9)


class TestConditionNumber:
    def test_identity_is_one(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_rank_one_square_is_infinite(self):
        assert np.isinf(condition_number(np.array([[0.5, 0.5], [0.5, 0.5]])))

    def test_exactly_dependent_columns_is_infinite(self):
        # column 1 = 0.3 * column 2 + 0.7 * column 3
        assert np.isinf(condition_number(RANK_DEFICIENT_3X3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.random((3, 4)) + 0.1
        c = condition_number(a)
        assert condition_number(17.3 * a) == pytest.approx(c, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.random((3, 4)) + 0.1
        c = condition_number(a)
        perm_r = a[[2, 0, 1], :]
        perm_c = a[:, [3, 1, 0, 2]]
        assert condition_number(perm_r) == pytest.approx(c, rel=1e-10)
        assert condition_number(perm_c) == pytest.approx(c, rel=1e-10)


class TestNumericRowRank:
    def test_identity(self):
        assert numeric_row_rank(np.eye(4)) == 4

    def test_dependent_columns_fixture_has_rank_two(self):
        assert numeric_row_rank(RANK_DEFICIENT_3X3) == 2

    def test_column_vector(self):
        assert numeric_row_rank(np.array([[0.2], [0.3], [0.5]])) == 1

    def test_transpose_and_permutation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_stochastic(rng, 4, 3)
            perm = rng.permutation(4)
            assert numeric_row_rank(a) == numeric_row_rank(a.T[:, perm])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pseudoinverse_identity_property(rows, extra_cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((rows, rows + extra_cols)) + 0.1
    prod = a @ right_pseudoinverse(a)
    assert np.max(np.abs(prod - np.eye(rows))) < 1e-9
