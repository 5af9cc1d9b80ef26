"""Sample covariance and the batched eigendecomposition direction kernel."""

import numpy as np
import pytest

from oracles import covariance_triple_loop, jacobi_eigh
from sscusum.core import MultiSensorFrame
from sscusum.errors import DimensionMismatchError, NumericalError, ZeroMatrixError
from sscusum.linalg import (
    CovarianceWindow,
    canonicalize_sign,
    sample_covariance,
    top_singular_vector,
    window_top_vectors,
)


def frames(*rows):
    return [MultiSensorFrame(t=i, values=np.asarray(r, float)) for i, r in enumerate(rows)]


class TestSampleCovariance:
    def test_single_outer_product(self):
        cov = sample_covariance(frames([1.0, 0.0]))
        assert np.array_equal(cov.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_orthogonal_samples(self):
        cov = sample_covariance(frames([1.0, 0.0], [0.0, 1.0]))
        assert np.array_equal(cov.matrix, np.eye(2))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((5, 3))
        cov = sample_covariance(data)
        assert np.allclose(cov.matrix, covariance_triple_loop(data), atol=1e-14)
        assert cov.w == 5 and cov.k == 3

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance([])

    def test_dimension_mismatch_rejected(self):
        bad = frames([1.0, 0.0]) + frames([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            sample_covariance(bad)

    def test_nonnegative_definite(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((4, 6))
        cov = sample_covariance(data)
        values, _ = jacobi_eigh(cov.matrix)
        assert values.min() >= -1e-10 * np.trace(cov.matrix)

    def test_symmetry_validated(self):
        with pytest.raises(ValueError):
            CovarianceWindow(k=2, w=1, matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestTopSingularVector:
    def test_diagonal_dominant_axis(self):
        v = top_singular_vector(np.array([[4.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(v, [1.0, 0.0], atol=1e-10)

    def test_symmetric_pair(self):
        v = top_singular_vector(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(v, [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_spiked_matrix_against_jacobi(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        sigma = np.eye(6) + 5.0 * np.outer(u, u)
        v = top_singular_vector(sigma)
        _, vectors = jacobi_eigh(sigma)
        assert abs(v @ vectors[:, 0]) >= 1 - 1e-8

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            top_singular_vector(np.zeros((3, 3)))

    def test_non_finite_matrix_is_numerical_error(self):
        with pytest.raises(NumericalError, match="non-finite"):
            top_singular_vector(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericalError):
            top_singular_vector(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_residual_bound_holds_on_return(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            data = rng.standard_normal((6, 4))
            a = data.T @ data
            v = top_singular_vector(a)
            lam = v @ a @ v
            assert np.linalg.norm(a @ v - lam * v) <= 1e-10 * np.linalg.norm(a)

    def test_scale_invariance(self):
        a = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
        base = top_singular_vector(a)
        assert np.array_equal(top_singular_vector(4.0 * a), base)  # power of two: exact
        assert np.allclose(top_singular_vector(3.0 * a), base, atol=1e-9)

    def test_repeated_calls_bitwise_equal(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((8, 5))
        a = data.T @ data
        v1 = top_singular_vector(a)
        v2 = top_singular_vector(a)
        assert np.array_equal(v1, v2)

    def test_sign_canonicalization(self):
        assert canonicalize_sign(np.array([-0.8, 0.6]))[0] == pytest.approx(0.8)
        # tie in magnitude: lowest index decides
        assert np.array_equal(canonicalize_sign(np.array([-0.5, 0.5])), [0.5, -0.5])
        assert np.array_equal(canonicalize_sign(np.array([0.5, -0.5])), [0.5, -0.5])

    def test_accepts_covariance_window(self):
        cov = sample_covariance(frames([2.0, 0.0], [2.0, 0.0]))
        assert np.allclose(top_singular_vector(cov), [1.0, 0.0])


class TestWindowTopVectors:
    @pytest.mark.parametrize("k, w", [(4, 9), (9, 4)])  # covariance side, Gram side
    def test_matches_jacobi_on_both_gram_sides(self, k, w):
        rng = np.random.default_rng(11)
        windows = rng.standard_normal((6, k, w))
        windows[:, 0] *= 2.0  # a clear leading direction
        u = window_top_vectors(windows)
        x = rng.standard_normal(k)
        for i, win in enumerate(windows):
            values, vectors = jacobi_eigh(covariance_triple_loop(win.T))
            assert values[0] > values[1]
            assert np.linalg.norm(u[i]) == pytest.approx(1.0, abs=1e-12)
            assert abs(u[i] @ vectors[:, 0]) >= 1 - 1e-10
            assert (u[i] @ x) ** 2 == pytest.approx((vectors[:, 0] @ x) ** 2, abs=1e-8)

    def test_zero_window_gives_zero_row(self):
        windows = np.ones((3, 4, 5))
        windows[1] = 0.0
        u = window_top_vectors(windows)
        assert np.array_equal(u[1], np.zeros(4))
        assert np.allclose(np.abs(u[[0, 2]]), 0.5)

    @pytest.mark.parametrize("scale", [1e-160, 1e-162])
    def test_subnormal_gram_gets_unit_direction(self, scale):
        windows = np.random.default_rng(12).standard_normal((1, 3, 5)) * scale
        grams = windows @ windows.transpose(0, 2, 1)
        assert grams.any() and np.abs(grams).max() < np.finfo(float).tiny  # subnormal
        u = window_top_vectors(windows)
        assert np.linalg.norm(u[0]) == pytest.approx(1.0, abs=1e-12)

    def test_underflowing_gram_gives_zero_row(self):
        windows = np.random.default_rng(12).standard_normal((2, 3, 5))
        windows[1] *= 1e-170  # every product underflows: the Gram is exactly zero
        assert not (windows[1] @ windows[1].T).any()
        u = window_top_vectors(windows)
        assert np.array_equal(u[1], np.zeros(3))
        assert np.linalg.norm(u[0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])  # 1e200 overflows the Gram
    def test_non_finite_is_numerical_error(self, bad):
        windows = np.ones((2, 3, 4))
        windows[1, 2, 3] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            window_top_vectors(windows)
