"""Windowed sample covariance and dominant-direction extraction.

The detection statistic only needs the leading eigenvector of each window's
covariance. One batched symmetric eigendecomposition (``numpy.linalg.eigh``)
serves every detector path: it has no iteration budget to exhaust, so near
ties between the top two eigenvalues cost nothing extra. Scaling of the
matrix is irrelevant to the direction, which is why the covariance is kept
as a plain unnormalized sum of outer products. On the covariance side
(k <= w) the kernel returns ``eigh``'s top eigenvector without
renormalizing it: ``eigh`` already returns it unit-norm and finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import MultiSensorFrame
from .errors import DimensionMismatchError, NumericalError, ZeroMatrixError

__all__ = [
    "CovarianceWindow",
    "sample_covariance",
    "top_singular_vector",
    "window_top_vectors",
    "window_increments",
    "canonicalize_sign",
]

_SYMMETRY_RTOL = 1e-12

# Most windows handed to the batched kernel at once: bounds the memory of a
# long record without costing throughput.
BLOCK = 4096


@dataclass(frozen=True)
class CovarianceWindow:
    """Unnormalized sum of outer products over a w-sample window."""

    k: int
    w: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.k, self.k):
            raise DimensionMismatchError(f"matrix must be ({self.k}, {self.k})")
        scale = np.max(np.abs(m))
        if scale > 0 and np.max(np.abs(m - m.T)) > _SYMMETRY_RTOL * scale:
            raise ValueError("matrix is not symmetric within 1e-12 relative")
        object.__setattr__(self, "matrix", (m + m.T) / 2.0)


def sample_covariance(
    frames: Sequence[MultiSensorFrame] | np.ndarray,
) -> CovarianceWindow:
    """Accumulate ``sum_j x_j x_j^T`` over the window (no 1/w factor).

    Accepts a sequence of frames or a (w, k) array with one sample per row.
    """
    if isinstance(frames, np.ndarray):
        data = np.asarray(frames, dtype=float)
        if data.ndim != 2:
            raise DimensionMismatchError("expected a (w, k) array")
    else:
        frames = list(frames)
        if not frames:
            raise ValueError("empty window")
        k = frames[0].k
        for f in frames:
            if f.k != k:
                raise DimensionMismatchError(
                    f"frame t={f.t} has k={f.k}, window has k={k}"
                )
        data = np.stack([f.values for f in frames])
    w, k = data.shape
    if w < 1:
        raise ValueError("empty window")
    return CovarianceWindow(k=k, w=w, matrix=data.T @ data)


def canonicalize_sign(v: np.ndarray) -> np.ndarray:
    """Make the component of largest magnitude positive (ties: lowest index)."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite {what}: the input overflows or holds nan/inf")


def window_top_vectors(windows: np.ndarray) -> np.ndarray:
    """Unit dominant direction of each window's sample covariance.

    ``windows`` is (B, k, w) with one sample per column. Works on whichever
    Gram side is smaller; an all-zero window yields a zero row, so its
    squared projection is 0. The sign of each direction is arbitrary.

    Raises:
        NumericalError: a Gram matrix or a direction is not finite.
    """
    _, k, w = windows.shape
    side = windows if k <= w else windows.transpose(0, 2, 1)
    # an overflowing product is reported by _check_finite, not by a warning;
    # the error state covers only the product, as it costs every call
    with np.errstate(over="ignore", invalid="ignore"):
        grams = side @ side.transpose(0, 2, 1)
    _check_finite(grams, "window covariance" if k <= w else "window Gram matrix")
    lam, vecs = np.linalg.eigh(grams)
    if k <= w:  # eigh's top vector is unit and finite; a zero Gram's top eigenvalue is 0
        return vecs[:, :, -1] * (lam[:, -1] > 0)[:, None]
    u = (windows @ vecs[:, :, -1:])[:, :, 0]
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    u = u / np.where(norms > 0, norms, 1.0)
    _check_finite(u, "direction")
    return u


def window_increments(block: np.ndarray, w: int) -> np.ndarray:
    """Squared projections ``(u_j' x_j)^2`` along a (k, m + w) block.

    Column j is scored against the dominant direction of columns
    j+1..j+w, so the result has m entries. Windows go through
    :func:`window_top_vectors` at most :data:`BLOCK` at a time.
    """
    m = block.shape[1] - w
    if m < 1:
        raise ValueError("stream too short for one lookahead window")
    view = sliding_window_view(block, w, axis=1)  # (k, m + 1, w)
    out = np.empty(m)
    for lo in range(0, m, BLOCK):
        hi = min(lo + BLOCK, m)
        u = window_top_vectors(view[:, lo + 1 : hi + 1].transpose(1, 0, 2))
        out[lo:hi] = np.einsum("bk,kb->b", u, block[:, lo:hi]) ** 2
    return out


def top_singular_vector(cov: CovarianceWindow | np.ndarray) -> np.ndarray:
    """Unit-norm leading direction of a covariance window, sign-canonicalized.

    For a symmetric nonnegative-definite matrix this is both the top
    eigenvector and the top singular vector.

    Raises:
        ZeroMatrixError: the matrix is zero, so no direction exists.
        NumericalError: the matrix is not finite.
    """
    matrix = cov.matrix if isinstance(cov, CovarianceWindow) else np.asarray(cov, float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {matrix.shape}")
    _check_finite(matrix, "covariance")
    if not matrix.any():
        raise ZeroMatrixError("cannot extract a direction from the zero matrix")
    return canonicalize_sign(np.linalg.eigh(matrix)[1][:, -1])
