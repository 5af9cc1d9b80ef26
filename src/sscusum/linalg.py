"""Dominant-direction extraction from windows of samples.

The detection statistic only needs the leading eigenvector of each window's
covariance. One batched symmetric eigendecomposition (``numpy.linalg.eigh``),
:func:`window_top_vectors`, is the one eigen entry point: every detector
path, the delay fit and a single window (the one-window stack) go through
it. It has no iteration budget to exhaust, so near ties between the top two
eigenvalues cost nothing extra. Scaling of the matrix is irrelevant to the
direction, which is why the covariance is kept as a plain unnormalized sum
of outer products. On the covariance side (k <= w) the kernel returns
``eigh``'s top eigenvector without renormalizing it: ``eigh`` already
returns it unit-norm and finite.

:func:`window_increments` cuts its windows into tasks of at most
:data:`TASK` windows and runs them on a thread pool sized to the CPUs the
process may use; numpy's batched ``eigh`` and ``matmul`` release the
interpreter lock, so the tasks run in parallel. Each task writes its own
slice of one output, and a window's result does not depend on which task
or thread scores it, so results are bit-identical for any CPU count. A
call with one task, or a process with one CPU, runs on the caller's thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatchError, NumericalError

__all__ = [
    "window_top_vectors",
    "window_increments",
    "canonicalize_sign",
]

# Most windows one task hands to the batched kernel. At k=125, w=20, tasks of
# 128 to 512 windows ran equally fast, and peak memory grew by about 2 MB per
# doubling; 256 also keeps a 200-tick sync segment in one task, and the
# pipeline scores a chunk of segments per call, one task each.
TASK = 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


_WORKERS = _usable_cpus()
_pool: ThreadPoolExecutor | None = None  # started by the first parallel call
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of the pool's threads: start its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_pool)


def _run_tasks(task, spans: list) -> None:
    """Call ``task(span)`` for every span, on the kernel pool when there is
    more than one span and more than one CPU. Raises the first failing
    span's error, in span order, as the serial loop would."""
    if len(spans) == 1 or _WORKERS == 1:
        for span in spans:
            task(span)
        return
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="sscusum-kernel")
    for _ in _pool.map(task, spans):  # map cancels the spans not started once one fails
        pass


def canonicalize_sign(v: np.ndarray) -> np.ndarray:
    """Make the component of largest magnitude positive (ties: lowest index),
    in a vector or in each row of a matrix."""
    idx = np.argmax(np.abs(v), axis=-1)[..., None]
    return np.where(np.take_along_axis(v, idx, axis=-1) < 0, -v, v)


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite {what}: the input overflows or holds nan/inf")


def window_top_vectors(windows: np.ndarray) -> np.ndarray:
    """Unit dominant direction of each window's sample covariance.

    ``windows`` is (B, k, w) with one sample per column. Works on whichever
    Gram side is smaller; an all-zero window yields a zero row, so its
    squared projection is 0. The sign of each direction is arbitrary.

    Raises:
        DimensionMismatchError: ``windows`` is not 3-D.
        NumericalError: a Gram matrix or a direction is not finite.
    """
    if windows.ndim != 3:
        raise DimensionMismatchError(f"windows must be (B, k, w), got shape {windows.shape}")
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
    j+1..j+w, so the result has m entries. A (T, k, m + w) stack of T
    trials gives a (T, m) result, each row equal to that trial's own call.
    Each trial's windows go through :func:`window_top_vectors` at most
    :data:`TASK` at a time, as parallel tasks.

    Raises:
        DimensionMismatchError: ``block`` is neither 2-D nor 3-D.
        NumericalError: a window's Gram matrix, a direction or a squared
            projection is not finite.
    """
    if block.ndim not in (2, 3):
        raise DimensionMismatchError(f"block must be (k, n) or (T, k, n), got shape {block.shape}")
    m = block.shape[-1] - w
    if m < 1:
        raise ValueError("stream too short for one lookahead window")
    trials = block if block.ndim == 3 else block[None]
    view = sliding_window_view(trials, w, axis=2)  # (T, k, m + 1, w)
    out = np.empty((trials.shape[0], m))

    def score(span):
        t, lo, hi = span
        u = window_top_vectors(view[t, :, lo + 1 : hi + 1].transpose(1, 0, 2))
        # column 0 sits in no window, so an overflow here is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            out[t, lo:hi] = np.einsum("bk,kb->b", u, trials[t, :, lo:hi]) ** 2

    spans = [(t, lo, min(lo + TASK, m)) for t in range(len(trials)) for lo in range(0, m, TASK)]
    _run_tasks(score, spans)
    _check_finite(out, "squared projection")
    return out if block.ndim == 3 else out[0]

