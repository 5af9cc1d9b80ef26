"""Dominant-direction extraction from windows of samples.

The detection statistic only needs the leading eigenvector of each window's
covariance. :func:`window_top_vectors` is the one eigen entry point for
stacks of windows: every batched detector path, the delay fit and a single
window (the one-window stack) go through it. It finds each window's top
eigenvector by repeated squaring of the window's Gram matrix, a fixed
:data:`SQUARINGS` batched matrix products, and checks the result with a
certificate computed from the squared matrix alone. A window whose
certificate fails, such as one whose top two eigenvalues nearly tie, goes
to a symmetric eigendecomposition (``numpy.linalg.eigh``) instead. The
choice depends on the window alone, never on the batch around it, so a
window gets the same bits in any stack. There is no iteration budget to
exhaust. The streaming detector scores one window per frame, where a
dozen matrix products cost more than one ``eigh``, so it takes the
``eigh`` route directly. Scaling of the matrix is irrelevant to the
direction, which is why the covariance is kept as a plain unnormalized sum
of outer products.

:func:`window_increments` cuts its windows into tasks of at most
:data:`TASK` windows and runs them on a thread pool sized to the CPUs the
process may use; numpy's batched ``matmul`` and ``eigh`` release the
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


# Repeated squaring. A window's n x n Gram G (n = min(k, w)) is squared
# SQUARINGS times, scaled back to trace 1 after every fourth product, so
# A = G^4096 / tr(G^4096). The eigenvalues a_1 >= a_2 >= ... >= 0 of A sum
# to 1, so f = ||A||_F^2 / tr(A)^2 = sum a_i^2 <= a_1, and 1 - a_1 <= 1 - f.
# The column of A with the largest diagonal entry has norm at least that
# entry, at least 1/n, and its part off the top eigenvector v_1 has norm at
# most sum_{i>1} a_i = 1 - a_1; so that column, normalized, is within
# sin(angle) <= n (1 - f) of v_1. A window is accepted when
# n (1 - f) <= CERTIFICATE and otherwise goes to eigh.
#
# Measured on 2 vCPUs with numpy 2.4.6: twelve squarings certify lambda_2 /
# lambda_1 up to 0.992 at n = 8 to 40 (0.993 at n <= 12), and from 0.994 on
# every window goes to eigh; each accepted window was within 1 - |v'v_J| <=
# 1.1e-15 of a Jacobi oracle's v_J. On pure noise 0.48% of windows go to eigh
# at k=125, w=20 (0.08% after a 0.2 mean shift), 0.34% at k=8, w=200 and
# 0.20% at k=20, w=40. In stacks of 256, squaring costs 3.5 against 11.3 us a
# window for eigh at n=8 and 9.0 against 43.0 us at n=20; one window alone
# costs 58 against 19 us at n=8, so the streaming step takes eigh directly.
SQUARINGS = 12  # a multiple of 4
CERTIFICATE = 1e-11


def _eigh_top(grams: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of each (n, n) Gram by one batched ``eigh``; a
    zero row where the top eigenvalue is 0 (a zero Gram)."""
    lam, vecs = np.linalg.eigh(grams)
    return vecs[:, :, -1] * (lam[:, -1] > 0)[:, None]


def _squared_top(grams: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of each (n, n) Gram by :data:`SQUARINGS`
    squarings, each window certified on its own; a window the certificate
    rejects goes to :func:`_eigh_top`. A zero Gram gives a zero row."""
    n = grams.shape[-1]
    peak = np.einsum("bii->bi", grams).max(axis=1)
    live = peak > 0
    # |G_ij| <= peak, so the top eigenvalue starts within [1, n]; at trace 1
    # it is within [1/n, 1]. Four products keep it within [n^-16, n^16]: it
    # neither overflows nor underflows
    a = grams / np.where(live, peak, 1.0)[:, None, None]
    a[~live, 0, 0] = 1.0  # squares as a certified projector; zeroed below
    for _ in range(SQUARINGS // 4):
        for _ in range(4):
            a = a @ a
        a /= np.einsum("bii->b", a)[:, None, None]
    diag = np.einsum("bii->bi", a)
    col = np.take_along_axis(a, diag.argmax(axis=1)[:, None, None], axis=2)[:, :, 0]
    v = col / np.linalg.norm(col, axis=1, keepdims=True)
    f = np.einsum("bij,bij->b", a, a) / diag.sum(axis=1) ** 2
    failed = n * (1.0 - f) > CERTIFICATE
    if failed.any():
        v[failed] = _eigh_top(grams[failed])
    v[~live] = 0.0
    return v


def _directions(windows: np.ndarray, top) -> np.ndarray:
    """:func:`window_top_vectors` with ``top`` (:func:`_squared_top` or
    :func:`_eigh_top`) finding each Gram's top eigenvector."""
    if windows.ndim != 3:
        raise DimensionMismatchError(f"windows must be (B, k, w), got shape {windows.shape}")
    _, k, w = windows.shape
    side = windows if k <= w else windows.transpose(0, 2, 1)
    # an overflowing product is reported by _check_finite, not by a warning;
    # the error state covers only the product, as it costs every call
    with np.errstate(over="ignore", invalid="ignore"):
        grams = side @ side.transpose(0, 2, 1)
    _check_finite(grams, "window covariance" if k <= w else "window Gram matrix")
    v = top(grams)
    if k <= w:  # unit and finite, or a zero row for a zero Gram
        return v
    u = (windows @ v[:, :, None])[:, :, 0]
    # scaled to a largest entry of 1 first: the squares of a tiny window's
    # product are subnormal, and their norm is off by up to 1e-6
    peaks = np.abs(u).max(axis=1, keepdims=True)
    u = u / np.where(peaks > 0, peaks, 1.0)
    u = u / np.where(peaks > 0, np.linalg.norm(u, axis=1, keepdims=True), 1.0)
    _check_finite(u, "direction")
    return u


def window_top_vectors(windows) -> np.ndarray:
    """Unit dominant direction of each window's sample covariance.

    ``windows`` is (B, k, w) with one sample per column, or anything
    ``numpy.asarray`` makes into one. Works on whichever Gram side is
    smaller; a window whose Gram is zero (all-zero, or underflowing) yields
    a zero row, so its squared projection is 0. The sign of each direction
    is arbitrary. Each window's direction comes from repeated squaring or,
    where its certificate fails, from ``eigh``; either way it does not
    depend on the other windows of the stack.

    Raises:
        DimensionMismatchError: ``windows`` is not 3-D.
        NumericalError: a Gram matrix or a direction is not finite.
    """
    return _directions(np.asarray(windows, dtype=float), _squared_top)


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

