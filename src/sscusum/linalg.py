"""Dominant-direction extraction from windows of samples.

The detection statistic only needs the leading eigenvector of each window's
covariance. One routine finds it for every path: it takes each window's Gram
matrix on the smaller side (the k x k covariance when k <= w, the w x w
sample-side Gram when k > w), finds the top eigenvector by repeated
squaring, a fixed :data:`SQUARINGS` batched matrix products, and checks the
result with a certificate computed from the squared matrix alone. A window
whose certificate fails, such as one whose top two eigenvalues nearly tie,
goes to a symmetric eigendecomposition (``numpy.linalg.eigh``) instead. The
choice depends on the window alone, never on the batch around it, so a
window gets the same bits in any stack. There is no iteration budget to
exhaust. When k > w the top vector is mapped back through the window to k
dimensions. Scaling of the matrix is irrelevant to the direction, which is
why the covariance is kept as a plain unnormalized sum of outer products.

The callers differ in how they build the Gram matrices:

- :func:`window_top_vectors` takes any stack of windows, such as the delay
  fit's aligned windows, which share no samples; it forms each Gram by one
  batched ``matmul``.
- :func:`window_increments` scores the overlapping windows of a block. When
  k <= w it takes the same batched product. When k > w, neighbouring windows
  share w - 1 of their w ticks, so a per-window product would compute each
  pair of ticks' inner product up to w times. Each task instead computes the
  band of products of ticks less than w apart once and reads every window's
  Gram as a view of it (:func:`_band_grams`). A band entry is summed by
  ``einsum``, not by BLAS, so at k > w the two entry points agree to
  rounding, not bit for bit; within ``window_increments`` a window still
  gets the same bits wherever it sits.
- The streaming detector scores one window per frame, where a dozen matrix
  products cost more than one ``eigh``, so it takes the ``eigh`` route
  directly, through :func:`_window_direction`, with
  ``window_top_vectors``' Gram. A window with no more sensors than samples
  (k <= w) takes one 2-D product and ``eigh`` of its (k, k) covariance,
  with no stack built around it; its top column is copied out contiguous,
  as the stack route leaves it, since a dot product over the strided column
  can round differently. The product is checked for overflow only where it
  could overflow: a Gram entry sums w products of two samples, so while
  every sample of the window has |x| <= b with w b^2 <= max / 2
  (:func:`_sample_bound`, max the largest float) none can. The step checks
  each frame against b once, on the ring's own copy of it, and a window
  that holds a sample beyond b (nan included) takes the checked route of
  an error state and a finiteness check. A window with more sensors
  than samples goes through the stack route as a stack of one, so its
  projection back to k dimensions, whose bits depend on its layout, is
  written once. Either way the step gets the stack route's bits.

:func:`window_increments` cuts its windows into tasks of at most
:data:`TASK` windows and runs them on a thread pool sized to the CPUs the
process may use; numpy's ``einsum`` and batched ``matmul`` and ``eigh``
release the interpreter lock, so the tasks run in parallel. Each task
writes its own slice of one output, and a window's result does not depend
on which task or thread scores it, so results are bit-identical for any
CPU count. A call with one task, or a process with one CPU, runs on the
caller's thread.
The same pool also runs the Monte Carlo's per-trial draws
(:func:`sscusum.sim._draw_live`); no task submits tasks of its own, since a
task waiting on the pool it runs on can deadlock it.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _check_counts
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


def _directions(windows: np.ndarray, top, grams: np.ndarray | None = None) -> np.ndarray:
    """:func:`window_top_vectors` with ``top`` (:func:`_squared_top` or
    :func:`_eigh_top`) finding each Gram's top eigenvector; ``grams``, when
    given, is the windows' checked (B, w, w) Gram stack (k > w only)."""
    if windows.ndim != 3:
        raise DimensionMismatchError(f"windows must be (B, k, w), got shape {windows.shape}")
    _, k, w = windows.shape
    if grams is None:
        side = windows if k <= w else windows.transpose(0, 2, 1)
        # an overflowing product is reported by _check_finite, not by a
        # warning; the error state covers only the product, as it costs
        # every call
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


def _band_grams(ticks: np.ndarray, w: int) -> np.ndarray:
    """The (n - w + 1, w, w) sample-side Gram stack of the w-tick windows of
    a (k, n) block, from one product per pair of ticks less than w apart.

    ``band[t, l] = x_t . x_{t+l}`` (zero past the block's end) is computed
    once, by one ``einsum`` that sums each pair over k in sensor order, so a
    pair's bits do not depend on where it sits in the block, on the block's
    length or on the thread. It is written above and below the diagonal of
    one (n + w - 1)^2 matrix, and window s's Gram is that matrix's diagonal
    block at s, a read-only view. Only the band is ever written or read.
    On 2 vCPUs with numpy 2.4.6, for 256 windows at k=125, w=20, this took
    about 1.4 us a window against 5.4 us for one batched product per window.
    """
    k, n = ticks.shape
    padded = np.empty((n + w - 1, k))
    padded[:n] = ticks.T
    padded[n:] = 0.0
    # views are built by the ndarray constructor, which checks them against
    # the buffer and costs far less than the stride_tricks helpers; every
    # task runs this, and those helpers' Python time holds the interpreter
    # lock that the other workers need
    step, item = padded.strides
    lagged = np.ndarray((n, k, w), float, padded, 0, (step, item, step))  # [t, :, l] = x_{t+l}
    # einsum warns of no overflow; _check_finite reports it
    band = np.einsum("tk,tkl->tl", padded[:n], lagged)
    _check_finite(band, "window Gram matrix")
    full = np.empty((n + w - 1, n + w - 1))
    row, col = full.strides
    np.ndarray((n, w), float, full, 0, (row + col, col))[...] = band  # full[t, t + l]
    np.ndarray((n, w), float, full, 0, (row + col, row))[...] = band  # full[t + l, t]
    grams = np.ndarray((n - w + 1, w, w), float, full, 0, (row + col, row, col))
    grams.flags.writeable = False
    return grams


def _sample_bound(w: int) -> float:
    """A bound b on |x| under which no Gram entry of a window of w samples
    overflows: each entry sums w products of at most b^2, and w b^2 <= max
    / 2 leaves the sum's rounding far from the largest float, max."""
    return math.sqrt(sys.float_info.max / (2 * w))


def _window_direction(ring: np.ndarray, bounded: bool) -> np.ndarray:
    """Unit top direction of the streaming step's one window, a (w, k) array
    with one sample per row, by one ``eigh``: the bits and errors of
    ``_directions(ring.T[None], _eigh_top)[0]``, and a zero vector for a
    zero covariance.

    ``bounded`` says the caller has checked that every sample is within
    b = ``_sample_bound(w)`` (w b^2 <= max / 2, max the largest float), each
    frame once as it entered the window, so the (k, k) covariance cannot
    overflow and is used without an error state or a finiteness check;
    those two and ``@`` in place of ``ndarray.dot`` cost about 3-4 us a
    call at k=3, w=200 (2 vCPUs, numpy 2.4.6). Any other window is checked
    as the stack route checks it. Ignored when k > w, where the stack route
    checks every window."""
    w, k = ring.shape
    if k > w:
        return _directions(ring.T[None], _eigh_top)[0]
    if bounded:
        gram = ring.T.dot(ring)  # the bits of @, 0.4-0.8 us sooner
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = ring.T @ ring
        _check_finite(gram, "window covariance")
    lam, vecs = np.linalg.eigh(gram)
    return vecs[:, -1].copy() if lam[-1] > 0 else np.zeros(k)


def window_top_vectors(windows) -> np.ndarray:
    """Unit dominant direction of each window's sample covariance.

    ``windows`` is (B, k, w) with one sample per column, or anything
    ``numpy.asarray`` makes into one. Works on whichever Gram side is
    smaller; a window whose Gram is zero (all-zero, or underflowing) yields
    a zero row, so its squared projection is 0. The sign of each direction
    is arbitrary. Each window's direction comes from repeated squaring or,
    where its certificate fails, from ``eigh``; either way it does not
    depend on the other windows of the stack. An empty (0, k, w) stack gives
    a (0, k) array on either Gram side.

    Raises:
        DimensionMismatchError: ``windows`` is not 3-D.
        NumericalError: a Gram matrix or a direction is not finite.
    """
    return _directions(np.asarray(windows, dtype=float), _squared_top)


def window_increments(block, w: int) -> np.ndarray:
    """Squared projections ``(u_j' x_j)^2`` along a (k, m + w) block, or
    anything ``numpy.asarray`` makes into one.

    Column j is scored against the dominant direction of columns
    j+1..j+w, so the result has m entries. A (T, k, m + w) stack of T
    trials gives a (T, m) result, each row equal to that trial's own call.
    Each trial's windows go through the direction kernel at most
    :data:`TASK` at a time, as parallel tasks. When k > w a task reads its
    windows' Grams from one band of products of ticks (:func:`_band_grams`),
    so its directions agree with :func:`window_top_vectors` to rounding
    (1 - |u'v| below 1e-15 on the windows measured), not bit for bit; when
    k <= w they have the same bits. Either way a
    window's increment has the same bits at any place in any block, task
    split or worker count.

    Raises:
        ValueError: ``w`` is not an integer >= 1.
        DimensionMismatchError: ``block`` is neither 2-D nor 3-D.
        NumericalError: a window's Gram matrix, a direction or a squared
            projection is not finite.
    """
    _check_counts(1, w=w)
    block = np.asarray(block, dtype=float)
    if block.ndim not in (2, 3):
        raise DimensionMismatchError(f"block must be (k, n) or (T, k, n), got shape {block.shape}")
    m = block.shape[-1] - w
    if m < 1:
        raise ValueError("stream too short for one lookahead window")
    trials = block if block.ndim == 3 else block[None]
    view = sliding_window_view(trials, w, axis=2)  # (T, k, m + 1, w)
    out = np.empty((trials.shape[0], m))
    banded = trials.shape[1] > w

    def score(span):
        t, lo, hi = span
        grams = _band_grams(trials[t, :, lo + 1 : hi + w], w) if banded else None
        u = _directions(view[t, :, lo + 1 : hi + 1].transpose(1, 0, 2), _squared_top, grams)
        # column 0 sits in no window, so an overflow here is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            out[t, lo:hi] = np.einsum("bk,kb->b", u, trials[t, :, lo:hi]) ** 2

    spans = [(t, lo, min(lo + TASK, m)) for t in range(len(trials)) for lo in range(0, m, TASK)]
    _run_tasks(score, spans)
    _check_finite(out, "squared projection")
    return out if block.ndim == 3 else out[0]

