"""Relative-delay estimation and the joint waveform/delay fixed-point loop.

Delays are estimated per sensor by maximizing the magnitude of the windowed
correlation between that sensor's samples and the current waveform template.
The joint loop alternates delay estimation, re-alignment, dominant-direction
extraction, and template reconstruction until the delay estimates settle.

The reconstructed template is identifiable only up to scale and sign; the
correlation maximizer is invariant to both, so no normalization is applied.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DelayProfile
from .errors import (
    DimensionMismatchError,
    InsufficientLookaheadError,
    ZeroCorrelationWarning,
    ZeroMatrixError,
)
from .linalg import canonicalize_sign, window_top_vectors

__all__ = ["WaveformEstimate", "JointEstimate", "joint_estimate"]


@dataclass(frozen=True)
class WaveformEstimate:
    """Reconstructed source waveform over one analysis window.

    ``s_hat[m]`` is the template value at tick ``origin_t + m``; the template
    is treated as zero outside its window.
    """

    s_hat: np.ndarray
    origin_t: int

    def __post_init__(self):
        s = np.asarray(self.s_hat, dtype=float)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("template must be a nonempty 1-D series")
        object.__setattr__(self, "s_hat", s)
        object.__setattr__(self, "origin_t", int(self.origin_t))

    @property
    def w(self) -> int:
        return self.s_hat.size


@dataclass(frozen=True)
class JointEstimate:
    delays: DelayProfile
    waveform: WaveformEstimate
    u_hat: np.ndarray


def _batched_delays(
    ext: np.ndarray,
    s_hat: np.ndarray,
    tau_max: int,
    reference: int,
) -> np.ndarray:
    """All-sensor shift estimation; one matmul against the shifted-template bank.

    ``ext`` holds each sensor over the window extended by tau_max on both
    sides, so row i, column tau_max+m is the window sample m. Sensor i's
    shift z in [-tau_max, tau_max] maximizes ``|sum_m s_hat[m] * ext[i,
    tau_max + m + z]|``; ties break toward the smallest |z|, then the
    smallest z. A sensor whose correlations are all exactly zero gets shift
    0 and a :class:`ZeroCorrelationWarning`; the reference's shift is 0.
    """
    w = s_hat.size
    windows = sliding_window_view(ext, w, axis=1)  # (k, 2*tau_max+1, w)
    corr = windows @ s_hat                          # (k, 2*tau_max+1)
    shifts = np.arange(-tau_max, tau_max + 1)
    order = np.lexsort((shifts, np.abs(shifts)))  # smallest |z| first, then smallest z
    abs_corr = np.abs(corr)
    peaks = abs_corr.max(axis=1)
    first_winner = np.argmax(abs_corr[:, order] == peaks[:, None], axis=1)
    tau = shifts[order[first_winner]]
    zero_rows = np.flatnonzero(peaks == 0.0)
    zero_rows = zero_rows[zero_rows != reference]
    if zero_rows.size:
        warnings.warn(
            f"all correlations are exactly zero for sensors {zero_rows.tolist()}; "
            "their shifts default to 0",
            ZeroCorrelationWarning,
            stacklevel=3,
        )
        tau[zero_rows] = 0
    tau[reference] = 0
    return tau


def joint_estimate(
    streams: np.ndarray,
    *,
    tau_max: int,
    delta: int = 1,
    n_max: int = 10,
    window: tuple[int, int] | None = None,
    t0: int = 0,
    reference: int = 0,
) -> JointEstimate:
    """Jointly estimate the source waveform and per-sensor relative delays.

    The template starts as the reference sensor's window. Each pass
    re-estimates every other sensor's shift against the current template,
    re-aligns the window, extracts the dominant direction of the aligned
    sample covariance, and rebuilds the template as the direction-weighted
    sum of the aligned streams. The loop stops when no delay moved by
    ``delta`` or more, or after ``n_max`` passes.

    Args:
        streams: (k, L) array covering ticks [t0, t0 + L - 1].
        window: (start_tick, w) analysis window; defaults to the widest
            window leaving tau_max headroom on both sides.

    Returns:
        JointEstimate with the delay profile (``iterations`` = passes run,
        ``converged`` = whether the delta test fired), the final template,
        and the final unit direction.
    """
    data = np.asarray(streams, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatchError("streams must be a (k, L) array")
    k, n = data.shape
    if k < 2:
        raise ValueError("need at least 2 sensors")
    if tau_max < 0 or delta < 0 or n_max < 1:
        raise ValueError("require tau_max >= 0, delta >= 0, n_max >= 1")
    if not (0 <= reference < k):
        raise ValueError(f"reference index {reference} out of range")
    if window is None:
        start = t0 + tau_max
        w = n - 2 * tau_max
    else:
        start, w = window
    if w < 2:
        raise ValueError("analysis window must contain at least 2 samples")
    lo = start - tau_max - t0
    hi = start + w - 1 + tau_max - t0
    if lo < 0 or hi >= n:
        raise InsufficientLookaheadError(
            f"window [{start}, {start + w - 1}] plus tau_max={tau_max} headroom "
            f"exceeds the covered ticks [{t0}, {t0 + n - 1}]"
        )
    ext = data[:, lo : hi + 1]  # (k, w + 2*tau_max)
    rows = np.arange(k)[:, None]
    offsets = np.arange(w)[None, :]

    s_hat = ext[reference, tau_max : tau_max + w].copy()
    tau = np.zeros(k, dtype=int)
    prev: np.ndarray | None = None  # stands in for the "infinitely far" start
    u_hat = None
    iterations = 0
    while (prev is None or np.abs(tau - prev).max() >= delta) and iterations < n_max:
        iterations += 1
        new_tau = _batched_delays(ext, s_hat, tau_max, reference)
        prev, tau = tau, new_tau
        aligned = ext[rows, tau_max + tau[:, None] + offsets]  # (k, w)
        u_hat = canonicalize_sign(window_top_vectors(aligned[None])[0])
        if not u_hat.any():
            raise ZeroMatrixError("cannot extract a direction from the zero matrix")
        s_hat = aligned.T @ u_hat
    converged = prev is not None and np.abs(tau - prev).max() < delta

    profile = DelayProfile(
        tau_hat=tau,
        tau_max=tau_max,
        iterations=iterations,
        converged=bool(converged),
        reference=reference,
    )
    return JointEstimate(
        delays=profile,
        waveform=WaveformEstimate(s_hat=s_hat, origin_t=start),
        u_hat=u_hat,
    )
