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
    ext: np.ndarray, s_hat: np.ndarray, tau_max: int, reference: int, starts: np.ndarray
) -> np.ndarray:
    """Every sensor's shift in every window of a stack, by direct correlation sums.

    ``ext[j]`` holds each sensor over window j (starting at tick
    ``starts[j]``) extended by tau_max on both sides, and ``s_hat[j]`` is its
    template. Sensor i's shift z in [-tau_max, tau_max] maximizes
    ``|sum_m s_hat[j, m] * ext[j, i, tau_max + m + z]|``, one ``np.correlate``
    per sensor; ties break toward the smallest |z|, then the smallest z. A
    sensor whose correlations are all exactly zero gets shift 0 and a
    :class:`ZeroCorrelationWarning` naming its window's start tick; the
    reference's shift is 0.
    """
    corr = np.zeros(ext.shape[:2] + (2 * tau_max + 1,))  # (B, k, 2*tau_max+1)
    for j, i in np.ndindex(*ext.shape[:2]):
        if i != reference:
            corr[j, i] = np.correlate(ext[j, i], s_hat[j], "valid")
    shifts = np.arange(-tau_max, tau_max + 1)
    order = np.lexsort((shifts, np.abs(shifts)))  # smallest |z| first, then smallest z
    abs_corr = np.abs(corr)
    peaks = abs_corr.max(axis=2)
    tau = shifts[order[np.argmax(abs_corr[:, :, order] == peaks[:, :, None], axis=2)]]
    zero = peaks == 0.0
    zero[:, reference] = False
    for j in np.flatnonzero(zero.any(axis=1)):
        warnings.warn(
            f"all correlations are exactly zero for sensors {np.flatnonzero(zero[j]).tolist()} "
            f"in the window starting at tick {starts[j]}; their shifts default to 0",
            ZeroCorrelationWarning,
            stacklevel=4,
        )
    tau[zero] = 0
    tau[:, reference] = 0
    return tau


def _joint_fit(
    data: np.ndarray, starts: np.ndarray, w: int, *, tau_max: int, delta: int, n_max: int,
    t0: int, reference: int,
) -> tuple[list[DelayProfile], np.ndarray, np.ndarray]:
    """The joint loop of :func:`joint_estimate` over a stack of fit windows.

    Window j is ``(starts[j], w)``; ``data`` covers each with tau_max
    headroom on both sides. A row drops out of the pass loop once its delta
    test fires or it reaches ``n_max``, so each row's profile, direction and
    template equal those of a one-window call. Returns the delay profiles
    and the (B, k) directions and (B, w) templates.

    Raises:
        ZeroMatrixError: some window's aligned samples are all zero.
        NumericalError: some window's covariance or Gram matrix is not finite.
    """
    k = data.shape[0]
    rows = np.arange(k)[:, None]
    ext = data[rows, (starts - tau_max - t0)[:, None, None] + np.arange(w + 2 * tau_max)]
    s_hat = ext[:, reference, tau_max : tau_max + w].copy()
    tau = np.zeros((len(starts), k), dtype=int)  # the first pass's delta test compares to 0
    u_hat = np.empty((len(starts), k))
    passes = np.zeros(len(starts), dtype=int)
    converged = np.zeros(len(starts), dtype=bool)
    live = np.arange(len(starts))
    while live.size:
        passes[live] += 1
        new_tau = _batched_delays(ext[live], s_hat[live], tau_max, reference, starts[live])
        converged[live] = np.abs(new_tau - tau[live]).max(axis=1) < delta
        tau[live] = new_tau
        aligned = ext[live[:, None, None], rows, tau_max + new_tau[:, :, None] + np.arange(w)]
        u = window_top_vectors(aligned)
        if not u.any(axis=1).all():
            raise ZeroMatrixError("cannot extract a direction from the zero matrix")
        u_hat[live] = u = np.stack([canonicalize_sign(v) for v in u])
        s_hat[live] = (aligned.transpose(0, 2, 1) @ u[:, :, None])[:, :, 0]
        live = live[~converged[live] & (passes[live] < n_max)]
    profiles = [DelayProfile(tau[j], tau_max, int(passes[j]), bool(converged[j]), reference)
                for j in range(len(starts))]
    return profiles, u_hat, s_hat


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
    ``delta`` or more, or after ``n_max`` passes. This is the one-window
    call of :func:`_joint_fit`.

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
    (profile,), u_hat, s_hat = _joint_fit(
        data, np.array([start]), w, tau_max=tau_max, delta=delta, n_max=n_max, t0=t0,
        reference=reference,
    )
    return JointEstimate(
        delays=profile,
        waveform=WaveformEstimate(s_hat=s_hat[0], origin_t=start),
        u_hat=u_hat[0],
    )
