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

from .core import DelayProfile, Pass, _as_array, _check_counts, _check_integers
from .errors import InsufficientLookaheadError, ZeroCorrelationWarning, ZeroMatrixError
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
    ext: np.ndarray, s_hat: np.ndarray, tau_max: int, starts: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Every sensor's shift in every window of a stack, by direct correlation sums.

    ``ext[j]`` holds each sensor over window j (starting at tick
    ``starts[j]``) extended by tau_max on both sides, and ``s_hat[j]`` is its
    template. Sensor i's shift z in [-tau_max, tau_max] maximizes
    ``|sum_m s_hat[j, m] * ext[j, i, tau_max + m + z]|``, one ``np.correlate``
    per sensor; ties break toward the smallest |z|, then the smallest z: the
    first of the lags z + tau_max listed in ``order``. So the reference
    sensor 0, which is not correlated, gets shift 0, and so does a sensor
    whose correlations are all exactly zero, with a
    :class:`ZeroCorrelationWarning` naming its window's start tick.
    """
    B, k = ext.shape[:2]
    corr = np.zeros((B, k, 2 * tau_max + 1))
    for j in range(B):
        for i in range(1, k):
            corr[j, i] = np.correlate(ext[j, i], s_hat[j], "valid")
    abs_corr = np.abs(corr, out=corr)
    peaks = abs_corr.max(axis=2)
    # the first peak in tie order: reorder the boolean hits, not |corr|
    hits = abs_corr == peaks[:, :, None]
    tau = order[np.argmax(hits[:, :, order], axis=2)] - tau_max
    zero = peaks == 0.0
    zero[:, 0] = False
    for j in np.flatnonzero(zero.any(axis=1)):
        warnings.warn(
            f"all correlations are exactly zero for sensors {np.flatnonzero(zero[j]).tolist()} "
            f"in the window starting at tick {starts[j]}; their shifts default to 0",
            ZeroCorrelationWarning,
            stacklevel=4,
        )
    return tau


def _joint_fit(
    data: np.ndarray, starts: np.ndarray, fit: Pass, t0: int
) -> tuple[list[DelayProfile], np.ndarray, np.ndarray]:
    """The joint loop of :func:`joint_estimate` over a stack of fit windows.

    ``data`` is a (T, k, n) stack of T records from tick ``t0`` (one record
    is the (1, k, n) stack). Window j is ``(starts[j], w)`` of the pass
    ``fit`` in every record; each record covers it with tau_max headroom on
    both sides. The T * S rows are trial-major: row ``t * S + j`` is window
    j of record t. A row drops out of the pass loop once its delta test
    fires or it reaches ``n_max``, so each row's profile, direction and
    template equal those of a one-window call. Returns the delay profiles
    and the (T * S, k) directions and (T * S, w) templates.

    Raises:
        ZeroMatrixError: some window's aligned samples are all zero.
        NumericalError: some window's covariance or Gram matrix is not finite.
    """
    k, w, tau_max = data.shape[1], fit.w, fit.tau_max
    rows = np.arange(k)[:, None]
    ext = data[:, rows, (starts - tau_max - t0)[:, None, None] + np.arange(fit.margin)]
    ext = ext.reshape(-1, k, fit.margin)
    starts = np.tile(starts, data.shape[0])
    s_hat = ext[:, 0, tau_max : tau_max + w].copy()
    tau = np.zeros((len(starts), k), dtype=int)  # the first pass's delta test compares to 0
    u_hat = np.empty((len(starts), k))
    passes = np.zeros(len(starts), dtype=int)
    converged = np.zeros(len(starts), dtype=bool)
    live = np.arange(len(starts))
    shifts = np.arange(-tau_max, tau_max + 1)
    order = np.lexsort((shifts, np.abs(shifts)))  # smallest |z| first, then smallest z
    while live.size:
        passes[live] += 1
        new_tau = _batched_delays(ext[live], s_hat[live], tau_max, starts[live], order)
        converged[live] = np.abs(new_tau - tau[live]).max(axis=1) < fit.delta
        tau[live] = new_tau
        aligned = ext[live[:, None, None], rows, tau_max + new_tau[:, :, None] + np.arange(w)]
        u = window_top_vectors(aligned)
        if not u.any(axis=1).all():
            raise ZeroMatrixError("cannot extract a direction from the zero matrix")
        u_hat[live] = u = canonicalize_sign(u)
        s_hat[live] = (aligned.transpose(0, 2, 1) @ u[:, :, None])[:, :, 0]
        live = live[~converged[live] & (passes[live] < fit.n_max)]
    profiles = [DelayProfile(tau[j], tau_max, int(passes[j]), bool(converged[j]))
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
) -> JointEstimate:
    """Jointly estimate the source waveform and per-sensor relative delays.

    The template starts as the reference sensor 0's window. Each pass
    re-estimates every other sensor's shift against the current template,
    re-aligns the window, extracts the dominant direction of the aligned
    sample covariance, and rebuilds the template as the direction-weighted
    sum of the aligned streams. The loop stops when no delay moved by
    ``delta`` or more, or after ``n_max`` passes. This is the one-window
    call of :func:`_joint_fit`.

    Args:
        streams: (k, n) array covering ticks [t0, t0 + n - 1].
        window: (start_tick, w) analysis window; defaults to the widest
            window leaving tau_max headroom on both sides.

    Returns:
        JointEstimate with the delay profile (``iterations`` = passes run,
        ``converged`` = whether the delta test fired), the final template,
        and the final unit direction.
    """
    data = _as_array(streams, sensors=2)
    n = data.shape[1]
    _check_integers(t0=t0)
    _check_counts(0, tau_max=tau_max)
    covered = range(t0 + tau_max, t0 + n - tau_max)  # the ticks with tau_max headroom
    start, w = (covered.start, len(covered)) if window is None else window
    fit = Pass(w, tau_max, True, delta, n_max)
    _check_integers(start=start)
    if start - tau_max < t0 or start - tau_max + fit.margin > t0 + n:
        raise InsufficientLookaheadError(
            f"window [{start}, {start + w - 1}] plus tau_max={tau_max} headroom "
            f"exceeds the covered ticks [{t0}, {t0 + n - 1}]"
        )
    (profile,), u_hat, s_hat = _joint_fit(data[None], np.array([start]), fit, t0)
    return JointEstimate(
        delays=profile,
        waveform=WaveformEstimate(s_hat=s_hat[0], origin_t=start),
        u_hat=u_hat[0],
    )
