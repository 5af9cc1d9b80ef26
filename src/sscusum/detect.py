"""CUSUM detector family and drift selection.

Two detectors share the stopping rule "alarm at the first tick where the
running statistic reaches b":

* the subspace detector, which scores each sample against a direction
  estimated from the w samples strictly after it (so an alarm crossed at
  tick t actually consumed data through t + w, and is reported at t + w);
* a decentralized one-shot baseline, where every sensor runs its own scalar
  CUSUM with known mean shift and the first local alarm stops the system.

Every direction comes from the batched eigendecomposition kernel in
:mod:`sscusum.linalg`: the streaming detector calls it with one window per
frame, the asynchronous pipeline with every window of a chunk of sync
segments at once.

Drift selection comes in two forms: a closed-form admissible interval from
the large-window theory, and an empirical rule (factor times the observed
pre-change mean of the squared projections).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import DelayProfile, MultiSensorFrame
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NumericalError,
    StreamOrderError,
    ZeroMatrixError,
)
from .linalg import window_increments, window_top_vectors
from .sync import _joint_fit

__all__ = [
    "CusumState",
    "DriftBounds",
    "StoppingReport",
    "AsyncDetection",
    "SubspaceCusum",
    "one_shot_detector",
    "drift_bounds",
    "calibrate_drift",
    "async_pipeline",
    "subspace_increments",
    "cusum_report",
    "write_report_csv",
    "write_trajectory_csv",
]

# Most ticks one call scores: a segment without delay estimation, a chunk of
# sync segments with it. Bounds the memory of a long record.
SEGMENT = 4096


@dataclass(frozen=True)
class CusumState:
    """Running statistic with its drift, threshold, and crossing bookkeeping."""

    S: float = 0.0
    d: float = 0.0
    b: float = math.inf
    crossed_at: int | None = None
    reported_at: int | None = None


def _squared_projection(u: np.ndarray, x: np.ndarray) -> float:
    """(u'x)^2 for one frame. A scored frame sits in no window, so its
    overflow shows only here."""
    p = float(np.vdot(u, x))
    square = p * p
    if not math.isfinite(square):
        raise NumericalError("non-finite squared projection: the input overflows or holds nan/inf")
    return square


@dataclass(frozen=True)
class StoppingReport:
    """Outcome of one detector run: crossing times and the statistic path.

    ``statistic[i]`` is the value at ``ticks[i]``. ``reported_at`` equals
    ``crossed_at + lookahead`` (the true stopping time once the future window
    is accounted for). A run that exhausts its stream without crossing is a
    no-alarm outcome, not an error.
    """

    detector: str
    b: float
    d: float
    lookahead: int
    crossed_at: int | None
    reported_at: int | None
    ticks: np.ndarray
    statistic: np.ndarray

    @property
    def no_alarm(self) -> bool:
        return self.crossed_at is None

    def crossing_for(self, b: float) -> tuple[int | None, int | None]:
        """First crossing of an alternative threshold, read off the stored path.

        Only valid for b at or below the run's own threshold unless the run
        kept its full trajectory.
        """
        hits = np.flatnonzero(self.statistic >= b)
        if hits.size == 0:
            return None, None
        t = int(self.ticks[hits[0]])
        return t, t + self.lookahead


class SubspaceCusum:
    """Streaming subspace detector that is its own lookahead buffer.

    The last w frames are kept in a (w, k) ring. Ticks are consecutive, so
    when frame t arrives its slot still holds frame t - w: that frame is
    copied out, frame t takes its place, and the copy is scored against the
    dominant direction of the ring, which now holds exactly the w frames
    t - w + 1..t. The ring is the structural guarantee that the direction
    never sees the scored sample, and the covariance does not depend on the
    order of its rows. The first w frames only fill the ring.
    """

    def __init__(self, w: int, d: float, b: float = math.inf):
        if w < 1:
            raise ValueError("subspace detector needs lookahead w >= 1")
        self.lookahead = int(w)
        self.state = CusumState(d=float(d), b=float(b))
        self._ring: np.ndarray | None = None
        self._first = self._newest = 0

    @property
    def d(self) -> float:
        return self.state.d

    def step(self, frame: MultiSensorFrame) -> tuple[int, float] | None:
        """Absorb frame t; return (t - w, S) once frame t - w has its w
        future frames, else None.

        Raises:
            DimensionMismatchError: the frame's k differs from the stream's.
            StreamOrderError: a duplicate, backward or gapped tick.
        Both leave the ring and the state as they were.
        """
        t, w = frame.t, self.lookahead
        if self._ring is None:
            self._ring, self._first = np.empty((w, frame.k)), t
        elif frame.k != self._ring.shape[1]:
            raise DimensionMismatchError(
                f"frame t={t} has k={frame.k}, stream has k={self._ring.shape[1]}"
            )
        elif t != self._newest + 1:
            raise StreamOrderError(
                f"tick {t} arrived after tick {self._newest}; ticks must be consecutive"
            )
        self._newest = t
        slot = self._ring[t % w]
        released = slot.copy()  # frame t - w
        slot[:] = frame.values
        if t - w < self._first:
            return None
        u = window_top_vectors(self._ring.T[None])[0]
        state = self.state
        s = max(state.S, 0.0) + _squared_projection(u, released) - state.d
        crossed, reported = state.crossed_at, state.reported_at
        if crossed is None and s >= state.b:
            crossed, reported = t - w, t
        self.state = CusumState(s, state.d, state.b, crossed, reported)
        return t - w, s


def one_shot_detector(
    streams: np.ndarray,
    mu: float,
    sigma2: float,
    b: float,
    t0: int = 1,
    *,
    full_trajectory: bool = False,
) -> StoppingReport:
    """Decentralized baseline: k scalar CUSUMs race, first local alarm stops.

    Each sensor i runs S_i' = max(S_i, 0) + (mu/sigma2)*(x_i - mu/2), the
    exact Gaussian log-likelihood ratio for a known mean shift mu. The
    recorded statistic is max_i S_i.
    """
    if mu == 0:
        raise DegenerateInputError("mu = 0 gives a degenerate likelihood ratio")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    data = np.atleast_2d(np.asarray(streams, dtype=float))
    k, n = data.shape
    gain = mu / sigma2
    half = mu / 2.0
    s = np.zeros(k)
    ticks = np.arange(t0, t0 + n)
    values = np.empty(n)
    crossed: int | None = None
    stop_idx = n
    for j in range(n):
        s = np.maximum(s, 0.0) + gain * (data[:, j] - half)
        m = float(s.max())
        values[j] = m
        if crossed is None and m >= b:
            crossed = int(ticks[j])
            if not full_trajectory:
                stop_idx = j + 1
                break
    return StoppingReport(
        detector="one_shot",
        b=float(b),
        d=0.0,
        lookahead=0,
        crossed_at=crossed,
        reported_at=crossed,
        ticks=ticks[:stop_idx],
        statistic=values[:stop_idx],
    )


@dataclass(frozen=True)
class DriftBounds:
    """Admissible drift interval from the large-window approximation.

    ``lower`` is the pre-change mean of the squared projection; ``upper``
    subtracts the direction-estimation error from the time-averaged
    post-change mean. The interval can be empty (``valid`` False) when the
    window is too short for the given dimension and SNR.
    """

    lower: float
    upper: float
    valid: bool

    @property
    def midpoint(self) -> float:
        if not self.valid:
            raise DegenerateInputError(
                "drift interval is empty; calibrate the drift empirically instead"
            )
        return (self.lower + self.upper) / 2.0


def drift_bounds(sigma2: float, rho: float, k: int, w: int) -> DriftBounds:
    """Admissible drift interval (sigma2, sigma2*(1 + rho*(1 - (1+rho)(k-1)/(w rho^2))))."""
    if sigma2 <= 0 or rho <= 0:
        raise ValueError("require sigma2 > 0 and rho > 0")
    if k < 2 or w < 1:
        raise ValueError("require k >= 2 and w >= 1")
    bracket = rho * (1.0 - (1.0 + rho) * (k - 1) / (w * rho * rho))
    upper = sigma2 * (1.0 + bracket)
    return DriftBounds(lower=sigma2, upper=upper, valid=bracket > 0)


def calibrate_drift(prechange: np.ndarray, factor: float = 1.5) -> float:
    """Empirical drift: ``factor`` times the mean squared projection observed
    over a known pre-change stretch."""
    series = np.asarray(prechange, dtype=float)
    if series.size == 0:
        raise ValueError("cannot calibrate from an empty increment series")
    return factor * float(series.mean())


def _cusum_path(x: np.ndarray, values: list[float], b: float, stop: bool) -> int | None:
    """Extend the statistic path ``values`` (empty: S = 0) by
    S' = max(S, 0) + x_j for each drift-corrected increment x_j.

    Returns the index into ``x`` of the first S >= b, or None; with ``stop``
    the path ends at that index.
    """
    S = values[-1] if values else 0.0
    hit = None
    for j, x_j in enumerate(x.tolist()):
        S = max(S, 0.0) + x_j
        values.append(S)
        if hit is None and S >= b:
            hit = j
            if stop:
                break
    return hit


def cusum_report(
    ticks: np.ndarray, increments: np.ndarray, *, d: float, b: float, lookahead: int
) -> StoppingReport:
    """Full-trajectory subspace report over squared projections scored
    beforehand, such as :func:`subspace_increments` output.

    Equal to the report of :func:`async_pipeline` run with this ``d`` and
    ``b`` and ``full_trajectory=True`` on the same streams.
    """
    values: list[float] = []
    hit = _cusum_path(np.asarray(increments, dtype=float) - d, values, b, stop=False)
    crossed = None if hit is None else int(ticks[hit])
    return _subspace_report(ticks, values, crossed, d=d, b=b, lookahead=lookahead)


def _subspace_report(ticks, values, crossed, *, d, b, lookahead) -> StoppingReport:
    """Subspace stopping report for the statistic path ``values`` at ``ticks``."""
    return StoppingReport(
        detector="subspace", b=float(b), d=float(d), lookahead=lookahead, crossed_at=crossed,
        reported_at=None if crossed is None else crossed + lookahead,
        ticks=ticks, statistic=np.asarray(values, dtype=float),
    )


@dataclass(frozen=True)
class AsyncDetection:
    """Stopping report plus the per-window delay history of the joint loop."""

    report: StoppingReport
    delays: list[tuple[int, DelayProfile]]
    increments: np.ndarray  # squared projections (before subtracting d)
    skipped: range  # leading ticks without alignment headroom


def _segment_increments(
    streams: np.ndarray, *, w: int, tau_max: int, sync: bool, delta: int = 1, n_max: int = 10,
    sync_every: int | None = None, t0: int = 1, reference: int = 0,
) -> Iterator[tuple[int, np.ndarray, DelayProfile | None]]:
    """Check a pipeline run's arguments, then yield ``(start, increments,
    delays)`` for each sync segment in turn: its first tick, the squared
    projections of its ticks, and its delay profile (None without sync).

    Delays are constant over a segment, so its ticks form one aligned
    (k, ticks + w) block. One batched joint-estimation call fits a chunk of
    segments and one :func:`window_increments` call scores their blocks.
    Chunks double from one segment up to :data:`SEGMENT` ticks (one segment
    without sync), so a run that stops early scores at most about twice the
    segments it needed; a segment's error is raised once the run reaches it.
    """
    data = np.asarray(streams, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatchError("streams must be a (k, n) array")
    k, n = data.shape
    if k < 2:
        raise ValueError("need at least 2 sensors")
    if w < 1:
        raise ValueError("w must be >= 1")
    if sync and w < 2:
        raise ValueError("delay estimation needs a window of at least 2 samples")
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    if not 0 <= reference < k:
        raise ValueError(f"reference index {reference} out of range")
    sync_every = w if sync_every is None else int(sync_every)
    if sync_every < 1:
        raise ValueError("sync_every must be >= 1")

    # Alignment headroom is only consumed when delays are actually estimated;
    # with the zero profile the shifted indices stay inside the window.
    headroom = tau_max if sync else 0
    t_first = t0 + headroom
    t_last = t0 + n - 1 - w - headroom
    if t_last < t_first:
        raise ValueError(
            f"streams cover {n} ticks; need at least {2 * headroom + w + 1} "
            f"for one emission with w={w}, tau_max={tau_max}"
        )

    rows = np.arange(k)[:, None]
    segment = sync_every if sync else SEGMENT
    starts = np.arange(t_first, t_last + 1, segment)
    lengths = np.minimum(starts + segment, t_last + 1) - starts
    most = max(1, SEGMENT // segment) if sync else 1
    lo, size = 0, 1
    while lo < starts.size:
        chunk = slice(lo, lo + size)
        try:
            if sync:
                profiles = _joint_fit(
                    data, starts[chunk] + 1, w, tau_max=tau_max, delta=delta, n_max=n_max,
                    t0=t0, reference=reference,
                )[0]
                tau = np.stack([p.tau_hat for p in profiles])
            else:
                profiles, tau = [None], np.zeros((1, k), dtype=int)
            m = lengths[chunk].max()  # a shorter last segment is padded, then cut
            cols = (starts[chunk] - t0)[:, None, None] + tau[:, :, None] + np.arange(m + w)
            inc = window_increments(data[rows, np.minimum(cols, n - 1)], w)
        except (ZeroMatrixError, NumericalError):
            if size == 1:
                raise
            size = 1  # replay the chunk a segment at a time, up to the failing one
            continue
        for start, length, row, profile in zip(starts[chunk], lengths[chunk], inc, profiles):
            yield int(start), row[:length], profile
        lo, size = lo + size, min(2 * size, most)


def async_pipeline(
    streams: np.ndarray,
    *,
    w: int,
    tau_max: int,
    d: float,
    b: float = math.inf,
    delta: int = 1,
    n_max: int = 10,
    sync: bool = True,
    sync_every: int | None = None,
    t0: int = 1,
    reference: int = 0,
    full_trajectory: bool = False,
) -> AsyncDetection:
    """Full asynchronous detector: per-window delay estimation, alignment,
    future-window direction extraction, and the CUSUM recursion.

    At each emitted tick t the delays current for that window align the
    frame and its w future samples; the dominant direction of the aligned
    future covariance scores the aligned frame. Delay estimation reruns
    every ``sync_every`` emitted ticks (default: once per window length).
    Leading ticks without tau_max headroom on both sides are skipped and
    recorded, and the run needs streams covering at least one emittable tick.
    An all-zero future window scores an increment of 0. The run scores a
    chunk of sync segments at a time and stops after the chunk that holds
    the first crossing.

    Raises:
        NumericalError: a window covariance is not finite.

    Returns an :class:`AsyncDetection`; its report carries the crossing pair
    (crossed_at, crossed_at + w) and the statistic path.
    """
    delays_log: list[tuple[int, DelayProfile]] = []
    crossed = None
    values: list[float] = []
    increments: list[np.ndarray] = []
    segments = _segment_increments(
        streams, w=w, tau_max=tau_max, sync=sync, delta=delta, n_max=n_max,
        sync_every=sync_every, t0=t0, reference=reference,
    )
    for start, inc, profile in segments:
        if profile is not None:
            delays_log.append((start, profile))
        hit = _cusum_path(inc - d, values, b, stop=not full_trajectory)
        if crossed is None and hit is not None:
            crossed = start + hit
            if not full_trajectory:
                inc = inc[: hit + 1]
        increments.append(inc)
        if crossed is not None and not full_trajectory:
            break

    t_first = t0 + (tau_max if sync else 0)
    ticks = np.arange(t_first, t_first + len(values))
    return AsyncDetection(
        report=_subspace_report(ticks, values, crossed, d=d, b=b, lookahead=w),
        delays=delays_log,
        increments=np.concatenate(increments),
        skipped=range(t0, t_first),
    )


def subspace_increments(
    streams: np.ndarray,
    *,
    w: int,
    tau_max: int = 0,
    sync: bool = False,
    **kwargs,
) -> tuple[np.ndarray, np.ndarray]:
    """Squared projections (u_hat' x)^2 along a stream, with no stopping rule.

    Returns (ticks, increments); the drift is not subtracted. This is the
    series the empirical drift calibration averages, scored as
    :func:`async_pipeline` scores it but without running the CUSUM.
    ``kwargs`` are that function's delay-estimation and tick arguments.
    """
    segments = list(_segment_increments(streams, w=w, tau_max=tau_max, sync=sync, **kwargs))
    increments = np.concatenate([inc for _, inc, _ in segments])
    t_first = segments[0][0]
    return np.arange(t_first, t_first + increments.size), increments


def write_report_csv(
    path,
    reports: StoppingReport | Sequence[StoppingReport],
    rate: float | None = None,
) -> None:
    """Write ``detector,crossed_at,reported_at,b,d`` rows, one per report.

    With a sampling ``rate`` (Hz), crossing times are also emitted in
    seconds. No-alarm runs leave the time cells empty.
    """
    if isinstance(reports, StoppingReport):
        reports = [reports]
    header = ["detector", "crossed_at", "reported_at", "b", "d"]
    if rate is not None:
        header += ["crossed_sec", "reported_sec"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in reports:
            row = [
                r.detector,
                "" if r.crossed_at is None else r.crossed_at,
                "" if r.reported_at is None else r.reported_at,
                repr(float(r.b)),
                repr(float(r.d)),
            ]
            if rate is not None:
                row += [
                    "" if r.crossed_at is None else repr(r.crossed_at / rate),
                    "" if r.reported_at is None else repr(r.reported_at / rate),
                ]
            writer.writerow(row)


def write_trajectory_csv(path, report: StoppingReport) -> None:
    """Write the diagnostic path as ``t,S`` rows, byte for byte what
    ``csv.writer`` writes for ``[t, repr(s)]``."""
    rows = zip(report.ticks.tolist(), report.statistic.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("t,S\r\n" + "".join(f"{t},{s!r}\r\n" for t, s in rows))
