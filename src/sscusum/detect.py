"""CUSUM detector family and drift selection.

Three detectors share the stopping rule "alarm at the first tick where the
running statistic reaches b":

* a CUSUM for a known signal direction, whose drift term is the exact
  log-likelihood-ratio offset;
* the subspace variant, which scores each sample against a direction
  estimated from the w samples strictly after it (so an alarm crossed at
  tick t actually consumed data through t + w, and is reported at t + w);
* a decentralized one-shot baseline, where every sensor runs its own scalar
  CUSUM with known mean shift and the first local alarm stops the system.

Every direction comes from the batched eigendecomposition kernel in
:mod:`sscusum.linalg`: the streaming detector calls it with one window per
frame, the asynchronous pipeline with every window of a sync segment at once.

Drift selection comes in two forms: a closed-form admissible interval from
the large-window theory, and an empirical rule (factor times the observed
pre-change mean of the squared projections).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DelayProfile,
    LookaheadBuffer,
    MultiSensorFrame,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    IndependenceViolationError,
    NumericalError,
)
from .linalg import window_increments, window_top_vectors
from .sync import joint_estimate

__all__ = [
    "CusumState",
    "DriftBounds",
    "StoppingReport",
    "AsyncDetection",
    "cusum_step_known_u",
    "subspace_cusum_step",
    "KnownSubspaceCusum",
    "SubspaceCusum",
    "run_detector",
    "one_shot_detector",
    "drift_bounds",
    "calibrate_drift",
    "async_pipeline",
    "subspace_increments",
    "cusum_report",
    "write_report_csv",
    "write_trajectory_csv",
]

# Most ticks one segment scores without delay estimation: bounds the memory
# of a long record, whose windows are scored a segment at a time.
SEGMENT = 4096

_UNIT_NORM_ATOL = 1e-9


@dataclass(frozen=True)
class CusumState:
    """Running statistic with its drift, threshold, and crossing bookkeeping."""

    S: float = 0.0
    d: float = 0.0
    b: float = math.inf
    crossed_at: int | None = None
    reported_at: int | None = None


def _check_unit(u: np.ndarray, k: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (k,):
        raise DimensionMismatchError(f"direction must have shape ({k},)")
    if abs(np.linalg.norm(u) - 1.0) > _UNIT_NORM_ATOL:
        raise ValueError(f"direction norm {np.linalg.norm(u)!r} is not 1 within 1e-9")
    return u


def _squared_projection(u: np.ndarray, x: np.ndarray) -> float:
    """(u'x)^2 for one frame. A scored frame sits in no window, so its
    overflow shows only here."""
    p = float(np.vdot(u, x))
    square = p * p
    if not math.isfinite(square):
        raise NumericalError("non-finite squared projection: the input overflows or holds nan/inf")
    return square


def llr_offset(sigma2: float, rho: float) -> float:
    """Drift term of the known-direction recursion: sigma2*(1+1/rho)*ln(1+rho)."""
    if rho <= 0 or sigma2 <= 0:
        raise ValueError("require rho > 0 and sigma2 > 0")
    return sigma2 * (1.0 + 1.0 / rho) * math.log1p(rho)


def cusum_step_known_u(
    state: CusumState,
    frame: MultiSensorFrame,
    u: np.ndarray,
    sigma2: float,
    rho: float,
) -> CusumState:
    """One update with the signal direction known exactly:
    S' = max(S, 0) + (u'x)^2 - sigma2*(1+1/rho)*ln(1+rho)."""
    u = _check_unit(u, frame.k)
    inc = _squared_projection(u, frame.values) - llr_offset(sigma2, rho)
    return replace(state, S=max(state.S, 0.0) + inc)


def subspace_cusum_step(
    state: CusumState,
    frame: MultiSensorFrame,
    u_hat: np.ndarray,
    u_window_start: int | None = None,
) -> CusumState:
    """One update with an estimated direction: S' = max(S, 0) + (u'x)^2 - d.

    ``u_window_start`` is the first tick of the window that produced
    ``u_hat``; passing it enforces the independence contract (the window must
    lie strictly after the scored frame).
    """
    if u_window_start is not None and u_window_start <= frame.t:
        raise IndependenceViolationError(
            f"direction window starting at {u_window_start} overlaps frame t={frame.t}"
        )
    u_hat = _check_unit(u_hat, frame.k)
    inc = _squared_projection(u_hat, frame.values) - state.d
    return replace(state, S=max(state.S, 0.0) + inc)


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


class KnownSubspaceCusum:
    """CUSUM with the signal direction, noise power, and SNR known."""

    name = "known_u"
    lookahead = 0

    def __init__(self, u: np.ndarray, sigma2: float, rho: float, b: float = math.inf):
        self.u = np.asarray(u, dtype=float)
        self.sigma2 = float(sigma2)
        self.rho = float(rho)
        self.d = llr_offset(sigma2, rho)
        self.state = CusumState(d=self.d, b=float(b))

    def step(self, frame: MultiSensorFrame) -> tuple[int, float]:
        self.state = cusum_step_known_u(self.state, frame, self.u, self.sigma2, self.rho)
        if self.state.S >= self.state.b and self.state.crossed_at is None:
            self.state = replace(self.state, crossed_at=frame.t, reported_at=frame.t)
        return frame.t, self.state.S


class SubspaceCusum:
    """Streaming subspace detector built on a lookahead buffer.

    Each pushed frame is absorbed; once a frame's w future samples are all
    buffered it is released, a direction is extracted from that future
    window, and the statistic advances. The buffer is the structural
    guarantee that the direction never sees the scored sample. The future
    window itself is kept as a (w, k) ring of samples: the covariance does
    not depend on sample order, so each frame overwrites the oldest row.
    """

    name = "subspace"

    def __init__(self, w: int, d: float, b: float = math.inf):
        if w < 1:
            raise ValueError("subspace detector needs lookahead w >= 1")
        self.lookahead = int(w)
        self.buffer = LookaheadBuffer(w)
        self.state = CusumState(d=float(d), b=float(b))
        self._ring: np.ndarray | None = None

    @property
    def d(self) -> float:
        return self.state.d

    def step(self, frame: MultiSensorFrame) -> tuple[int, float] | None:
        released = self.buffer.push(frame)
        if self._ring is None:
            self._ring = np.empty((self.lookahead, frame.k))
        self._ring[frame.t % self.lookahead] = frame.values  # ticks are consecutive
        if released is None:
            return None
        u = window_top_vectors(self._ring.T[None])[0]
        state = self.state
        s = max(state.S, 0.0) + _squared_projection(u, released.values) - state.d
        crossed, reported = state.crossed_at, state.reported_at
        if crossed is None and s >= state.b:
            crossed, reported = released.t, released.t + self.lookahead
        self.state = CusumState(s, state.d, state.b, crossed, reported)
        return released.t, s


def run_detector(
    frames: Iterable[MultiSensorFrame],
    detector,
    *,
    full_trajectory: bool = False,
) -> StoppingReport:
    """Drive a detector over a frame stream and collect its stopping report.

    Stops at the first threshold crossing unless ``full_trajectory`` is set;
    an exhausted stream yields a no-alarm report with the path intact.
    """
    ticks: list[int] = []
    values: list[float] = []
    crossed: int | None = None
    for frame in frames:
        emitted = detector.step(frame)
        if emitted is None:
            continue
        t, s = emitted
        ticks.append(t)
        values.append(s)
        if crossed is None and s >= detector.state.b:
            crossed = t
            if not full_trajectory:
                break
    reported = None if crossed is None else crossed + detector.lookahead
    return StoppingReport(
        detector=detector.name,
        b=detector.state.b,
        d=detector.d,
        lookahead=detector.lookahead,
        crossed_at=crossed,
        reported_at=reported,
        ticks=np.asarray(ticks, dtype=int),
        statistic=np.asarray(values, dtype=float),
    )


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
    (k, ticks + w) block whose future windows go through the batched
    direction kernel in one call. Without delay estimation a segment is at
    most :data:`SEGMENT` ticks, so a long record never holds every
    window at once.
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
    tau = np.zeros(k, dtype=int)
    profile = None
    segment = sync_every if sync else SEGMENT
    for start in range(t_first, t_last + 1, segment):
        stop = min(start + segment - 1, t_last)
        if sync:
            profile = joint_estimate(
                data, tau_max=tau_max, delta=delta, n_max=n_max,
                window=(start + 1, w), t0=t0, reference=reference,
            ).delays
            tau = profile.tau_hat
        cols = (start - t0) + tau[:, None] + np.arange(stop - start + 1 + w)[None, :]
        yield start, window_increments(data[rows, cols], w), profile


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
    An all-zero future window scores an increment of 0. The run scores one
    sync segment at a time and stops scoring at the first crossing.

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
