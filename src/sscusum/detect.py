"""CUSUM detector family and drift selection.

Two detectors share the stopping rule "alarm at the first tick where the
running statistic reaches b":

* the subspace detector, which scores each sample against a direction
  estimated from the w samples strictly after it (so an alarm crossed at
  tick t actually consumed data through t + w, and is reported at t + w);
* a decentralized one-shot baseline, where every sensor runs its own scalar
  CUSUM with known mean shift and the first local alarm stops the system.

The race's increments and the array CUSUM over a stack of records are
written once here; the Monte Carlo in :mod:`sscusum.sim` runs the same two
functions.

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

from .core import DelayProfile, MultiSensorFrame, _check_pass, _scored_ticks
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NumericalError,
    StreamOrderError,
    ZeroMatrixError,
)
from .linalg import _directions, _eigh_top, window_increments
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

    ``statistic[i]`` is the value at ``ticks[i]``. A run that exhausts its
    stream without crossing is a no-alarm outcome, not an error.
    """

    detector: str
    b: float
    d: float
    lookahead: int
    crossed_at: int | None
    ticks: np.ndarray
    statistic: np.ndarray

    @property
    def no_alarm(self) -> bool:
        return self.crossed_at is None

    @property
    def reported_at(self) -> int | None:
        """``crossed_at + lookahead``: the true stopping time once the future
        window is accounted for."""
        return None if self.crossed_at is None else self.crossed_at + self.lookahead


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
        _check_pass(w=w)
        _check_rule(d, b)
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
        # one window: one eigh costs less than a dozen matrix products
        u = _directions(self._ring.T[None], _eigh_top)[0]
        state = self.state
        s = max(state.S, 0.0) + _squared_projection(u, released) - state.d
        crossed, reported = state.crossed_at, state.reported_at
        if crossed is None and s >= state.b:
            crossed, reported = t - w, t
        self.state = CusumState(s, state.d, state.b, crossed, reported)
        return t - w, s


def _check_rule(d: float, b: float) -> None:
    """Reject a drift that is not finite and a nan threshold; b = inf is
    valid and never stops the run."""
    if not math.isfinite(d) or math.isnan(b):
        raise ValueError(f"need a finite drift d and a threshold b that is not nan; got {d}, {b}")


def _race_increments(data: np.ndarray, mu: float, sigma2: float) -> np.ndarray:
    """One-shot race increments (mu/sigma2)*(x - mu/2) of every reading in
    ``data``: the exact Gaussian log-likelihood ratio for a known mean shift."""
    if not (math.isfinite(mu) and math.isfinite(sigma2)):
        raise ValueError(f"mu and sigma2 must be finite, got mu={mu}, sigma2={sigma2}")
    if mu == 0:
        raise DegenerateInputError("mu = 0 gives a degenerate likelihood ratio")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return mu / sigma2 * (data - mu / 2.0)


def _scan(S: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Run S' = max(S, 0) + x over the columns of ``inc``, updating the state
    ``S`` in place, and return the (T, m) statistic path.

    A (T,) subspace state takes (T, m) drift-corrected increments, and its
    path is S. A (T, k) race state takes (T, k, m) increments, and its path
    is max_i S_i.
    """
    path = np.empty((inc.shape[0], inc.shape[-1]))
    for j in range(inc.shape[-1]):
        np.maximum(S, 0.0, out=S)
        S += inc[..., j]
        path[:, j] = S if S.ndim == 1 else S.max(axis=1)
    return path


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

    Raises:
        DimensionMismatchError: ``streams`` has more than two dimensions.
        NumericalError: a reading is nan or inf, or its increment overflows.
    """
    _check_rule(0.0, b)
    data = np.atleast_2d(np.asarray(streams, dtype=float))
    if data.ndim != 2:
        raise DimensionMismatchError("streams must be a (k, n) array")
    k, n = data.shape
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        inc = _race_increments(data, mu, sigma2)
    if not np.isfinite(inc).all():
        raise NumericalError("non-finite one-shot increment: the input overflows or holds nan/inf")
    ticks = np.arange(t0, t0 + n)
    values = _scan(np.zeros((1, k)), inc[None])[0]
    hits = np.flatnonzero(values >= b)
    crossed = int(ticks[hits[0]]) if hits.size else None
    stop = n if crossed is None or full_trajectory else hits[0] + 1
    return StoppingReport(
        detector="one_shot", b=float(b), d=0.0, lookahead=0, crossed_at=crossed,
        ticks=ticks[:stop], statistic=values[:stop],
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
    if not (0 < sigma2 < math.inf and 0 < rho < math.inf):
        raise ValueError(f"require finite sigma2 > 0 and rho > 0, got {sigma2}, {rho}")
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

    Raises:
        DimensionMismatchError: ``ticks`` and ``increments`` differ in length.
    """
    _check_rule(d, b)
    if len(ticks) != len(increments):
        raise DimensionMismatchError(f"{len(ticks)} ticks for {len(increments)} increments")
    values: list[float] = []
    hit = _cusum_path(np.asarray(increments, dtype=float) - d, values, b, stop=False)
    return StoppingReport(
        detector="subspace", b=float(b), d=float(d), lookahead=lookahead,
        crossed_at=None if hit is None else int(ticks[hit]), ticks=ticks,
        statistic=np.asarray(values, dtype=float),
    )


@dataclass(frozen=True)
class AsyncDetection:
    """Stopping report plus the per-window delay history of the joint loop."""

    report: StoppingReport
    delays: list[tuple[int, DelayProfile]]
    increments: np.ndarray  # squared projections (before subtracting d)
    skipped: range  # leading ticks without alignment headroom


def _segment_increments(
    stack: np.ndarray, *, w: int, tau_max: int, sync: bool, delta: int = 1, n_max: int = 10,
    sync_every: int | None = None, t0: int = 1,
) -> Iterator[tuple[int, np.ndarray, list[DelayProfile] | None]]:
    """Check a pipeline run's arguments, then yield ``(start, increments,
    delays)`` for each sync segment in turn: its first tick, the (T, ticks)
    squared projections of its ticks in each of the T records of the
    (T, k, n) ``stack``, and the records' T delay profiles (None without
    sync). One record is the (1, k, n) stack.

    Delays are constant over a segment, so its ticks form one aligned
    (k, ticks + w) block per record. One batched joint-estimation call fits
    a chunk of segments in every record and one :func:`window_increments`
    call scores their blocks. Chunks double from one segment up to
    :data:`SEGMENT` trial-ticks (one segment without sync), so a run that
    stops early scores at most about twice the segments it needed; a
    segment's error, in any record, is raised once the run reaches it.
    Each record's delays and increments equal those of its own call.
    """
    data = np.asarray(stack, dtype=float)
    if data.ndim != 3:
        raise DimensionMismatchError("streams must be a (k, n) array")
    T, k, n = data.shape
    if k < 2:
        raise ValueError("need at least 2 sensors")
    _check_pass(
        w=w, tau_max=tau_max, sync=sync, delta=delta, n_max=n_max, sync_every=sync_every, t0=t0
    )
    scored = _scored_ticks(n, w=w, tau_max=tau_max, sync=sync, t0=t0)
    if not scored:
        raise ValueError(
            f"streams cover {n} ticks; need at least {n + 1 - (scored.stop - scored.start)} "
            f"for one emission with w={w}, tau_max={tau_max}"
        )

    rows = np.arange(k)[:, None]
    trials = np.arange(T)[:, None, None, None]
    segment = (w if sync_every is None else sync_every) if sync else SEGMENT
    starts = np.arange(scored.start, scored.stop, segment)
    lengths = np.minimum(starts + segment, scored.stop) - starts
    most = max(1, SEGMENT // (segment * T)) if sync else 1
    lo, size = 0, 1
    while lo < starts.size:
        chunk = slice(lo, lo + size)
        m = lengths[chunk].max()  # a shorter last segment is padded, then cut
        try:
            if sync:
                profiles = _joint_fit(
                    data, starts[chunk] + 1, w, tau_max=tau_max, delta=delta, n_max=n_max, t0=t0
                )[0]
                tau = np.stack([p.tau_hat for p in profiles]).reshape(T, -1, k, 1)
                cols = (starts[chunk] - t0)[:, None, None] + tau + np.arange(m + w)
                block = data[trials, rows, np.minimum(cols, n - 1)].reshape(-1, k, m + w)
            else:  # a chunk is one segment inside the records: a view, not a gather
                first = starts[lo] - t0
                profiles, block = None, data[:, :, first : first + m + w]
            inc = window_increments(block, w).reshape(T, -1, m)
        except (ZeroMatrixError, NumericalError):
            if size == 1:
                raise
            size = 1  # replay the chunk a segment at a time, up to the failing one
            continue
        for c, (start, length) in enumerate(zip(starts[chunk], lengths[chunk])):
            delays = None if profiles is None else profiles[c :: inc.shape[1]]
            yield int(start), inc[:, c, :length], delays
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
    _check_rule(d, b)
    delays_log: list[tuple[int, DelayProfile]] = []
    crossed = None
    values: list[float] = []
    increments: list[np.ndarray] = []
    segments = _segment_increments(
        np.asarray(streams, dtype=float)[None], w=w, tau_max=tau_max, sync=sync, delta=delta,
        n_max=n_max, sync_every=sync_every, t0=t0,
    )
    for start, (inc,), profiles in segments:
        if profiles is not None:
            delays_log.append((start, profiles[0]))
        hit = _cusum_path(inc - d, values, b, stop=not full_trajectory)
        if crossed is None and hit is not None:
            crossed = start + hit
            if not full_trajectory:
                inc = inc[: hit + 1]
        increments.append(inc)
        if crossed is not None and not full_trajectory:
            break

    scored = _scored_ticks(np.shape(streams)[-1], w=w, tau_max=tau_max, sync=sync, t0=t0)
    return AsyncDetection(
        report=StoppingReport(
            detector="subspace", b=float(b), d=float(d), lookahead=w, crossed_at=crossed,
            ticks=np.arange(scored.start, scored.start + len(values)),
            statistic=np.asarray(values, dtype=float),
        ),
        delays=delays_log,
        increments=np.concatenate(increments),
        skipped=range(t0, scored.start),
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
    segments = list(_segment_increments(
        np.asarray(streams, dtype=float)[None], w=w, tau_max=tau_max, sync=sync, **kwargs
    ))
    increments = np.concatenate([inc for _, (inc,), _ in segments])
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
