"""CUSUM detector family and drift selection.

Two detectors share the stopping rule "alarm at the first tick where the
running statistic reaches b":

* the subspace detector, which scores each sample against a direction
  estimated from the w samples strictly after it (so an alarm crossed at
  tick t actually consumed data through t + w, and is reported at t + w);
* a decentralized one-shot baseline, where every sensor runs its own scalar
  CUSUM with known mean shift and the first local alarm stops the system.

The race's increments, the one batch CUSUM scan (one record, the race and
the Monte Carlo's stacks; the streaming step keeps its one-value update)
and the one stopping-report builder, :func:`_stop`, are written here.
Directions come from :mod:`sscusum.linalg`: certified repeated squaring for
the pipeline's stacks of windows, ``eigh`` for the streaming step's one.

Drift selection comes in two forms: an admissible interval,
:class:`DriftBounds`, from the large-window theory or measured by
:func:`sscusum.sim.empirical_drift`, and an empirical rule (factor times the
observed pre-change mean of the squared projections).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    DelayProfile, Pass, _as_array, _as_ticks, _check_counts, _check_integers,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NumericalError,
    StreamOrderError,
    ZeroMatrixError,
)
from .linalg import _sample_bound, _window_direction, window_increments
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

    A frame is a ``(t, values)`` pair, checked once, by :meth:`step`, on the
    ring's own copy of its values. When k <= w, each reading of that copy is
    compared with the sample bound b of :func:`sscusum.linalg._sample_bound`
    (w b^2 <= max / 2, max the largest float), one Python comparison a
    reading. While the w frames of a window are all within it, the window's
    covariance cannot overflow and is taken with no error state or
    finiteness check; a finite frame beyond it sends the w windows that hold
    it down the checked route, which raises every overflow the stack route
    raises.
    """

    def __init__(self, w: int, d: float, b: float = math.inf):
        self.lookahead = int(Pass(w).lookahead)  # read once here, never per frame
        _check_rule(d, b)
        self._d, self._b = float(d), float(b)
        self._S, self._crossed_at = 0.0, None
        self._ring: np.ndarray | None = None
        self._first = self._newest = 0
        self._bound: float | None = _sample_bound(self.lookahead)  # None when k > w
        # the last tick whose window holds a frame beyond the bound
        self._checked_until = -math.inf

    @property
    def state(self) -> CusumState:
        """A snapshot of the statistic and its first crossing, reported
        ``lookahead`` ticks after it; built when read."""
        crossed = self._crossed_at
        return CusumState(
            self._S, self._d, self._b, crossed, None if crossed is None else crossed + self.lookahead
        )

    def step(self, frame: tuple[int, np.ndarray]) -> tuple[int, float] | None:
        """Absorb frame ``(t, values)``, copying its k readings into the ring;
        return (t - w, S) once frame t - w has its w future frames, else None.

        Raises:
            ValueError: ``t`` is not an integer (a numpy integer is taken as
                an int; 3.0, True and None are not), or a reading is nan or inf.
            DimensionMismatchError: ``values`` is not a 1-D vector of at least
                2 readings (a scalar is not broadcast), or not the stream's k.
            StreamOrderError: a duplicate, backward or gapped tick.
        Each leaves the ring and the state as they were.
        """
        t, values = frame
        if t.__class__ is not int:
            _check_integers(t=t)  # a fractional tick is rejected, not truncated
            t = int(t)
        ring, bound, w = self._ring, self._bound, self.lookahead
        if ring is None:
            ring = np.empty((w, _sensors(values)))
            if ring.shape[1] > w:
                bound = None  # the stack route checks every window
        else:
            # an array of the stream's shape skips np.shape: 0.14 against
            # 0.42 us at k=3; a list or a bad frame goes through _sensors
            if getattr(values, "shape", None) != ring.shape[1:]:
                if (k := _sensors(values)) != ring.shape[1]:
                    raise DimensionMismatchError(
                        f"frame t={t} has k={k}, stream has k={ring.shape[1]}"
                    )
            if t != self._newest + 1:
                raise StreamOrderError(
                    f"tick {t} arrived after tick {self._newest}; ticks must be consecutive"
                )
        slot = ring[t % w]
        released = slot.copy()  # frame t - w
        try:
            slot[:] = values  # a cast that fails part way has written some readings
            if bound is None:
                if not np.isfinite(slot).all():
                    raise ValueError(f"non-finite reading in frame t={t}")
            else:
                # a loop of comparisons over the list: 0.2 us at k=3, against
                # 1.5 us for np.abs(slot).max(); nan and inf fail it too
                row = slot.tolist()
                for x in row:
                    if not -bound <= x <= bound:
                        if not all(map(math.isfinite, row)):
                            raise ValueError(f"non-finite reading in frame t={t}")
                        self._checked_until = t + w - 1  # the last window holding frame t
                        break
        except BaseException:  # whatever stopped the frame, the slot keeps frame t - w
            slot[:] = released
            raise
        if self._ring is None:  # the stream starts at its first checked frame
            self._ring, self._bound, self._first = ring, bound, t
        self._newest = t
        if t - w < self._first:
            return None
        # one window: one eigh costs less than a dozen matrix products
        u = _window_direction(ring, t > self._checked_until)
        # one value stays a scalar update on float attributes: a one-value
        # _scan call alone took 3.2 us, this update 0.2 us, and the same
        # update building a frozen CusumState per frame 1.0 us (2 vCPUs,
        # numpy 2.4.6); `state` builds its snapshot only when read
        s = max(self._S, 0.0) + _squared_projection(u, released) - self._d
        if self._crossed_at is None and s >= self._b:
            self._crossed_at = t - w
        self._S = s
        return t - w, s


def _sensors(values) -> int:
    """The k of a frame's values, a 1-D vector of at least 2 readings."""
    shape = np.shape(values)
    if len(shape) != 1 or shape[0] < 2:
        raise DimensionMismatchError(
            f"frame needs a 1-D vector of at least 2 sensors, got shape {shape}"
        )
    return shape[0]


def _check_rule(d: float, b: float) -> None:
    """Reject a drift that is not finite and a nan threshold; b = inf is
    valid and never stops the run."""
    if not math.isfinite(d) or math.isnan(b):
        raise ValueError(f"need a finite drift d and a threshold b that is not nan; got {d}, {b}")


def _check_race(mu: float, sigma2: float) -> None:
    """Reject the one-shot race's settings unless mu is finite and nonzero
    and sigma2 finite and positive."""
    if not (math.isfinite(mu) and math.isfinite(sigma2)):
        raise ValueError(f"mu and sigma2 must be finite, got mu={mu}, sigma2={sigma2}")
    if mu == 0:
        raise DegenerateInputError("mu = 0 gives a degenerate likelihood ratio")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")


def _race_increments(
    data: np.ndarray, mu: float, sigma2: float, out: np.ndarray | None = None
) -> np.ndarray:
    """One-shot race increments (mu/sigma2)*(x - mu/2) of every reading in
    ``data``, for settings :func:`_check_race` passed: the exact Gaussian
    log-likelihood ratio for a known mean shift. Written into ``out`` when
    one is given, which may be ``data`` itself: the subtraction, then the
    product, as two elementwise steps."""
    out = np.subtract(data, mu / 2.0, out=out)
    out *= mu / sigma2
    return out


def _scan(S: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Run S' = max(S, 0) + x over the columns of ``inc``, updating the state
    ``S`` in place, and return the (T, m) statistic path.

    A (T,) subspace state takes (T, m) drift-corrected increments, and its
    path is S. A (T, k) race state takes (T, k, m) increments, and its path
    is max_i S_i. One subspace row, a (1,) state, runs as a Python float
    loop, 7-10x faster than a loop over numpy columns, with the same values
    bit for bit.
    """
    if S.shape == (1,):
        path = inc[0].tolist()
        s = S.item() + 0.0  # np.maximum reads a -0.0 state as +0.0
        for j, x in enumerate(path):
            s = max(s, 0.0) + x
            path[j] = s
        S[0] = s
        return np.array(path)[None]
    path = np.empty((inc.shape[0], inc.shape[-1]))
    for j in range(inc.shape[-1]):
        np.maximum(S, 0.0, out=S)
        S += inc[..., j]
        path[:, j] = S if S.ndim == 1 else S.max(axis=1)
    return path


def _stop(
    detector: str, ticks: np.ndarray, path: np.ndarray, *, b: float, d: float, lookahead: int,
    full_trajectory: bool,
) -> StoppingReport:
    """The report of a run whose statistic is ``path`` at ``ticks``: crossed
    at the first value >= b, with the path cut there unless
    ``full_trajectory``."""
    hits = np.flatnonzero(path >= b)
    crossed = int(ticks[hits[0]]) if hits.size else None
    stop = len(path) if crossed is None or full_trajectory else hits[0] + 1
    return StoppingReport(
        detector=detector, b=float(b), d=float(d), lookahead=lookahead, crossed_at=crossed,
        ticks=ticks[:stop], statistic=path[:stop],
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

    Raises:
        DimensionMismatchError: ``streams`` has more than two dimensions.
        NumericalError: a reading is nan or inf, or its increment overflows.
        ValueError: ``t0`` is not an integer.
    """
    _check_rule(0.0, b)
    _check_integers(t0=t0)
    data = _as_array(np.atleast_2d(streams))
    k, n = data.shape
    _check_race(mu, sigma2)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        inc = _race_increments(data, mu, sigma2)
    if not np.isfinite(inc).all():
        raise NumericalError("non-finite one-shot increment: the input overflows or holds nan/inf")
    path = _scan(np.zeros((1, k)), inc[None])[0]
    return _stop(
        "one_shot", np.arange(t0, t0 + n), path, b=b, d=0.0, lookahead=0,
        full_trajectory=full_trajectory,
    )


@dataclass(frozen=True)
class DriftBounds:
    """Admissible drift interval, from the large-window approximation
    (:func:`drift_bounds`) or measured by simulation
    (:func:`sscusum.sim.empirical_drift`).

    ``lower`` is the pre-change mean of the squared projection and ``upper``
    the post-change mean; ``lower_se`` and ``upper_se`` are their standard
    errors, 0 for the closed form. The interval can be empty (``valid``
    False): the closed form's when the window is too short for the given
    dimension and SNR, a measured one when the shift does not raise the mean.
    ``midpoint`` then raises :class:`DegenerateInputError`.
    """

    lower: float
    upper: float
    lower_se: float = 0.0
    upper_se: float = 0.0

    @property
    def valid(self) -> bool:
        return self.upper > self.lower

    @property
    def midpoint(self) -> float:
        if not self.valid:
            raise DegenerateInputError(
                f"drift interval is empty: post-change mean {self.upper:.4f} is not above "
                f"pre-change mean {self.lower:.4f}"
            )
        return (self.lower + self.upper) / 2.0


def drift_bounds(sigma2: float, rho: float, k: int, w: int) -> DriftBounds:
    """Admissible drift interval (sigma2, sigma2*(1 + rho*(1 - (1+rho)(k-1)/(w rho^2))))."""
    if not (0 < sigma2 < math.inf and 0 < rho < math.inf):
        raise ValueError(f"require finite sigma2 > 0 and rho > 0, got {sigma2}, {rho}")
    _check_counts(2, k=k)
    _check_counts(1, w=w)
    bracket = rho * (1.0 - (1.0 + rho) * (k - 1) / (w * rho * rho))
    return DriftBounds(lower=sigma2, upper=sigma2 * (1.0 + bracket))


def calibrate_drift(prechange: np.ndarray, factor: float = 1.5) -> float:
    """Empirical drift: ``factor`` times the mean squared projection observed
    over a known pre-change stretch.

    Raises:
        ValueError: ``factor`` is not finite and > 0, or the series is empty
            or holds a nan or inf.
        DimensionMismatchError: the series is not 1-D.
    """
    if not 0 < factor < math.inf:
        raise ValueError(f"factor must be finite and > 0, got {factor}")
    series = _as_array(prechange, "prechange", "n")
    if series.size == 0:
        raise ValueError("cannot calibrate from an empty increment series")
    if not np.isfinite(series).all():
        raise ValueError("prechange holds a non-finite increment")
    return factor * float(series.mean())


def cusum_report(
    ticks: np.ndarray, increments: np.ndarray, *, d: float, b: float, lookahead: int
) -> StoppingReport:
    """Full-trajectory subspace report over squared projections scored
    beforehand, such as :func:`subspace_increments` output.

    Equal to the report of :func:`async_pipeline` run with this ``d`` and
    ``b`` and ``full_trajectory=True`` on the same streams.

    Raises:
        DimensionMismatchError: ``ticks`` or ``increments`` is not 1-D, or
            they differ in length.
        ValueError: ``lookahead`` is not an integer >= 0, or a tick is not
            a whole number.
        StreamOrderError: ``ticks`` are not strictly increasing.
        NumericalError: an increment is nan or inf, or the statistic overflows.
    """
    _check_rule(d, b)
    _check_counts(0, lookahead=lookahead)
    increments = _as_array(increments, "increments", "n")
    ticks = _as_ticks(ticks, "ticks")
    if ticks.ndim != 1:
        raise DimensionMismatchError(f"ticks must be a (n) array, got shape {ticks.shape}")
    if len(ticks) != len(increments):
        raise DimensionMismatchError(f"{len(ticks)} ticks for {len(increments)} increments")
    if (np.diff(ticks) <= 0).any():
        raise StreamOrderError("ticks must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        path = _scan(np.zeros(1), (increments - d)[None])[0]
    # a non-finite increment leaves a non-finite value at its own tick
    if not np.isfinite(path).all():
        raise NumericalError(
            "non-finite CUSUM statistic: an increment is nan or inf, or the sum overflows"
        )
    return _stop("subspace", ticks, path, b=b, d=d, lookahead=lookahead, full_trajectory=True)


@dataclass(frozen=True)
class AsyncDetection:
    """Stopping report plus the per-window delay history of the joint loop."""

    report: StoppingReport
    delays: list[tuple[int, DelayProfile]]
    increments: np.ndarray  # squared projections (before subtracting d)
    skipped: range  # leading ticks without alignment headroom


def _segment_increments(
    stack: np.ndarray, run: Pass, *, t0: int = 1, ramp: bool = True,
) -> Iterator[tuple[int, np.ndarray, list[DelayProfile] | None]]:
    """Check the records and ``t0``, then yield ``(start, increments,
    delays)`` for each sync segment of the pass ``run`` in turn: its first
    tick, the (T, ticks) squared projections of its ticks in each of the T
    records of the (T, k, n) ``stack``, and the records' T delay profiles
    (None without sync). One record is the (1, k, n) stack.

    Delays are constant over a segment, so its ticks form one aligned
    (k, ticks + w) block per record. One batched joint-estimation call fits
    a chunk of segments in every record and one :func:`window_increments`
    call scores their blocks. A chunk holds up to :data:`SEGMENT`
    trial-ticks (one segment without sync). With ``ramp``, for a run that
    may stop early (a stopping :func:`async_pipeline`, the Monte Carlo's
    races), chunks double from one segment up to that size, so the run
    scores at most about twice the segments it needed. A pass that scores
    every tick (:func:`subspace_increments`, a non-stopping
    :func:`async_pipeline`) passes ``ramp=False`` and starts at the full
    chunk, with the same bits in fewer calls. A segment's error, in any
    record, is raised once the run reaches it. Each record's delays and
    increments equal those of its own call.
    """
    data = np.asarray(stack, dtype=float)
    _as_array(data[0], sensors=2)  # each record has the first's shape
    T, k, n = data.shape
    _check_integers(t0=t0)
    scored = run.scored(n, t0)
    if not scored:
        raise ValueError(
            f"streams cover {n} ticks; need at least {run.margin + 1} "
            f"for one emission with w={run.w}, tau_max={run.tau_max}"
        )

    rows = np.arange(k)[:, None]
    trials = np.arange(T)[:, None, None, None]
    segment = run.cadence if run.sync else SEGMENT
    starts = np.arange(scored.start, scored.stop, segment)
    lengths = np.minimum(starts + segment, scored.stop) - starts
    most = max(1, SEGMENT // (segment * T)) if run.sync else 1
    lo, size = 0, 1 if ramp else most
    while lo < starts.size:
        chunk = slice(lo, lo + size)
        m = lengths[chunk].max()  # a shorter last segment is padded, then cut
        try:
            if run.sync:
                profiles = _joint_fit(data, run.fit_start(starts[chunk]), run, t0)[0]
                tau = np.stack([p.tau_hat for p in profiles]).reshape(T, -1, k, 1)
                cols = (starts[chunk] - t0)[:, None, None] + tau + np.arange(m + run.w)
                block = data[trials, rows, np.minimum(cols, n - 1)].reshape(-1, k, m + run.w)
            else:  # a chunk is one segment inside the records: a view, not a gather
                first = starts[lo] - t0
                profiles, block = None, data[:, :, first : first + m + run.w]
            inc = window_increments(block, run.w).reshape(T, -1, m)
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
    the first crossing; a run that cannot stop (``full_trajectory`` or
    b = inf) starts at the full chunk.

    Raises:
        NumericalError: a window covariance is not finite.

    Returns an :class:`AsyncDetection`; its report carries the crossing pair
    (crossed_at, crossed_at + w) and the statistic path.
    """
    _check_rule(d, b)
    run = Pass(w, tau_max, sync, delta, n_max, sync_every)
    stops = not full_trajectory and b < math.inf  # else every tick is scored
    delays_log: list[tuple[int, DelayProfile]] = []
    S, paths, increments = np.zeros(1), [], []  # S carries across segments
    segments = _segment_increments(np.asarray(streams, dtype=float)[None], run, t0=t0, ramp=stops)
    for start, inc, profiles in segments:
        if profiles is not None:
            delays_log.append((start, profiles[0]))
        increments.append(inc[0])
        paths.append(_scan(S, inc - d)[0])
        if stops and (paths[-1] >= b).any():
            break

    path = np.concatenate(paths)
    scored = run.scored(np.shape(streams)[-1], t0)
    report = _stop(
        "subspace", np.arange(scored.start, scored.start + path.size), path, b=b, d=d,
        lookahead=run.lookahead, full_trajectory=full_trajectory,
    )
    return AsyncDetection(
        report=report,
        delays=delays_log,
        increments=np.concatenate(increments)[: report.statistic.size],
        skipped=range(t0, scored.start),
    )


def subspace_increments(
    streams: np.ndarray,
    *,
    w: int,
    tau_max: int = 0,
    sync: bool = False,
    t0: int = 1,
    **settings,
) -> tuple[np.ndarray, np.ndarray]:
    """Squared projections (u_hat' x)^2 along a stream, with no stopping rule.

    Returns (ticks, increments); the drift is not subtracted. This is the
    series the empirical drift calibration averages, scored as
    :func:`async_pipeline` scores it but without running the CUSUM.
    ``settings`` are that function's ``delta``, ``n_max`` and ``sync_every``.
    It scores every tick, so it starts at the full chunk of sync segments.
    """
    run = Pass(w, tau_max, sync, **settings)
    segments = list(
        _segment_increments(np.asarray(streams, dtype=float)[None], run, t0=t0, ramp=False)
    )
    increments = np.concatenate([inc for _, (inc,), _ in segments])
    t_first = segments[0][0]
    return np.arange(t_first, t_first + increments.size), increments


def write_report_csv(path, report: StoppingReport, rate: float | None = None) -> None:
    """Write the header ``detector,crossed_at,reported_at,b,d`` and the
    report's row.

    With a sampling ``rate`` (Hz), crossing times are also emitted in
    seconds. A no-alarm run leaves the time cells empty. A rate that is not
    finite and > 0 is rejected before the file is opened.
    """
    times = [report.crossed_at, report.reported_at]
    header = ["detector", "crossed_at", "reported_at", "b", "d"]
    row = [report.detector, *times, repr(float(report.b)), repr(float(report.d))]
    if rate is not None:
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be finite and > 0, got {rate}")
        header += ["crossed_sec", "reported_sec"]
        row += [None if t is None else repr(t / rate) for t in times]
    with open(path, "w", newline="") as fh:  # csv.writer writes None as an empty cell
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(row)


def write_trajectory_csv(path, report: StoppingReport) -> None:
    """Write the diagnostic path as ``t,S`` rows, byte for byte what
    ``csv.writer`` writes for ``[t, repr(s)]``."""
    rows = zip(report.ticks.tolist(), report.statistic.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("t,S\r\n" + "".join(f"{t},{s!r}\r\n" for t, s in rows))
