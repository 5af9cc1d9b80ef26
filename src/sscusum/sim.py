"""Scenario generation and Monte Carlo estimation of operating characteristics.

Episodes are drawn from a :class:`~sscusum.core.ScenarioModel`; detectors are
described by small spec objects; ARL (mean time to false alarm under pure
noise) and EDD (mean reported delay after a change) are estimated over
independent trials. Each trial gets its own child seed, so results do not
depend on execution order, and a whole experiment is a pure function of
(configuration, seed).

Noise has one layout: a trial's generator yields consecutive (k, 256)
blocks, so any prefix of an episode is the episode of that shorter horizon.
The Monte Carlo advances all trials of the one-shot race and of the
subspace detector without delay estimation in lockstep over those blocks,
drawing a trial's noise only until it crosses the largest threshold; the
samples it scores are exactly the ones :func:`generate_episode` returns for
the same seed. The delay-estimating subspace detector runs the segmented
pipeline over each trial's whole episode instead.

A single run per trial serves an entire threshold grid: the statistic path
does not depend on the threshold, so crossings for every b are read off the
trajectory of the run against the largest one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ScenarioModel, Waveform
from .detect import StoppingReport, async_pipeline, one_shot_detector, subspace_increments
from .errors import DegenerateInputError
from .linalg import window_increments

__all__ = [
    "TrialResult",
    "trial_records",
    "RunLengthEstimate",
    "CurvePoint",
    "SubspaceSpec",
    "OneShotSpec",
    "DriftCalibration",
    "generate_episode",
    "pure_noise_model",
    "mean_shift_model",
    "uniform_onsets",
    "random_delay_factory",
    "estimate_arl",
    "estimate_edd",
    "operating_curve",
    "empirical_drift",
    "fast_increments",
    "fast_crossings_on_array",
    "write_curve_csv",
]

ModelSource = Callable[[np.random.Generator], ScenarioModel] | ScenarioModel


@dataclass(frozen=True)
class TrialResult:
    """One trial outcome. ``stopped_at`` is the reported (true) stop time."""

    detector_id: str
    stopped_at: int | None
    change_point: int | None
    false_alarm: bool

    def __post_init__(self):
        expected = self.stopped_at is not None and (
            self.change_point is None or self.stopped_at <= self.change_point
        )
        if self.false_alarm != expected:
            raise ValueError(
                f"false_alarm={self.false_alarm} inconsistent with "
                f"stopped_at={self.stopped_at}, change_point={self.change_point}"
            )


@dataclass(frozen=True)
class RunLengthEstimate:
    detector: str
    b: float
    value: float
    se: float
    n_trials: int
    censored_frac: float
    unreliable: bool
    false_alarm_frac: float = 0.0


@dataclass(frozen=True)
class CurvePoint:
    detector: str
    b: float
    arl: float
    arl_se: float
    edd: float
    edd_se: float
    censored_frac: float


@dataclass(frozen=True)
class SubspaceSpec:
    """Asynchronous subspace detector configuration for simulation runs.

    :meth:`run` drives the segmented pipeline from :mod:`sscusum.detect`
    over one episode. Without delay estimation (``sync=False``) the Monte
    Carlo runs the same statistic in the lockstep engine, with identical
    crossings; with it, every trial runs the pipeline.
    """

    w: int
    tau_max: int
    d: float
    delta: int = 1
    n_max: int = 10
    sync: bool = True
    sync_every: int | None = None

    name = "subspace"

    def run(self, streams: np.ndarray, b: float) -> StoppingReport:
        return async_pipeline(
            streams,
            w=self.w,
            tau_max=self.tau_max,
            d=self.d,
            b=b,
            delta=self.delta,
            n_max=self.n_max,
            sync=self.sync,
            sync_every=self.sync_every,
        ).report


@dataclass(frozen=True)
class OneShotSpec:
    """Per-sensor scalar CUSUM race with the mean shift known exactly."""

    mu: float
    sigma2: float = 1.0

    name = "one_shot"

    def run(self, streams: np.ndarray, b: float) -> StoppingReport:
        return one_shot_detector(streams, self.mu, self.sigma2, b)


_FAST_CHUNK = 256  # fixed: every trial's noise is drawn in (k, _FAST_CHUNK) blocks


def _draw_blocks(
    model: ScenarioModel, rng: np.random.Generator, drawn: int, blocks: int
) -> np.ndarray:
    """Ticks drawn+1 .. drawn+blocks*_FAST_CHUNK of one trial, as a (k, n) array.

    The noise comes from ``rng`` as ``blocks`` consecutive (k, _FAST_CHUNK)
    blocks in one call, so drawing the same ticks in more calls gives the
    same samples.
    """
    noise = rng.standard_normal((blocks, model.k, _FAST_CHUNK))
    noise *= math.sqrt(model.sigma2)
    ticks = np.arange(drawn + 1, drawn + blocks * _FAST_CHUNK + 1)
    signal = model.alpha[:, None] * model.waveform(ticks[None, :] - model.onsets[:, None])
    signal.reshape(model.k, blocks, _FAST_CHUNK)[...] += noise.transpose(1, 0, 2)
    return signal


def generate_episode(model: ScenarioModel, horizon: int, seed) -> np.ndarray:
    """Draw one (k, horizon) episode covering ticks 1..horizon.

    Sensor i carries ``alpha[i] * s(t - onsets[i])`` plus N(0, sigma2) noise;
    the waveform's causality keeps every tick up to the onset pure noise.
    Deterministic given the seed. Onsets at or beyond the horizon simply
    yield a pure-noise episode.

    The noise is drawn from the seed's generator as consecutive (k, 256)
    blocks, cut to the horizon, so ``generate_episode(m, n, s)[:, :p]``
    equals ``generate_episode(m, p, s)``. The lockstep Monte Carlo draws the
    same blocks one at a time and so scores exactly these samples.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    return _draw_blocks(model, rng, 0, -(-horizon // _FAST_CHUNK))[:, :horizon]


def pure_noise_model(k: int, sigma2: float = 1.0) -> ScenarioModel:
    return ScenarioModel(
        k=k,
        sigma2=sigma2,
        alpha=np.zeros(k),
        waveform=Waveform.step(),
        onsets=np.zeros(k, dtype=int),
    )


def mean_shift_model(
    k: int,
    mu: float,
    sigma2: float = 1.0,
    onsets: np.ndarray | None = None,
) -> ScenarioModel:
    """Every sensor steps from N(0, sigma2) to N(mu, sigma2) at its onset."""
    onsets = np.zeros(k, dtype=int) if onsets is None else np.asarray(onsets, dtype=int)
    return ScenarioModel(
        k=k,
        sigma2=sigma2,
        alpha=np.full(k, float(mu)),
        waveform=Waveform.step(),
        onsets=onsets,
    )


def uniform_onsets(
    rng: np.random.Generator, k: int, tau_max: int, pin_min_to_zero: bool = True
) -> np.ndarray:
    """Per-sensor onsets drawn uniformly from {0..tau_max}.

    With ``pin_min_to_zero`` the earliest onset is shifted to 0, so the
    change point is exactly 0 while relative delays keep the same law and
    stay within the bound.
    """
    onsets = rng.integers(0, tau_max + 1, size=k)
    if pin_min_to_zero:
        onsets = onsets - onsets.min()
    return onsets


def random_delay_factory(
    k: int, mu: float, sigma2: float, tau_max: int
) -> Callable[[np.random.Generator], ScenarioModel]:
    """Mean-shift scenario with fresh uniform onsets per trial (change at 0)."""

    def factory(rng: np.random.Generator) -> ScenarioModel:
        onsets = uniform_onsets(rng, k, tau_max)
        assert onsets.max() - onsets.min() <= tau_max
        return mean_shift_model(k, mu, sigma2, onsets)

    return factory


def _resolve_model(source: ModelSource, rng: np.random.Generator) -> ScenarioModel:
    return source(rng) if callable(source) else source


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def fast_increments(
    streams: np.ndarray, w: int, t0: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized squared projections along one stream (no delay estimation).

    Equivalent to :func:`sscusum.detect.subspace_increments` with
    ``sync=False``; intended for long Monte Carlo validation runs.
    """
    increments = window_increments(np.asarray(streams, dtype=float), w)
    return np.arange(t0, t0 + increments.size), increments


def _scan(
    slab: np.ndarray,
    tick: int,
    t_last: int,
    S: np.ndarray,
    increments: Callable,
    lookahead: int,
    b_arr: np.ndarray,
    crossed: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Advance a detector over every emittable tick of ``slab``.

    ``slab`` is (T, k, cols) holding ticks tick..tick+cols-1 for the T live
    trials; column f is scored once the ``lookahead`` columns after it are
    in the slab. ``increments(slab, emit)`` gives the drift-corrected
    increments of the first ``emit`` columns, column last; the CUSUM then
    runs column by column. Crossings go into ``crossed`` (rows indexed by
    ``live``) as reported times, the crossing tick plus the lookahead.
    Returns the updated state and the first unprocessed tick.
    """
    emit = max(0, min(slab.shape[2] - lookahead, t_last - tick + 1))
    if emit == 0:
        return S, tick
    inc = increments(slab, emit)
    for f in range(emit):
        S = np.maximum(S, 0.0) + inc[..., f]
        hits = (S if S.ndim == 1 else S.max(axis=1))[:, None] >= b_arr
        if hits.any():
            rows, cols = np.nonzero(hits & (crossed[live] < 0))
            crossed[live[rows], cols] = tick + f + lookahead
    return S, tick + emit


def _subspace_increments(w: int, d: float) -> Callable:
    """Subspace CUSUM increments (T, emit) for every live trial (state: (T,)):
    one kernel call scores the slab's windows for all of them."""

    def increments(slab, emit):
        return window_increments(slab[:, :, : emit + w], w) - d

    return increments


def _race_increments(mu: float, sigma2: float) -> Callable:
    """One-shot race increments (T, k, emit) for every live trial (state: (T, k)).

    The arithmetic is that of :func:`sscusum.detect.one_shot_detector`, so
    crossings agree with it bit for bit.
    """
    if mu == 0:
        raise DegenerateInputError("mu = 0 gives a degenerate likelihood ratio")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    gain = mu / sigma2
    half = mu / 2.0

    def increments(slab, emit):
        return gain * (slab[:, :, :emit] - half)

    return increments


def fast_crossings_on_array(
    streams: np.ndarray, w: int, d: float, b_grid: Sequence[float], t0: int = 1
) -> np.ndarray:
    """Reported crossing times per threshold for one explicit episode (-1 if none).

    Same statistic as the reference pipeline with ``sync=False``; used to
    cross-check the lockstep scan against it.
    """
    data = np.asarray(streams, dtype=float)[None, :, :]
    b_arr = np.asarray(b_grid, dtype=float)
    crossed = np.full((1, b_arr.size), -1, dtype=np.int64)
    t_last = t0 + data.shape[2] - 1 - w
    increments = _subspace_increments(w, d)
    _scan(data, t0, t_last, np.zeros(1), increments, w, b_arr, crossed, np.arange(1))
    return crossed[0]


def _lockstep_crossings(
    spec,
    model_source: ModelSource,
    b_grid: Sequence[float],
    trials: int,
    horizon: int,
    seed,
) -> tuple[np.ndarray, list[int]]:
    """Lockstep Monte Carlo for the one-shot race and the subspace detector
    without delay estimation.

    Trials advance together one (k, 256) noise block at a time; each trial
    draws its blocks from its own generator, with its own model's signal,
    exactly as :func:`generate_episode` lays them out, and drops out once it
    crosses the largest threshold, so no trial draws noise past that
    crossing. Each slab's increments for all live trials come at once, the
    subspace statistic's from one :func:`window_increments` call; the CUSUM
    then runs column by column: the race with no lookahead, the subspace
    statistic with lookahead w, keeping the last w columns for the next
    slab. Crossings equal those of ``spec.run`` on each trial's episode.
    """
    rngs, models = [], []
    for child in _as_seedseq(seed).spawn(trials):
        rng = np.random.default_rng(child)
        models.append(_resolve_model(model_source, rng))
        rngs.append(rng)
    k = models[0].k
    if any(m.k != k for m in models):
        raise ValueError("the lockstep engine needs a common k across trials")
    if isinstance(spec, OneShotSpec):
        lookahead, increments = 0, _race_increments(spec.mu, spec.sigma2)
        S = np.zeros((trials, k))
    else:
        if k < 2:
            raise ValueError("need at least 2 sensors")
        if spec.w < 1:
            raise ValueError("w must be >= 1")
        lookahead, increments = spec.w, _subspace_increments(spec.w, spec.d)
        S = np.zeros(trials)
    t_last = horizon - lookahead
    if t_last < 1:
        raise ValueError("horizon too short for one lookahead window")
    b_arr = np.asarray(b_grid, dtype=float)
    crossed = np.full((trials, b_arr.size), -1, dtype=np.int64)

    live = np.arange(trials)
    carry = np.empty((trials, k, 0))
    tick = 1
    drawn = 0  # ticks generated so far
    while live.size and tick <= t_last:
        fresh = np.stack([_draw_blocks(models[i], rngs[i], drawn, 1) for i in live])
        slab = np.concatenate([carry, fresh], axis=2)
        drawn += _FAST_CHUNK
        S, tick = _scan(slab, tick, t_last, S, increments, lookahead, b_arr, crossed, live)
        carry = slab[:, :, max(0, slab.shape[2] - lookahead) :]
        keep = crossed[live, -1] < 0
        if not keep.all():
            live, S, carry = live[keep], S[keep], carry[keep]
    return crossed, [m.change_point for m in models]


def _trial_crossings(
    spec,
    model_source: ModelSource,
    b_grid: Sequence[float],
    trials: int,
    horizon: int,
    seed,
) -> tuple[np.ndarray, list[int]]:
    """Reported stop times per (trial, threshold); -1 marks no alarm.

    The one-shot race and the subspace detector without delay estimation
    run in the lockstep engine. Any other detector runs once per trial at
    the largest threshold over the whole episode, and smaller crossings are
    read from the stored statistic path.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    b_grid = list(b_grid)
    if not b_grid:
        raise ValueError("threshold grid is empty")
    if any(b2 <= b1 for b1, b2 in zip(b_grid, b_grid[1:])):
        raise ValueError("threshold grid must be strictly increasing")
    if isinstance(spec, OneShotSpec) or (isinstance(spec, SubspaceSpec) and not spec.sync):
        return _lockstep_crossings(spec, model_source, b_grid, trials, horizon, seed)
    b_max = b_grid[-1]
    reported = np.full((trials, len(b_grid)), -1, dtype=np.int64)
    change_points: list[int] = []
    children = _as_seedseq(seed).spawn(trials)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        model = _resolve_model(model_source, rng)
        change_points.append(model.change_point)
        streams = generate_episode(model, horizon, rng)
        run = spec.run(streams, b_max)
        for j, b in enumerate(b_grid):
            _, rep = run.crossing_for(b)
            if rep is not None:
                reported[i, j] = rep
    return reported, change_points


def estimate_arl(
    spec,
    model_source: ModelSource,
    b: float,
    trials: int,
    seed,
    horizon: int | None = None,
    target_arl: float | None = None,
) -> RunLengthEstimate:
    """Mean reported stop time under a no-change model.

    Trials that never alarm are counted at the horizon (a conservative,
    downward-biased convention) and reported via ``censored_frac``; above 50%
    censoring the estimate is flagged unreliable. The horizon defaults to 20
    times ``target_arl`` when given.
    """
    if horizon is None:
        if target_arl is None:
            raise ValueError("supply horizon or target_arl")
        horizon = int(20 * target_arl)
    reported, _ = _trial_crossings(spec, model_source, [b], trials, horizon, seed)
    col = reported[:, 0].astype(float)
    censored = col < 0
    col[censored] = horizon
    return RunLengthEstimate(
        detector=spec.name,
        b=float(b),
        value=float(col.mean()),
        se=float(col.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf,
        n_trials=trials,
        censored_frac=float(censored.mean()),
        unreliable=bool(censored.mean() > 0.5),
    )


def trial_records(
    detector_id: str,
    reported: np.ndarray,
    change_points: Sequence[int | None],
) -> list[TrialResult]:
    """Per-trial outcomes from reported stop times (-1 meaning no alarm)."""
    out = []
    for rep, tau in zip(reported, change_points):
        stopped = None if rep < 0 else int(rep)
        false_alarm = stopped is not None and (tau is None or stopped <= tau)
        out.append(TrialResult(detector_id, stopped, tau, false_alarm))
    return out


def _edd_from_records(records: Sequence[TrialResult]) -> tuple[float, float, float, float, int]:
    """(mean delay, se, censored_frac, false_alarm_frac, n_used)."""
    n = len(records)
    censored = sum(1 for r in records if r.stopped_at is None)
    false = sum(1 for r in records if r.false_alarm)
    delays = np.array(
        [r.stopped_at - r.change_point for r in records if r.stopped_at is not None and not r.false_alarm],
        dtype=float,
    )
    n_used = delays.size
    if n_used == 0:
        return math.nan, math.nan, censored / n, false / n, 0
    se = float(delays.std(ddof=1) / math.sqrt(n_used)) if n_used > 1 else math.inf
    return float(delays.mean()), se, censored / n, false / n, int(n_used)


def estimate_edd(
    spec,
    model_source: ModelSource,
    b: float,
    trials: int,
    seed,
    horizon: int,
) -> RunLengthEstimate:
    """Mean of (reported stop - change point) over trials alarming after it.

    The detector starts at the change (conditional-delay proxy), so models
    here should place the change point at 0. Trials alarming at or before
    the change point are excluded and surfaced as ``false_alarm_frac``;
    trials that never alarm are excluded and surfaced as ``censored_frac``.
    For the subspace detector the reported time already includes the w
    lookahead.
    """
    reported, taus = _trial_crossings(spec, model_source, [b], trials, horizon, seed)
    records = trial_records(spec.name, reported[:, 0], taus)
    mean, se, cens, fa, n_used = _edd_from_records(records)
    return RunLengthEstimate(
        detector=spec.name,
        b=float(b),
        value=mean,
        se=se,
        n_trials=n_used,
        censored_frac=cens,
        unreliable=bool(cens > 0.5),
        false_alarm_frac=fa,
    )


def operating_curve(
    spec,
    noise_model: ModelSource,
    change_model: ModelSource,
    b_grid: Sequence[float],
    trials: int,
    seed,
    horizon_arl: int,
    horizon_edd: int,
) -> list[CurvePoint]:
    """One (ARL, EDD) point per threshold, sharing trial paths across the grid.

    ARL trials use ``noise_model``; EDD trials use ``change_model`` (change
    point 0 by convention). Both ARL and EDD are nondecreasing in b because
    each trial's crossings come from one statistic path.
    """
    arl_seed, edd_seed = _as_seedseq(seed).spawn(2)
    rep_arl, _ = _trial_crossings(spec, noise_model, b_grid, trials, horizon_arl, arl_seed)
    rep_edd, taus = _trial_crossings(spec, change_model, b_grid, trials, horizon_edd, edd_seed)
    points = []
    for j, b in enumerate(b_grid):
        col = rep_arl[:, j].astype(float)
        censored = col < 0
        col[censored] = horizon_arl
        edd, edd_se, edd_cens, _, _ = _edd_from_records(trial_records(spec.name, rep_edd[:, j], taus))
        points.append(
            CurvePoint(
                detector=spec.name,
                b=float(b),
                arl=float(col.mean()),
                arl_se=float(col.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf,
                edd=edd,
                edd_se=edd_se,
                censored_frac=float(max(censored.mean(), edd_cens)),
            )
        )
    return points


@dataclass(frozen=True)
class DriftCalibration:
    """Monte Carlo drift interval: observed pre- and post-change increment means."""

    pre_mean: float
    pre_se: float
    post_mean: float
    post_se: float

    @property
    def midpoint(self) -> float:
        return (self.pre_mean + self.post_mean) / 2.0

    @property
    def valid(self) -> bool:
        return self.post_mean > self.pre_mean


def empirical_drift(
    noise_model: ScenarioModel,
    change_model: ScenarioModel,
    *,
    w: int,
    tau_max: int = 0,
    sync: bool = False,
    ticks: int = 20_000,
    seed=0,
    **pipeline_kwargs,
) -> DriftCalibration:
    """Estimate both sides of the admissible drift interval by simulation.

    Runs the increment pipeline over one long pre-change episode and one
    long post-change episode (change at 0, so the post regime is stationary
    whenever the signal is). Useful when the closed-form interval is empty.
    Without delay estimation the increments come from the vectorized scan
    :func:`fast_increments`.
    """
    horizon = ticks + w + 2 * tau_max + 1
    s1, s2 = _as_seedseq(seed).spawn(2)
    out = []
    for model, child in ((noise_model, s1), (change_model, s2)):
        streams = generate_episode(model, horizon, child)
        if not sync:
            _, inc = fast_increments(streams, w)
        else:
            _, inc = subspace_increments(
                streams, w=w, tau_max=tau_max, sync=sync, **pipeline_kwargs
            )
        out.append((float(inc.mean()), float(inc.std(ddof=1) / math.sqrt(inc.size))))
    (pre, pre_se), (post, post_se) = out
    return DriftCalibration(pre_mean=pre, pre_se=pre_se, post_mean=post, post_se=post_se)


def write_curve_csv(path, points: Sequence[CurvePoint]) -> None:
    """Emit ``detector,b,arl,arl_se,edd,edd_se,censored_frac`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detector", "b", "arl", "arl_se", "edd", "edd_se", "censored_frac"])
        for p in points:
            writer.writerow(
                [
                    p.detector,
                    repr(float(p.b)),
                    repr(float(p.arl)),
                    repr(float(p.arl_se)),
                    repr(float(p.edd)),
                    repr(float(p.edd_se)),
                    repr(float(p.censored_frac)),
                ]
            )
