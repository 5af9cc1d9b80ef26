"""Scenario generation and Monte Carlo estimation of operating characteristics.

Episodes are drawn from a :class:`~sscusum.core.ScenarioModel`; detectors are
described by small spec objects; ARL (mean time to false alarm under pure
noise) and EDD (mean reported delay after a change) are estimated over
independent trials. Each trial gets its own child seed, so results do not
depend on execution order, and a whole experiment is a pure function of
(configuration, seed).

Noise has one layout: a trial's generator yields consecutive (k, 256)
blocks, so any prefix of an episode is the episode of that shorter horizon.
One Monte Carlo engine advances all trials in lockstep over those blocks,
drawing a trial's noise only until it crosses the largest threshold; the
samples it scores are exactly the ones :func:`generate_episode` returns for
the same seed. The subspace detector, with delay estimation or without,
scores the live trials' slabs through the segmented pipeline's own segment
scorer, so batch runs and the Monte Carlo share one scorer. The one-shot
race takes its increments from :mod:`sscusum.detect` too, and both
detectors run that module's array CUSUM, so the Monte Carlo holds no copy
of a detector's arithmetic or checks.

A single run per trial serves an entire threshold grid: the statistic path
does not depend on the threshold, so crossings for every b are read off the
trajectory of the run against the largest one. :func:`operating_curve`
turns each threshold's column of crossings into one ARL and one EDD
:class:`RunLengthEstimate`, and keeps both: their censored and false-alarm
fractions reach the curve CSV side by side.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ScenarioModel, Waveform, _check_integers, _check_pass, _scored_ticks
from .detect import _check_rule, _race_increments, _scan, _segment_increments, subspace_increments

__all__ = [
    "RunLengthEstimate",
    "SubspaceSpec",
    "OneShotSpec",
    "DriftCalibration",
    "generate_episode",
    "pure_noise_model",
    "mean_shift_model",
    "uniform_onsets",
    "random_delay_factory",
    "operating_curve",
    "empirical_drift",
    "write_curve_csv",
]

ModelSource = Callable[[np.random.Generator], ScenarioModel] | ScenarioModel


@dataclass(frozen=True)
class RunLengthEstimate:
    """One threshold's Monte Carlo run length, ARL or EDD.

    ``value`` and ``se`` are the mean and its standard error over the
    ``n_trials`` trials used: NaN for none, and se inf for one. An ARL uses
    every trial, one that never alarms counted at the horizon. An EDD uses
    the trials alarming after their change point; ``false_alarm_frac`` is the
    share of all trials alarming at or before it. ``censored_frac`` is the
    share of all trials that never alarm.
    """

    detector: str
    b: float
    value: float
    se: float
    n_trials: int
    censored_frac: float
    false_alarm_frac: float = 0.0

    @property
    def unreliable(self) -> bool:
        """More than half the trials never alarm."""
        return self.censored_frac > 0.5


@dataclass(frozen=True)
class SubspaceSpec:
    """Asynchronous subspace detector configuration for simulation runs.

    The Monte Carlo scores it with the segmented pipeline's own segment
    scorer (:mod:`sscusum.detect`), all live trials at once, so its
    crossings equal those of :func:`~sscusum.detect.async_pipeline` with
    these settings on each trial's episode, with delay estimation or
    without.
    """

    w: int
    tau_max: int
    d: float
    delta: int = 1
    n_max: int = 10
    sync: bool = True
    sync_every: int | None = None

    name = "subspace"


@dataclass(frozen=True)
class OneShotSpec:
    """Per-sensor scalar CUSUM race with the mean shift known exactly, as
    :func:`~sscusum.detect.one_shot_detector` runs it."""

    mu: float
    sigma2: float = 1.0

    name = "one_shot"


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
    _check_integers(horizon=horizon)
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


def uniform_onsets(rng: np.random.Generator, k: int, tau_max: int) -> np.ndarray:
    """Per-sensor onsets drawn uniformly from {0..tau_max}, then shifted so
    the earliest is 0: the change point is exactly 0 while relative delays
    keep the same law and stay within the bound.

    Raises:
        ValueError: ``tau_max`` is not an integer >= 0.
    """
    _check_integers(tau_max=tau_max)
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    onsets = rng.integers(0, tau_max + 1, size=k)
    return onsets - onsets.min()


def random_delay_factory(
    k: int, mu: float, sigma2: float, tau_max: int
) -> Callable[[np.random.Generator], ScenarioModel]:
    """Mean-shift scenario with fresh uniform onsets per trial (change at 0)."""

    def factory(rng: np.random.Generator) -> ScenarioModel:
        return mean_shift_model(k, mu, sigma2, uniform_onsets(rng, k, tau_max))

    return factory


def _resolve_model(source: ModelSource, rng: np.random.Generator) -> ScenarioModel:
    return source(rng) if callable(source) else source


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _trial_crossings(
    spec,
    model_source: ModelSource,
    b_grid: Sequence[float],
    trials: int,
    horizon: int,
    seed,
) -> tuple[np.ndarray, list[int]]:
    """Reported stop times per (trial, threshold) and the trials' change
    points; -1 marks no alarm.

    The lockstep engine. Trials advance together one (k, 256) noise block at
    a time; each trial draws its blocks from its own generator, with its own
    model's signal, exactly as :func:`generate_episode` lays them out, and
    drops out once it crosses the largest threshold, so no trial draws noise
    past that crossing. The ticks a trial can score, and those its slab can
    score so far, are :func:`sscusum.core._scored_ticks` of the horizon and
    of the ticks drawn; the slab of live trials starts with the alignment
    headroom before the first unscored tick. Once it holds a whole number of
    sync segments and the columns their scoring needs (or the episode's
    remaining ticks), the subspace detector scores those segments for all
    live trials through the pipeline's segment scorer,
    :func:`sscusum.detect._segment_increments`, a chunk at a time, and stops
    once every live trial has crossed; so its segments start at the ticks
    where the pipeline's start on the whole episode. The race scores every
    column at once with no lookahead. Each segment's statistic path comes
    from the detectors' own array CUSUM, :func:`sscusum.detect._scan`; every
    threshold's first crossing is read off it in one step and reported at
    the crossing tick plus the lookahead (w, or 0 for the race). Crossings
    equal those of the single-episode detector on each trial's episode. A
    segment error in any live trial of a slab aborts the run. The spec's
    settings are checked before any noise is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    b_arr = np.asarray(b_grid, dtype=float)
    if b_arr.size == 0:
        raise ValueError("threshold grid is empty")
    if np.isnan(b_arr).any() or not (b_arr[1:] > b_arr[:-1]).all():
        raise ValueError("threshold grid must be strictly increasing, with no nan")
    rngs, models = [], []
    for child in _as_seedseq(seed).spawn(trials):
        rng = np.random.default_rng(child)
        models.append(_resolve_model(model_source, rng))
        rngs.append(rng)
    k = models[0].k
    if any(m.k != k for m in models):
        raise ValueError("the lockstep engine needs a common k across trials")
    if isinstance(spec, OneShotSpec):
        rule, every, S = dict(w=0, tau_max=0, sync=False), 1, np.zeros((trials, k))

        def increments(slab, tick, emit):
            return [(tick, _race_increments(slab[:, :, :emit], spec.mu, spec.sigma2))]
    else:
        _check_rule(spec.d, math.inf)
        rule = dict(w=spec.w, tau_max=spec.tau_max, sync=spec.sync)
        _check_pass(**rule, delta=spec.delta, n_max=spec.n_max, sync_every=spec.sync_every)
        every = (spec.w if spec.sync_every is None else spec.sync_every) if spec.sync else 1
        S = np.zeros(trials)

        def increments(slab, tick, emit):
            segments = _segment_increments(
                slab[:, :, : emit + spent], w=spec.w, tau_max=spec.tau_max, sync=spec.sync,
                delta=spec.delta, n_max=spec.n_max, sync_every=spec.sync_every,
                t0=tick - headroom,
            )
            return ((start, inc - spec.d) for start, inc, _ in segments)

    scored = _scored_ticks(horizon, **rule)
    if not scored:
        raise ValueError("horizon too short for one lookahead window")
    headroom, spent = scored.start - 1, horizon - len(scored)  # spent: headroom and lookahead
    crossed = np.full((trials, b_arr.size), -1, dtype=np.int64)
    live = np.arange(trials)
    slab = np.empty((trials, k, 0))  # ticks tick - headroom .. drawn of the live trials
    tick = scored.start
    drawn = 0  # ticks generated so far
    while live.size and tick < scored.stop:
        fresh = np.stack([_draw_blocks(models[i], rngs[i], drawn, 1) for i in live])
        slab = np.concatenate([slab, fresh], axis=2)
        drawn += _FAST_CHUNK
        reach = _scored_ticks(drawn, **rule).stop  # past the last tick the slab can score
        emit = min(reach, scored.stop) - tick
        if reach < scored.stop:
            emit -= emit % every  # whole segments
        if emit <= 0:
            continue
        for start, inc in increments(slab, tick, emit):
            hits = _scan(S, inc)[:, :, None] >= b_arr  # (live trials, ticks, thresholds)
            first = np.where(hits.any(axis=1), start + hits.argmax(axis=1) + rule["w"], -1)
            crossed[live] = np.where(crossed[live] < 0, first, crossed[live])
            if (crossed[live, -1] >= 0).all():
                break  # every live trial is done: score no further segment
        slab, tick = slab[:, :, emit:], tick + emit
        keep = crossed[live, -1] < 0
        if not keep.all():
            live, S, slab = live[keep], S[keep], slab[keep]
    return crossed, [m.change_point for m in models]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of ``values`` and its standard error: NaN for no values, and
    se inf for one."""
    n = values.size
    if n == 0:
        return math.nan, math.nan
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf


def _arl_estimate(name: str, b: float, reported: np.ndarray, horizon: int) -> RunLengthEstimate:
    """ARL from one threshold's reported stop times (-1: no alarm) under no
    change; a trial that never alarms counts at the horizon."""
    runs = np.where(reported < 0, horizon, reported).astype(float)
    value, se = _mean_se(runs)
    return RunLengthEstimate(name, float(b), value, se, runs.size, float(np.mean(reported < 0)))


def _edd_estimate(
    name: str, b: float, reported: np.ndarray, change_points: Sequence[int]
) -> RunLengthEstimate:
    """EDD from one threshold's reported stop times (-1: no alarm): the mean
    delay over the trials alarming after their change point. Alarms at or
    before it are false alarms; ``n_trials`` counts the trials used."""
    alarmed = reported >= 0
    delays = reported - np.asarray(change_points)
    late = alarmed & (delays > 0)
    delays = delays[late].astype(float)
    value, se = _mean_se(delays)
    return RunLengthEstimate(
        name, float(b), value, se, delays.size, float(np.mean(~alarmed)),
        false_alarm_frac=float(np.mean(alarmed & ~late)),
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
) -> list[tuple[RunLengthEstimate, RunLengthEstimate]]:
    """The (ARL, EDD) estimates of each threshold, sharing trial paths across
    the grid.

    ARL trials use ``noise_model``; a trial that never alarms counts at
    ``horizon_arl``, a conservative, downward-biased convention. EDD trials
    use ``change_model`` and start at the change (a conditional-delay proxy),
    so it should place the change point at 0; for the subspace detector the
    reported stop already includes the w lookahead. Both are nondecreasing
    in b because each trial's crossings come from one statistic path. The
    counts are checked before any noise is drawn.
    """
    _check_integers(trials=trials, horizon_arl=horizon_arl, horizon_edd=horizon_edd)
    arl_seed, edd_seed = _as_seedseq(seed).spawn(2)
    rep_arl, _ = _trial_crossings(spec, noise_model, b_grid, trials, horizon_arl, arl_seed)
    rep_edd, taus = _trial_crossings(spec, change_model, b_grid, trials, horizon_edd, edd_seed)
    return [
        (
            _arl_estimate(spec.name, b, rep_arl[:, j], horizon_arl),
            _edd_estimate(spec.name, b, rep_edd[:, j], taus),
        )
        for j, b in enumerate(b_grid)
    ]


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
    """
    _check_integers(ticks=ticks, w=w, tau_max=tau_max)
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    horizon = ticks + w + 2 * tau_max + 1
    s1, s2 = _as_seedseq(seed).spawn(2)
    out = []
    for model, child in ((noise_model, s1), (change_model, s2)):
        # no episode outlives its call, so the two are never held at once
        inc = subspace_increments(
            generate_episode(model, horizon, child), w=w, tau_max=tau_max, sync=sync,
            **pipeline_kwargs,
        )[1]
        out.append(_mean_se(inc))
    (pre, pre_se), (post, post_se) = out
    return DriftCalibration(pre_mean=pre, pre_se=pre_se, post_mean=post, post_se=post_se)


def write_curve_csv(path, points: Sequence[tuple[RunLengthEstimate, RunLengthEstimate]]) -> None:
    """Emit one row per (ARL, EDD) pair: ``detector,b,arl,arl_se,edd,edd_se,
    arl_censored,edd_censored,false_alarm_frac,n_used``, where the last two
    are the EDD's false-alarm fraction and trials used."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["detector", "b", "arl", "arl_se", "edd", "edd_se", "arl_censored", "edd_censored",
             "false_alarm_frac", "n_used"]
        )
        for arl, edd in points:
            values = (arl.b, arl.value, arl.se, edd.value, edd.se, arl.censored_frac,
                      edd.censored_frac, edd.false_alarm_frac)
            writer.writerow([arl.detector, *(repr(float(v)) for v in values), edd.n_trials])
