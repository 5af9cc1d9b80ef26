"""Scenario generation and Monte Carlo estimation of operating characteristics.

Episodes are drawn from a :class:`~sscusum.core.ScenarioModel`; detectors are
described by small spec objects; ARL (mean time to false alarm under pure
noise) and EDD (mean reported delay after a change) are estimated over
independent trials. Each trial gets its own child seed, so results do not
depend on execution order, and a whole experiment is a pure function of
(configuration, seed).

Noise has one layout: a trial's generator yields consecutive (k, 256)
blocks, so any prefix of an episode is the episode of that shorter horizon.
The signal is evaluated once per tick, not once per (sensor, tick): every
sensor's delayed copy is a window of one waveform call. One Monte Carlo
engine advances all trials in lockstep over those blocks, drawing a trial's
noise only until it crosses the largest threshold; the live trials' blocks
are drawn as tasks on the direction kernel's thread pool, each trial's
generator in one task, so the samples it scores are exactly the ones
:func:`generate_episode` returns for the same seed, for any CPU count. A run
holds one reusable (trials, k, carry + step) buffer, whatever its horizon:
each step's blocks are drawn into it after the columns carried over, and
the race scores them in place. The drift calibration,
:func:`empirical_drift`, streams its two episodes through the same engine
and keeps only their increments. The subspace detector, with delay
estimation or without, scores the live trials through the segmented
pipeline's own segment scorer, so batch runs and the Monte Carlo share one
scorer. The one-shot race takes its increments from :mod:`sscusum.detect`
too, and both detectors run that module's batch CUSUM scan, so the Monte
Carlo holds no copy of a detector's arithmetic or checks.

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
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Pass, ScenarioModel, Waveform, _check_counts
from .detect import SEGMENT, DriftBounds, _check_rule, _race_increments, _scan, _segment_increments
from .linalg import _run_tasks

__all__ = [
    "RunLengthEstimate",
    "SubspaceSpec",
    "OneShotSpec",
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
class SubspaceSpec(Pass):
    """Asynchronous subspace detector configuration for simulation runs: a
    :class:`~sscusum.core.Pass`, with sync on by default, and the drift ``d``.

    The Monte Carlo scores it with the segmented pipeline's own segment
    scorer (:mod:`sscusum.detect`), all live trials at once, so its
    crossings equal those of :func:`~sscusum.detect.async_pipeline` with
    these settings on each trial's episode, with delay estimation or
    without.
    """

    sync: bool = True
    _: KW_ONLY
    d: float

    name = "subspace"


@dataclass(frozen=True)
class OneShotSpec:
    """Per-sensor scalar CUSUM race with the mean shift known exactly, as
    :func:`~sscusum.detect.one_shot_detector` runs it."""

    mu: float
    sigma2: float = 1.0

    name = "one_shot"


_FAST_CHUNK = 256  # fixed: every trial's noise is drawn in (k, _FAST_CHUNK) blocks
# (k, 256) blocks one pool task draws, in whole trials. At k=125 a trial's
# block takes about 0.6 ms; on 2 vCPUs, spans of 1 to 4 trials drew 40
# trials equally fast (12-13 ms), and a span of 2 still splits three live
# trials over two tasks. A trial drawing more blocks at a time, as the drift
# calibration's two episodes do, is a task of its own.
_DRAW_TASK = 2


def _draw_blocks(
    model: ScenarioModel, rng: np.random.Generator, drawn: int, blocks: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Ticks drawn+1 .. drawn+blocks*_FAST_CHUNK of one trial, as a (k, n)
    array, written into ``out`` when one is given.

    The signal is evaluated once per tick: sensor i reads the n waveform
    values from tick ``drawn + 1 - onsets[i]`` on, and the waveform runs
    once on the union of those windows, laid end to end in order of their
    first tick. Overlapping windows share their ticks, so a block costs
    n plus the onsets' spread in waveform ticks, and never more than k n,
    however far apart the onsets are. The noise comes from ``rng`` as
    ``blocks`` consecutive (k, _FAST_CHUNK) blocks, so drawing the same
    ticks in more calls gives the same samples.
    """
    n = blocks * _FAST_CHUNK
    order = np.argsort(-model.onsets)  # the windows by first tick
    first = drawn + 1 - model.onsets[order]
    step = np.minimum(np.diff(first), n)  # ticks a window adds before the next one starts
    start = np.zeros(model.k, dtype=np.intp)  # where each window starts in ``ticks``
    np.cumsum(step, out=start[1:])
    ticks = np.arange(start[-1] + n) + np.repeat(first - start, np.append(step, n))
    rows = np.empty_like(start)
    rows[order] = start
    # clip: the rows are in range, and take buffers ``out`` under "raise"
    out = np.take(sliding_window_view(model.waveform(ticks), n), rows, axis=0, out=out, mode="clip")
    out *= model.alpha[:, None]
    scale = math.sqrt(model.sigma2)
    for block in range(blocks):
        noise = rng.standard_normal((model.k, _FAST_CHUNK))
        noise *= scale
        out[:, block * _FAST_CHUNK : (block + 1) * _FAST_CHUNK] += noise
    return out


def _draw_live(
    models: list[ScenarioModel], rngs: list[np.random.Generator], live: np.ndarray, drawn: int,
    *, out: np.ndarray,
) -> None:
    """Write the next blocks of every live trial, ticks drawn+1 onward, into
    the (live, k, blocks * _FAST_CHUNK) ``out``, which may be a strided view
    of a larger buffer; row j is trial ``live[j]``.

    The trials are drawn as tasks on the direction kernel's pool
    (:func:`sscusum.linalg._run_tasks`), each task filling its own rows.
    A trial's generator is used by one task only, so the samples do not
    depend on the worker count.
    """
    blocks = out.shape[2] // _FAST_CHUNK
    trials = max(1, _DRAW_TASK // blocks)  # a task's trials

    def draw(span):
        for j in span:
            _draw_blocks(models[live[j]], rngs[live[j]], drawn, blocks, out[j])

    _run_tasks(draw, [range(lo, min(lo + trials, live.size))
                      for lo in range(0, live.size, trials)])


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
    _check_counts(1, horizon=horizon)
    rng = np.random.default_rng(seed)
    return _draw_blocks(model, rng, 0, -(-horizon // _FAST_CHUNK))[:, :horizon]


def pure_noise_model(k: int, sigma2: float = 1.0) -> ScenarioModel:
    """Every sensor N(0, sigma2) throughout: the mean shift of size 0."""
    return mean_shift_model(k, 0.0, sigma2)


def mean_shift_model(
    k: int,
    mu: float,
    sigma2: float = 1.0,
    onsets: np.ndarray | None = None,
) -> ScenarioModel:
    """Every sensor steps from N(0, sigma2) to N(mu, sigma2) at its onset
    (default: all at tick 0)."""
    _check_counts(1, k=k)
    onsets = np.zeros(k, dtype=int) if onsets is None else onsets
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
        ValueError: ``k`` is not an integer >= 1, or ``tau_max`` one >= 0.
    """
    _check_counts(1, k=k)
    _check_counts(0, tau_max=tau_max)
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


def _lockstep(
    spec, models: list[ScenarioModel], rngs: list[np.random.Generator], horizon: int,
    *, stops: bool = True,
):
    """The lockstep engine: yield ``(live, start, increments)`` for each
    scored segment, and take back through ``send`` which of the ``live``
    rows still run (None: all).

    ``live`` holds trial indices; ``increments``, (live, ticks) or the
    race's (live, k, ticks), are what the CUSUM adds from tick ``start`` on:
    squared projections minus the spec's drift, or log-likelihood ratios.
    Each trial's samples are drawn from its own generator and model exactly
    as :func:`generate_episode` lays them out (:func:`_draw_live`). Once they
    hold a whole number of sync segments and the columns those need (or the
    episode's rest), the subspace detector scores them for all live trials
    with the pipeline's segment scorer, so its segments start where the
    pipeline's do on the whole episode; the race scores every drawn column.

    A run holds one (trials, k, carry + step) buffer, whatever the horizon.
    A step draws into the columns after the carried ones; after its
    segments, the carried columns move to the front of each row still
    running, and the rows of trials that left close up; once none runs, no
    further segment is scored. A step is one (k, 256) block, so no trial
    draws past the block where it left. Where no trial can leave before the
    horizon (``stops`` False), a step is :data:`sscusum.detect.SEGMENT`
    trial-ticks, the most one scorer call takes, and the scorer starts at
    that full chunk. The spec's settings were checked when it was built, and
    a segment error in any live trial aborts the run.
    """
    race = isinstance(spec, OneShotSpec)
    scored = range(1, horizon + 1) if race else spec.scored(horizon)  # the race scores every tick
    if not scored:
        raise ValueError("horizon too short for one lookahead window")
    # the race overwrites its samples with their increments, which is right
    # only because it carries none: nothing reads a sample after its step
    carry = 0 if race else spec.carry
    every = 1 if race or not spec.sync else spec.cadence  # the ticks of a whole segment
    blocks = 1 if stops else max(1, SEGMENT // (_FAST_CHUNK * len(models)))
    buf = np.empty((len(models), models[0].k, carry + blocks * _FAST_CHUNK))
    live = np.arange(len(models))
    width = 0  # buf[:live.size, :, :width] holds ticks tick - headroom .. drawn
    tick, drawn = scored.start, 0
    while live.size and tick < scored.stop:
        fresh = min(blocks, -(-(horizon - drawn) // _FAST_CHUNK)) * _FAST_CHUNK
        _draw_live(models, rngs, live, drawn, out=buf[: live.size, :, width : width + fresh])
        drawn, width = drawn + fresh, width + fresh
        reach = scored.stop - (horizon - drawn)  # past the last tick the samples drawn can score
        emit = min(reach, scored.stop) - tick
        if reach < scored.stop:
            emit -= emit % every  # whole segments
        if emit <= 0:
            continue
        slab = buf[: live.size]
        if race:
            cols = slab[:, :, :emit]
            segments = [(tick, _race_increments(cols, spec.mu, spec.sigma2, out=cols))]
        else:
            segments = (
                (start, inc - spec.d) for start, inc, _ in _segment_increments(
                    slab[:, :, : emit + spec.margin], spec, t0=tick - spec.headroom, ramp=stops
                )
            )
        running = None
        for start, inc in segments:
            running = yield live, start, inc
            if running is not None and not running.any():
                break  # every live trial is done: score no further segment
        rows = np.arange(live.size) if running is None else np.flatnonzero(running)
        tick, width = tick + emit, width - emit
        if width:
            for row, old in enumerate(rows):  # one row at a time: no copy of the whole slab
                buf[row, :, :width] = buf[old, :, emit : emit + width]
        live = live[rows]


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

    Each trial's generator comes from its own child seed, and draws its
    model first when ``model_source`` is a factory. The lockstep engine,
    :func:`_lockstep`, scores the trials' segments; each segment's
    statistic path comes from the detectors' own batch CUSUM scan,
    :func:`sscusum.detect._scan`, every threshold's first crossing is read
    off it in one step and reported at the crossing tick plus the lookahead
    (w, or 0 for the race), and a trial leaves once it crosses the largest
    threshold, so no trial draws noise past that crossing's block.
    Crossings equal those of the single-episode detector on each trial's
    episode. The spec's settings are checked before any noise is drawn.
    """
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
        S, lookahead = np.zeros((trials, k)), 0
    else:
        _check_rule(spec.d, math.inf)
        S, lookahead = np.zeros(trials), spec.lookahead
    crossed = np.full((trials, b_arr.size), -1, dtype=np.int64)
    segments = _lockstep(spec, models, rngs, horizon)
    running = None
    while True:
        try:
            live, start, inc = segments.send(running)
        except StopIteration:
            break
        state = S[live]
        hits = _scan(state, inc)[:, :, None] >= b_arr  # (live trials, ticks, thresholds)
        S[live] = state
        first = np.where(hits.any(axis=1), start + hits.argmax(axis=1) + lookahead, -1)
        crossed[live] = np.where(crossed[live] < 0, first, crossed[live])
        running = crossed[live, -1] < 0
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
    _check_counts(1, trials=trials, horizon_arl=horizon_arl, horizon_edd=horizon_edd)
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
) -> DriftBounds:
    """Estimate both sides of the admissible drift interval by simulation.

    Scores one long pre-change episode and one long post-change episode
    (change at 0, so the post regime is stationary whenever the signal is)
    with the increment pipeline. Useful when the closed-form interval is
    empty. Returns the measured interval: ``lower`` and ``upper`` are the
    pre- and post-change increment means, with their standard errors.

    The two episodes are the two trials of one run of the lockstep engine,
    with drift 0 and no threshold, drawn from the generators of the seed's
    two children, so they are the episodes :func:`generate_episode` gives
    for those children, and the means are those of
    :func:`~sscusum.detect.subspace_increments` on them. No episode is held:
    the run keeps the engine's one buffer and the two series of increments,
    16 bytes a tick. ``pipeline_kwargs`` are the :class:`SubspaceSpec` pass
    settings ``delta``, ``n_max`` and ``sync_every``. The models' k,
    ``ticks`` and the pass settings are checked before any noise is drawn.
    """
    _check_counts(1, ticks=ticks)
    unknown = sorted(pipeline_kwargs.keys() - {"delta", "n_max", "sync_every"})
    if unknown:
        raise ValueError(f"{', '.join(unknown)} is not a pass setting of the drift calibration")
    spec = SubspaceSpec(w, tau_max, sync, **pipeline_kwargs, d=0.0)
    if noise_model.k != change_model.k:
        raise ValueError(
            f"the noise and change models need one k, got k={noise_model.k} and "
            f"k={change_model.k}"
        )
    horizon = spec.episode_ticks(ticks)
    scored = spec.scored(horizon)
    rngs = [np.random.default_rng(child) for child in _as_seedseq(seed).spawn(2)]
    increments = np.empty((2, len(scored)))
    for live, start, inc in _lockstep(spec, [noise_model, change_model], rngs, horizon,
                                      stops=False):
        increments[live, start - scored.start : start - scored.start + inc.shape[1]] = inc
    (pre, pre_se), (post, post_se) = map(_mean_se, increments)
    return DriftBounds(lower=pre, upper=post, lower_se=pre_se, upper_se=post_se)


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
