"""The three workloads. Each round builds a fresh input from (seed, round),
runs one timed operation on it in this process, and hands the outputs to the
checks in :mod:`checks`.

* ``seismic-detect``: ``sscusum detect`` through ``sscusum.cli.main`` on a
  k=8, 250 Hz record CSV with planted bursts (sync, normalize, calibrated
  drift, report and trajectory files).
* ``stream-detect``: one ``SubspaceCusum`` fed frame by frame from
  ``frames_from_array`` at k=3, with every ``step`` timed.
* ``weak-curve``: ``sscusum curve`` through ``sscusum.cli.main`` at the weak
  asynchronous point of ``configs/curve_weak.cfg`` with fewer trials.

``build`` returns the input and the seconds spent making it with the
program's ``generate_episode``/``write_sensor_csv``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import records
from records import Record


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _call_cli(sscusum, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sscusum.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sscusum {argv[0]} exited with code {code}")
    return out.getvalue()


@dataclass
class Result:
    """What one round hands back: its ticks and whatever the checks need."""

    ticks: int
    data: dict = field(default_factory=dict)


class SeismicDetect:
    name = "seismic-detect"
    K, N, PREFIX = 8, 6000, 1500
    W, TAU_MAX, RATE = 200, 100, 250
    FACTOR, B = 1.5, 1.0  # b is in units of the normalized record (noise variance ~0.01)
    BURSTS, SPACING, LENGTH, RISE, DECAY = 3, 1350, 1000, 100, 300
    faults: tuple[Callable[[], object], ...] = ()

    def __init__(self, sscusum, out_dir: Path, seed: int):
        self.sscusum = sscusum
        self.seed = seed
        self.csv = out_dir / f"seismic-{seed}.csv"
        self.report = out_dir / f"seismic-{seed}-report.csv"
        self.trajectory = out_dir / f"seismic-{seed}-trajectory.csv"
        # bound now, so that screening stays out of a traced run's spans
        self._joint_estimate = sscusum.joint_estimate

    def build(self, r: int) -> tuple[Record, float]:
        for attempt in itertools.count():
            seed = _seed(self.seed, r, 1, attempt)
            start = time.perf_counter()
            record = records.planted_record(
                self.sscusum, k=self.K, n=self.N,
                starts=records.burst_starts(seed, self.PREFIX + 100, self.SPACING, 200, self.BURSTS),
                length=self.LENGTH, rise=self.RISE, decay=self.DECAY,
                tau_max=self.TAU_MAX, seed=seed,
            )
            made = time.perf_counter() - start
            blocks = records.aligned_blocks(
                self._joint_estimate, records.normalize_rows(record.streams), self.W, self.TAU_MAX
            )
            if min(records.smallest_gap(b, self.W) for b in blocks) >= records.TIE_GAP:
                break
        start = time.perf_counter()
        self.write_input(record)
        return record, made + time.perf_counter() - start

    def write_input(self, record: Record) -> None:
        self.sscusum.write_sensor_csv(self.csv, record.streams, t0=1)

    def run(self, record: Record, clock) -> Result:
        clock(_call_cli, self.sscusum, [
            "detect", "--in", str(self.csv),
            "--w", str(self.W), "--tau-max", str(self.TAU_MAX),
            "--sync", "--normalize",
            "--factor", str(self.FACTOR), "--prefix", str(self.PREFIX),
            "--b", str(self.B), "--rate", str(self.RATE),
            "--out", str(self.report), "--trajectory-out", str(self.trajectory),
        ])
        # every tick with alignment headroom is scored, once over the
        # calibration prefix and once over the whole record
        headroom = 2 * self.TAU_MAX + self.W
        return Result(ticks=(self.PREFIX - headroom) + (self.N - headroom))

    def check(self, record: Record, result: Result, sample_seed) -> list[str]:
        report = checks.read_report(self.report)
        ticks, stat = checks.read_trajectory(self.trajectory)
        errors = checks.alarm_errors(
            report["crossed_at"], report["reported_at"], ticks, stat, self.B,
            record.bursts[0], self.W, shift=self.TAU_MAX,
        )
        data = records.normalize_rows(record.streams)
        errors += checks.delay_errors(self.sscusum, data, record.bursts, self.W, self.TAU_MAX)
        sample = np.random.default_rng(sample_seed).choice(ticks[1:], size=24, replace=False)
        errors += checks.increment_errors(
            ticks, stat, report["d"], np.sort(sample),
            lambda t: checks.synced_increment(self.sscusum, data, t, self.W, self.TAU_MAX),
        )
        return errors


class StreamDetect:
    name = "stream-detect"
    K, N, W, TAU_MAX = 3, 4000, 200, 100
    D, B = 1.5, 50.0  # the noise variance is 1, so pre-change increments average 1
    LENGTH, RISE, DECAY = 1000, 100, 300
    # A noise stretch whose one full window has top eigenvalues 206.6875 and
    # 206.6907 (relative gap 1.6e-5). Power iteration would need about 730,000
    # steps there, so SubspaceCusum.step raises PowerIterationError after its
    # 200,000-step budget. It does not depend on --seed and fails every time.
    TIE_SEED, TIE_AT = 1631191312, 1388

    def __init__(self, sscusum, out_dir: Path, seed: int):
        self.sscusum = sscusum
        self.seed = seed
        child = np.random.SeedSequence([self.TIE_SEED, self.K, self.N]).spawn(1)[0]
        noise = sscusum.generate_episode(sscusum.pure_noise_model(self.K), self.N, child)
        self.tie = noise[:, self.TIE_AT : self.TIE_AT + self.W + 1]
        self.faults = (self.near_tie,)

    def build(self, r: int) -> tuple[Record, float]:
        for attempt in itertools.count():
            seed = _seed(self.seed, r, 2, attempt)
            start = time.perf_counter()
            record = records.planted_record(
                self.sscusum, k=self.K, n=self.N, starts=records.burst_starts(seed, 1500, 0, 1000, 1),
                length=self.LENGTH, rise=self.RISE, decay=self.DECAY,
                tau_max=self.TAU_MAX, seed=seed,
            )
            made = time.perf_counter() - start
            if records.smallest_gap(record.streams[:, 1:], self.W) >= records.TIE_GAP:
                return record, made

    def _stream(self, streams: np.ndarray, clock=time.perf_counter_ns):
        detector = self.sscusum.SubspaceCusum(w=self.W, d=self.D, b=self.B)
        latencies, ticks, stat = [], [], []
        for frame in self.sscusum.frames_from_array(streams, t0=1):
            start = clock()
            emitted = detector.step(frame)
            elapsed = clock() - start
            if emitted is not None:
                latencies.append(elapsed)
                ticks.append(emitted[0])
                stat.append(emitted[1])
        return detector, latencies, np.asarray(ticks), np.asarray(stat)

    def run(self, record: Record, clock) -> Result:
        detector, latencies, ticks, stat = clock(self._stream, record.streams)
        return Result(ticks=record.n, data={
            "latency_us": [ns / 1e3 * clock.scale for ns in latencies], "ticks": ticks, "stat": stat,
            "crossed_at": detector.state.crossed_at, "reported_at": detector.state.reported_at,
        })

    def write_input(self, record: Record) -> None:
        pass  # frames go straight from the array

    def near_tie(self):
        return self._stream(self.tie)

    def check(self, record: Record, result: Result, sample_seed) -> list[str]:
        ticks, stat = result.data["ticks"], result.data["stat"]
        errors = checks.alarm_errors(
            result.data["crossed_at"], result.data["reported_at"], ticks, stat, self.B,
            record.bursts[0], self.W,
        )
        sample = np.random.default_rng(sample_seed).choice(ticks[1:], size=24, replace=False)
        errors += checks.increment_errors(
            ticks, stat, self.D, np.sort(sample),
            lambda t: checks.raw_increment(record.streams, t, self.W),
        )
        return errors


class WeakCurve:
    name = "weak-curve"
    K, MU, SIGMA2, W, TAU_MAX = 125, 0.2, 1.0, 20, 20
    B_GRID = (7.5, 9.0, 10.5, 12.0, 13.5)
    B_GRID_ONESHOT = (5.25, 6.25, 7.25, 8.25, 9.25)
    HORIZON, HORIZON_EDD = 60_000, 4_000
    TRIALS = 40
    # empirical_drift scores 20,000 + 2 tau_max + 1 ticks on each of its two episodes
    CALIBRATION_INCREMENTS = 20_000 + 2 * TAU_MAX + 1
    # The ticks the curve covers: both calibration episodes, then for each
    # detector every trial's ARL and EDD horizon. A count read off the
    # curve's ARL/EDD would follow the seed's random run lengths, and the
    # cost does not: the one-shot curve draws whole horizons, and the
    # lockstep engine's cost per trial-tick grows as trials drop out.
    TICKS = 2 * CALIBRATION_INCREMENTS + 2 * TRIALS * (HORIZON + HORIZON_EDD)
    faults: tuple[Callable[[], object], ...] = ()

    _CALIBRATED = re.compile(r"calibrated drift d=(\S+) \(pre=(\S+), post=(\S+)\)")

    def __init__(self, sscusum, out_dir: Path, seed: int):
        self.sscusum = sscusum
        self.seed = seed
        self.out = out_dir / f"curve-{seed}.csv"
        self._race = None

    def build(self, r: int) -> tuple[int, float]:
        return _seed(self.seed, r, 3), 0.0  # the input is the flag set and this seed

    def write_input(self, curve_seed: int) -> None:
        pass

    def run(self, curve_seed: int, clock) -> Result:
        # Two invocations give exactly the points of --detector both, since
        # cmd_curve derives each detector's seeds from --seed alone; the
        # pause between them lets the clock sample the machine's speed.
        flags = [
            "curve", "--k", str(self.K), "--mu", str(self.MU), "--sigma2", str(self.SIGMA2),
            "--w", str(self.W), "--tau-max", str(self.TAU_MAX), "--no-sync",
            "--b-grid", ",".join(map(str, self.B_GRID)),
            "--b-grid-oneshot", ",".join(map(str, self.B_GRID_ONESHOT)),
            "--trials", str(self.TRIALS),
            "--horizon", str(self.HORIZON), "--horizon-edd", str(self.HORIZON_EDD),
            "--seed", str(curve_seed),
        ]
        stdout = clock(_call_cli, self.sscusum, flags + ["--detector", "subspace", "--out", str(self.out)])
        points = checks.read_curve(self.out)
        clock(_call_cli, self.sscusum, flags + ["--detector", "oneshot", "--out", str(self.out)])
        points += checks.read_curve(self.out)
        match = self._CALIBRATED.search(stdout)
        if match is None:
            raise RuntimeError(f"no calibration line in curve output: {stdout!r}")
        return Result(ticks=self.TICKS, data={"points": points, "pre": float(match.group(2))})

    def check(self, curve_seed: int, result: Result, sample_seed) -> list[str]:
        if self._race is None:  # depends only on the fixed operating point
            self._race = checks.race_run_lengths(
                self.K, self.MU, self.SIGMA2, self.B_GRID_ONESHOT, self.HORIZON
            )
        points = result.data["points"]
        return (
            checks.calibration_errors(result.data["pre"], self.SIGMA2, self.CALIBRATION_INCREMENTS)
            + checks.oneshot_arl_errors(points, self._race, self.TRIALS)
            + checks.curve_shape_errors(points, self.W)
            + checks.dominance_errors(points)
        )


WORKLOADS = {cls.name: cls for cls in (SeismicDetect, StreamDetect, WeakCurve)}
