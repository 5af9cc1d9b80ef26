"""Tests of the benchmark itself: every output check rejects one wrong output,
the analytic race oracle matches a simulation, and tracing survives a
missing name. Run with ``python3 -m pytest bench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import sscusum  # noqa: E402
import sscusum.cli  # noqa: E402,F401  (a traced name)

import checks  # noqa: E402
import records  # noqa: E402
import tracing  # noqa: E402


# ------------------------------------------------------------ detector runs

@pytest.fixture(scope="module")
def stream_run():
    """A small streaming run over one planted burst, with its outputs."""
    w, d, b = 40, 1.5, 30.0
    rec = records.planted_record(
        sscusum, k=3, n=800, starts=[300], length=300, rise=30, decay=60, tau_max=10, seed=5
    )
    det = sscusum.SubspaceCusum(w=w, d=d, b=b)
    out = [det.step(f) for f in sscusum.frames_from_array(rec.streams, t0=1)]
    ticks = np.array([t for t, _ in filter(None, out)])
    stat = np.array([s for _, s in filter(None, out)])
    return rec, det, ticks, stat, w, d, b


def test_alarm_check_passes_then_rejects_a_shifted_alarm(stream_run):
    rec, det, ticks, stat, w, d, b = stream_run
    burst = rec.bursts[0]
    crossed, reported = det.state.crossed_at, det.state.reported_at
    assert checks.alarm_errors(crossed, reported, ticks, stat, b, burst, w) == []
    early = burst.first_onset - 5
    assert checks.alarm_errors(early, early + w, ticks, stat, b, burst, w)
    late = burst.first_onset + burst.length + 1
    assert checks.alarm_errors(late, late + w, ticks, stat, b, burst, w)
    crossing_early = stat.copy()
    crossing_early[ticks == burst.first_onset] = b
    assert checks.alarm_errors(crossed, reported, ticks, crossing_early, b, burst, w)


def test_increment_check_passes_then_rejects_one_perturbed_increment(stream_run):
    rec, _, ticks, stat, w, d, _ = stream_run
    sample = ticks[1::50]
    reference = lambda t: checks.raw_increment(rec.streams, t, w)  # noqa: E731
    assert checks.increment_errors(ticks, stat, d, sample, reference) == []
    bad = stat.copy()
    i = int(np.flatnonzero(ticks == sample[3])[0])
    bad[i] += 1e-4 * (abs(bad[i]) + d)
    errors = checks.increment_errors(ticks, bad, d, sample, reference)
    assert len(errors) == 1 and f"tick {sample[3]}" in errors[0]


def test_synced_increment_matches_the_pipeline():
    w, tau_max = 30, 8
    rec = records.planted_record(
        sscusum, k=4, n=500, starts=[200], length=200, rise=20, decay=40, tau_max=tau_max, seed=9
    )
    data = records.normalize_rows(rec.streams)
    run = sscusum.async_pipeline(data, w=w, tau_max=tau_max, d=0.0, t0=1, full_trajectory=True)
    ticks = run.report.ticks
    for i in (1, 57, 211, len(ticks) - 1):
        expected = checks.synced_increment(sscusum, data, int(ticks[i]), w, tau_max)
        assert run.increments[i] == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_delay_check_passes_then_rejects_wrong_delays():
    w, tau_max = 40, 10
    rec = records.planted_record(
        sscusum, k=4, n=900, starts=[300], length=400, rise=40, decay=80, tau_max=tau_max, seed=3
    )
    data = records.normalize_rows(rec.streams)
    assert checks.delay_errors(sscusum, data, rec.bursts, w, tau_max) == []
    burst = rec.bursts[0]
    shifted = records.Burst(
        burst.onset, burst.delays + np.array([0, 1, 0, 0]), burst.length, burst.rise, burst.decay
    )
    assert checks.delay_errors(sscusum, data, [shifted], w, tau_max)


def test_near_tie_screen_sees_a_tied_window():
    rng = np.random.default_rng(0)
    block = rng.standard_normal((3, 60))
    assert records.smallest_gap(block, 40) > 1e-3
    tied = np.zeros((3, 40))
    tied[0, :20] = tied[1, 20:] = 1.0  # two orthogonal directions of equal energy
    assert records.smallest_gap(tied, 40) < 1e-12


# ------------------------------------------------------------------ curves

def test_race_oracle_matches_a_simulation():
    k, mu, b, horizon, trials = 3, 1.0, 2.0, 400, 4000
    mean, sd = checks.race_run_lengths(k, mu, 1.0, [b], horizon)[b]
    rng = np.random.default_rng(1)
    s = np.zeros((trials, k))
    stop = np.full(trials, horizon)
    live = np.ones(trials, bool)
    for n in range(1, horizon + 1):
        s = np.maximum(s, 0.0) + mu * (rng.standard_normal((trials, k)) - mu / 2)
        hit = live & (s.max(axis=1) >= b)
        stop[hit] = n
        live &= ~hit
    assert abs(stop.mean() - mean) < 4 * sd / math.sqrt(trials)
    assert stop.std() == pytest.approx(sd, rel=0.1)


def _points(arl_os, edd_os, arl_ss, edd_ss):
    return (
        [{"detector": "subspace", "b": float(i), "arl": a, "arl_se": 1.0, "edd": e, "edd_se": 1.0}
         for i, (a, e) in enumerate(zip(arl_ss, edd_ss))]
        + [{"detector": "one_shot", "b": 0.5 + i, "arl": a, "arl_se": 1.0, "edd": e, "edd_se": 1.0}
           for i, (a, e) in enumerate(zip(arl_os, edd_os))]
    )


def test_oneshot_arl_check_rejects_an_arl_moved_by_five_se():
    race = checks.race_run_lengths(10, 0.5, 1.0, [3.0], 2000)
    mean, sd = race[3.0]
    trials = 40
    point = {"detector": "one_shot", "b": 3.0, "arl": mean}
    assert checks.oneshot_arl_errors([point], race, trials) == []
    for sign in (1, -1):
        moved = dict(point, arl=mean + sign * 5 * sd / math.sqrt(trials))
        assert checks.oneshot_arl_errors([moved], race, trials)


def test_dominance_check_rejects_a_subspace_edd_above_the_one_shot():
    arl_os, edd_os = [200, 400, 900, 2000, 5000], [60, 80, 100, 120, 140]
    arl_ss = [300, 500, 700, 1200, 2500]
    good = _points(arl_os, edd_os, arl_ss, [45, 47, 49, 51, 53])
    assert checks.dominance_errors(good) == []
    assert checks.curve_shape_errors(good, w=20) == []
    bad = _points(arl_os, edd_os, arl_ss, [45, 47, 110, 111, 112])
    assert checks.dominance_errors(bad)


def test_curve_shape_check_rejects_falling_arl_and_short_delays():
    arl_os, edd_os = [200, 400, 900, 2000, 5000], [60, 80, 100, 120, 140]
    falling = _points(arl_os, edd_os, [300, 500, 450, 1200, 2500], [45, 47, 49, 51, 53])
    assert checks.curve_shape_errors(falling, w=20)
    short = _points(arl_os, edd_os, [300, 500, 700, 1200, 2500], [20, 47, 49, 51, 53])
    assert checks.curve_shape_errors(short, w=20)


def test_calibration_check_rejects_a_mean_five_se_off():
    n = 20041
    se = math.sqrt(2 / n)
    assert checks.calibration_errors(1.0 + 2 * se, 1.0, n) == []
    assert checks.calibration_errors(1.0 + 5 * se, 1.0, n)


# ----------------------------------------------------------------- tracing

def test_traced_run_completes_when_a_name_is_missing():
    targets = tracing.TARGETS + [tracing.Target("linalg.gone", "sscusum.linalg", "no_such_kernel")]
    original = sscusum.detect.power_iteration
    rng = np.random.default_rng(2)
    with tracing.Tracer(targets) as tracer:
        sscusum.async_pipeline(rng.standard_normal((3, 120)), w=20, tau_max=5, d=1.0, t0=1)
    assert tracer.missing == ["linalg.gone"]
    assert sscusum.detect.power_iteration is original
    metrics = tracing.layer_metrics(tracer.spans, rounds=1)
    assert metrics["linalg.power_iteration.calls"] > 0
    assert metrics["sim.generate_episode.calls"] == 0
    assert set(metrics) == {name for name, _, _ in tracing.METRICS if not name.startswith("trace.")}


def test_self_time_is_span_minus_children():
    spans = [
        ("detect.async_pipeline", 0, 10_000, -1, None),
        ("linalg.power_iteration", 1_000, 4_000, 0, {"iters": 7}),
        ("linalg.power_iteration", 5_000, 9_000, 0, {"iters": 9}),
    ]
    metrics = tracing.layer_metrics(spans, rounds=1)
    assert metrics["detect.async_pipeline.self_s"] == pytest.approx(3e-6)
    assert metrics["linalg.power_iteration.iters_max"] == 9


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stream-detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.METRICS
    import run

    rounds = [{"build_s": 0.1, "run_s": 2.0, "tick_s": 2.0, "ticks": 1000, "latency_us": [1.0, 2.0]}]
    printed = run.end_to_end(0.05, rounds, "stream-detect")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in printed.items()}
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
