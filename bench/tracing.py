"""Span tracing from outside the program.

Each traced public function is replaced, in every ``sscusum`` module that
binds it, by a wrapper that records one span per call: name, start, end,
parent span and a few counts read off the arguments or the result. Spans
stay in memory until :meth:`Tracer.write`. A name the program no longer has
is skipped and reports zero calls.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    note: Callable | None = None  # (arguments, result) -> dict of counts
    label: Callable | None = None  # (arguments) -> span-name suffix
    args: bool = False  # bind the call's arguments for note and label


TARGETS = [
    Target("core.read_sensor_csv", "sscusum.core", "read_sensor_csv",
           lambda a, r: {"rows": r[1].shape[1]}),
    Target("core.normalize_stream", "sscusum.core", "normalize_stream"),
    Target("core.align_frames", "sscusum.core", "align_frames"),
    Target("core.LookaheadBuffer.push", "sscusum.core", "LookaheadBuffer.push"),
    Target("core.write_sensor_csv", "sscusum.core", "write_sensor_csv",
           lambda a, r: {"rows": np.shape(a["streams"])[1]}, args=True),
    Target("linalg.power_iteration", "sscusum.linalg", "power_iteration",
           lambda a, r: {"iters": r.iterations}),
    Target("linalg.sample_covariance", "sscusum.linalg", "sample_covariance"),
    Target("linalg.top_singular_vector", "sscusum.linalg", "top_singular_vector"),
    Target("sync.joint_estimate", "sscusum.sync", "joint_estimate",
           lambda a, r: {"passes": r.delays.iterations, "converged": int(r.delays.converged)}),
    Target("detect.async_pipeline", "sscusum.detect", "async_pipeline"),
    Target("detect.subspace_increments", "sscusum.detect", "subspace_increments"),
    Target("detect.write_trajectory_csv", "sscusum.detect", "write_trajectory_csv",
           lambda a, r: {"rows": len(a["report"].ticks)}, args=True),
    Target("detect.subspace_cusum_step", "sscusum.detect", "subspace_cusum_step"),
    Target("detect.SubspaceCusum.step", "sscusum.detect", "SubspaceCusum.step"),
    Target("detect.one_shot_detector", "sscusum.detect", "one_shot_detector",
           lambda a, r: {"ticks": len(r.ticks)}),
    Target("sim.generate_episode", "sscusum.sim", "generate_episode",
           lambda a, r: {"ticks": int(a["horizon"])}, args=True),
    Target("sim.empirical_drift", "sscusum.sim", "empirical_drift"),
    Target("sim.fast_increments", "sscusum.sim", "fast_increments",
           lambda a, r: {"ticks": len(r[1])}),
    Target("sim.operating_curve", "sscusum.sim", "operating_curve",
           lambda a, r: {"trial_ticks": a["trials"] * (r[-1].arl + r[-1].edd)},
           lambda a: a["spec"].name, args=True),
    Target("cli.main", "sscusum.cli", "main"),
]

# name, unit, better: the per-layer metrics a traced run prints
METRICS = [
    ("core.read_sensor_csv.us_per_row", "us", "lower"),
    ("core.normalize_stream.ms", "ms", "lower"),
    ("core.align_frames.calls", "count", "lower"),
    ("core.align_frames.us_per_call", "us", "lower"),
    ("core.LookaheadBuffer.push.us_per_call", "us", "lower"),
    ("core.write_sensor_csv.us_per_row", "us", "lower"),
    ("linalg.power_iteration.calls", "count", "lower"),
    ("linalg.power_iteration.us_per_call", "us", "lower"),
    ("linalg.power_iteration.iters_p50", "count", "lower"),
    ("linalg.power_iteration.iters_p99", "count", "lower"),
    ("linalg.power_iteration.iters_max", "count", "lower"),
    ("linalg.sample_covariance.us_per_call", "us", "lower"),
    ("linalg.top_singular_vector.us_per_call", "us", "lower"),
    ("sync.joint_estimate.calls", "count", "lower"),
    ("sync.joint_estimate.ms_per_call", "ms", "lower"),
    ("sync.joint_estimate.passes_mean", "count", "lower"),
    ("sync.joint_estimate.converged_ratio", "ratio", "higher"),
    ("detect.async_pipeline.self_s", "s", "lower"),
    ("detect.subspace_increments.s", "s", "lower"),
    ("detect.write_trajectory_csv.us_per_row", "us", "lower"),
    ("detect.subspace_cusum_step.us_per_call", "us", "lower"),
    ("detect.SubspaceCusum.step.self_us", "us", "lower"),
    ("detect.one_shot_detector.us_per_trial_tick", "us", "lower"),
    ("sim.generate_episode.calls", "count", "lower"),
    ("sim.generate_episode.s", "s", "lower"),
    ("sim.oneshot.drawn_tick_use", "ratio", "higher"),
    ("sim.empirical_drift.s", "s", "lower"),
    ("sim.fast_increments.us_per_tick", "us", "lower"),
    ("sim.operating_curve.subspace.s", "s", "lower"),
    ("sim.operating_curve.one_shot.s", "s", "lower"),
    ("sim.operating_curve.subspace.us_per_trial_tick", "us", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def _read(fn, *args):
    """A note or label, or None where the program's signature or result has
    changed shape since the target was written."""
    try:
        return fn(*args)
    except (KeyError, AttributeError, TypeError, IndexError):
        return None


class Tracer:
    """Installs the wrappers, records spans, and restores the program on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, note)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments if target.args else None
            name = target.span
            if target.label is not None:
                name = f"{name}.{_read(target.label, arguments)}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if target.note is not None:
                spans[index] = (name, start, end, parent, _read(target.note, arguments, result))
            return result

        return traced

    def __enter__(self):
        self.missing = []
        for target in self.targets:
            module = sys.modules.get(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(target.span)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "sscusum" or name.startswith("sscusum."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "note": note}
                ) + "\n")


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """The per-layer metrics of METRICS (all but trace.*) from the spans of
    ``rounds`` traced rounds. Counts and seconds are per round."""
    calls = defaultdict(int)
    total = defaultdict(int)
    children = defaultdict(int)
    notes = defaultdict(lambda: defaultdict(list))
    for name, start, end, parent, note in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            children[spans[parent][0]] += end - start
        for key, value in (note or {}).items():
            notes[name][key].append(value)

    def per_round(value):
        return value / rounds

    def seconds(name):
        return per_round(total[name] / 1e9)

    def self_seconds(name):
        return per_round((total[name] - children[name]) / 1e9)

    def us_per(name, count):
        return total[name] / 1e3 / count if count else 0.0

    def note_sum(name, key):
        return float(sum(notes[name][key]))

    def pct(name, key, q):
        values = notes[name][key]
        return float(np.percentile(values, q)) if values else 0.0

    drawn = sum(
        (span[4] or {}).get("ticks", 0) for span in spans
        if span[0] == "sim.generate_episode"
        and _has_ancestor(spans, span, "sim.operating_curve.one_shot")
    )
    passes = notes["sync.joint_estimate"]["passes"]
    converged = notes["sync.joint_estimate"]["converged"]
    pi = "linalg.power_iteration"
    return {
        "core.read_sensor_csv.us_per_row":
            us_per("core.read_sensor_csv", note_sum("core.read_sensor_csv", "rows")),
        "core.normalize_stream.ms": seconds("core.normalize_stream") * 1e3,
        "core.align_frames.calls": per_round(calls["core.align_frames"]),
        "core.align_frames.us_per_call": us_per("core.align_frames", calls["core.align_frames"]),
        "core.LookaheadBuffer.push.us_per_call":
            us_per("core.LookaheadBuffer.push", calls["core.LookaheadBuffer.push"]),
        "core.write_sensor_csv.us_per_row":
            us_per("core.write_sensor_csv", note_sum("core.write_sensor_csv", "rows")),
        f"{pi}.calls": per_round(calls[pi]),
        f"{pi}.us_per_call": us_per(pi, calls[pi]),
        f"{pi}.iters_p50": pct(pi, "iters", 50),
        f"{pi}.iters_p99": pct(pi, "iters", 99),
        f"{pi}.iters_max": float(max(notes[pi]["iters"], default=0)),
        "linalg.sample_covariance.us_per_call":
            us_per("linalg.sample_covariance", calls["linalg.sample_covariance"]),
        "linalg.top_singular_vector.us_per_call":
            us_per("linalg.top_singular_vector", calls["linalg.top_singular_vector"]),
        "sync.joint_estimate.calls": per_round(calls["sync.joint_estimate"]),
        "sync.joint_estimate.ms_per_call":
            us_per("sync.joint_estimate", calls["sync.joint_estimate"]) / 1e3,
        "sync.joint_estimate.passes_mean": float(np.mean(passes)) if passes else 0.0,
        "sync.joint_estimate.converged_ratio": float(np.mean(converged)) if converged else 0.0,
        "detect.async_pipeline.self_s": self_seconds("detect.async_pipeline"),
        "detect.subspace_increments.s": seconds("detect.subspace_increments"),
        "detect.write_trajectory_csv.us_per_row":
            us_per("detect.write_trajectory_csv", note_sum("detect.write_trajectory_csv", "rows")),
        "detect.subspace_cusum_step.us_per_call":
            us_per("detect.subspace_cusum_step", calls["detect.subspace_cusum_step"]),
        "detect.SubspaceCusum.step.self_us":
            (total["detect.SubspaceCusum.step"] - children["detect.SubspaceCusum.step"]) / 1e3
            / calls["detect.SubspaceCusum.step"] if calls["detect.SubspaceCusum.step"] else 0.0,
        "detect.one_shot_detector.us_per_trial_tick":
            us_per("detect.one_shot_detector", note_sum("detect.one_shot_detector", "ticks")),
        "sim.generate_episode.calls": per_round(calls["sim.generate_episode"]),
        "sim.generate_episode.s": seconds("sim.generate_episode"),
        "sim.oneshot.drawn_tick_use":
            note_sum("detect.one_shot_detector", "ticks") / drawn if drawn else 0.0,
        "sim.empirical_drift.s": seconds("sim.empirical_drift"),
        "sim.fast_increments.us_per_tick":
            us_per("sim.fast_increments", note_sum("sim.fast_increments", "ticks")),
        "sim.operating_curve.subspace.s": seconds("sim.operating_curve.subspace"),
        "sim.operating_curve.one_shot.s": seconds("sim.operating_curve.one_shot"),
        "sim.operating_curve.subspace.us_per_trial_tick":
            us_per("sim.operating_curve.subspace",
                   note_sum("sim.operating_curve.subspace", "trial_ticks")),
        "cli.main.self_s": self_seconds("cli.main"),
    }


def _has_ancestor(spans, span, name) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
