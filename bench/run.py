"""Benchmark command for sscusum.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Each round builds a fresh input from (seed, round) and runs one operation of
the workload on it, in this process, one call at a time. A new round starts
while the run is expected to end within ``--seconds`` (there is always one).
Every round's outputs are checked; a round that raises or fails a check
counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` each round runs twice on the same
input, untraced and then traced, and the JSON holds the per-layer metrics of
the traced runs plus the tracing overhead; the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program(repeats: int = 5):
    """Import sscusum from this checkout's src/ and nowhere else. Return it
    with the median time of ``repeats`` fresh imports of the package (numpy
    stays loaded after the first)."""
    package = SRC / "sscusum" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "sscusum" or m.startswith("sscusum.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("sscusum.cli")  # the package does not import its CLI
        times.append(time.perf_counter() - start)
    sscusum = sys.modules["sscusum"]
    if Path(sscusum.__file__).resolve() != package.resolve():
        sys.exit(f"bench: sscusum was imported from {sscusum.__file__}, not {package}")
    return sscusum, statistics.median(times)


# Seconds reference_work() takes on the reference machine at its usual speed.
# On a shared 2-vCPU machine the speed of a fixed loop drifts by +-20%
# between 30-second windows; every program call is timed between two runs
# of reference_work and its time multiplied by REFERENCE_S / (their mean),
# so the metrics are seconds at that usual speed.
REFERENCE_S = 0.28


def reference_work() -> float:
    """Seconds for a fixed mix of the program's kinds of work: a Python loop
    of small matrix-vector steps, batched 20x20 eigh, and normal draws."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    a = a @ a.T
    mats = rng.standard_normal((256, 20, 30))
    mats = mats @ mats.transpose(0, 2, 1)
    v = np.ones(8)
    start = time.perf_counter()
    for _ in range(20_000):
        v = a @ v
        v = v / np.sqrt(v @ v)
    for _ in range(8):
        np.linalg.eigh(mats)
    for _ in range(4):
        rng.standard_normal((125, 10_000))
    return time.perf_counter() - start


class Stopwatch:
    """Times the program calls of one operation. Each call is bracketed by
    reference work (consecutive calls share the one between them);
    ``seconds`` sums the calls' wall times scaled to the usual machine
    speed, ``raw`` the unscaled times, and ``scale`` is the last factor."""

    def __init__(self):
        self.raw = self.seconds = 0.0
        self.scale = 1.0
        self._reference = None

    def __call__(self, fn, *args):
        before = reference_work() if self._reference is None else self._reference
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self._reference = reference_work()
        self.scale = 2 * REFERENCE_S / (before + self._reference)
        self.raw += elapsed
        self.seconds += elapsed * self.scale
        return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(import_s, rounds, name) -> dict:
    """The end-to-end metrics from the rounds that passed, times scaled."""
    per_tick_us = [r["run_s"] / r["ticks"] * 1e6 for r in rounds]
    if name == "stream-detect":
        # per-frame latency of SubspaceCusum.step over every emitting frame
        frame_us = [us for r in rounds for us in r["latency_us"]]
    else:
        # a batch run has no single frames: use each round's cost per scored tick
        frame_us = per_tick_us
    return {
        "setup_s": (import_s + statistics.median(r["build_s"] for r in rounds), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "ticks_per_s": (statistics.median(1e6 / u for u in per_tick_us), "ticks/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "frame_p50_us": (float(np.percentile(frame_us, 50)), "us"),
        "frame_p99_us": (float(np.percentile(frame_us, 99)), "us"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed %= 2**64  # numpy seeds are non-negative; the same for seeds already in range
    sscusum, import_s = import_program()
    import_s *= REFERENCE_S / reference_work()

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](sscusum, out_dir, args.seed)
    tracer = tracing.Tracer() if args.trace else None

    rounds, attempted, failed, wrong, traced_rounds = [], 0, 0, 0, 0
    start = time.perf_counter()
    r, last_round = 0, 0.0
    # start a round only while it is expected to end within --seconds
    while r == 0 or time.perf_counter() - start + last_round <= args.seconds:
        round_start = time.perf_counter()
        sample_seed = [args.seed, r, 7]
        attempted += 1
        try:
            inp, build_s = workload.build(r)
            watch = Stopwatch()
            result = workload.run(inp, watch)
            errors = workload.check(inp, result, sample_seed)
            scale = watch.seconds / watch.raw
            record = {"scale": scale, "build_s": build_s * scale, "run_s": watch.seconds,
                      "raw_run_s": watch.raw, "ticks": result.ticks,
                      "latency_us": result.data.get("latency_us", ())}
            if tracer is not None:
                watch = Stopwatch()
                with tracer:  # the same input, written and run again
                    workload.write_input(inp)
                    result = workload.run(inp, watch)
                record["traced_run_s"] = watch.seconds
                traced_rounds += 1
                errors += workload.check(inp, result, sample_seed)
            wrong += bool(errors)
        except Exception:  # one failed operation must not stop the run
            errors = [traceback.format_exc()]
        if errors:
            failed += 1
            print(f"round {r} failed:\n  " + "\n  ".join(errors), file=sys.stderr)
        else:
            rounds.append(record)
        for fault in workload.faults:  # seed-independent inputs the program fails on
            attempted += 1
            try:
                fault()
            except Exception as exc:
                failed += 1
                if r == 0:
                    print(f"{fault.__name__} failed, as on every round: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
        last_round = time.perf_counter() - round_start
        r += 1

    if tracer is not None:
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        units = {name: unit for name, unit, _ in tracing.METRICS}
        values = tracing.layer_metrics(tracer.spans, traced_rounds) if traced_rounds else {}
        if rounds:
            untraced = statistics.median(x["run_s"] for x in rounds)
            traced = statistics.median(x["traced_run_s"] for x in rounds)
            values["trace.overhead_s"] = traced - untraced
            values["trace.overhead_share"] = (traced - untraced) / untraced
        if tracer.missing:
            print(f"not in the program, reported as zero: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        metrics = {name: {"value": values.get(name, 0.0), "unit": units[name]} for name in units}
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in (end_to_end(import_s, rounds, args.workload).items()
                                        if rounds else [])
        }

    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>16.6g} {m['unit']}")
    if rounds:
        print(f"{'uncorrected run_s':52s} {statistics.median(x['raw_run_s'] for x in rounds):>16.6g} s")
        print(f"{'speed scale':52s} {statistics.median(x['scale'] for x in rounds):>16.6g}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
