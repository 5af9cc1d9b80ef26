"""Command-line front end.

Four workflows: ``simulate`` writes a synthetic episode CSV, ``calibrate``
prints an empirical drift from a pre-change prefix, ``detect`` runs the
asynchronous detector over a CSV and writes report/trajectory files, and
``curve`` sweeps thresholds into an (ARL, EDD) operating-curve CSV.

Options may come from a ``key=value`` config file (``--config``); explicit
flags win, and a key that no subcommand accepts is a validation error.
Exit codes: 0 success, 1 validation, 2 I/O (including malformed or
non-finite CSV cells), 3 numerical failure (a non-finite covariance, e.g.
from overflow, or a failed eigendecomposition).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import detect as det
from . import sim
from .core import ScenarioModel, Waveform, normalize_stream, read_sensor_csv, write_sensor_csv
from .errors import CsvFormatError, NumericalError, ValidationError

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    config_keys: frozenset[str] = frozenset()  # options some subcommand accepts

    def error(self, message):  # route usage problems to exit code 1
        raise ValidationError(message)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


_COMMON = {
    "k": dict(type=int, help="number of sensors"),
    "sigma2": dict(type=float, help="noise variance (default 1.0)"),
    "mu": dict(type=float, help="common post-change amplitude"),
    "alpha": dict(type=_float_list, help="comma-separated per-sensor amplitudes"),
    "w": dict(type=int, help="lookahead window length (ticks)"),
    "tau_max": dict(type=int, help="relative-delay bound (ticks)"),
    "delta": dict(type=int, help="delay-convergence tolerance (ticks, default 1)"),
    "n_max": dict(type=int, help="max joint-estimation passes (default 10)"),
    "d": dict(type=float, help="drift parameter"),
    "factor": dict(type=float, help="calibration multiplier (default 1.5)"),
    "b": dict(type=float, help="alarm threshold"),
    "b_grid": dict(type=_float_list, help="comma-separated increasing thresholds"),
    "trials": dict(type=int, help="Monte Carlo trials per threshold"),
    "horizon": dict(type=int, help="episode length (ticks)"),
    "seed": dict(type=int, help="RNG seed"),
    "rate": dict(type=float, help="sampling rate in Hz (adds seconds to reports)"),
    "onsets": dict(type=_int_list, help="comma-separated per-sensor onset ticks"),
}


def _add(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, default=None, **_COMMON[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="sscusum", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="key=value preset file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic episode CSV")
    _add(p, "k", "sigma2", "mu", "alpha", "onsets", "tau_max", "w", "horizon", "seed")
    p.add_argument("--out", required=False, default=None, help="output CSV path")

    p = sub.add_parser("calibrate", help="print an empirical drift value")
    _add(p, "w", "tau_max", "delta", "n_max", "factor", "rate")
    p.add_argument("--in", dest="in_path", default=None, help="input sensor CSV")
    p.add_argument("--prefix", type=int, default=None, help="pre-change prefix length (ticks)")
    p.add_argument("--sync", dest="sync", action="store_true", default=None)
    p.add_argument("--no-sync", dest="sync", action="store_false")
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--norm-prefix", type=int, default=None, help="normalization stats prefix")

    p = sub.add_parser("detect", help="run the detector over a sensor CSV")
    _add(p, "w", "tau_max", "delta", "n_max", "d", "factor", "b", "rate")
    p.add_argument("--in", dest="in_path", default=None)
    p.add_argument("--out", default=None, help="stopping report CSV")
    p.add_argument("--trajectory-out", default=None, help="optional t,S trajectory CSV")
    p.add_argument("--prefix", type=int, default=None, help="calibration prefix when --d absent")
    p.add_argument("--sync", dest="sync", action="store_true", default=None)
    p.add_argument("--no-sync", dest="sync", action="store_false")
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--norm-prefix", type=int, default=None)

    p = sub.add_parser("curve", help="sweep thresholds into an (ARL, EDD) curve CSV")
    _add(
        p, "k", "sigma2", "mu", "w", "tau_max", "delta", "n_max", "d",
        "b_grid", "trials", "horizon", "seed",
    )
    p.add_argument("--detector", choices=["subspace", "oneshot", "both"], default=None)
    p.add_argument("--b-grid-oneshot", dest="b_grid_oneshot", type=_float_list, default=None)
    p.add_argument("--horizon-edd", dest="horizon_edd", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--sync", dest="sync", action="store_true", default=None)
    p.add_argument("--no-sync", dest="sync", action="store_false")
    parser.config_keys = frozenset(
        action.dest for cmd in sub.choices.values() for action in cmd._actions
    ) - {"help"}
    return parser


def _load_config(path: str | None, known: frozenset[str]) -> dict[str, str]:
    """``key=value`` lines; a key no subcommand accepts is a validation error."""
    if path is None:
        return {}
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


_CONFIG_PARSERS = {
    "alpha": _float_list,
    "b_grid": _float_list,
    "b_grid_oneshot": _float_list,
    "onsets": _int_list,
    "sync": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "normalize": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def _resolve(args: argparse.Namespace, config: dict[str, str]) -> argparse.Namespace:
    """Fill flag values that were left unset from the config file.

    Keys that only other subcommands accept are skipped.
    """
    for key, raw in config.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is not None:
            continue  # explicit flag wins
        parse = _CONFIG_PARSERS.get(key)
        if parse is None:
            for candidate in (int, float, str):
                try:
                    parse = candidate
                    candidate(raw)
                    break
                except ValueError:
                    continue
        setattr(args, key, parse(raw))
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-").replace("in_path", "in")
            raise ValidationError(f"missing required option {flag}")


def _default(args, name, value):
    if getattr(args, name) is None:
        setattr(args, name, value)


def _positive(args, *names):
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise ValidationError(f"--{name.replace('_', '-')} must be positive, got {value}")


def _build_model(args) -> ScenarioModel:
    if args.alpha is not None:
        alpha = np.asarray(args.alpha, dtype=float)
        if alpha.size != args.k:
            raise ValidationError(f"--alpha needs {args.k} values, got {alpha.size}")
    elif args.mu is not None:
        alpha = np.full(args.k, float(args.mu))
    else:
        alpha = np.zeros(args.k)
    if args.onsets is not None:
        onsets = np.asarray(args.onsets, dtype=int)
        if onsets.size != args.k:
            raise ValidationError(f"--onsets needs {args.k} values, got {onsets.size}")
    elif args.tau_max is not None:
        rng = np.random.default_rng(np.random.SeedSequence([int(args.seed), 0x0E5]))
        onsets = rng.integers(0, args.tau_max + 1, size=args.k)
    else:
        onsets = np.zeros(args.k, dtype=int)
    return ScenarioModel(
        k=args.k, sigma2=args.sigma2, alpha=alpha, waveform=Waveform.step(), onsets=onsets
    )


def cmd_simulate(args) -> int:
    _require(args, "k", "horizon", "seed", "out")
    _default(args, "sigma2", 1.0)
    if args.k < 1:
        raise ValidationError("--k must be >= 1")
    if args.sigma2 < 0:
        raise ValidationError("--sigma2 must be >= 0")
    _positive(args, "horizon")
    model = _build_model(args)
    streams = sim.generate_episode(model, args.horizon, args.seed)
    write_sensor_csv(args.out, streams, t0=1)
    print(f"wrote {args.out}: k={args.k} horizon={args.horizon} change_point={model.change_point}")
    return 0


def _load_streams(args) -> tuple[int, np.ndarray]:
    t0, streams = read_sensor_csv(args.in_path)
    if getattr(args, "normalize", None):
        streams = np.stack(
            [normalize_stream(row, stats_prefix=args.norm_prefix) for row in streams]
        )
    return t0, streams


def _prefix_increments(args, t0: int, streams: np.ndarray) -> np.ndarray:
    prefix = args.prefix if args.prefix is not None else streams.shape[1]
    if prefix > streams.shape[1]:
        raise ValidationError(
            f"--prefix {prefix} exceeds the {streams.shape[1]} ticks in the file"
        )
    needed = 2 * args.tau_max + args.w + 1
    if prefix < needed:
        raise ValidationError(
            f"--prefix {prefix} is too short for one window "
            f"(need >= {needed} with w={args.w}, tau-max={args.tau_max})"
        )
    sync = args.sync if args.sync is not None else args.tau_max > 0
    _, increments = det.subspace_increments(
        streams[:, :prefix],
        w=args.w,
        tau_max=args.tau_max,
        sync=sync,
        t0=t0,
        delta=args.delta,
        n_max=args.n_max,
    )
    return increments


def cmd_calibrate(args) -> int:
    _require(args, "in_path", "w")
    _default(args, "tau_max", 0)
    _default(args, "factor", 1.5)
    _default(args, "delta", 1)
    _default(args, "n_max", 10)
    _positive(args, "w", "factor")
    t0, streams = _load_streams(args)
    increments = _prefix_increments(args, t0, streams)
    print(repr(det.calibrate_drift(increments, factor=args.factor)))
    return 0


def cmd_detect(args) -> int:
    _require(args, "in_path", "w", "b", "out")
    _default(args, "tau_max", 0)
    _default(args, "delta", 1)
    _default(args, "n_max", 10)
    _positive(args, "w")
    if args.b <= 0:
        raise ValidationError("--b must be positive")
    t0, streams = _load_streams(args)
    if args.d is None:
        if args.factor is None:
            raise ValidationError("supply --d, or --factor (with --prefix) to calibrate")
        increments = _prefix_increments(args, t0, streams)
        args.d = det.calibrate_drift(increments, factor=args.factor)
        print(f"calibrated drift d={args.d!r}")
    sync = args.sync if args.sync is not None else args.tau_max > 0
    detection = det.async_pipeline(
        streams,
        w=args.w,
        tau_max=args.tau_max,
        d=args.d,
        b=args.b,
        delta=args.delta,
        n_max=args.n_max,
        sync=sync,
        t0=t0,
        full_trajectory=True,
    )
    det.write_report_csv(args.out, detection.report, rate=args.rate)
    if args.trajectory_out:
        det.write_trajectory_csv(args.trajectory_out, detection.report)
    if detection.report.no_alarm:
        print("no alarm")
    else:
        msg = f"alarm: crossed_at={detection.report.crossed_at} reported_at={detection.report.reported_at}"
        if args.rate:
            msg += f" ({detection.report.reported_at / args.rate:.1f} s)"
        print(msg)
    return 0


def cmd_curve(args) -> int:
    _require(args, "k", "mu", "w", "trials", "horizon", "seed", "out")
    _default(args, "sigma2", 1.0)
    _default(args, "tau_max", 0)
    _default(args, "delta", 1)
    _default(args, "n_max", 10)
    _default(args, "detector", "both")
    _positive(args, "k", "w", "trials", "horizon", "sigma2")
    horizon_edd = args.horizon_edd or args.horizon
    sync = args.sync if args.sync is not None else args.tau_max > 0
    ss = np.random.SeedSequence(int(args.seed))
    seed_sub, seed_os, seed_drift = ss.spawn(3)
    noise = sim.pure_noise_model(args.k, args.sigma2)
    change = sim.random_delay_factory(args.k, args.mu, args.sigma2, args.tau_max)

    points: list[sim.CurvePoint] = []
    if args.detector in ("subspace", "both"):
        if args.b_grid is None:
            raise ValidationError("--b-grid is required for the subspace curve")
        d = args.d
        if d is None:
            cal = sim.empirical_drift(
                noise,
                sim.mean_shift_model(args.k, args.mu, args.sigma2),
                w=args.w,
                tau_max=args.tau_max,
                sync=sync,
                seed=seed_drift,
            )
            d = cal.midpoint
            print(f"calibrated drift d={d!r} (pre={cal.pre_mean:.4f}, post={cal.post_mean:.4f})")
        spec = sim.SubspaceSpec(w=args.w, tau_max=args.tau_max, d=d, delta=args.delta,
                                n_max=args.n_max, sync=sync)
        points += sim.operating_curve(
            spec, noise, change, args.b_grid, args.trials, seed_sub,
            horizon_arl=args.horizon, horizon_edd=horizon_edd,
        )
    if args.detector in ("oneshot", "both"):
        grid = args.b_grid_oneshot if args.b_grid_oneshot is not None else args.b_grid
        if grid is None:
            raise ValidationError("--b-grid-oneshot (or --b-grid) is required")
        spec = sim.OneShotSpec(mu=args.mu, sigma2=args.sigma2)
        points += sim.operating_curve(
            spec, noise, change, grid, args.trials, seed_os,
            horizon_arl=args.horizon, horizon_edd=horizon_edd,
        )
    sim.write_curve_csv(args.out, points)
    print(f"wrote {args.out}: {len(points)} curve points")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "detect": cmd_detect,
    "curve": cmd_curve,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _resolve(args, _load_config(args.config, parser.config_keys))
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
