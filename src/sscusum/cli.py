"""Command-line front end.

Four workflows: ``simulate`` writes a synthetic episode CSV, ``calibrate``
prints an empirical drift from a pre-change prefix, ``detect`` runs the
asynchronous detector over a CSV and writes report/trajectory files, and
``curve`` sweeps thresholds into an (ARL, EDD) operating-curve CSV.

Options may come from a ``key=value`` config file (``--config``): each value
is parsed by its subcommand's flag, as ``--key=value``, and becomes that
flag's default, so explicit flags win. A key that no subcommand accepts, or
a value its flag rejects, is a validation error naming the file and line.
Exit codes: 0 success, 1 validation, 2 I/O (including malformed or
non-finite CSV cells), 3 numerical failure (a non-finite covariance, e.g.
from overflow, or a failed eigendecomposition).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import detect as det
from . import sim
from .core import Pass, ScenarioModel, Waveform, normalize_stream, read_sensor_csv, write_sensor_csv
from .errors import CsvFormatError, NumericalError, ValidationError

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # subcommand name -> its parser (top level only)

    def error(self, message):  # route usage problems to exit code 1
        raise ValidationError(message)


def _number(cast=float, low=-math.inf, above=False):
    """A numeric flag's type, its one check: finite ``cast(text)`` >= ``low`` (> when ``above``)."""
    kind = "an integer" if cast is int else "a finite number"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not -math.inf < value < math.inf:  # nan and +-inf; an int of any size passes
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text.strip()!r}")
        if value < low or (above and value == low):
            raise argparse.ArgumentTypeError(f"must be {'>' if above else '>='} {low}, got {value}")
        return value

    return parse


_FINITE = _number()
_COUNT = _number(int, 1)  # an int >= 1
_NATURAL = _number(int, 0)  # an int >= 0
_POSITIVE = _number(float, 0, above=True)  # a float > 0


def _list(item):
    """A comma-separated flag's type: each nonempty entry parsed by ``item``."""
    return lambda text: [item(x) for x in text.split(",") if x.strip() != ""]


_FINITES = _list(_FINITE)


def _grid(text: str) -> list[float]:
    """A threshold grid flag's type: finite entries under ``sim._threshold_grid``'s rule."""
    try:
        return sim._threshold_grid(_FINITES(text)).tolist()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_COMMON = {
    "k": dict(type=_COUNT, help="number of sensors"),
    "sigma2": dict(type=_number(float, 0), default=1.0, help="noise variance (default 1.0)"),
    "mu": dict(type=_FINITE, help="common post-change amplitude"),
    "alpha": dict(type=_FINITES, help="comma-separated per-sensor amplitudes"),
    "w": dict(type=_COUNT, help="lookahead window length (ticks)"),
    "tau_max": dict(type=_NATURAL, default=0, help="relative-delay bound (ticks)"),
    "delta": dict(type=_NATURAL, default=1, help="delay-convergence tolerance (ticks, default 1)"),
    "n_max": dict(type=_COUNT, default=10, help="max joint-estimation passes (default 10)"),
    "d": dict(type=_FINITE, help="drift parameter"),
    "factor": dict(type=_POSITIVE, help="calibration multiplier (default 1.5)"),
    "b": dict(type=_POSITIVE, help="alarm threshold"),
    "b_grid": dict(type=_grid, help="comma-separated increasing thresholds"),
    "trials": dict(type=_COUNT, help="Monte Carlo trials per threshold"),
    "horizon": dict(type=_COUNT, help="episode length (ticks)"),
    "seed": dict(type=_NATURAL, help="RNG seed"),
    "rate": dict(type=_POSITIVE, help="sampling rate in Hz (adds seconds to reports)"),
    "onsets": dict(type=_list(_number(int)), help="comma-separated per-sensor onset ticks"),
}


def _add(parser: argparse.ArgumentParser, *names: str, **defaults) -> None:
    """Add the shared options ``names``; ``defaults`` overrides their defaults."""
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, **{"default": None, **_COMMON[name]})
    parser.set_defaults(**defaults)


def build_parser() -> _Parser:
    parser = _Parser(prog="sscusum", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="key=value preset file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic episode CSV")
    _add(p, "k", "sigma2", "mu", "alpha", "onsets", "tau_max", "horizon", "seed", tau_max=None)
    p.add_argument("--out", required=False, default=None, help="output CSV path")

    p = sub.add_parser("calibrate", help="print an empirical drift value")
    _add(p, "w", "tau_max", "delta", "n_max", "factor", factor=1.5)
    p.add_argument("--in", dest="in_path", default=None, help="input sensor CSV")
    p.add_argument("--prefix", type=_COUNT, default=None, help="pre-change prefix length (ticks)")
    p.add_argument("--sync", dest="sync", action="store_true", default=None)
    p.add_argument("--no-sync", dest="sync", action="store_false")
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--norm-prefix", type=_COUNT, default=None, help="normalization stats prefix")

    p = sub.add_parser("detect", help="run the detector over a sensor CSV")
    _add(p, "w", "tau_max", "delta", "n_max", "d", "factor", "b", "rate")
    p.add_argument("--in", dest="in_path", default=None)
    p.add_argument("--out", default=None, help="stopping report CSV")
    p.add_argument("--trajectory-out", default=None, help="optional t,S trajectory CSV")
    p.add_argument("--prefix", type=_COUNT, default=None, help="calibration prefix when --d absent")
    p.add_argument("--sync", dest="sync", action="store_true", default=None)
    p.add_argument("--no-sync", dest="sync", action="store_false")
    p.add_argument("--normalize", action="store_true", default=None)
    p.add_argument("--norm-prefix", type=_COUNT, default=None)

    p = sub.add_parser("curve", help="sweep thresholds into an (ARL, EDD) curve CSV")
    _add(p, "k")
    # the race divides by the noise variance, so a curve needs it positive
    p.add_argument("--sigma2", **{**_COMMON["sigma2"], "type": _number(float, 0, above=True)})
    _add(p, "mu", "w", "tau_max", "delta", "n_max", "d", "b_grid", "trials", "horizon", "seed")
    p.add_argument("--detector", choices=["subspace", "oneshot", "both"], default="both")
    p.add_argument("--b-grid-oneshot", dest="b_grid_oneshot", type=_grid, default=None)
    p.add_argument("--horizon-edd", dest="horizon_edd", type=_COUNT, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--sync", dest="sync", action="store_true", default=None)
    p.add_argument("--no-sync", dest="sync", action="store_false")
    parser.commands = sub.choices
    return parser


def _load_config(path: str, known: set[str]) -> dict[str, tuple[int, str]]:
    """``key=value`` lines as ``key -> (line number, value)``; a key no
    subcommand accepts is a validation error."""
    values: dict[str, tuple[int, str]] = {}
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
        values[key] = (lineno, value.strip())
    return values


# the spellings a config file may give an on/off flag (--sync/--no-sync, --normalize)
_SWITCH = dict.fromkeys(["1", "true", "yes", "on"], True) | dict.fromkeys(
    ["0", "false", "no", "off"], False
)


def _config_value(command: _Parser, action: argparse.Action, raw: str):
    """``raw`` parsed and checked as ``--flag=raw``, the flag it stands for."""
    if action.nargs == 0:
        if raw.lower() not in _SWITCH:
            raise ValidationError(f"{action.dest} takes one of {', '.join(_SWITCH)}, got {raw!r}")
        return _SWITCH[raw.lower()]
    return getattr(command.parse_args([f"{action.option_strings[0]}={raw}"]), action.dest)


def _parse(parser: _Parser, argv) -> argparse.Namespace:
    """Parse ``argv``. A ``--config`` file's values become the subcommand's
    defaults and ``argv`` is parsed again, so explicit flags win.

    Keys that only other subcommands accept are skipped.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    known = {a.dest for cmd in parser.commands.values() for a in cmd._actions} - {"help"}
    command = parser.commands[args.command]
    actions = {action.dest: action for action in command._actions}
    defaults = {}
    for key, (lineno, raw) in _load_config(args.config, known).items():
        if key not in actions:
            continue
        try:
            defaults[key] = _config_value(command, actions[key], raw)
        except ValidationError as exc:
            raise ValidationError(f"{args.config}:{lineno}: {exc}") from None
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-").replace("in-path", "in")
            raise ValidationError(f"missing required option {flag}")


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


def _pass(args) -> Pass:
    """The command's pass, checked before any input is read, for its scorer,
    drift calibration and Monte Carlo spec; sync defaults to on when tau-max > 0."""
    sync = args.sync if args.sync is not None else args.tau_max > 0
    return Pass(args.w, args.tau_max, sync, args.delta, args.n_max)


def _prefix(args, streams: np.ndarray, run: Pass) -> tuple[int, int]:
    """The calibration prefix length (default: the whole record) and the
    number of ticks the pass ``run`` scores over it, checked to be at least
    one."""
    prefix = args.prefix if args.prefix is not None else streams.shape[1]
    if prefix > streams.shape[1]:
        raise ValidationError(
            f"--prefix {prefix} exceeds the {streams.shape[1]} ticks in the file"
        )
    ticks = run.scored(prefix)
    if not ticks:
        raise ValidationError(
            f"--prefix {prefix} is too short for one window (need >= {run.margin + 1} with "
            f"w={run.w}, tau-max={run.tau_max}, sync={run.sync})"
        )
    return prefix, len(ticks)


def cmd_calibrate(args) -> int:
    _require(args, "in_path", "w")
    run = _pass(args)
    t0, streams = _load_streams(args)
    prefix, _ = _prefix(args, streams, run)
    _, increments = det.subspace_increments(streams[:, :prefix], t0=t0, **vars(run))
    print(repr(det.calibrate_drift(increments, factor=args.factor)))
    return 0


def cmd_detect(args) -> int:
    _require(args, "in_path", "w", "b", "out")
    run = _pass(args)
    t0, streams = _load_streams(args)
    if args.d is None:
        if args.factor is None:
            raise ValidationError("supply --d, or --factor (with --prefix) to calibrate")
        _, scored = _prefix(args, streams, run)
    ticks, increments = det.subspace_increments(streams, t0=t0, **vars(run))
    if args.d is None:
        # A pass over the prefix alone scores exactly these leading ticks:
        # its sync segments start at the same ticks, and every delay window
        # it estimates lies inside the prefix.
        args.d = det.calibrate_drift(increments[:scored], factor=args.factor)
        print(f"calibrated drift d={args.d!r}")
    report = det.cusum_report(ticks, increments, d=args.d, b=args.b, lookahead=run.lookahead)
    det.write_report_csv(args.out, report, rate=args.rate)
    if args.trajectory_out:
        det.write_trajectory_csv(args.trajectory_out, report)
    if report.no_alarm:
        print("no alarm")
    else:
        msg = f"alarm: crossed_at={report.crossed_at} reported_at={report.reported_at}"
        if args.rate:
            msg += f" ({report.reported_at / args.rate:.1f} s)"
        print(msg)
    return 0


def cmd_curve(args) -> int:
    _require(args, "k", "mu", "w", "trials", "horizon", "seed", "out")
    horizon_edd = args.horizon if args.horizon_edd is None else args.horizon_edd
    ss = np.random.SeedSequence(int(args.seed))
    seed_sub, seed_os, seed_drift = ss.spawn(3)
    noise = sim.pure_noise_model(args.k, args.sigma2)
    change = sim.random_delay_factory(args.k, args.mu, args.sigma2, args.tau_max)

    points = []
    if args.detector in ("subspace", "both"):
        if args.b_grid is None:
            raise ValidationError("--b-grid is required for the subspace curve")
        run = _pass(args)
        d = args.d
        if d is None:
            change_at_0 = sim.mean_shift_model(args.k, args.mu, args.sigma2)
            cal = sim.empirical_drift(noise, change_at_0, seed=seed_drift, **vars(run))
            d = cal.midpoint
            print(f"calibrated drift d={d!r} (pre={cal.lower:.4f}, post={cal.upper:.4f})")
        spec = sim.SubspaceSpec(**vars(run), d=d)
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


# exit code of the nearest class in an exception's hierarchy (CsvFormatError is a ValueError)
_EXIT_CODES = {
    CsvFormatError: 2, OSError: 2,  # I/O
    NumericalError: 3, np.linalg.LinAlgError: 3,  # numerical failure
    ValueError: 1, LookupError: 1,  # validation, ValidationError among them
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
