"""Domain types and stream plumbing: the replay of a record as frames,
delay profiles, scenario descriptions, the normalization used before
detection, and the sensor CSV schema.

Time is integer ticks throughout; all delays are integer sample shifts.
Sensor indices are 0-based in code, and sensor 0 is the synchronization
reference. A :class:`Pass` holds a scoring pass's settings, checked once,
and every tick rule derived from them. The shared input checks,
:func:`_check_counts`, :func:`_as_array` and :func:`_as_ticks`, name the
argument they reject; :func:`_first_bad_row` is the sensor CSV's finiteness
rule. A frame is a ``(t, values)`` pair that the streaming step checks.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CsvFormatError,
    DegenerateInputError,
    DimensionMismatchError,
)

__all__ = [
    "DelayProfile",
    "Waveform",
    "Pass",
    "ScenarioModel",
    "SpikedStats",
    "normalize_stream",
    "frames_from_array",
    "read_sensor_csv",
    "write_sensor_csv",
]


def _check_integers(**values) -> None:
    """Reject a setting, count or tick argument that is not an integer, by
    its name; numpy integers pass, but not None or a bool."""
    for name, value in values.items():
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_counts(least: int, **values) -> None:
    """Reject a count that is not an integer >= ``least``, by its name."""
    _check_integers(**values)
    for name, value in values.items():
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _as_array(
    value, name: str = "streams", axes: str = "kn", *, sensors: int = 0, finite: bool = False
) -> np.ndarray:
    """``value`` as a float array with one axis per letter of ``axes``: "n"
    for a series, "kn" for a record of k sensors, at least ``sensors`` of
    them, and with ``finite`` no nan or inf entry. Each check names the
    argument."""
    data = np.asarray(value, dtype=float)
    if data.ndim != len(axes):
        raise DimensionMismatchError(
            f"{name} must be a ({', '.join(axes)}) array, got shape {data.shape}"
        )
    if sensors and data.shape[0] < sensors:
        raise ValueError(f"{name} needs at least {sensors} sensors, got {data.shape[0]}")
    if finite and not np.isfinite(data).all():
        raise ValueError(f"{name} must be finite, got a nan or inf entry")
    return data


def _first_bad_row(block: np.ndarray) -> int | None:
    """The index of the first row of an (n, k) block that holds a nan or an
    inf, or None when every entry is finite: the sensor CSV's tick that the
    writer and the reader name."""
    finite = np.isfinite(block)
    if finite.all():
        return None
    return int(finite.all(axis=1).argmin())


def _as_ticks(values, name: str) -> np.ndarray:
    """``values`` as integer ticks; a bool, a string, a fraction or a float
    outside int64 (nan, inf, 1e300) is rejected by name, not cast."""
    ticks = np.asarray(values)
    if ticks.dtype.kind != "i" and not (ticks.dtype.kind in "uf" and np.all(
            (ticks == np.round(ticks)) & (ticks >= -(2.0**63)) & (ticks < 2.0**63))):
        raise ValueError(f"{name} must be whole ticks, got {ticks.tolist()}")
    return ticks.astype(int)


@dataclass(frozen=True)
class Pass:
    """A scoring pass's settings, checked once when it is built, and every
    tick rule derived from them. Each tick is scored against its ``w`` future
    samples; with ``sync`` the delays, within ``tau_max`` either way, are
    refitted every ``sync_every`` scored ticks, a fit stopping once no delay
    moves by ``delta`` or more, or after ``n_max`` passes. A setting that is
    not an integer (None only as sync_every's default), w < 1 (or 2 with
    sync), tau_max or delta < 0, or n_max or sync_every < 1 is a ValueError."""

    w: int
    tau_max: int = 0
    sync: bool = False
    delta: int = 1
    n_max: int = 10
    sync_every: int | None = None

    def __post_init__(self):
        # sync_every=None stands for its default, w, which is checked first
        _check_integers(w=self.w, tau_max=self.tau_max, delta=self.delta, n_max=self.n_max,
                        sync_every=self.cadence)
        least = 2 if self.sync else 1
        if self.w < least:
            raise ValueError(
                f"need w >= {least}{' to estimate delays' if self.sync else ''}, got w={self.w}"
            )
        if self.tau_max < 0 or self.delta < 0 or self.n_max < 1 or self.cadence < 1:
            raise ValueError("require tau_max >= 0, delta >= 0, n_max >= 1, sync_every >= 1")

    @property
    def headroom(self) -> int:
        """Columns a scored tick needs on each side: tau_max with sync, else 0."""
        return self.tau_max if self.sync else 0

    @property
    def lookahead(self) -> int:
        """Ticks from a crossing to its report: the w samples that scored it."""
        return self.w

    @property
    def cadence(self) -> int:
        """Scored ticks between delay fits: sync_every, by default w."""
        return self.w if self.sync_every is None else self.sync_every

    @property
    def margin(self) -> int:
        """Columns a scored tick needs besides its own, so margin + 1 score one;
        with sync, also those a delay fit reads: its window, tau_max each side."""
        return self.w + 2 * self.headroom

    @property
    def carry(self) -> int:
        """Most columns a Monte Carlo step carries over: the first unscored
        tick's margin and a sync segment not yet whole, fewer than cadence."""
        return self.margin + (self.cadence - 1 if self.sync else 0)

    def scored(self, n: int, t0: int = 1) -> range:
        """The ticks a pass over ``n`` columns from tick ``t0`` scores."""
        return range(t0 + self.headroom, t0 + n - self.w - self.headroom)

    def fit_start(self, start):
        """The first tick of the delay fit for the sync segment from ``start``:
        the fit windows that tick's w future samples."""
        return start + 1

    def episode_ticks(self, ticks: int) -> int:
        """The episode length of a drift calibration over ``ticks``, with tau_max
        headroom even without sync, so that switching sync keeps the samples."""
        return ticks + self.w + 2 * self.tau_max + 1


@dataclass(frozen=True)
class DelayProfile:
    """Per-sensor delays relative to the reference sensor 0, in ticks.

    ``tau_hat[0]`` is always 0 and every entry lies in [-tau_max, tau_max];
    ``tau_max`` is a count >= 0 (numpy integers pass).
    ``iterations``/``converged`` carry the metadata of the joint estimation
    loop that produced the profile.
    """

    tau_hat: np.ndarray
    tau_max: int
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        _check_counts(0, tau_max=self.tau_max)
        tau = np.asarray(self.tau_hat)
        if tau.ndim != 1 or tau.size == 0:
            raise DimensionMismatchError("tau_hat must be a nonempty 1-D integer vector")
        tau = _as_ticks(tau, "delays")
        if tau[0] != 0:
            raise ValueError("reference sensor delay must be 0")
        if np.any(np.abs(tau) > self.tau_max):
            raise ValueError(
                f"delays {tau.tolist()} exceed bound tau_max={self.tau_max}"
            )
        object.__setattr__(self, "tau_hat", tau)

    @property
    def k(self) -> int:
        return self.tau_hat.shape[0]


class Waveform:
    """Causal source signal s(.): queries at negative ticks return exactly 0.

    The built-in constructors place the first (possibly) nonzero sample at
    tick 1, so a sensor with onset tau emits its first signal sample at tick
    tau + 1, matching the convention that the change point is the last
    noise-only tick.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self._fn = fn

    def __call__(self, ticks) -> np.ndarray:
        ticks = np.asarray(ticks, dtype=int)
        out = np.asarray(self._fn(ticks), dtype=float)
        return np.where(ticks < 0, 0.0, out)

    @classmethod
    def step(cls) -> "Waveform":
        """Unit step: 1 for ticks >= 1, else 0."""
        return cls(lambda m: (m >= 1).astype(float))

    @classmethod
    def from_samples(cls, values: Sequence[float], first_tick: int = 1) -> "Waveform":
        """Tabulated signal occupying ticks first_tick..first_tick+len-1, zero outside.

        Raises:
            ValueError: the table is not a nonempty 1-D sequence of finite
                values, or ``first_tick`` is not an integer.
        """
        _check_integers(first_tick=first_tick)  # a fraction would index the table
        table = _as_array(values, "values", "n", finite=True)
        if table.size == 0:
            raise ValueError("sample table must be a nonempty 1-D sequence")

        def fn(m: np.ndarray) -> np.ndarray:
            idx = m - first_tick
            ok = (idx >= 0) & (idx < table.size)
            return np.where(ok, table[np.clip(idx, 0, table.size - 1)], 0.0)

        return cls(fn)


@dataclass(frozen=True)
class ScenarioModel:
    """Ground-truth generator parameters for one multi-sensor episode.

    Sensor i observes ``alpha[i] * s(t - onsets[i]) + noise`` where the noise
    is N(0, sigma2) i.i.d. across sensors and ticks. ``change_point`` is the
    minimum onset, i.e. the last tick at which every sensor is guaranteed to
    be pure noise.
    """

    k: int
    sigma2: float
    alpha: np.ndarray
    waveform: Waveform
    onsets: np.ndarray

    def __post_init__(self):
        _check_counts(1, k=self.k)
        alpha = np.asarray(self.alpha, dtype=float)
        onsets = _as_ticks(self.onsets, "onsets")
        if not 0 <= self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if alpha.shape != (self.k,):
            raise DimensionMismatchError(f"alpha must have shape ({self.k},)")
        if not np.isfinite(alpha).all():
            raise ValueError("alpha must be finite")
        if onsets.shape != (self.k,):
            raise DimensionMismatchError(f"onsets must have shape ({self.k},)")
        if np.any(self.waveform(np.arange(-4, 0)) != 0.0):
            raise ValueError("waveform must vanish at negative ticks")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "onsets", onsets)

    @property
    def change_point(self) -> int:
        return int(self.onsets.min())


@dataclass(frozen=True)
class SpikedStats:
    """Rank-one post-change structure implied by a scenario.

    ``u`` is the unit vector of normalized amplitudes, ``energy`` the average
    signal energy E0, and ``rho = E0 * ||alpha||^2 / sigma2`` the average SNR.
    """

    u: np.ndarray
    rho: float
    energy: float
    signal_power: float  # ||alpha||^2

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise ValueError("u must have unit norm (within 1e-12)")
        if self.rho < 0 or self.energy < 0:
            raise ValueError("rho and energy must be nonnegative")
        object.__setattr__(self, "u", u)

    def theta(self, s_value: float | np.ndarray) -> float | np.ndarray:
        """Instantaneous strength theta = s(t)^2 * ||alpha||^2 for a signal value."""
        return np.square(s_value) * self.signal_power

    @classmethod
    def from_scenario(cls, model: ScenarioModel, energy_horizon: int = 10_000) -> "SpikedStats":
        """Derive the spiked statistics, averaging s^2 over ``energy_horizon``
        ticks, an integer >= 1 (a ValueError otherwise)."""
        _check_counts(1, energy_horizon=energy_horizon)
        norm = np.linalg.norm(model.alpha)
        if norm == 0:
            raise DegenerateInputError("alpha is identically zero")
        if model.sigma2 <= 0:
            raise DegenerateInputError("sigma2 must be positive to define an SNR")
        s = model.waveform(np.arange(1, energy_horizon + 1))
        energy = float(np.mean(np.square(s)))
        rho = energy * norm**2 / model.sigma2
        return cls(u=model.alpha / norm, rho=rho, energy=energy, signal_power=norm**2)


def normalize_stream(raw, stats_prefix: int | None = None) -> np.ndarray:
    """Center a series at zero mean then scale so the maximum magnitude is 1.

    By default both statistics come from the full record. Pass
    ``stats_prefix=n`` to compute them from the first n samples only (e.g. a
    known pre-change stretch) while still transforming the whole series.

    Raises:
        DimensionMismatchError: ``raw`` is not a 1-D series (normalize a
            record one row at a time).
        ValueError: a ``stats_prefix`` that is not an integer.
        DegenerateInputError: empty, non-finite, or constant input, or a
            ``stats_prefix`` below 1.
    """
    if stats_prefix is not None:
        _check_integers(stats_prefix=stats_prefix)
    x = _as_array(raw, "raw", "n")
    if x.size == 0:
        raise DegenerateInputError("cannot normalize an empty series")
    if not np.all(np.isfinite(x)):
        raise DegenerateInputError("series contains non-finite values")
    if stats_prefix is not None and stats_prefix < 1:
        raise DegenerateInputError(f"stats prefix must be >= 1, got {stats_prefix}")
    ref = x if stats_prefix is None else x[:stats_prefix]
    centered = x - ref.mean()
    scale = np.max(np.abs(ref - ref.mean()))
    if scale == 0.0:
        raise DegenerateInputError("series is constant over the normalization window")
    return centered / scale


def frames_from_array(streams: np.ndarray, t0: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate a (k, n) array as ``(t0 + j, streams[:, j])`` frames, the
    pairs :meth:`sscusum.detect.SubspaceCusum.step` takes.

    A frame's values are a view of its column, not a copy: the step copies
    them into its ring and checks them there, so a nan or inf raises at the
    step of its frame, not here. At the first ``next()`` a record that is not
    2-D is a ``DimensionMismatchError`` and a ``t0`` that is not an integer
    (a bool included) a ``ValueError``; a record with no columns yields
    nothing and checks no ``t0``.
    """
    streams = _as_array(streams)
    if streams.shape[1]:
        _check_integers(t=t0)  # the first frame's tick
        yield from enumerate(streams.T, t0)


def write_sensor_csv(path, streams: np.ndarray, t0: int = 1) -> None:
    """Write the sensor dump schema: header ``t,s1,...,sk``, one row per tick.

    Rows end in ``\\r\\n`` and cells are ``repr`` of each float, the bytes
    ``csv.writer`` would produce; no cell of this schema needs quoting. A
    ``t0`` that is not an integer, a non-finite reading or an empty record
    (which :func:`read_sensor_csv` rejects) raises before the file is opened.
    """
    _check_integers(t0=t0)
    streams = _as_array(streams)
    k, n = streams.shape
    if not (k and n):
        raise ValueError(f"need at least one sensor and one tick, got shape {streams.shape}")
    bad = _first_bad_row(streams.T)
    if bad is not None:
        raise ValueError(f"non-finite reading at tick {t0 + bad}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + [f"s{i + 1}" for i in range(k)]) + "\r\n")
        fh.writelines(
            f"{t},{','.join(map(repr, row))}\r\n"
            for t, row in zip(range(t0, t0 + n), streams.T.tolist())
        )


# ASCII separators that numpy's parser skips as whitespace but int() and
# float() reject; a file holding one takes the per-cell scan.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_NON_SPACE = re.compile(rb"\S")


def _parse_sensor_bytes(data: bytes) -> tuple[int, np.ndarray] | None:
    """Whole-file parse of a plain-ASCII sensor dump, or None to make the
    caller run the per-cell scan.

    Accepts only what that scan accepts, with the same values: anything
    numpy rejects or that fails a check here (header, consecutive ticks,
    finiteness) returns None rather than an error. ASCII bytes decode to
    the same text under any encoding ``open`` may pick.
    """
    if not data.isascii() or any(c in data for c in _NUMPY_ONLY_SPACE):
        return None
    buf = io.BytesIO(data)
    head = buf.readline().decode("ascii").removesuffix("\n").removesuffix("\r")
    # a lone CR ends a csv row; an all-blank body makes numpy warn
    if "\r" in head or _NON_SPACE.search(data, buf.tell()) is None:
        return None
    header = [h.strip() for h in head.split(",")]
    k = len(header) - 1
    if k < 1 or header != ["t"] + [f"s{i + 1}" for i in range(k)]:
        return None
    try:
        rows = np.loadtxt(
            buf,
            dtype=[("t", np.int64), ("v", float, (k,))],
            delimiter=",",
            comments=None,
            ndmin=1,
            encoding="ascii",
        )
    except ValueError:
        return None
    ticks = rows["t"]
    # int64 differences wrap; a wrapped run of +1 steps ends below its start
    if not ticks.size or not (np.diff(ticks) == 1).all() or ticks[-1] < ticks[0]:
        return None
    if not np.isfinite(rows["v"]).all():
        return None
    return int(ticks[0]), np.ascontiguousarray(rows["v"]).T


def read_sensor_csv(path) -> tuple[int, np.ndarray]:
    """Read the sensor dump schema; returns (t0, streams) with shape (k, n).

    Ticks must be strictly increasing and consecutive; missing and
    non-finite (nan, inf) cells are forbidden. Errors carry the offending
    line number.

    The whole file is parsed in one numpy call. Any file that parse or its
    checks reject goes through a per-cell scan instead, which either
    accepts it or names the first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_sensor_bytes(data)
    if parsed is not None:
        return parsed
    # decoded as open(path, newline="") would, lazily, so an earlier bad
    # line is reported before a later undecodable byte
    return _scan_sensor_csv(io.TextIOWrapper(io.BytesIO(data), newline=""))


def _scan_sensor_csv(fh) -> tuple[int, np.ndarray]:
    """Cell-by-cell read of an open sensor dump, raising at the first bad line."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty file", line=1) from None
    header = [h.strip() for h in header]
    if not header or header[0] != "t" or len(header) < 2:
        raise CsvFormatError(f"expected header 't,s1,...,sk', got {header}", line=1)
    expected = ["t"] + [f"s{i + 1}" for i in range(len(header) - 1)]
    if header != expected:
        raise CsvFormatError(f"expected header {expected}, got {header}", line=1)
    k = len(header) - 1
    prev: int | None = None
    lines: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != k + 1 or any(cell.strip() == "" for cell in row):
            raise CsvFormatError(f"expected {k + 1} non-empty cells", line=lineno)
        try:
            t = int(row[0])
            vals = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=lineno) from None
        if prev is not None:
            if t <= prev:
                raise CsvFormatError(
                    f"tick {t} not strictly increasing after {prev}", line=lineno
                )
            if t != prev + 1:
                raise CsvFormatError(f"gap in ticks: {prev} followed by {t}", line=lineno)
        prev = t
        lines.append(lineno)
        rows.append(vals)
    if not rows:
        raise CsvFormatError("no data rows", line=2)
    data = np.asarray(rows, dtype=float)
    bad = _first_bad_row(data)
    if bad is not None:
        raise CsvFormatError("non-finite reading", line=lines[bad])
    return prev - len(rows) + 1, data.T
