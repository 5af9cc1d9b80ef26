"""Seeded synthetic inputs: noise records with planted tremor-shaped bursts.

Every array is drawn with the program's own ``generate_episode``; the
benchmark only chooses the scenario models. A burst is broadband: white
noise under an envelope that rises over ``rise`` ticks, holds, and decays
over ``decay`` ticks. A narrowband carrier would not do: at 250 Hz the
correlation peak of a 5 Hz carrier aliases by one period, so the joint delay
search could not be held to the planted delays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

AMPLITUDE = 3.0  # burst amplitude in units of the noise standard deviation

# Power iteration needs about 13 / gap steps on a window whose top two
# eigenvalues differ by the relative gap ``gap``, and the detectors stop it
# with an error after 200,000. A record with a window closer to a tie than
# TIE_GAP (about 45,000 steps) is drawn again; the fault is measured instead
# on a fixed input that fails every time (see workloads.StreamDetect).
TIE_GAP = 3e-4


@dataclass(frozen=True)
class Burst:
    """One planted burst. Sensor i carries its samples on ticks
    ``onset + delays[i] + 1 .. onset + delays[i] + length``; ``delays[0]`` is 0."""

    onset: int
    delays: np.ndarray
    length: int
    rise: int = 0
    decay: int = 0

    @property
    def first_onset(self) -> int:
        """Last tick before any sensor sees the burst."""
        return self.onset + int(self.delays.min())

    @property
    def body(self) -> tuple[int, int]:
        """First and last tick of the reference sensor's full-amplitude stretch."""
        return self.onset + self.rise + 1, self.onset + self.length - self.decay


@dataclass(frozen=True)
class Record:
    """A (k, n) record covering ticks 1..n and the bursts planted in it."""

    streams: np.ndarray
    bursts: tuple[Burst, ...]

    @property
    def n(self) -> int:
        return self.streams.shape[1]


def envelope(length: int, rise: int, decay: int) -> np.ndarray:
    """Emergent onset (sin^2 rise), flat body, cos^2 decay to zero."""
    env = np.ones(length)
    env[:rise] = np.sin(0.5 * np.pi * np.arange(1, rise + 1) / rise) ** 2
    env[length - decay :] = np.cos(0.5 * np.pi * np.arange(1, decay + 1) / decay) ** 2
    return env


def planted_record(
    sscusum,
    *,
    k: int,
    n: int,
    starts: list[int],
    length: int,
    rise: int,
    decay: int,
    tau_max: int,
    seed: int,
) -> Record:
    """Unit-variance noise plus one burst per entry of ``starts``.

    Each burst gets its own white-noise carrier and its own per-sensor delays,
    uniform on [-tau_max, tau_max] with sensor 0 as the zero reference.
    """
    ss = np.random.SeedSequence([seed, k, n])
    noise_seed, *burst_seeds = ss.spawn(1 + len(starts))
    streams = sscusum.generate_episode(sscusum.pure_noise_model(k), n, noise_seed)
    env = envelope(length, rise, decay)
    bursts = []
    for start, child in zip(starts, burst_seeds):
        rng = np.random.default_rng(child)
        carrier = rng.standard_normal(length) * env
        delays = rng.integers(-tau_max, tau_max + 1, size=k)
        delays[0] = 0
        model = sscusum.ScenarioModel(
            k=k,
            sigma2=0.0,
            alpha=np.full(k, AMPLITUDE),
            waveform=sscusum.Waveform.from_samples(carrier),
            onsets=start + delays,
        )
        streams = streams + sscusum.generate_episode(model, n, rng)
        bursts.append(Burst(int(start), delays, length, rise, decay))
    return Record(streams=streams, bursts=tuple(bursts))


def burst_starts(seed: int, first: int, spacing: int, jitter: int, count: int) -> list[int]:
    """``count`` onsets ``first + j*spacing + U[0, jitter)``, drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    return [first + j * spacing + int(rng.integers(0, jitter)) for j in range(count)]


def normalize_rows(streams: np.ndarray) -> np.ndarray:
    """Center each sensor at zero mean and scale its largest magnitude to 1."""
    centered = streams - streams.mean(axis=1, keepdims=True)
    return centered / np.abs(centered).max(axis=1, keepdims=True)


def smallest_gap(block: np.ndarray, w: int) -> float:
    """Smallest relative gap (l1 - l2) / l1 between the top two eigenvalues of
    the covariance of any w-column window of a (k, cols) block."""
    windows = sliding_window_view(block, w, axis=1)  # (k, cols - w + 1, w)
    ev = np.linalg.eigvalsh(np.einsum("kjw,ljw->jkl", windows, windows))
    return float(((ev[:, -1] - ev[:, -2]) / ev[:, -1]).min())


def aligned_blocks(joint_estimate, data: np.ndarray, w: int, tau_max: int) -> list[np.ndarray]:
    """The blocks a synced run over ``data`` (ticks from 1) draws its future
    windows from: for each sync window, the streams aligned by the delays
    ``joint_estimate`` gives there, over the ticks that hold the future
    windows of the ticks that window serves. ``joint_estimate`` is the
    program's function."""
    k, n = data.shape
    rows = np.arange(k)[:, None]
    last = n - w - tau_max  # last scored tick
    blocks = []
    for sync in range(1 + tau_max, last + 1, w):
        est = joint_estimate(data, tau_max=tau_max, window=(sync + 1, w), t0=1)
        served = min(w, last - sync + 1)
        cols = sync + est.delays.tau_hat[:, None] + np.arange(served + w - 1)[None, :]
        blocks.append(data[rows, cols])
    return blocks
