"""Output checks. Each compares the program's output with a computation made
here, apart from the program, or with a property the method must have.
Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math

import numpy as np

INCREMENT_RTOL = 1e-6  # power iteration stops at a 1e-10 relative residual
CALIBRATION_Z = 4.0
ARL_Z = 4.5


# ---------------------------------------------------------------- readers

def read_report(path) -> dict:
    with open(path, newline="") as fh:
        row = next(csv.DictReader(fh))
    as_int = lambda s: None if s == "" else int(s)  # noqa: E731
    return {
        "crossed_at": as_int(row["crossed_at"]),
        "reported_at": as_int(row["reported_at"]),
        "d": float(row["d"]),
    }


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0].astype(int), table[:, 1]


def read_curve(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {key: (value if key == "detector" else float(value)) for key, value in row.items()}
            for row in csv.DictReader(fh)
        ]


# ------------------------------------------------------ detector outputs

def alarm_errors(crossed_at, reported_at, ticks, stat, b, burst, w, shift=0) -> list[str]:
    """The alarm falls after the first burst's earliest onset and is reported
    within the burst plus one window; nothing crosses before that onset.

    ``shift`` is the largest delay alignment may apply: a frame aligned at
    tick t holds samples up to t + shift, so with delays estimated on a window
    the burst only partly covers, burst samples can reach frames from
    ``first_onset - shift + 1`` on.
    """
    if crossed_at is None:
        return [f"no alarm; first burst starts after tick {burst.first_onset}"]
    errors = []
    onset = burst.first_onset - shift
    if reported_at != crossed_at + w:
        errors.append(f"reported_at {reported_at} != crossed_at {crossed_at} + w {w}")
    if crossed_at <= onset:
        errors.append(f"alarm crossed at {crossed_at}, not after tick {onset}")
    latest = burst.first_onset + burst.length + w
    if reported_at > latest:
        errors.append(f"alarm reported at {reported_at}, after the burst plus w ({latest})")
    early = stat[ticks <= onset]
    if early.size and early.max() >= b:
        errors.append(f"trajectory reaches {early.max():.4g} >= b by tick {onset}")
    hits = np.flatnonzero(stat >= b)
    if hits.size == 0 or ticks[hits[0]] != crossed_at:
        first = None if hits.size == 0 else int(ticks[hits[0]])
        errors.append(f"trajectory first reaches b at {first}, report says {crossed_at}")
    return errors


def _top_direction(future: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(future @ future.T)[1][:, -1]


def raw_increment(streams: np.ndarray, t: int, w: int) -> float:
    """(u'x_t)^2 with u from the raw frames t+1..t+w (ticks start at 1)."""
    u = _top_direction(streams[:, t : t + w])
    return float(u @ streams[:, t - 1]) ** 2


def _sync_tick(t: int, w: int, tau_max: int) -> int:
    first = 1 + tau_max
    return first + ((t - first) // w) * w


def _delays(sscusum, data: np.ndarray, sync_tick: int, w: int, tau_max: int) -> np.ndarray:
    est = sscusum.joint_estimate(data, tau_max=tau_max, window=(sync_tick + 1, w), t0=1)
    return est.delays.tau_hat


def synced_increment(sscusum, data: np.ndarray, t: int, w: int, tau_max: int) -> float:
    """(u'x_t)^2 on streams aligned by the delays of t's sync window."""
    tau = _delays(sscusum, data, _sync_tick(t, w, tau_max), w, tau_max)
    rows = np.arange(data.shape[0])[:, None]
    cols = (t - 1) + tau[:, None] + np.arange(0, w + 1)[None, :]
    aligned = data[rows, cols]
    u = _top_direction(aligned[:, 1:])
    return float(u @ aligned[:, 0]) ** 2


def increment_errors(ticks, stat, d, sample, reference) -> list[str]:
    """The increment S_t - max(S_{t-1}, 0) + d at each sampled tick equals
    ``reference(t)`` within INCREMENT_RTOL of (increment + d)."""
    position = {int(t): i for i, t in enumerate(ticks)}
    errors = []
    for t in sample:
        i = position[int(t)]
        recovered = stat[i] - max(stat[i - 1], 0.0) + d
        expected = reference(int(t))
        if abs(recovered - expected) > INCREMENT_RTOL * (abs(expected) + abs(d)):
            errors.append(f"tick {t}: increment {recovered!r}, eigh gives {expected!r}")
    return errors


def delay_errors(sscusum, data, bursts, w, tau_max) -> list[str]:
    """joint_estimate returns the planted delays on every sync window that
    lies inside a burst's full-amplitude body."""
    errors = []
    n = data.shape[1]
    last_sync = n - w - tau_max  # last emitted tick, ticks start at 1
    for j, burst in enumerate(bursts):
        first, last = burst.body
        windows = [
            s for s in range(1 + tau_max, last_sync + 1, w) if s + 1 >= first and s + w <= last
        ]
        if not windows:
            errors.append(f"burst {j} holds no whole sync window")
        for s in windows:
            tau = _delays(sscusum, data, s, w, tau_max)
            if not np.array_equal(tau, burst.delays):
                errors.append(
                    f"burst {j}, window at {s + 1}: delays {tau.tolist()}, "
                    f"planted {burst.delays.tolist()}"
                )
    return errors


# -------------------------------------------------------------- the curve

def calibration_errors(pre: float, sigma2: float, n: int) -> list[str]:
    """Before a change u_hat is independent of x_t, so each increment is
    sigma2 * chi2_1 and the mean of n of them has standard error
    sigma2 * sqrt(2 / n). The printed mean has four decimals."""
    se = sigma2 * math.sqrt(2.0 / n)
    if abs(pre - sigma2) > CALIBRATION_Z * se + 5e-5:
        return [f"calibration pre-change mean {pre} is {abs(pre - sigma2) / se:.1f} s.e. from {sigma2}"]
    return []


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def scalar_cusum_survival(mu: float, sigma2: float, b: float, horizon: int, states: int = 400) -> np.ndarray:
    """P(RL > n), n = 0..horizon-1, of one sensor's CUSUM under no change,
    by the Brook-Evans Markov chain.

    The sensor runs W' = max(W + Z, 0) with Z ~ N(-mu^2 / (2 sigma2), mu^2 / sigma2)
    from W = 0 and alarms at W >= b. State i stands for W = i h, with
    h = 2b / (2 states - 1), so the top state ends at b.
    """
    mean, sd = -mu * mu / (2 * sigma2), mu / math.sqrt(sigma2)
    h = 2.0 * b / (2 * states - 1)
    # cdf[s + states] = P(Z < (s + 1/2) h), s = j - i
    offsets = np.arange(-states, states + 1)
    cdf = _normal_cdf(((offsets + 0.5) * h - mean) / sd)
    i = np.arange(states)[:, None]
    j = np.arange(states)[None, :]
    q = cdf[j - i + states] - cdf[j - i - 1 + states]
    q[:, 0] = cdf[-i[:, 0] + states]  # everything below h/2 lands on the floor
    # P(RL > a*B + c) = (e0' (Q^B)^a) (Q^c 1)
    block = 256
    columns = np.empty((states, block))
    columns[:, 0] = 1.0
    for c in range(1, block):
        columns[:, c] = q @ columns[:, c - 1]
    q_block = np.linalg.matrix_power(q, block)
    rows = np.empty((-(-horizon // block), states))
    rows[0] = np.eye(states)[0]
    for a in range(1, rows.shape[0]):
        rows[a] = rows[a - 1] @ q_block
    return (rows @ columns).ravel()[:horizon]


def race_run_lengths(k, mu, sigma2, b_grid, horizon) -> dict[float, tuple[float, float]]:
    """Mean and standard deviation of min(RL, horizon) for the race of k
    independent scalar CUSUMs: its survival is the k-th power of one sensor's."""
    out = {}
    n = np.arange(horizon)
    for b in b_grid:
        survival = scalar_cusum_survival(mu, sigma2, b, horizon) ** k
        mean = float(survival.sum())
        second = float(((2 * n + 1) * survival).sum())
        out[float(b)] = (mean, math.sqrt(max(second - mean * mean, 0.0)))
    return out


def oneshot_arl_errors(points, race, trials) -> list[str]:
    errors = []
    for p in points:
        if p["detector"] != "one_shot":
            continue
        mean, sd = race[p["b"]]
        se = sd / math.sqrt(trials)
        z = (p["arl"] - mean) / se
        if abs(z) > ARL_Z:
            errors.append(f"one-shot ARL {p['arl']:.1f} at b={p['b']} is {z:+.1f} s.e. from {mean:.1f}")
    return errors


def curve_shape_errors(points, w) -> list[str]:
    """Subspace delays include the w lookahead; ARL and EDD grow with b."""
    errors = []
    for name in ("subspace", "one_shot"):
        curve = [p for p in points if p["detector"] == name]
        if not curve:
            errors.append(f"no {name} points")
            continue
        for a, b in zip(curve, curve[1:]):
            if not b["b"] > a["b"]:
                errors.append(f"{name}: thresholds not increasing ({a['b']}, {b['b']})")
            for key in ("arl", "edd"):
                if not b[key] >= a[key]:
                    errors.append(f"{name}: {key} falls from {a[key]} to {b[key]} as b grows")
    for p in points:
        if p["detector"] == "subspace" and not p["edd"] >= w + 1:
            errors.append(f"subspace EDD {p['edd']} at b={p['b']} is below w + 1")
    return errors


def dominance_errors(points, min_compared: int = 3) -> list[str]:
    """At every subspace ARL inside the one-shot ARL range, the subspace EDD
    is below the one-shot EDD interpolated there on log-ARL."""
    sub = [p for p in points if p["detector"] == "subspace"]
    rival = [p for p in points if p["detector"] == "one_shot"]
    if not sub or not rival:
        return ["dominance needs both curves"]
    log_arl = np.log([p["arl"] for p in rival])
    edd = [p["edd"] for p in rival]
    errors, compared = [], 0
    for p in sub:
        if not rival[0]["arl"] <= p["arl"] <= rival[-1]["arl"]:
            continue
        compared += 1
        at = float(np.interp(math.log(p["arl"]), log_arl, edd))
        if not p["edd"] < at:
            errors.append(f"ARL {p['arl']:.0f}: subspace EDD {p['edd']:.1f} >= one-shot {at:.1f}")
    if compared < min_compared:
        errors.append(f"only {compared} subspace points fall inside the one-shot ARL range")
    return errors
