"""Independent reference implementations used to check the package.

Everything here is intentionally naive: explicit loops, no shared code with
the library, validated on hand-computable cases before being trusted.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigh(a: np.ndarray, sweep_tol: float = 1e-14, max_sweeps: int = 100):
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (values, vectors) sorted descending; vectors are columns.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    scale = np.max(np.abs(a)) or 1.0
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= sweep_tol * scale:
                    continue
                # 2x2 rotation zeroing a[p, q]
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off <= sweep_tol * scale:
            break
    values = np.diag(a).copy()
    order = np.argsort(values)[::-1]
    return values[order], v[:, order]


def correlation_scan(sensor, sensor_origin, template, template_origin, tau_max):
    """Correlation magnitude at every shift, by explicit double loop.

    corr(z) = sum_m template[m] * sensor(template_origin + m + z), with the
    sensor read by absolute tick.
    """
    out = {}
    for z in range(-tau_max, tau_max + 1):
        acc = 0.0
        for m, s_val in enumerate(template):
            tick = template_origin + m + z
            acc += s_val * sensor[tick - sensor_origin]
        out[z] = acc
    return out


def best_shift(corr: dict[int, float]) -> int:
    """Argmax of |corr(z)| with ties broken by smallest |z| then smallest z."""
    best = None
    for z in sorted(corr, key=lambda z: (abs(z), z)):
        if best is None or abs(corr[z]) > abs(corr[best]):
            best = z
    return best


def scalar_cusum(samples, mu, sigma2):
    """Trajectory of the exact scalar Gaussian CUSUM, one value per sample."""
    s = 0.0
    out = []
    for x in samples:
        s = max(s, 0.0) + (mu / sigma2) * (x - mu / 2.0)
        out.append(s)
    return np.asarray(out)


def first_crossing(ticks, statistic, b):
    """The first tick whose statistic reaches b, by an explicit scan; None
    if no tick does."""
    for t, s in zip(ticks, statistic):
        if s >= b:
            return int(t)
    return None


def run_lengths(reported, change_points, horizon):
    """ARL and EDD of one threshold's reported stop times (-1: no alarm).

    Each trial is classified in an explicit loop. ARL counts a trial that
    never alarms at the horizon. EDD averages the delay over the trials
    alarming after their change point; an alarm at or before it is a false
    alarm. The mean and standard error of each collected list come from
    numpy's ``mean`` and ``std``, so results can be compared exactly; the
    standard error is inf for one value and NaN for none.
    """
    runs, delays = [], []
    censored = false_alarms = 0
    for rep, tau in zip(reported, change_points):
        if rep < 0:
            censored += 1
            runs.append(float(horizon))
            continue
        runs.append(float(rep))
        if rep <= tau:
            false_alarms += 1
        else:
            delays.append(float(rep - tau))

    def mean_se(values):
        if not values:
            return math.nan, math.nan
        if len(values) == 1:
            return values[0], math.inf
        return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))

    n = len(runs)
    arl, arl_se = mean_se(runs)
    edd, edd_se = mean_se(delays)
    return {
        "arl": arl,
        "arl_se": arl_se,
        "edd": edd,
        "edd_se": edd_se,
        "censored_frac": censored / n,
        "false_alarm_frac": false_alarms / n,
        "n_used": len(delays),
    }


def episode_loop(alpha, waveform, onsets, sigma2, horizon, seed):
    """One (k, horizon) episode by its documented layout, sample by sample.

    Sensor i at tick t (1..horizon) carries ``alpha[i] * waveform(t -
    onsets[i])``, one waveform call per (sensor, tick). The noise is the
    seed's generator drawn as (blocks, k, 256) in one call, the blocks laid
    end to end along the ticks, cut to the horizon and scaled by
    sqrt(sigma2); with sigma2 = 0 none is added.
    """
    k = len(alpha)
    out = np.zeros((k, horizon))
    for i in range(k):
        for t in range(1, horizon + 1):
            out[i, t - 1] = alpha[i] * float(waveform(t - onsets[i]))
    if sigma2 == 0:
        return out
    blocks = -(-horizon // 256)
    noise = np.random.default_rng(seed).standard_normal((blocks, k, 256))
    noise = noise.transpose(1, 0, 2).reshape(k, blocks * 256)[:, :horizon]
    return out + noise * math.sqrt(sigma2)


def covariance_triple_loop(samples: np.ndarray) -> np.ndarray:
    """sum_j x_j x_j^T accumulated element by element; samples is (w, k)."""
    w, k = samples.shape
    out = np.zeros((k, k))
    for j in range(w):
        for a in range(k):
            for b in range(k):
                out[a, b] += samples[j, a] * samples[j, b]
    return out


def read_sensor_csv_naive(path):
    """The sensor dump contract read row by row with ``csv`` and ``int``/``float``.

    Returns ``(t0, streams)`` with streams of shape (k, n), or
    ``("error", message, line)`` for the first line that breaks the contract:
    a cell-count, parse or tick-order fault at the line where it occurs,
    otherwise no data rows (line 2), otherwise the first non-finite row.
    """
    import csv
    import math

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            return "error", "empty file", 1
        header = [cell.strip() for cell in first]
        if len(header) < 2 or header[0] != "t":
            return "error", f"expected header 't,s1,...,sk', got {header}", 1
        want = ["t"] + ["s" + str(i) for i in range(1, len(header))]
        if header != want:
            return "error", f"expected header {want}, got {header}", 1
        width = len(header)
        ticks, table, first_bad = [], [], None
        for line, cells in enumerate(reader, start=2):
            if len(cells) == 0:
                continue
            if len(cells) != width or min(len(c.strip()) for c in cells) == 0:
                return "error", f"expected {width} non-empty cells", line
            try:
                tick = int(cells[0])
                values = [float(c) for c in cells[1:]]
            except ValueError as exc:
                return "error", str(exc), line
            if ticks and tick <= ticks[-1]:
                return "error", f"tick {tick} not strictly increasing after {ticks[-1]}", line
            if ticks and tick != ticks[-1] + 1:
                return "error", f"gap in ticks: {ticks[-1]} followed by {tick}", line
            if first_bad is None and not all(math.isfinite(v) for v in values):
                first_bad = line
            ticks.append(tick)
            table.append(values)
    if not table:
        return "error", "no data rows", 2
    if first_bad is not None:
        return "error", "non-finite reading", first_bad
    return ticks[0], np.array(table, dtype=float).T
