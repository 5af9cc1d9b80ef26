"""Independent reference implementations used to check the package.

Everything here is intentionally naive: explicit loops, no shared code with
the library, validated on hand-computable cases before being trusted.
"""

from __future__ import annotations

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
