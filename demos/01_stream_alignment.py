#!/usr/bin/env python3
"""Streams, lookahead, and alignment of asynchronous sensors.

A detector that scores sample t with a direction estimated from samples
t+1..t+w can only emit once those future samples exist: `SubspaceCusum`
keeps them itself, and answers each frame with the tick it can now score.
Alignment then undoes known relative delays by plain indexing.
"""

import numpy as np

from sscusum import DelayProfile, SubspaceCusum, frames_from_array, normalize_stream

rng = np.random.default_rng(0)

print("== normalization ==")
raw = 3.0 * rng.standard_normal(8) + 40.0
norm = normalize_stream(raw)
print("raw     :", np.round(raw, 2))
print("scaled  :", np.round(norm, 2))
print(f"mean -> {norm.mean():+.2e}, max |.| -> {np.max(np.abs(norm)):.1f}")

print("\n== streaming lookahead (w = 3) ==")
det = SubspaceCusum(w=3, d=1.0)
for t, values in frames_from_array(rng.standard_normal((2, 8)), t0=1):
    emitted = det.step((t, values))
    tag = "filling the window" if emitted is None else f"scored t={emitted[0]}, S={emitted[1]:+.3f}"
    print(f"pushed t={t}: {tag}")
print("each tick is scored once its w = 3 successors have arrived")

print("\n== alignment ==")
# sensor 2 sees everything two ticks later; aligning pulls its stream forward
k, n = 2, 12
base = np.zeros(n)
base[4:8] = [1.0, 3.0, 2.0, 1.0]
streams = np.stack([base, np.roll(base, 2)])
profile = DelayProfile(np.array([0, 2]), tau_max=3)
print("sensor 1:", streams[0])
print("sensor 2:", streams[1])
# column t of the aligned block holds stream i at tick t + tau_hat[i]
ticks = np.arange(n - profile.tau_hat.max())
aligned = streams[np.arange(k)[:, None], ticks + profile.tau_hat[:, None]]
print("aligned :", aligned[1], "(sensor 2 after shifting by +2)")
