#!/usr/bin/env python3
"""Choosing the drift: closed-form interval vs. empirical calibration.

The statistic's increment must drift down before the change and up after it.
The closed-form admissible interval comes from a large-window approximation
of the direction-estimation error; when the window is too short for the
dimension the interval is empty and the drift must be calibrated by
simulation (or from a known pre-change stretch of real data).
"""

import numpy as np

from sscusum import drift_bounds, mean_shift_model, pure_noise_model
from sscusum.linalg import window_increments
from sscusum.sim import empirical_drift, generate_episode

sigma2 = 1.0

print("closed-form admissible interval, sigma2 = 1:")
print(f"  {'k':>3} {'w':>5} {'rho':>5} {'lower':>7} {'upper':>7} valid")
for k, w, rho in [(5, 200, 1.0), (5, 200, 2.0), (10, 100, 1.0), (50, 20, 0.5), (50, 20, 3.125)]:
    b = drift_bounds(sigma2, rho, k, w)
    print(f"  {k:>3} {w:>5} {rho:>5.3g} {b.lower:>7.3f} {b.upper:>7.3f} {b.valid}")

print("\nempirical check at k=5, w=200, rho=1 (interval is valid):")
k, w, rho = 5, 200, 1.0
bounds = drift_bounds(sigma2, rho, k, w)
d = bounds.midpoint
noise = generate_episode(pure_noise_model(k, sigma2), 30_200, seed=1)
pre = window_increments(noise, w)
signal = generate_episode(mean_shift_model(k, mu=np.sqrt(rho / k)), 30_200, seed=2)
post = window_increments(signal, w)
print(f"  midpoint drift d = {d:.3f}")
print(f"  pre-change increment mean  {pre.mean():.4f}  -> drift {pre.mean() - d:+.3f}")
print(f"  post-change increment mean {post.mean():.4f}  -> drift {post.mean() - d:+.3f}")

print("\nempty interval at k=50, w=20: calibrate by simulation instead")
cal = empirical_drift(
    pure_noise_model(50, sigma2),
    mean_shift_model(50, mu=0.25, sigma2=sigma2),
    w=20,
    ticks=20_000,
    seed=3,
)
print(f"  measured pre mean  {cal.lower:.4f}")
print(f"  measured post mean {cal.upper:.4f}")
print(f"  empirical midpoint d = {cal.midpoint:.4f} (valid = {cal.valid})")
