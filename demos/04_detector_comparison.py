#!/usr/bin/env python3
"""Operating-curve comparison: pooled subspace detector vs. one-shot race.

Each detector gets a threshold sweep; every threshold yields a (mean time to
false alarm, mean detection delay) point. Desk-scale version of the full
comparison (the shipped configs/curve_*.cfg presets run the larger sweeps).
"""

from sscusum.sim import (
    OneShotSpec,
    SubspaceSpec,
    empirical_drift,
    mean_shift_model,
    operating_curve,
    pure_noise_model,
    random_delay_factory,
)

k, w, tau_max, mu = 50, 20, 20, 0.25
trials = 100

cal = empirical_drift(
    pure_noise_model(k),
    mean_shift_model(k, mu),
    w=w,
    ticks=20_000,
    seed=0,
)
print(f"calibrated drift: pre {cal.lower:.3f}, post {cal.upper:.3f} -> d = {cal.midpoint:.3f}")

noise = pure_noise_model(k)
change = random_delay_factory(k, mu, 1.0, tau_max)

subspace = SubspaceSpec(w=w, tau_max=tau_max, d=cal.midpoint, sync=False)
one_shot = OneShotSpec(mu=mu, sigma2=1.0)

print(f"\n{'detector':>10} {'b':>6} {'ARL':>8} {'EDD':>8}")
for spec, grid in ((subspace, [4.0, 7.0, 11.0, 16.0]), (one_shot, [1.5, 3.0, 5.0, 7.5])):
    points = operating_curve(
        spec, noise, change, grid, trials, seed=1, horizon_arl=30_000, horizon_edd=2_000
    )
    for arl, edd in points:
        print(f"{arl.detector:>10} {arl.b:>6.1f} {arl.value:>8.0f} {edd.value:>8.1f}")

print(
    "\nReading the table: at matched ARL the smaller EDD wins. Pooling the"
    "\nsensors pays off once run lengths get long; the per-sensor race is"
    "\nquicker at very short run lengths because it knows the shift exactly."
)
