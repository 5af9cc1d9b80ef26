"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line at its stated tolerance. Run directly for a plain-text summary:

    python tests/test_acceptance.py
"""

import math
import os
import sys

import numpy as np
import pytest

from oracles import jacobi_eigh
from test_sync import burst_scenario

from sscusum import sim
from sscusum.core import frames_from_array, normalize_stream, read_sensor_csv
from sscusum.detect import (
    SubspaceCusum,
    async_pipeline,
    calibrate_drift,
    cusum_report,
    drift_bounds,
    one_shot_detector,
    subspace_increments,
)
from sscusum.linalg import top_singular_vector, window_increments
from sscusum.sync import joint_estimate


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: PASS {name}{suffix}")


# -------------------------------------------------------------------------
# 1. Recursion exactness
# -------------------------------------------------------------------------

def test_criterion_1_recursion_exactness():
    e1 = np.array([1.0, 0.0])
    xs = [(2.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-2.0, 3.0), (0.5, -1.0)]
    ticks = np.arange(1, len(xs) + 1)
    # hand evaluation of max(S,0) + x1^2 - 2*ln(2), frozen as literals: the
    # known-direction recursion at sigma2 = rho = 1
    expected_known = [
        2.613705638880109,
        1.2274112777602186,
        0.8411169166403278,
        3.454822555520437,
        2.318528194400546,
    ]
    increments = np.array([float(e1 @ x) ** 2 for x in xs])
    report = cusum_report(ticks, increments, d=2 * math.log(2), b=math.inf, lookahead=0)
    worst = float(np.max(np.abs(report.statistic - expected_known)))
    assert worst <= 1e-12, f"known-direction trajectory off by {worst:.3e}"

    # subspace recursion with d = 0.7 and squared projections
    # [1.44, 0.09, 0.01, 4.0, 0.0]; includes one reset at step 4
    proj = np.array([1.2, 0.3, 0.1, 2.0, 0.0])
    expected_subspace = [0.74, 0.13, -0.5599999999999999, 3.3, 2.5999999999999996]
    report = cusum_report(ticks, proj**2, d=0.7, b=math.inf, lookahead=0)
    worst = max(worst, float(np.max(np.abs(report.statistic - expected_subspace))))
    assert worst <= 1e-12, f"subspace trajectory off by {worst:.3e}"
    _report(1, "recursion exactness", f"max deviation {worst:.2e} <= 1e-12")


# -------------------------------------------------------------------------
# 2. Dominant-direction extraction vs. the Jacobi oracle
# -------------------------------------------------------------------------

def test_criterion_2_eigen_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 1.0
    for _ in range(100):
        k = int(rng.integers(2, 11))
        base = rng.standard_normal((k + 3, k))
        a = base.T @ base
        u = rng.standard_normal(k)
        u /= np.linalg.norm(u)
        spiked = a + 2.0 * np.trace(a) * np.outer(u, u)
        v = top_singular_vector(spiked)
        _, vectors = jacobi_eigh(spiked)
        worst = min(worst, abs(v @ vectors[:, 0]))
    assert worst >= 1 - 1e-8, f"worst oracle alignment {worst!r}"
    _report(2, "eigen-oracle equivalence", f"worst |u.u_oracle| = {1 - worst:.2e} from 1")


# -------------------------------------------------------------------------
# 3. Noiseless joint synchronization
# -------------------------------------------------------------------------

def test_criterion_3_noiseless_synchronization():
    rng = np.random.default_rng(33)
    worst_align = 1.0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        tau_max = int(rng.integers(2, 8))
        w = int(rng.integers(6 * tau_max, 10 * tau_max + 20))
        delays = np.zeros(k, dtype=int)
        delays[1:] = rng.integers(-tau_max, tau_max + 1, size=k - 1)
        signs = rng.choice([-1.0, 1.0], size=k)
        alpha = signs * rng.uniform(0.5, 2.0, size=k)
        streams, u = burst_scenario(rng, k, w, tau_max, delays, alpha)
        est = joint_estimate(streams, tau_max=tau_max, t0=0)
        assert np.array_equal(est.delays.tau_hat, delays), (
            f"delays {est.delays.tau_hat.tolist()} != truth {delays.tolist()} "
            f"(k={k}, w={w}, tau_max={tau_max})"
        )
        worst_align = min(worst_align, abs(est.u_hat @ u))
    assert worst_align >= 1 - 1e-6, f"worst direction alignment {worst_align!r}"
    _report(3, "noiseless synchronization", f"50/50 exact, worst |u.u_hat| = {worst_align:.9f}")


# -------------------------------------------------------------------------
# 4. Pre/post-change increment means (validates the estimation-error term)
# -------------------------------------------------------------------------

def test_criterion_4_increment_mean_validation():
    k, w, sigma2 = 5, 200, 1.0
    n_samples = 100_000
    horizon = n_samples + w

    pre = sim.generate_episode(sim.pure_noise_model(k, sigma2), horizon, seed=41)
    inc = window_increments(pre, w)
    pre_mean = inc.mean()
    assert abs(pre_mean - sigma2) <= 0.02 * sigma2, f"pre-change mean {pre_mean:.4f}"

    details = [f"pre {pre_mean:.4f} (target 1 +- 2%)"]
    for rho, seed in ((1.0, 42), (2.0, 43)):
        model = sim.mean_shift_model(k, mu=math.sqrt(rho / k), sigma2=sigma2)
        post = sim.generate_episode(model, horizon, seed=seed)
        inc = window_increments(post, w)
        post_mean = inc.mean()
        predicted = sigma2 * (1 + rho * (1 - (1 + rho) * (k - 1) / (w * rho * rho)))
        assert abs(post_mean - predicted) <= 0.05 * predicted, (
            f"rho={rho}: post mean {post_mean:.4f} vs predicted {predicted:.4f}"
        )
        details.append(f"rho={rho}: {post_mean:.4f} vs {predicted:.4f} (+- 5%)")
    _report(4, "increment-mean validation", "; ".join(details))


# -------------------------------------------------------------------------
# 5. Drift sign with the midpoint drift
# -------------------------------------------------------------------------

def test_criterion_5_drift_sign():
    k, w, sigma2, rho = 5, 200, 1.0, 1.0
    bounds = drift_bounds(sigma2, rho, k, w)
    assert bounds.valid
    d = bounds.midpoint
    ticks = 20_000

    pre = sim.generate_episode(sim.pure_noise_model(k, sigma2), ticks + w, seed=51)
    inc = window_increments(pre, w)
    pre_drift = inc.mean() - d
    pre_se = inc.std(ddof=1) / math.sqrt(inc.size)
    assert pre_drift < -3 * pre_se, f"pre-change drift {pre_drift:.4f} (se {pre_se:.4f})"

    model = sim.mean_shift_model(k, mu=math.sqrt(rho / k), sigma2=sigma2)
    post = sim.generate_episode(model, ticks + w, seed=52)
    inc = window_increments(post, w)
    post_drift = inc.mean() - d
    post_se = inc.std(ddof=1) / math.sqrt(inc.size)
    assert post_drift > 3 * post_se, f"post-change drift {post_drift:.4f} (se {post_se:.4f})"
    _report(
        5,
        "drift sign at interval midpoint",
        f"d={d:.3f}: pre {pre_drift:+.3f}, post {post_drift:+.3f} (both beyond 3 s.e.)",
    )


# -------------------------------------------------------------------------
# 6. Operating-curve comparison against the one-shot baseline
# -------------------------------------------------------------------------

def _curve(spec, k, mu, b_grid, trials, seed, horizon_arl, horizon_edd, tau_max):
    noise = sim.pure_noise_model(k, 1.0)
    change = sim.random_delay_factory(k, mu, 1.0, tau_max)
    return sim.operating_curve(
        spec, noise, change, b_grid, trials, seed,
        horizon_arl=horizon_arl, horizon_edd=horizon_edd,
    )


def _interp_edd(points, arl):
    """EDD at a given ARL by linear interpolation on log-ARL."""
    xs = np.log([p.arl for p in points])
    ys = [p.edd for p in points]
    return float(np.interp(math.log(arl), xs, ys))


# 6b's operating point. 6a's weak-signal point is ruled against it: a weaker
# per-sensor shift whose pooled shift the w-sample window still resolves at
# least as well as 6b's does.
STRONG_K, STRONG_MU, COMPARISON_W = 50, 0.25, 20


def _comparison(k, mu, d, ss_grid, os_grid, horizon_arl_ss, horizon_arl_os, horizon_edd, seed):
    tau_max, trials = 20, 500
    spec_ss = sim.SubspaceSpec(w=COMPARISON_W, tau_max=tau_max, d=d, sync=False)
    spec_os = sim.OneShotSpec(mu=mu, sigma2=1.0)
    ss = _curve(spec_ss, k, mu, ss_grid, trials, seed, horizon_arl_ss, horizon_edd, tau_max)
    os_ = _curve(spec_os, k, mu, os_grid, trials, seed + 1, horizon_arl_os, horizon_edd, tau_max)
    assert all(p.censored_frac <= 0.5 for p in ss + os_), "excessive censoring"
    return ss, os_


def _fmt(points):
    return " ".join(f"(b={p.b:g}: ARL {p.arl:.0f}, EDD {p.edd:.0f})" for p in points)


def _detectability(k, mu, w):
    """mu^4 k w = rho^2 w / k with rho = k mu^2: the pooled SNR squared over
    the window's aspect ratio k / w. The top eigenvector of a w-sample
    covariance asymptotically carries the signal direction only when it
    exceeds 1 (spiked-covariance threshold); the closed-form
    ``drift_bounds`` interval is a stricter first-order version of the
    same condition."""
    return mu**4 * k * w


def _calibrated_point(k, mu, seed):
    """Monte Carlo drift calibration at (k, mu) with the comparison window,
    plus a description of how well the window resolves the shift."""
    cal = sim.empirical_drift(
        sim.pure_noise_model(k, 1.0),
        sim.mean_shift_model(k, mu, 1.0),
        w=COMPARISON_W,
        ticks=60_000,
        seed=seed,
    )
    gap = cal.post_mean - cal.pre_mean
    gap_se = gap / math.hypot(cal.pre_se, cal.post_se)
    detail = (
        f"k={k}, mu={mu}, w={COMPARISON_W}: mu^4 k w = {_detectability(k, mu, COMPARISON_W):.2f}, "
        f"calibrated post - pre = {gap:.3f} ({gap_se:.1f} combined s.e.)"
    )
    return cal, gap_se, detail


def _assert_calibration_resolves(cal, gap_se, detail):
    assert cal.valid and gap_se >= 10, (
        f"calibration does not resolve the shift (need post - pre >= 10 s.e.): {detail}"
    )


@pytest.mark.slow
def test_criterion_6a_weak_signal_dominance():
    """Weak, asynchronous shift: the subspace curve is required to dominate
    the exact-shift one-shot race at every matched ARL.

    The operating point must first pass the precondition rule, asserted
    before any curve is run: (a) a per-sensor shift weaker than 6b's,
    (b) mu^4 k w at least 6b's, (c) a valid calibration with post - pre
    at least 10 combined s.e. mu = 0.2 is the weakest shift in 0.05 steps
    whose k under (b) fits the slow tier; k = 125 gives mu^4 k w = 4.0.
    """
    k, mu = 125, 0.2
    cal, gap_se, detail = _calibrated_point(k, mu, seed=60)
    assert mu < STRONG_MU, f"shift is not weaker than 6b's mu={STRONG_MU}: {detail}"
    floor = _detectability(STRONG_K, STRONG_MU, COMPARISON_W)
    assert _detectability(k, mu, COMPARISON_W) >= floor, (
        f"window cannot resolve the pooled shift (need mu^4 k w >= {floor:.2f}): {detail}"
    )
    _assert_calibration_resolves(cal, gap_se, detail)

    ss, os_ = _comparison(
        k, mu, cal.midpoint,
        ss_grid=[7.5, 9.0, 10.5, 12.0, 13.5],
        os_grid=[5.25, 6.25, 7.25, 8.25, 9.25],
        horizon_arl_ss=25_000, horizon_arl_os=60_000, horizon_edd=4_000,
        seed=61,
    )
    lo, hi = min(p.arl for p in os_), max(p.arl for p in os_)
    compared, losses = 0, []
    for p in ss:
        if lo <= p.arl <= hi:
            compared += 1
            rival = _interp_edd(os_, p.arl)
            if not p.edd < rival:
                losses.append(f"ARL {p.arl:.0f}: subspace EDD {p.edd:.0f} >= one-shot {rival:.0f}")
    assert compared >= 3, "threshold grids failed to produce matched run lengths"
    assert not losses, (
        f"subspace does not dominate one-shot at mu={mu}, k={k} with w={COMPARISON_W}:\n  "
        + "\n  ".join(losses)
        + f"\nsubspace: {_fmt(ss)}\none-shot: {_fmt(os_)}"
    )
    _report("6a", "weak-signal dominance", f"{compared} matched run lengths, all dominated; {detail}")


@pytest.mark.slow
def test_criterion_6b_strong_signal_crossover():
    """Stronger shift: the baseline may win at small run lengths, but the
    subspace detector must win at the largest matched run length."""
    k, mu = STRONG_K, STRONG_MU
    cal, gap_se, detail = _calibrated_point(k, mu, seed=62)
    _assert_calibration_resolves(cal, gap_se, detail)
    ss, os_ = _comparison(
        k, mu, cal.midpoint,
        ss_grid=[4.0, 7.0, 10.0, 13.0, 16.0],
        os_grid=[1.5, 2.5, 3.5, 5.0, 7.5],
        horizon_arl_ss=30_000, horizon_arl_os=40_000, horizon_edd=4_000,
        seed=63,
    )
    arl_star = min(max(p.arl for p in ss), max(p.arl for p in os_))
    ss_edd = _interp_edd(ss, arl_star)
    os_edd = _interp_edd(os_, arl_star)
    assert ss_edd < os_edd, (
        f"no large-run-length advantage at ARL {arl_star:.0f}: "
        f"subspace EDD {ss_edd:.0f} vs one-shot {os_edd:.0f}\n"
        f"subspace: {_fmt(ss)}\none-shot: {_fmt(os_)}"
    )
    _report(
        "6b",
        "strong-signal large-ARL dominance",
        f"at ARL {arl_star:.0f}: subspace EDD {ss_edd:.0f} < one-shot {os_edd:.0f}",
    )


# -------------------------------------------------------------------------
# 7. Window accounting
# -------------------------------------------------------------------------

def test_criterion_7_window_accounting():
    rng = np.random.default_rng(77)
    checked = 0
    for w in (1, 4, 9):
        streams = rng.standard_normal((3, 300)) + 1.0
        det = SubspaceCusum(w=w, d=1.0, b=4.0)
        for frame in frames_from_array(streams, t0=1):
            det.step(frame)
        assert det.state.crossed_at is not None
        assert det.state.reported_at - det.state.crossed_at == w
        checked += 1
    for w in (5, 12):
        streams = rng.standard_normal((4, 400)) + 0.8
        result = async_pipeline(streams, w=w, tau_max=3, d=1.0, b=4.0, sync=True)
        assert result.report.reported_at - result.report.crossed_at == w
        checked += 1
    report = one_shot_detector(rng.standard_normal((3, 200)) + 1.0, 1.0, 1.0, b=3.0)
    assert report.reported_at - report.crossed_at == 0
    checked += 1
    _report(7, "window accounting", f"{checked} alarmed runs, reported - crossed = w exactly")


# -------------------------------------------------------------------------
# 8. Continuous-record workflow (requires user-supplied data)
# -------------------------------------------------------------------------

def _top_peaks(ticks, values, n, min_separation):
    order = np.argsort(values)[::-1]
    chosen = []
    for idx in order:
        t = ticks[idx]
        if all(abs(t - c) >= min_separation for c in chosen):
            chosen.append(t)
        if len(chosen) == n:
            break
    return sorted(chosen)


@pytest.mark.slow
@pytest.mark.skipif(
    "SSCUSUM_SEISMIC_CSV" not in os.environ,
    reason="set SSCUSUM_SEISMIC_CSV to a 250 Hz sensor CSV to run",
)
def test_criterion_8_continuous_record_workflow():
    rate = 250.0
    catalog_sec = [594.0, 2123.7, 6369.2]
    t0, raw = read_sensor_csv(os.environ["SSCUSUM_SEISMIC_CSV"])
    streams = np.stack([normalize_stream(row) for row in raw])
    w, tau_max = 200, 100
    prefix = int(500 * rate)
    _, inc = subspace_increments(streams[:, :prefix], w=w, tau_max=tau_max, sync=True, t0=t0)
    d = calibrate_drift(inc, factor=1.5)
    detection = async_pipeline(
        streams, w=w, tau_max=tau_max, d=d, b=math.inf, sync=True, t0=t0,
        full_trajectory=True,
    )
    reported_sec = (detection.report.ticks + w) / rate
    peaks = _top_peaks(reported_sec, detection.report.statistic, 3, min_separation=120.0)
    for got, want in zip(peaks, catalog_sec):
        assert abs(got - want) <= 15.0, f"peak at {got:.1f} s vs catalog {want:.1f} s"
    _report(8, "continuous-record workflow", f"peaks at {[f'{p:.1f}' for p in peaks]} s")


# -------------------------------------------------------------------------
# 9. Seeded determinism of simulation commands
# -------------------------------------------------------------------------

def test_criterion_9_byte_identical_outputs(tmp_path):
    from sscusum.cli import main

    sim_args = ["simulate", "--k", "4", "--sigma2", "1", "--mu", "0.5", "--tau-max", "3",
                "--horizon", "200", "--seed", "99"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(sim_args + ["--out", str(a)]) == 0
    assert main(sim_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    curve_args = ["curve", "--k", "3", "--mu", "0.8", "--w", "8", "--no-sync",
                  "--trials", "10", "--horizon", "1500", "--horizon-edd", "300",
                  "--b-grid", "2,4", "--b-grid-oneshot", "1,2", "--d", "1.3", "--seed", "7"]
    ca, cb = tmp_path / "ca.csv", tmp_path / "cb.csv"
    assert main(curve_args + ["--out", str(ca)]) == 0
    assert main(curve_args + ["--out", str(cb)]) == 0
    assert ca.read_bytes() == cb.read_bytes()
    _report(9, "byte-identical seeded outputs", "simulate and curve reruns matched")


# -------------------------------------------------------------------------

if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    criteria = [
        ("1", test_criterion_1_recursion_exactness),
        ("2", test_criterion_2_eigen_oracle_equivalence),
        ("3", test_criterion_3_noiseless_synchronization),
        ("4", test_criterion_4_increment_mean_validation),
        ("5", test_criterion_5_drift_sign),
        ("6a", test_criterion_6a_weak_signal_dominance),
        ("6b", test_criterion_6b_strong_signal_crossover),
        ("7", test_criterion_7_window_accounting),
        ("8", test_criterion_8_continuous_record_workflow),
        ("9", test_criterion_9_byte_identical_outputs),
    ]
    failures = 0
    for num, fn in criteria:
        if num == "8" and "SSCUSUM_SEISMIC_CSV" not in os.environ:
            print(f"ACCEPTANCE {num}: SKIP continuous-record workflow (no data supplied)")
            continue
        try:
            if num == "9":
                with tempfile.TemporaryDirectory() as tmp:
                    fn(Path(tmp))
            else:
                fn()
        except AssertionError as exc:
            failures += 1
            first = str(exc).splitlines()[0] if str(exc) else "assertion failed"
            print(f"ACCEPTANCE {num}: FAIL {first}")
    sys.exit(1 if failures else 0)
