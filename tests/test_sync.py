"""Delay estimation and the joint waveform/delay loop."""

import numpy as np
import pytest

from oracles import best_shift, correlation_scan
from sscusum.errors import InsufficientLookaheadError, ZeroCorrelationWarning, ZeroMatrixError
from sscusum.sync import _joint_fit, joint_estimate


def shifted_series(template, origin_t, shift, cover_lo, cover_hi, gain=1.0):
    """sensor(t) = gain * template(t - shift) over ticks cover_lo..cover_hi."""
    s = np.asarray(template, float)

    def value(t):
        idx = t - shift - origin_t
        return gain * s[idx] if 0 <= idx < s.size else 0.0

    return np.array([value(t) for t in range(cover_lo, cover_hi + 1)])


def first_pass_delay(sensor, template, tau_max, sensor_origin, origin_t, window=True):
    """Shift of ``sensor`` against ``template`` from joint_estimate's delay
    search: its first pass correlates every sensor with the reference's
    window, and the reference row here carries the template there."""
    cover_hi = sensor_origin + len(sensor) - 1
    reference = shifted_series(template, origin_t, 0, sensor_origin, cover_hi)
    est = joint_estimate(
        np.stack([reference, sensor]),
        tau_max=tau_max,
        t0=sensor_origin,
        n_max=1,
        window=(origin_t, len(template)) if window else None,
    )
    return int(est.delays.tau_hat[1])


class TestMlDelay:
    """The maximum-likelihood delay search, through joint_estimate's first pass."""

    template = np.array([0.0, 1.0, 2.0, 1.0, 0.0])  # ticks 1..5

    def test_recovers_pure_shift(self):
        sensor = shifted_series(self.template, 1, 3, -4, 10)
        assert first_pass_delay(sensor, self.template, 5, -4, 1) == 3

    def test_sign_flip_recovered(self):
        sensor = shifted_series(self.template, 1, 2, -4, 10, gain=-1.0)
        assert first_pass_delay(sensor, self.template, 5, -4, 1) == 2

    def test_matches_exhaustive_oracle_on_noise(self):
        rng = np.random.default_rng(0)
        template = rng.standard_normal(16)  # ticks 10..25
        for trial in range(25):
            sensor = rng.standard_normal(16 + 8)  # covers ticks 6..29
            got = first_pass_delay(sensor, template, 4, 6, 10)
            assert got == best_shift(correlation_scan(sensor, 6, template, 10, 4))

    def test_default_origin_is_extended_window(self):
        # without a window, the analysis window leaves tau_max headroom on both sides
        sensor = shifted_series(self.template, 1, 3, -4, 10)
        assert first_pass_delay(sensor, self.template, 5, -4, 1, window=False) == 3

    def test_tie_breaks_smallest_magnitude_then_smallest(self):
        template = np.array([1.0, 0.0])  # ticks 0..1, so corr(z) = sensor(z)
        # equal magnitude at z = -2 and z = +2, larger than the rest
        sensor = np.array([0.0, 5.0, 0.0, 0.0, 0.0, -5.0, 0.0, 0.0])  # ticks -3..4
        assert first_pass_delay(sensor, template, 3, -3, 0) == -2

    def test_all_zero_correlations_warns_and_returns_zero(self):
        message = r"sensors \[1\] in the window starting at tick 1; their shifts default to 0"
        with pytest.warns(ZeroCorrelationWarning, match=message):
            assert first_pass_delay(np.zeros(15), self.template, 5, -4, 1) == 0

    def test_insufficient_coverage_rejected(self):
        with pytest.raises(InsufficientLookaheadError):
            first_pass_delay(np.zeros(10), self.template, 5, 0, 1)

    def test_output_always_within_bound(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            w = int(rng.integers(2, 20))
            tau_max = int(rng.integers(0, 6))
            streams = rng.standard_normal((4, w + 2 * tau_max))
            tau = joint_estimate(streams, tau_max=tau_max, t0=0, n_max=1).delays.tau_hat
            assert np.abs(tau).max() <= tau_max


def burst_scenario(rng, k, w, tau_max, true_delays, alpha=None, sigma=0.0):
    """Noise-burst source observed at per-sensor shifts; returns (streams, t0, u)."""
    L = w + 2 * tau_max
    burst_len = max(4, w // 3)
    burst = rng.standard_normal(burst_len)
    start = tau_max + (w - burst_len) // 2  # keep every shifted copy inside the window
    alpha = np.ones(k) if alpha is None else np.asarray(alpha, float)
    source = np.zeros(3 * L)
    source[L + start : L + start + burst_len] = burst
    streams = np.stack(
        [
            a * source[L - dtau : 2 * L - dtau] + sigma * rng.standard_normal(L)
            for a, dtau in zip(alpha, true_delays)
        ]
    )
    return streams, alpha / np.linalg.norm(alpha)


class TestJointEstimate:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        delays = np.array([0, 4, -3])
        alpha = np.array([1.0, 0.8, 0.5])
        streams, u = burst_scenario(rng, 3, 60, 6, delays, alpha)
        est = joint_estimate(streams, tau_max=6, t0=0)
        assert np.array_equal(est.delays.tau_hat, delays)
        assert est.delays.converged
        assert abs(est.u_hat @ u) >= 1 - 1e-6

    def test_identical_copy_converges_in_one_pass(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal(40)
        streams = np.stack([row, row])
        est = joint_estimate(streams, tau_max=4, t0=0)
        assert est.delays.tau_hat.tolist() == [0, 0]
        assert est.delays.iterations == 1
        assert est.delays.converged

    def test_n_max_one_returns_first_pass(self):
        rng = np.random.default_rng(4)
        streams, _ = burst_scenario(rng, 3, 40, 5, [0, 3, -2])
        est = joint_estimate(streams, tau_max=5, t0=0, n_max=1)
        assert est.delays.iterations == 1
        # true delays are found on the first pass but the delta test has not
        # fired against the all-zero initialization
        assert not est.delays.converged
        assert est.delays.tau_hat.tolist() == [0, 3, -2]

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        delays = [0, 2, -4, 1]
        streams, _ = burst_scenario(rng, 4, 50, 5, delays, sigma=0.1)
        base = joint_estimate(streams, tau_max=5, t0=0)
        shifted = joint_estimate(streams, tau_max=5, t0=100, window=(105, 50))
        assert np.array_equal(base.delays.tau_hat, shifted.delays.tau_hat)

    def test_batched_delays_match_per_sensor_ml_delay(self):
        rng = np.random.default_rng(6)
        k, w, tau_max = 5, 30, 4
        streams = rng.standard_normal((k, w + 2 * tau_max))
        est = joint_estimate(streams, tau_max=tau_max, t0=0, n_max=1)
        template = streams[0, tau_max : tau_max + w]  # the reference's window, ticks tau_max..
        for i in range(1, k):
            corr = correlation_scan(streams[i], 0, template, tau_max, tau_max)
            assert est.delays.tau_hat[i] == best_shift(corr)

    def test_termination_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            streams = rng.standard_normal((4, 60))
            est = joint_estimate(streams, tau_max=6, t0=0, n_max=5)
            assert est.delays.iterations <= 5

    def test_waveform_estimate_length(self):
        rng = np.random.default_rng(8)
        streams = rng.standard_normal((3, 52))
        est = joint_estimate(streams, tau_max=6, t0=0)
        assert est.waveform.w == 40
        assert est.waveform.origin_t == 6

    @pytest.mark.parametrize("k, n", [(3, 30), (8, 6)])  # the second has k > w
    def test_zero_window_has_no_direction(self, k, n):
        with pytest.warns(ZeroCorrelationWarning), pytest.raises(ZeroMatrixError):
            joint_estimate(np.zeros((k, n)), tau_max=1, t0=0)

    def test_window_coverage_validated(self):
        with pytest.raises(InsufficientLookaheadError):
            joint_estimate(np.zeros((2, 20)), tau_max=3, t0=0, window=(0, 18))

    def test_needs_two_sensors_and_two_samples(self):
        with pytest.raises(ValueError):
            joint_estimate(np.zeros((1, 30)), tau_max=2, t0=0)
        with pytest.raises(ValueError):
            joint_estimate(np.ones((2, 9)), tau_max=4, t0=0)  # window collapses to 1


def _noisy_record(rng, k, n, tau_max, noise):
    """A common noise source seen at per-sensor shifts, plus sensor noise."""
    source = rng.standard_normal(n + 2 * tau_max)
    shifts = rng.integers(0, 2 * tau_max + 1, size=k)
    return np.stack([source[s : s + n] for s in shifts]) + noise * rng.standard_normal((k, n))


class TestBatchedJointLoop:
    """The batched pass loop over a stack of fit windows, row for row
    against one-window calls."""

    @pytest.mark.parametrize(
        "k, w, tau_max, n_max, seed",
        [(4, 12, 3, 3, 0), (6, 4, 2, 4, 0)],  # the second has k > w
    )
    def test_rows_equal_one_window_calls(self, k, w, tau_max, n_max, seed):
        rng = np.random.default_rng(seed)
        data = _noisy_record(rng, k, 300, tau_max, noise=1.5)
        starts = np.arange(10, 280 - w, 9)
        profiles, u_hat, s_hat = _joint_fit(
            data, starts, w, tau_max=tau_max, delta=1, n_max=n_max, t0=1, reference=0
        )
        passes = [p.iterations for p in profiles]
        assert len(set(passes)) > 1  # rows converge at different passes
        assert any(p.iterations == n_max and not p.converged for p in profiles)
        for j, start in enumerate(starts):
            one = joint_estimate(data, tau_max=tau_max, n_max=n_max, window=(start, w), t0=1)
            assert np.array_equal(profiles[j].tau_hat, one.delays.tau_hat)
            assert profiles[j].iterations == one.delays.iterations
            assert profiles[j].converged == one.delays.converged
            assert np.array_equal(u_hat[j], one.u_hat)
            assert np.array_equal(s_hat[j], one.waveform.s_hat)

    def test_zero_sensor_in_one_row_warns_with_its_start(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((3, 120))
        data[2, 40:70] = 0.0  # covers the second window with its headroom, and no other
        with pytest.warns(ZeroCorrelationWarning) as caught:
            profiles, _, _ = _joint_fit(
                data, np.array([12, 46, 80]), 20, tau_max=5, delta=1, n_max=10, t0=1,
                reference=0,
            )
        messages = [str(w.message) for w in caught]
        assert messages and all(
            "sensors [2] in the window starting at tick 46;" in m for m in messages
        )
        assert profiles[1].tau_hat[2] == 0
