"""Delay estimation and the joint waveform/delay loop."""

import numpy as np
import pytest

from oracles import best_shift, correlation_scan
from sscusum.errors import InsufficientLookaheadError, ZeroCorrelationWarning, ZeroMatrixError
from sscusum.sync import WaveformEstimate, joint_estimate, ml_delay


def shifted_series(template, origin_t, shift, cover_lo, cover_hi, gain=1.0):
    """sensor(t) = gain * template(t - shift) over ticks cover_lo..cover_hi."""
    s = np.asarray(template, float)

    def value(t):
        idx = t - shift - origin_t
        return gain * s[idx] if 0 <= idx < s.size else 0.0

    return np.array([value(t) for t in range(cover_lo, cover_hi + 1)])


class TestMlDelay:
    def setup_method(self):
        self.template = WaveformEstimate(np.array([0.0, 1.0, 2.0, 1.0, 0.0]), origin_t=1)

    def test_recovers_pure_shift(self):
        sensor = shifted_series(self.template.s_hat, 1, 3, -4, 10)
        assert ml_delay(sensor, self.template, tau_max=5, sensor_origin=-4) == 3

    def test_sign_flip_recovered(self):
        sensor = shifted_series(self.template.s_hat, 1, 2, -4, 10, gain=-1.0)
        assert ml_delay(sensor, self.template, tau_max=5, sensor_origin=-4) == 2

    def test_matches_exhaustive_oracle_on_noise(self):
        rng = np.random.default_rng(0)
        template = WaveformEstimate(rng.standard_normal(16), origin_t=10)
        for trial in range(25):
            sensor = rng.standard_normal(16 + 8)  # covers ticks 6..29
            got = ml_delay(sensor, template, tau_max=4, sensor_origin=6)
            corr = correlation_scan(sensor, 6, template.s_hat, 10, 4)
            assert got == best_shift(corr)

    def test_default_origin_is_extended_window(self):
        sensor = shifted_series(self.template.s_hat, 1, 3, -4, 10)
        # same series, origin implied as origin_t - tau_max = -4
        assert ml_delay(sensor, self.template, tau_max=5) == 3

    def test_tie_breaks_smallest_magnitude_then_smallest(self):
        template = WaveformEstimate(np.array([1.0]), origin_t=0)
        # corr(z) = sensor(z); equal magnitude at z = -2 and z = +2, larger than rest
        sensor = np.array([0.0, 5.0, 0.0, 0.0, 0.0, -5.0, 0.0])  # ticks -3..3
        assert ml_delay(sensor, template, tau_max=3, sensor_origin=-3) == -2

    def test_all_zero_correlations_warns_and_returns_zero(self):
        sensor = np.zeros(15)
        with pytest.warns(ZeroCorrelationWarning):
            assert ml_delay(sensor, self.template, tau_max=5, sensor_origin=-4) == 0

    def test_insufficient_coverage_rejected(self):
        with pytest.raises(InsufficientLookaheadError):
            ml_delay(np.zeros(10), self.template, tau_max=5, sensor_origin=0)

    def test_output_always_within_bound(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            w = int(rng.integers(2, 20))
            tau_max = int(rng.integers(0, 6))
            template = WaveformEstimate(rng.standard_normal(w), origin_t=0)
            sensor = rng.standard_normal(w + 2 * tau_max)
            z = ml_delay(sensor, template, tau_max=tau_max)
            assert -tau_max <= z <= tau_max


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
        template = WaveformEstimate(streams[0, tau_max : tau_max + w], origin_t=tau_max)
        for i in range(1, k):
            assert est.delays.tau_hat[i] == ml_delay(
                streams[i], template, tau_max, sensor_origin=0
            )

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
