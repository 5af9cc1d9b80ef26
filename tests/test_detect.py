"""CUSUM recursions, drivers, drift selection, and the asynchronous pipeline."""

import math

import numpy as np
import pytest

from oracles import covariance_triple_loop, jacobi_eigh, scalar_cusum
from sscusum.core import MultiSensorFrame, align_frames, frames_from_array
from sscusum.detect import (
    CusumState,
    SubspaceCusum,
    async_pipeline,
    calibrate_drift,
    cusum_report,
    cusum_step_known_u,
    drift_bounds,
    one_shot_detector,
    run_detector,
    subspace_cusum_step,
    subspace_increments,
    write_report_csv,
    write_trajectory_csv,
)
from sscusum.errors import DegenerateInputError, IndependenceViolationError, NumericalError
from sscusum.linalg import window_increments
from sscusum.sync import joint_estimate

E1 = np.array([1.0, 0.0])
DIAGONAL = np.array([1.0, 1.0]) / math.sqrt(2.0)
# the projection of (big, big) on DIAGONAL: 1e200 overflows only its square,
# 1.5e308 the projection itself
OVERFLOWING = [1e200, 1.5e308]


def frame(t, *values):
    return MultiSensorFrame(t=t, values=np.asarray(values, float))


class TestKnownRecursion:
    def test_hand_value(self):
        state = cusum_step_known_u(CusumState(), frame(1, 2.0, 0.0), E1, sigma2=1.0, rho=1.0)
        assert state.S == pytest.approx(4 - 2 * math.log(2), abs=1e-12)
        assert state.S == pytest.approx(2.61371, abs=1e-5)

    def test_reset_then_decrement(self):
        state = cusum_step_known_u(
            CusumState(S=-1.0), frame(1, 0.0, 3.0), E1, sigma2=1.0, rho=1.0
        )
        assert state.S == pytest.approx(-2 * math.log(2), abs=1e-12)

    def test_offset_value(self):
        from sscusum.detect import llr_offset

        assert llr_offset(1.0, 1.0) == pytest.approx(2 * math.log(2), abs=1e-12)
        assert llr_offset(1.0, 1.0) == pytest.approx(1.38629, abs=1e-5)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            cusum_step_known_u(CusumState(), frame(1, 1.0, 0.0), 1.01 * E1, 1.0, 1.0)

    @pytest.mark.parametrize("big", OVERFLOWING)
    def test_overflowing_frame_is_numerical_error(self, big):
        with pytest.raises(NumericalError, match="non-finite squared projection"):
            cusum_step_known_u(CusumState(), frame(1, big, big), DIAGONAL, 1.0, 1.0)


class TestSubspaceStep:
    def test_accumulate(self):
        state = CusumState(S=2.0, d=1.0)
        u = np.array([0.0, 1.0])
        out = subspace_cusum_step(state, frame(4, 0.0, math.sqrt(3.0)), u)
        assert out.S == pytest.approx(4.0, abs=1e-12)

    def test_reset_then_decrement(self):
        state = CusumState(S=-0.5, d=1.0)
        u = np.array([0.0, 1.0])
        out = subspace_cusum_step(state, frame(4, 0.0, math.sqrt(0.5)), u)
        assert out.S == pytest.approx(-0.5, abs=1e-12)

    def test_independence_contract_enforced(self):
        state = CusumState(d=1.0)
        with pytest.raises(IndependenceViolationError):
            subspace_cusum_step(state, frame(10, 1.0, 0.0), E1, u_window_start=10)
        ok = subspace_cusum_step(state, frame(10, 1.0, 0.0), E1, u_window_start=11)
        assert ok.S == pytest.approx(0.0)

    @pytest.mark.parametrize("big", OVERFLOWING)
    def test_overflowing_frame_is_numerical_error(self, big):
        with pytest.raises(NumericalError, match="non-finite squared projection"):
            subspace_cusum_step(CusumState(d=1.0), frame(1, big, big), DIAGONAL)


class TestRunDetector:
    def test_deterministic_ramp(self):
        # constant frames make u_hat exactly e1, so increments are +1 with d=0
        det = SubspaceCusum(w=3, d=0.0, b=5.0)
        stream = (frame(t, 1.0, 0.0) for t in range(1, 50))
        report = run_detector(stream, det)
        assert report.crossed_at == 5
        assert report.reported_at == 5 + 3
        assert np.allclose(report.statistic, np.arange(1.0, 6.0))

    def test_zero_threshold_crosses_at_first_nonnegative(self):
        streams = np.full((2, 5), 0.125)  # x = mu/2 exactly: zero increments
        report = one_shot_detector(streams, mu=0.25, sigma2=1.0, b=0.0)
        assert report.crossed_at == 1

    def test_exhausted_stream_is_no_alarm(self):
        det = SubspaceCusum(w=2, d=5.0, b=1e9)
        report = run_detector(frames_from_array(np.random.default_rng(0).standard_normal((2, 30))), det)
        assert report.no_alarm
        assert len(report.statistic) == 30 - 2

    def test_long_prechange_stream_stays_quiet(self):
        rng = np.random.default_rng(14)
        report = one_shot_detector(rng.standard_normal((3, 10_000)), mu=0.5, sigma2=1.0, b=1e6)
        assert report.no_alarm
        assert report.reported_at is None
        assert len(report.statistic) == 10_000

    def test_crossing_state_bookkeeping(self):
        det = SubspaceCusum(w=2, d=0.0, b=3.0)
        run_detector((frame(t, 1.0, 0.0) for t in range(1, 20)), det)
        assert det.state.crossed_at == 3
        assert det.state.reported_at == 5

    def test_threshold_monotonicity_readout(self):
        rng = np.random.default_rng(1)
        det = SubspaceCusum(w=4, d=0.8, b=math.inf)
        report = run_detector(frames_from_array(rng.standard_normal((3, 400))), det, full_trajectory=True)
        crossings = [report.crossing_for(b)[0] for b in [0.5, 1.0, 2.0, 4.0]]
        seen = [c for c in crossings if c is not None]
        assert seen == sorted(seen)

    def test_reset_law(self):
        rng = np.random.default_rng(2)
        d = 1.3
        det = SubspaceCusum(w=5, d=d, b=math.inf)
        report = run_detector(frames_from_array(rng.standard_normal((3, 300))), det, full_trajectory=True)
        assert np.all(report.statistic >= -d - 1e-12)


class TestStreamingStep:
    def test_state_tracks_emitted_value_and_keeps_first_crossing(self):
        # frames along e1 make u_hat exactly e1, so increments are a_t^2 - d
        det = SubspaceCusum(w=2, d=2.0, b=5.0)
        a = [3.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0]
        emitted = []
        for t, a_t in enumerate(a, start=1):
            out = det.step(frame(t, a_t, 0.0))
            if out is not None:
                emitted.append(out)
                assert det.state.S == out[1]
        # 7 crosses at t=1, dips to 4 at t=4, crosses again with 11 at t=5
        assert emitted == [(1, 7.0), (2, 6.0), (3, 5.0), (4, 4.0), (5, 11.0), (6, 10.0)]
        assert (det.state.crossed_at, det.state.reported_at) == (1, 3)
        assert (det.state.d, det.state.b) == (2.0, 5.0)

    def test_overflowing_released_frame_is_numerical_error(self):
        # the first frame is scored but never in a window, so its square is
        # the first place 1e200 overflows
        det = SubspaceCusum(w=3, d=1.5, b=10.0)
        frames = [frame(1, 1e200, 0.5)] + [frame(t, 0.1 * t, 1.0) for t in range(2, 5)]
        assert [det.step(f) for f in frames[:3]] == [None, None, None]
        with pytest.raises(NumericalError, match="non-finite squared projection"):
            det.step(frames[3])

    @pytest.mark.parametrize("big", OVERFLOWING)
    def test_overflowing_projection_is_numerical_error(self, big):
        det = SubspaceCusum(w=3, d=1.0, b=10.0)
        frames = [frame(1, big, big)] + [frame(t, 1.0, 1.0) for t in range(2, 5)]
        assert [det.step(f) for f in frames[:3]] == [None, None, None]
        with pytest.raises(NumericalError, match="non-finite squared projection"):
            det.step(frames[3])
        assert det.state.crossed_at is None


class TestStreamingMatchesPipeline:
    def test_stream_detect_shape(self):
        # k=3, w=200 noise with one tapered burst: full-rank windows, as
        # streamed one frame at a time in deployment
        rng = np.random.default_rng(77)
        streams = rng.standard_normal((3, 4000))
        t = np.arange(1000)
        burst = 3.0 * np.hanning(1000) * np.sin(2 * np.pi * 0.02 * t)
        streams[:, 1500:2500] += np.outer([0.6, 0.0, 0.8], burst)
        stream = run_detector(frames_from_array(streams), SubspaceCusum(w=200, d=1.5, b=50.0),
                              full_trajectory=True)
        batch = async_pipeline(streams, w=200, tau_max=0, d=1.5, b=50.0, sync=False,
                               full_trajectory=True).report
        assert batch.crossed_at is not None and 1500 < batch.crossed_at < 2500
        assert (stream.crossed_at, stream.reported_at) == (batch.crossed_at, batch.reported_at)
        assert np.array_equal(stream.ticks, batch.ticks)
        assert np.allclose(stream.statistic, batch.statistic, rtol=0, atol=1e-10)


class TestNearTie:
    def test_near_tied_window_steps_and_matches_jacobi(self):
        # a pure-noise window whose top two eigenvalues are 206.6875 and
        # 206.6907 (relative gap 1.6e-5): an iterative solver needs ~10^6 steps
        child = np.random.SeedSequence([1631191312, 3, 4000]).spawn(1)[0]
        streams = np.random.default_rng(child).standard_normal((3, 4000))[:, 1388:1589]
        values, vectors = jacobi_eigh(covariance_triple_loop(streams[:, 1:].T))
        assert (values[0] - values[1]) / values[0] < 2e-5
        det = SubspaceCusum(w=200, d=0.0)
        emitted = [e for e in map(det.step, frames_from_array(streams)) if e is not None]
        assert [t for t, _ in emitted] == [1]
        assert emitted[0][1] == pytest.approx((vectors[:, 0] @ streams[:, 0]) ** 2, abs=1e-8)


class TestKnownDirectionDetector:
    def test_deterministic_trajectory_and_zero_lookahead(self):
        from sscusum.detect import KnownSubspaceCusum, llr_offset

        det = KnownSubspaceCusum(u=E1, sigma2=1.0, rho=1.0, b=6.0)
        report = run_detector((frame(t, 2.0, 0.0) for t in range(1, 40)), det)
        step = 4.0 - llr_offset(1.0, 1.0)  # every tick adds the same amount
        assert np.allclose(report.statistic, step * np.arange(1, len(report.statistic) + 1))
        assert report.lookahead == 0
        assert report.reported_at == report.crossed_at == det.state.crossed_at
        assert report.crossed_at == math.ceil(6.0 / step)


class TestOneShot:
    def test_increment_hand_value(self):
        report = one_shot_detector(np.array([[1.0], [0.0]]), mu=0.25, sigma2=1.0, b=np.inf)
        # max over sensors: the x=1 sensor gives 0.25*(1 - 0.125)
        assert report.statistic[0] == pytest.approx(0.21875, abs=1e-12)

    def test_half_mean_gives_zero_increment(self):
        report = one_shot_detector(np.full((1, 4), 0.125), mu=0.25, sigma2=1.0, b=np.inf)
        assert np.allclose(report.statistic, 0.0)

    def test_single_sensor_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(200) + 0.3
        report = one_shot_detector(samples[None, :], mu=0.3, sigma2=1.0, b=np.inf)
        assert np.array_equal(report.statistic, scalar_cusum(samples, 0.3, 1.0))

    def test_zero_mu_rejected(self):
        with pytest.raises(DegenerateInputError):
            one_shot_detector(np.zeros((2, 5)), mu=0.0, sigma2=1.0, b=1.0)

    def test_lookahead_is_zero(self):
        rng = np.random.default_rng(4)
        report = one_shot_detector(rng.standard_normal((3, 500)) + 1.0, mu=1.0, sigma2=1.0, b=3.0)
        assert report.reported_at == report.crossed_at


class TestDriftBounds:
    def test_hand_value(self):
        bounds = drift_bounds(sigma2=1.0, rho=2.0, k=3, w=20)
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(2.85, abs=1e-12)
        assert bounds.valid
        assert bounds.midpoint == pytest.approx(1.925, abs=1e-12)

    def test_large_window_limit(self):
        bounds = drift_bounds(sigma2=2.0, rho=1.5, k=4, w=10**9)
        assert bounds.upper == pytest.approx(2.0 * (1 + 1.5), rel=1e-6)

    def test_empty_interval_flagged(self):
        bounds = drift_bounds(sigma2=1.0, rho=0.5, k=50, w=20)
        assert not bounds.valid
        with pytest.raises(DegenerateInputError):
            _ = bounds.midpoint


class TestCalibrateDrift:
    def test_factor_times_mean(self):
        series = np.array([0.5, 1.5, 1.0])
        assert calibrate_drift(series) == pytest.approx(1.5)
        assert calibrate_drift(series, factor=1.0) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_drift(np.array([]))

    def test_prechange_increment_mean_is_noise_power(self):
        rng = np.random.default_rng(5)
        streams = rng.standard_normal((4, 4000)) * 2.0  # sigma2 = 4
        _, inc = subspace_increments(streams, w=50)
        assert inc.mean() == pytest.approx(4.0, rel=0.05)

    def test_calibrated_drift_makes_prechange_increments_negative(self):
        # calibrate on one pure-noise run, then check a fresh long run at
        # 3 sigma of the Monte Carlo error (10^5 ticks via the fast scan)
        from sscusum.sim import generate_episode, pure_noise_model

        model = pure_noise_model(5, 1.0)
        d = calibrate_drift(window_increments(generate_episode(model, 20_050, seed=100), 50))
        inc = window_increments(generate_episode(model, 100_050, seed=101), 50)
        drift = inc.mean() - d
        se = inc.std(ddof=1) / math.sqrt(inc.size)
        assert drift < -3 * se


class TestAsyncPipeline:
    def test_zero_delay_reduces_to_synchronous_run(self):
        # Identical copies typically self-align at zero shift; this fixture is
        # one where that holds in every window (an out-of-window segment can
        # in principle out-correlate the window itself on pure noise), so the
        # run must reduce to the synchronous detector tick for tick.
        rng = np.random.default_rng(0)
        row = rng.standard_normal(220)
        streams = np.stack([row, row, row])
        result = async_pipeline(
            streams, w=10, tau_max=3, d=1.1, b=math.inf, sync=True, full_trajectory=True
        )
        for _, profile in result.delays:
            assert np.array_equal(profile.tau_hat, np.zeros(3, dtype=int))

        # start the streaming detector at the pipeline's first emitted tick so
        # both statistics accumulate from zero over the same frames; the
        # pipeline also holds tau_max headroom at the tail, hence the slice
        det = SubspaceCusum(w=10, d=1.1, b=math.inf)
        first = result.report.ticks[0]
        sync_report = run_detector(
            frames_from_array(streams[:, first - 1 :], t0=first), det, full_trajectory=True
        )
        n = len(result.report.ticks)
        assert np.array_equal(result.report.ticks, sync_report.ticks[:n])
        assert np.allclose(result.report.statistic, sync_report.statistic[:n], atol=1e-10)

    def test_noiseless_injection_recovers_truth(self):
        # vanishing noise floor keeps every covariance window nonzero
        rng = np.random.default_rng(7)
        k, w, tau_max = 3, 24, 4
        tau = 100
        delays = np.array([0, 3, -2])
        horizon = 200
        ticks = np.arange(1, horizon + 1)
        burst = rng.standard_normal(60)
        signal = np.zeros(horizon + 200)
        signal[:60] = burst
        streams = np.stack(
            [signal[np.clip(ticks - tau - dt, 0, signal.size - 1)] * (ticks > tau + dt) for dt in delays]
        )
        streams += 1e-6 * rng.standard_normal(streams.shape)
        result = async_pipeline(
            streams, w=w, tau_max=tau_max, d=0.5, b=5.0, sync=True, sync_every=1
        )
        assert result.report.crossed_at is not None
        assert result.report.reported_at >= tau
        post = [p for t, p in result.delays if t >= tau + tau_max]
        assert post, "no delay estimates in the post-change region"
        assert np.array_equal(post[-1].tau_hat, delays)

    def test_window_accounting(self):
        rng = np.random.default_rng(8)
        streams = rng.standard_normal((3, 400)) + 1.0
        result = async_pipeline(streams, w=7, tau_max=2, d=1.0, b=3.0, sync=True)
        assert result.report.reported_at - result.report.crossed_at == 7

    def test_skipped_ticks_logged(self):
        rng = np.random.default_rng(9)
        streams = rng.standard_normal((2, 100))
        result = async_pipeline(streams, w=5, tau_max=4, d=1.0, b=math.inf, sync=True)
        assert list(result.skipped) == [1, 2, 3, 4]
        assert result.report.ticks[0] == 5
        # without delay estimation there is nothing to skip
        result = async_pipeline(streams, w=5, tau_max=4, d=1.0, b=math.inf, sync=False)
        assert list(result.skipped) == []
        assert result.report.ticks[0] == 1

    def test_increments_feed_calibration(self):
        rng = np.random.default_rng(10)
        streams = rng.standard_normal((3, 800))
        ticks, inc = subspace_increments(streams, w=20)
        assert ticks.shape == inc.shape
        assert calibrate_drift(inc) == pytest.approx(1.5 * inc.mean())

    def test_stream_too_short_rejected(self):
        with pytest.raises(ValueError):
            async_pipeline(np.zeros((2, 10)), w=8, tau_max=2, d=1.0, b=1.0, sync=True)


def _naive_pipeline(streams, w, tau_max, d, sync_every, t0=1):
    """Tick-by-tick oracle: delays from joint_estimate at each sync tick,
    frames aligned one at a time, direction by Jacobi rotations."""
    n = streams.shape[1]
    t_first, t_last = t0 + tau_max, t0 + n - 1 - w - tau_max
    delays, increments, path, S = [], [], [], 0.0
    for t in range(t_first, t_last + 1):
        if (t - t_first) % sync_every == 0:
            profile = joint_estimate(streams, tau_max=tau_max, window=(t + 1, w), t0=t0).delays
            delays.append((t, profile.tau_hat))
        future = np.stack([align_frames(streams, t + m, profile, t0).values for m in range(1, w + 1)])
        _, vectors = jacobi_eigh(covariance_triple_loop(future))
        inc = float(vectors[:, 0] @ align_frames(streams, t, profile, t0).values) ** 2
        S = max(S, 0.0) + inc - d
        increments.append(inc)
        path.append(S)
    return delays, np.array(increments), np.array(path)


class TestSegmentedPipeline:
    @pytest.mark.parametrize(
        "k, w, sync_every",
        [(3, 10, 1), (3, 10, 7), (3, 10, 10), (6, 4, 4)],  # the last has k > w
    )
    def test_matches_naive_per_tick_oracle(self, k, w, sync_every):
        rng = np.random.default_rng(40 + sync_every + k)
        tau_max, n = 3, 90
        source = rng.standard_normal(n + 2 * tau_max)
        shifts = rng.integers(0, 2 * tau_max + 1, size=k)
        streams = np.stack([source[s : s + n] for s in shifts]) + 0.5 * rng.standard_normal((k, n))
        d = 1.0
        result = async_pipeline(streams, w=w, tau_max=tau_max, d=d, sync_every=sync_every,
                                full_trajectory=True)
        delays, increments, path = _naive_pipeline(streams, w, tau_max, d, sync_every)
        assert [t for t, _ in result.delays] == [t for t, _ in delays]
        for (_, got), (_, want) in zip(result.delays, delays):
            assert np.array_equal(got.tau_hat, want)
        assert np.array_equal(result.report.ticks, np.arange(1 + tau_max, 1 + tau_max + len(path)))
        assert np.allclose(result.increments, increments, rtol=0, atol=1e-8)
        assert np.allclose(result.report.statistic, path, rtol=0, atol=1e-8)

        b = float(np.quantile(path, 0.8))
        crossed = result.report.crossing_for(b)[0]
        stopped = async_pipeline(streams, w=w, tau_max=tau_max, d=d, b=b, sync_every=sync_every)
        assert stopped.report.crossed_at == crossed
        assert stopped.report.ticks[-1] == crossed
        last = crossed - (1 + tau_max)
        assert np.array_equal(stopped.report.statistic, result.report.statistic[: last + 1])
        assert np.array_equal(stopped.increments, result.increments[: last + 1])

    def test_zero_future_window_scores_zero(self):
        rng = np.random.default_rng(41)
        streams = np.zeros((3, 40))
        streams[:, :10] = rng.standard_normal((3, 10))
        result = async_pipeline(streams, w=5, tau_max=0, d=0.5, sync=False, full_trajectory=True)
        assert result.increments[9] == 0.0  # tick 10 is nonzero, ticks 11-15 are zero
        assert np.all(result.increments[10:] == 0.0)
        report = run_detector(frames_from_array(streams), SubspaceCusum(w=5, d=0.5),
                              full_trajectory=True)
        assert np.allclose(report.statistic, result.report.statistic, rtol=0, atol=1e-12)


def _delayed_record(k, n, tau_max, seed):
    """Noise plus a common source seen by each sensor at its own delay."""
    rng = np.random.default_rng(seed)
    source = rng.standard_normal(n + 2 * tau_max)
    shifts = rng.integers(0, 2 * tau_max + 1, size=k)
    return np.stack([source[s : s + n] for s in shifts]) + rng.standard_normal((k, n))


class TestPrefixIdentity:
    """A pass over a prefix scores exactly the leading increments of the full
    pass, which is what lets ``detect`` calibrate from its one pass."""

    @pytest.mark.parametrize(
        "k, w, tau_max, sync, n, prefix",
        [
            (3, 20, 5, True, 400, 333),  # prefix not a multiple of w
            (3, 20, 5, True, 400, 250),  # prefix ends on a segment boundary
            (3, 20, 5, True, 400, 400),  # prefix is the whole record
            (6, 4, 3, True, 200, 57),  # k > w
            (3, 20, 5, False, 400, 333),
            (3, 20, 0, False, 400, 400),
            (3, 5, 0, False, 4300, 4250),  # past one kernel block of windows
        ],
    )
    def test_prefix_pass_is_leading_increments(self, k, w, tau_max, sync, n, prefix):
        streams = _delayed_record(k, n, tau_max, seed=k + w + prefix)
        _, full = subspace_increments(streams, w=w, tau_max=tau_max, sync=sync, t0=4)
        ticks, head = subspace_increments(
            streams[:, :prefix], w=w, tau_max=tau_max, sync=sync, t0=4
        )
        headroom = tau_max if sync else 0
        assert len(head) == prefix - w - 2 * headroom
        assert ticks[0] == 4 + headroom
        assert head.tobytes() == full[: len(head)].tobytes()


class TestCusumReport:
    @pytest.mark.parametrize("b", [3.0, math.inf])
    def test_equals_pipeline_report(self, b):
        streams = _delayed_record(3, 300, 4, seed=5)
        streams[:, 150:] *= 2.0
        run = async_pipeline(streams, w=12, tau_max=4, d=1.2, b=b, full_trajectory=True)
        ticks, increments = subspace_increments(streams, w=12, tau_max=4, sync=True)
        report = cusum_report(ticks, increments, d=1.2, b=b, lookahead=12)
        assert (report.crossed_at is None) == (b == math.inf)
        fields = ("detector", "b", "d", "lookahead", "crossed_at", "reported_at")
        assert [getattr(report, f) for f in fields] == [getattr(run.report, f) for f in fields]
        assert np.array_equal(report.ticks, run.report.ticks)
        assert report.statistic.tobytes() == run.report.statistic.tobytes()


    def test_increments_run_no_cusum(self, monkeypatch):
        streams = _delayed_record(3, 300, 4, seed=6)
        want = async_pipeline(streams, w=12, tau_max=4, d=0.0, full_trajectory=True)

        def no_cusum(*args, **kwargs):
            raise AssertionError("subspace_increments ran the CUSUM recursion")

        monkeypatch.setattr("sscusum.detect._cusum_path", no_cusum)
        ticks, increments = subspace_increments(streams, w=12, tau_max=4, sync=True)
        assert np.array_equal(ticks, want.report.ticks)
        assert increments.tobytes() == want.increments.tobytes()


class TestReportCsv:
    def test_report_schema(self, tmp_path):
        rng = np.random.default_rng(11)
        report = one_shot_detector(rng.standard_normal((2, 300)) + 1.0, 1.0, 1.0, b=4.0)
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "detector,crossed_at,reported_at,b,d"
        assert lines[1].startswith("one_shot,")

    def test_rate_adds_seconds(self, tmp_path):
        rng = np.random.default_rng(12)
        report = one_shot_detector(rng.standard_normal((2, 300)) + 1.0, 1.0, 1.0, b=4.0)
        path = tmp_path / "report.csv"
        write_report_csv(path, report, rate=250.0)
        header = path.read_text().splitlines()[0]
        assert header.endswith("crossed_sec,reported_sec")

    def test_no_alarm_leaves_empty_cells(self, tmp_path):
        report = one_shot_detector(np.zeros((2, 10)) - 1.0, 1.0, 1.0, b=100.0)
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        assert ",,," in path.read_text().splitlines()[1].replace("one_shot,", ",", 1)

    def test_trajectory_schema(self, tmp_path):
        report = one_shot_detector(np.ones((2, 5)), 1.0, 1.0, b=np.inf)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,S"
        assert len(lines) == 6
