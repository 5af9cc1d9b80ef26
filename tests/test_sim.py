"""Episode generation and the Monte Carlo run-length machinery."""

import numpy as np
import pytest

from sscusum.core import ScenarioModel, Waveform
from sscusum.detect import one_shot_detector
from sscusum.errors import DegenerateInputError
from sscusum.sim import (
    OneShotSpec,
    SubspaceSpec,
    TrialResult,
    empirical_drift,
    estimate_arl,
    estimate_edd,
    fast_crossings_on_array,
    fast_increments,
    generate_episode,
    mean_shift_model,
    operating_curve,
    pure_noise_model,
    random_delay_factory,
    uniform_onsets,
    write_curve_csv,
)
from sscusum.detect import subspace_increments
from sscusum.sim import _trial_crossings


class TestGenerateEpisode:
    def test_noiseless_step_example(self):
        model = mean_shift_model(2, mu=1.0, sigma2=0.0, onsets=np.array([3, 5]))
        model = model.__class__(
            k=2, sigma2=0.0, alpha=np.array([1.0, 2.0]), waveform=model.waveform,
            onsets=np.array([3, 5]),
        )
        streams = generate_episode(model, horizon=6, seed=1)
        assert streams[0].tolist() == [0, 0, 0, 1, 1, 1]
        assert streams[1].tolist() == [0, 0, 0, 0, 0, 2]

    def test_seed_determinism(self):
        model = mean_shift_model(3, mu=0.5, onsets=np.array([2, 4, 6]))
        a = generate_episode(model, 50, seed=9)
        b = generate_episode(model, 50, seed=9)
        assert np.array_equal(a, b)

    def test_mean_shift_special_case(self):
        # constant unit signal turns each sensor into a mean shift of mu
        model = mean_shift_model(4, mu=0.7, sigma2=1.0)
        streams = generate_episode(model, 20_000, seed=2)
        assert streams.mean(axis=1) == pytest.approx(np.full(4, 0.7), abs=0.05)

    def test_onset_beyond_horizon_gives_pure_noise(self):
        model = mean_shift_model(2, mu=5.0, onsets=np.array([100, 100]))
        streams = generate_episode(model, horizon=50, seed=3)
        assert np.abs(streams.mean()) < 0.5

    @pytest.mark.parametrize("short", [1, 255, 256, 257, 700])
    def test_prefix_is_the_shorter_episode(self, short):
        model = mean_shift_model(5, mu=0.4, onsets=np.array([0, 3, 200, 300, 900]))
        long = generate_episode(model, 1000, seed=22)
        assert np.array_equal(long[:, :short], generate_episode(model, short, seed=22))

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            generate_episode(pure_noise_model(2), horizon=0, seed=1)


class TestTrialResult:
    def test_consistent_false_alarm(self):
        TrialResult("x", stopped_at=5, change_point=10, false_alarm=True)
        TrialResult("x", stopped_at=15, change_point=10, false_alarm=False)
        TrialResult("x", stopped_at=None, change_point=None, false_alarm=False)
        TrialResult("x", stopped_at=5, change_point=None, false_alarm=True)

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            TrialResult("x", stopped_at=5, change_point=10, false_alarm=False)
        with pytest.raises(ValueError):
            TrialResult("x", stopped_at=None, change_point=None, false_alarm=True)


class TestUniformOnsets:
    def test_bounds_and_pinning(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            onsets = uniform_onsets(rng, k=8, tau_max=5)
            assert onsets.min() == 0
            assert onsets.max() <= 5

    def test_factory_respects_bound(self):
        factory = random_delay_factory(6, mu=0.3, sigma2=1.0, tau_max=4)
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = factory(rng)
            assert model.change_point == 0
            assert model.onsets.max() - model.onsets.min() <= 4


class TestEstimateArl:
    def test_degenerate_threshold(self):
        # with k sensors racing, the first tick crosses b=-1 almost surely
        spec = OneShotSpec(mu=1.0, sigma2=1.0)
        est = estimate_arl(spec, pure_noise_model(20), b=-1.0, trials=60, seed=6, horizon=50)
        assert est.value == 1.0
        assert est.censored_frac == 0.0

    def test_fully_censored_flagged(self):
        spec = OneShotSpec(mu=0.5, sigma2=1.0)
        est = estimate_arl(spec, pure_noise_model(3), b=1e9, trials=20, seed=7, horizon=40)
        assert est.censored_frac == 1.0
        assert est.unreliable
        assert est.value == 40.0

    def test_two_seeds_agree_within_3se(self):
        spec = OneShotSpec(mu=0.8, sigma2=1.0)
        model = pure_noise_model(5)
        a = estimate_arl(spec, model, b=4.0, trials=300, seed=8, horizon=4000)
        b = estimate_arl(spec, model, b=4.0, trials=300, seed=9, horizon=4000)
        assert abs(a.value - b.value) < 3.0 * np.hypot(a.se, b.se)
        assert a.censored_frac == 0.0

    def test_horizon_from_target(self):
        spec = OneShotSpec(mu=1.0, sigma2=1.0)
        est = estimate_arl(spec, pure_noise_model(4), b=2.0, trials=10, seed=10, target_arl=25)
        assert est.value <= 500  # horizon = 20 * target


class TestEstimateEdd:
    def test_deterministic_ramp(self):
        # x = 1.5 exactly with mu=2, sigma2=1: unit increments, b=5 -> delay 5
        model = mean_shift_model(2, mu=1.5, sigma2=0.0)
        spec = OneShotSpec(mu=2.0, sigma2=1.0)
        est = estimate_edd(spec, model, b=5.0, trials=5, seed=11, horizon=100)
        assert est.value == 5.0
        assert est.se == 0.0
        assert est.false_alarm_frac == 0.0

    def test_monotone_in_signal_strength(self):
        spec_weak = OneShotSpec(mu=0.1, sigma2=1.0)
        spec_strong = OneShotSpec(mu=0.25, sigma2=1.0)
        weak = estimate_edd(
            spec_weak, mean_shift_model(50, mu=0.1), b=3.0, trials=150, seed=12, horizon=3000
        )
        strong = estimate_edd(
            spec_strong, mean_shift_model(50, mu=0.25), b=3.0, trials=150, seed=12, horizon=3000
        )
        assert strong.value < weak.value

    def test_early_alarms_counted_as_false(self):
        # change at tick 30; a crazy-low threshold alarms immediately
        model = mean_shift_model(2, mu=1.0, onsets=np.array([30, 30]))
        spec = OneShotSpec(mu=1.0, sigma2=1.0)
        est = estimate_edd(spec, model, b=-1.0, trials=20, seed=13, horizon=200)
        assert est.false_alarm_frac == 1.0
        assert np.isnan(est.value)

    def test_log_replay_oracle(self):
        # recompute the EDD from raw full trajectories, independently of the
        # crossing readout used by the estimator
        spec = OneShotSpec(mu=0.6, sigma2=1.0)
        model = mean_shift_model(4, mu=0.6)
        b, trials, horizon, seed = 3.0, 40, 2000, 14
        est = estimate_edd(spec, model, b=b, trials=trials, seed=seed, horizon=horizon)

        delays = []
        for child in np.random.SeedSequence(seed).spawn(trials):
            rng = np.random.default_rng(child)
            streams = generate_episode(model, horizon, rng)
            report = one_shot_detector(streams, 0.6, 1.0, b=np.inf, full_trajectory=True)
            hits = np.flatnonzero(report.statistic >= b)
            if hits.size:
                delays.append(report.ticks[hits[0]] - 0)
        assert est.value == pytest.approx(np.mean(delays), abs=1e-12)
        assert est.n_trials == len(delays)


class TestOperatingCurve:
    def test_monotone_in_threshold_and_schema(self, tmp_path):
        spec = OneShotSpec(mu=0.8, sigma2=1.0)
        points = operating_curve(
            spec,
            pure_noise_model(4),
            mean_shift_model(4, mu=0.8),
            b_grid=[1.0, 2.0, 4.0],
            trials=120,
            seed=15,
            horizon_arl=5000,
            horizon_edd=500,
        )
        arls = [p.arl for p in points]
        edds = [p.edd for p in points]
        assert arls == sorted(arls)
        assert edds == sorted(edds)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, points)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "detector,b,arl,arl_se,edd,edd_se,censored_frac"
        assert len(lines) == 4

    def test_seed_determinism(self):
        spec = OneShotSpec(mu=0.8, sigma2=1.0)
        args = dict(
            noise_model=pure_noise_model(3),
            change_model=mean_shift_model(3, mu=0.8),
            b_grid=[1.5, 3.0],
            trials=50,
            seed=16,
            horizon_arl=2000,
            horizon_edd=400,
        )
        a = operating_curve(spec, **args)
        b = operating_curve(spec, **args)
        assert a == b

    def test_grid_validation(self):
        spec = OneShotSpec(mu=0.8)
        with pytest.raises(ValueError):
            operating_curve(spec, pure_noise_model(3), mean_shift_model(3, 0.8),
                            b_grid=[], trials=5, seed=0, horizon_arl=100, horizon_edd=100)
        with pytest.raises(ValueError):
            operating_curve(spec, pure_noise_model(3), mean_shift_model(3, 0.8),
                            b_grid=[2.0, 1.0], trials=5, seed=0, horizon_arl=100, horizon_edd=100)


class TestFastEngine:
    def test_increments_match_reference(self):
        model = pure_noise_model(5)
        streams = generate_episode(model, 500, seed=17)
        _, ref = subspace_increments(streams, w=16, sync=False)
        _, fast = fast_increments(streams, w=16)
        assert np.allclose(ref, fast, atol=1e-8)

    def test_increments_match_reference_wide(self):
        # more sensors than window samples exercises the Gram-side path
        model = mean_shift_model(12, mu=0.4)
        streams = generate_episode(model, 300, seed=18)
        _, ref = subspace_increments(streams, w=8, sync=False)
        _, fast = fast_increments(streams, w=8)
        assert np.allclose(ref, fast, atol=1e-8)

    def test_crossings_match_reference(self):
        model = mean_shift_model(6, mu=0.6)
        streams = generate_episode(model, 600, seed=19)
        spec = SubspaceSpec(w=10, tau_max=0, d=1.2, sync=False)
        grid = [1.0, 3.0, 6.0, 10.0]
        report = spec.run(streams, b=grid[-1])
        ref = [report.crossing_for(b)[1] or -1 for b in grid]
        fast = fast_crossings_on_array(streams, 10, 1.2, grid).tolist()
        assert ref == fast

    def test_fast_trials_deterministic(self):
        spec = SubspaceSpec(w=10, tau_max=5, d=1.1, sync=False)
        factory = random_delay_factory(4, mu=0.8, sigma2=1.0, tau_max=5)
        a = estimate_edd(spec, factory, b=4.0, trials=30, seed=20, horizon=800)
        b = estimate_edd(spec, factory, b=4.0, trials=30, seed=20, horizon=800)
        assert a == b
        assert a.censored_frac == 0.0


class TestEmpiricalDrift:
    def test_interval_brackets_truth(self):
        # k=5, w=120, rho=1: the pre mean sits at the noise power and the post
        # mean above it, so the empirical interval is valid
        k, rho = 5, 1.0
        cal = empirical_drift(
            pure_noise_model(k),
            mean_shift_model(k, mu=np.sqrt(rho / k)),
            w=120,
            ticks=20_000,
            seed=21,
        )
        assert cal.pre_mean == pytest.approx(1.0, rel=0.03)
        assert cal.post_mean > cal.pre_mean
        assert cal.valid
        assert cal.midpoint == pytest.approx((cal.pre_mean + cal.post_mean) / 2)


def _replay(spec, model_source, b_grid, trials, horizon, seed):
    """Reported stop times from one whole episode per trial through
    ``spec.run`` at the largest threshold, read with ``crossing_for``."""
    out = np.full((trials, len(b_grid)), -1, dtype=np.int64)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        model = model_source(rng) if callable(model_source) else model_source
        report = spec.run(generate_episode(model, horizon, rng), b_grid[-1])
        for j, b in enumerate(b_grid):
            reported = report.crossing_for(b)[1]
            if reported is not None:
                out[i, j] = reported
    return out


def _two_waveforms(k, mu, tau_max):
    """Trials pick one of two tabulated waveforms: a short strong burst or a
    slow ramp, so a trial scored with the other one's signal crosses
    elsewhere."""
    tables = (
        Waveform.from_samples(np.full(60, 4.0 * mu)),
        Waveform.from_samples(np.linspace(0.0, 1.0, 400) * mu),
    )

    def factory(rng):
        onsets = uniform_onsets(rng, k, tau_max)
        waveform = tables[int(rng.integers(2))]
        return ScenarioModel(k=k, sigma2=1.0, alpha=np.ones(k), waveform=waveform, onsets=onsets)

    return factory


# (spec, model, grid): no-change (ARL) and change (EDD) models for both
# detectors, and subspace cases with more sensors than window samples and
# with a window longer than one 256-tick noise block; each largest
# threshold leaves some trials censored at the horizon
LOCKSTEP_CASES = {
    "one_shot-arl": (OneShotSpec(mu=0.5), pure_noise_model(4), [2.0, 4.0, 6.0]),
    "one_shot-edd": (OneShotSpec(mu=0.5), random_delay_factory(4, 0.15, 1.0, 6), [2.0, 6.0, 10.0]),
    "subspace-arl": (
        SubspaceSpec(w=10, tau_max=0, d=1.25, sync=False), pure_noise_model(6), [2.0, 5.0, 14.0],
    ),
    "subspace-edd": (
        SubspaceSpec(w=10, tau_max=6, d=1.4, sync=False),
        random_delay_factory(6, 0.3, 1.0, 6),
        [2.0, 6.0, 26.0],
    ),
    "subspace-wide-arl": (
        SubspaceSpec(w=6, tau_max=0, d=1.6, sync=False), pure_noise_model(12), [2.0, 5.0, 14.0],
    ),
    "subspace-long-window-arl": (
        SubspaceSpec(w=300, tau_max=0, d=1.1, sync=False), pure_noise_model(3), [2.0, 5.0, 20.0],
    ),
}


class TestLockstepEngine:
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_crossings_equal_per_trial_replay(self, case):
        spec, model, grid = LOCKSTEP_CASES[case]
        horizon = 1000  # not a multiple of the 256-tick noise block
        lockstep, _ = _trial_crossings(spec, model, grid, 12, horizon, 23)
        replay = _replay(spec, model, grid, 12, horizon, 23)
        assert np.array_equal(lockstep, replay)
        assert (replay[:, -1] < 0).any()  # censored at the horizon
        assert (replay[:, 0] >= 0).all()

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (OneShotSpec(mu=0.3), [1.0, 3.0, 6.0]),
            (SubspaceSpec(w=10, tau_max=4, d=1.5, sync=False), [1.0, 4.0, 8.0]),
        ],
        ids=["one_shot", "subspace"],
    )
    def test_each_trial_carries_its_own_waveform(self, spec, grid):
        factory = _two_waveforms(5, 0.3, 4)
        lockstep, taus = _trial_crossings(spec, factory, grid, 16, 700, 24)
        replay = _replay(spec, factory, grid, 16, 700, 24)
        assert np.array_equal(lockstep, replay)
        assert taus == [0] * 16

    def test_crossings_do_not_depend_on_the_worker_count(self, workers):
        spec, model, grid = LOCKSTEP_CASES["subspace-edd"]
        workers(1)
        serial, _ = _trial_crossings(spec, model, grid, 12, 1000, 25)
        workers(3)
        pooled, _ = _trial_crossings(spec, model, grid, 12, 1000, 25)
        assert np.array_equal(pooled, serial)
        assert (serial[:, 0] >= 0).all()

    def test_one_shot_inputs_rejected_as_by_the_detector(self):
        with pytest.raises(DegenerateInputError):
            estimate_arl(OneShotSpec(mu=0.0), pure_noise_model(3), b=2.0, trials=3, seed=1, horizon=50)
        with pytest.raises(ValueError):
            estimate_arl(OneShotSpec(mu=0.5, sigma2=0.0), pure_noise_model(3), b=2.0,
                         trials=3, seed=1, horizon=50)
