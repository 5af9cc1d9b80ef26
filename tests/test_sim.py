"""Episode generation and the Monte Carlo run-length machinery."""

import csv
import math

import numpy as np
import pytest

from oracles import first_crossing, run_lengths, scalar_cusum
from sscusum import sim
from sscusum.core import ScenarioModel, Waveform
from sscusum.detect import async_pipeline, one_shot_detector
from sscusum.errors import DegenerateInputError
from sscusum.sim import (
    OneShotSpec,
    RunLengthEstimate,
    SubspaceSpec,
    empirical_drift,
    generate_episode,
    mean_shift_model,
    operating_curve,
    pure_noise_model,
    random_delay_factory,
    uniform_onsets,
    write_curve_csv,
)
from sscusum.detect import SEGMENT, subspace_increments
from sscusum.linalg import window_increments
from sscusum.sim import _arl_estimate, _edd_estimate, _trial_crossings


def _arl_at(spec, model, b, trials, seed, horizon):
    """One threshold's ARL: the engine's crossings, then the ARL summary."""
    reported, _ = _trial_crossings(spec, model, [b], trials, horizon, seed)
    return _arl_estimate(spec.name, b, reported[:, 0], horizon)


def _edd_at(spec, model, b, trials, seed, horizon):
    """One threshold's EDD: the engine's crossings, then the EDD summary."""
    reported, taus = _trial_crossings(spec, model, [b], trials, horizon, seed)
    return _edd_estimate(spec.name, b, reported[:, 0], taus)


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

    def test_non_finite_shift_rejected(self):
        with pytest.raises(ValueError, match="alpha must be finite"):
            mean_shift_model(3, mu=math.nan)


def _no_draw(*args):
    raise AssertionError("noise drawn before the arguments were checked")


def _curve(trials=2, horizon_arl=100, horizon_edd=100):
    return operating_curve(OneShotSpec(mu=0.8), pure_noise_model(3), mean_shift_model(3, 0.8),
                           [1.0], trials, 1, horizon_arl, horizon_edd)


# each public Monte Carlo entry point, given a fractional count
FRACTIONAL_COUNTS = {
    "horizon": lambda: generate_episode(pure_noise_model(3), horizon=10.5, seed=1),
    "trials": lambda: _curve(trials=2.5),
    "horizon_arl": lambda: _curve(horizon_arl=100.5),
    "horizon_edd": lambda: _curve(horizon_edd=100.5),
    "ticks": lambda: empirical_drift(pure_noise_model(3), mean_shift_model(3, 0.8), w=5,
                                     ticks=100.5),
}


@pytest.mark.parametrize("name", sorted(FRACTIONAL_COUNTS))
def test_count_must_be_an_integer(monkeypatch, name):
    monkeypatch.setattr(sim, "_draw_blocks", _no_draw)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        FRACTIONAL_COUNTS[name]()


class TestUniformOnsets:
    def test_bounds_and_pinning(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            onsets = uniform_onsets(rng, k=8, tau_max=5)
            assert onsets.min() == 0
            assert onsets.max() <= 5

    @pytest.mark.parametrize("tau_max, message", [(-1, "^tau_max must be >= 0, got -1"),
                                                  (2.5, "^tau_max must be an integer, got 2.5")])
    def test_bad_bound_rejected_before_drawing(self, tau_max, message):
        # -1 used to reach numpy's "high <= 0", and 2.5 was accepted
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            uniform_onsets(rng, k=3, tau_max=tau_max)
        assert rng.bit_generator.state == state

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
        est = _arl_at(spec, pure_noise_model(20), b=-1.0, trials=60, seed=6, horizon=50)
        assert est.value == 1.0
        assert est.censored_frac == 0.0

    def test_fully_censored_flagged(self):
        spec = OneShotSpec(mu=0.5, sigma2=1.0)
        est = _arl_at(spec, pure_noise_model(3), b=1e9, trials=20, seed=7, horizon=40)
        assert est.censored_frac == 1.0
        assert est.unreliable
        assert est.value == 40.0

    def test_two_seeds_agree_within_3se(self):
        spec = OneShotSpec(mu=0.8, sigma2=1.0)
        model = pure_noise_model(5)
        a = _arl_at(spec, model, b=4.0, trials=300, seed=8, horizon=4000)
        b = _arl_at(spec, model, b=4.0, trials=300, seed=9, horizon=4000)
        assert abs(a.value - b.value) < 3.0 * np.hypot(a.se, b.se)
        assert a.censored_frac == 0.0


class TestEstimateEdd:
    def test_deterministic_ramp(self):
        # x = 1.5 exactly with mu=2, sigma2=1: unit increments, b=5 -> delay 5
        model = mean_shift_model(2, mu=1.5, sigma2=0.0)
        spec = OneShotSpec(mu=2.0, sigma2=1.0)
        est = _edd_at(spec, model, b=5.0, trials=5, seed=11, horizon=100)
        assert est.value == 5.0
        assert est.se == 0.0
        assert est.false_alarm_frac == 0.0

    def test_monotone_in_signal_strength(self):
        spec_weak = OneShotSpec(mu=0.1, sigma2=1.0)
        spec_strong = OneShotSpec(mu=0.25, sigma2=1.0)
        weak = _edd_at(
            spec_weak, mean_shift_model(50, mu=0.1), b=3.0, trials=150, seed=12, horizon=3000
        )
        strong = _edd_at(
            spec_strong, mean_shift_model(50, mu=0.25), b=3.0, trials=150, seed=12, horizon=3000
        )
        assert strong.value < weak.value

    def test_early_alarms_counted_as_false(self):
        # change at tick 30; a crazy-low threshold alarms immediately
        model = mean_shift_model(2, mu=1.0, onsets=np.array([30, 30]))
        spec = OneShotSpec(mu=1.0, sigma2=1.0)
        est = _edd_at(spec, model, b=-1.0, trials=20, seed=13, horizon=200)
        assert est.false_alarm_frac == 1.0
        assert np.isnan(est.value)

    def test_log_replay_oracle(self):
        # recompute the EDD from raw full trajectories, independently of the
        # crossing readout used by the estimator
        spec = OneShotSpec(mu=0.6, sigma2=1.0)
        model = mean_shift_model(4, mu=0.6)
        b, trials, horizon, seed = 3.0, 40, 2000, 14
        est = _edd_at(spec, model, b=b, trials=trials, seed=seed, horizon=horizon)

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
        arls = [arl.value for arl, _ in points]
        edds = [edd.value for _, edd in points]
        assert arls == sorted(arls)
        assert edds == sorted(edds)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, points)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "detector,b,arl,arl_se,edd,edd_se,arl_censored,edd_censored,false_alarm_frac,n_used"
        )
        assert len(lines) == 4

    def test_row_carries_both_estimates(self, tmp_path):
        arl = RunLengthEstimate("one_shot", 2.0, 40.0, 1.5, 5, 0.6)
        edd = RunLengthEstimate("one_shot", 2.0, 7.5, 0.5, 2, 0.4, false_alarm_frac=0.2)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [(arl, edd)])
        assert path.read_text().splitlines()[1] == "one_shot,2.0,40.0,1.5,7.5,0.5,0.6,0.4,0.2,2"
        assert arl.unreliable and not edd.unreliable

    def test_all_false_alarm_row_says_so(self, tmp_path):
        # change at tick 30: at b = -1 every EDD trial alarms at tick 1, before
        # the change, so the row has no delay to average yet is not censored
        points = operating_curve(
            OneShotSpec(mu=1.0), pure_noise_model(2), mean_shift_model(2, 1.0, onsets=[30, 30]),
            [-1.0, 50.0], 5, 1, 40, 100,
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(path, points)
        low, high = csv.DictReader(path.read_text().splitlines())
        assert math.isnan(float(low["edd"])) and low["n_used"] == "0"
        assert float(low["edd_censored"]) == 0.0
        assert float(low["false_alarm_frac"]) == 1.0
        assert float(low["arl_censored"]) == 0.0 and float(high["arl_censored"]) == 1.0

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
    """One whole-block ``window_increments`` call scores the same bits as the
    pipeline, which scores a long record a segment at a time."""

    def test_increments_match_reference(self):
        model = pure_noise_model(5)
        streams = generate_episode(model, SEGMENT + 500, seed=17)
        _, ref = subspace_increments(streams, w=16, sync=False)
        assert np.array_equal(window_increments(streams, 16), ref)

    def test_increments_match_reference_wide(self):
        # more sensors than window samples exercises the Gram-side path
        model = mean_shift_model(12, mu=0.4)
        streams = generate_episode(model, SEGMENT + 300, seed=18)
        _, ref = subspace_increments(streams, w=8, sync=False)
        assert np.array_equal(window_increments(streams, 8), ref)

    def test_fast_trials_deterministic(self):
        spec = SubspaceSpec(w=10, tau_max=5, d=1.1, sync=False)
        factory = random_delay_factory(4, mu=0.8, sigma2=1.0, tau_max=5)
        a = _edd_at(spec, factory, b=4.0, trials=30, seed=20, horizon=800)
        b = _edd_at(spec, factory, b=4.0, trials=30, seed=20, horizon=800)
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


    @pytest.mark.parametrize("ticks", [0, -10])
    def test_ticks_below_one_rejected(self, ticks):
        with pytest.raises(ValueError, match="ticks must be >= 1"):
            empirical_drift(pure_noise_model(3), mean_shift_model(3, mu=0.5), w=5, ticks=ticks)


def _replay(spec, model_source, b_grid, trials, horizon, seed):
    """Reported stop times from one whole episode per trial; each
    threshold's first crossing is read off the statistic path. The race's
    path is the maximum over sensors of the scalar oracle's; the subspace
    path is the single-episode pipeline's at the largest threshold."""
    out = np.full((trials, len(b_grid)), -1, dtype=np.int64)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        model = model_source(rng) if callable(model_source) else model_source
        streams = generate_episode(model, horizon, rng)
        if isinstance(spec, OneShotSpec):
            paths = [scalar_cusum(row, spec.mu, spec.sigma2) for row in streams]
            ticks, statistic, lookahead = np.arange(1, horizon + 1), np.max(paths, axis=0), 0
        else:
            report = async_pipeline(
                streams, w=spec.w, tau_max=spec.tau_max, d=spec.d, b=b_grid[-1],
                delta=spec.delta, n_max=spec.n_max, sync=spec.sync, sync_every=spec.sync_every,
            ).report
            ticks, statistic, lookahead = report.ticks, report.statistic, report.lookahead
        for j, b in enumerate(b_grid):
            crossed = first_crossing(ticks, statistic, b)
            if crossed is not None:
                out[i, j] = crossed + lookahead
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
# with a window longer than one 256-tick noise block; with delay estimation,
# ARL and EDD, sync segments shorter than the window, segments longer than a
# noise block, and more sensors than window samples. Each largest threshold
# leaves some trials censored at the horizon
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
    "sync-arl": (SubspaceSpec(w=10, tau_max=3, d=1.9), pure_noise_model(6), [4.0, 15.0, 45.0]),
    "sync-edd": (
        SubspaceSpec(w=10, tau_max=6, d=2.35),
        random_delay_factory(6, 0.3, 1.0, 6),
        [4.0, 40.0, 160.0],
    ),
    "sync-short-segment-arl": (
        SubspaceSpec(w=10, tau_max=3, d=2.2, sync_every=4), pure_noise_model(6), [4.0, 15.0, 40.0],
    ),
    "sync-long-segment-arl": (
        SubspaceSpec(w=10, tau_max=3, d=1.1, sync_every=300), pure_noise_model(6),
        [4.0, 12.0, 30.0],
    ),
    "sync-wide-arl": (SubspaceSpec(w=6, tau_max=2, d=2.7), pure_noise_model(12), [4.0, 15.0, 55.0]),
}


class TestLockstepEngine:
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_crossings_equal_per_trial_replay(self, case, workers):
        spec, model, grid = LOCKSTEP_CASES[case]
        horizon = 1000  # not a multiple of the 256-tick noise block
        replay = _replay(spec, model, grid, 12, horizon, 23)
        for n in (1, 3):
            workers(n)
            lockstep, _ = _trial_crossings(spec, model, grid, 12, horizon, 23)
            assert np.array_equal(lockstep, replay), f"{n} workers"
        assert (replay[:, -1] < 0).any()  # censored at the horizon
        assert (replay[:, 0] >= 0).all()

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (OneShotSpec(mu=0.3), [1.0, 3.0, 6.0]),
            (SubspaceSpec(w=10, tau_max=4, d=1.5, sync=False), [1.0, 4.0, 8.0]),
            (SubspaceSpec(w=10, tau_max=4, d=2.2), [1.0, 4.0, 8.0]),
        ],
        ids=["one_shot", "subspace", "sync"],
    )
    def test_each_trial_carries_its_own_waveform(self, spec, grid):
        factory = _two_waveforms(5, 0.3, 4)
        lockstep, taus = _trial_crossings(spec, factory, grid, 16, 700, 24)
        replay = _replay(spec, factory, grid, 16, 700, 24)
        assert np.array_equal(lockstep, replay)
        assert taus == [0] * 16

    def test_crossings_do_not_depend_on_the_worker_count(self, workers):
        cases = [LOCKSTEP_CASES[case] for case in ("subspace-edd", "sync-edd")]
        workers(1)
        serial = [_trial_crossings(*case, 12, 1000, 25)[0] for case in cases]
        workers(3)
        pooled = [_trial_crossings(*case, 12, 1000, 25)[0] for case in cases]
        for one, many in zip(serial, pooled):
            assert np.array_equal(many, one)
            assert (one[:, 0] >= 0).all()

    def test_one_shot_inputs_rejected_as_by_the_detector(self):
        with pytest.raises(DegenerateInputError):
            _trial_crossings(OneShotSpec(mu=0.0), pure_noise_model(3), [2.0], 3, 50, 1)
        with pytest.raises(ValueError):
            _trial_crossings(OneShotSpec(mu=0.5, sigma2=0.0), pure_noise_model(3), [2.0], 3, 50, 1)


def _summaries(reported, change_points, horizon):
    """The library's ARL and EDD summaries of one crossing-matrix column, in
    the oracle's keys."""
    arl = _arl_estimate("x", 1.0, reported, horizon)
    edd = _edd_estimate("x", 1.0, reported, change_points)
    assert arl.n_trials == reported.size
    assert arl.unreliable == (arl.censored_frac > 0.5)
    assert edd.unreliable == (edd.censored_frac > 0.5)
    assert edd.censored_frac == arl.censored_frac
    return {
        "arl": arl.value,
        "arl_se": arl.se,
        "edd": edd.value,
        "edd_se": edd.se,
        "censored_frac": arl.censored_frac,
        "false_alarm_frac": edd.false_alarm_frac,
        "n_used": edd.n_trials,
    }


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for key in want:
        same = got[key] == want[key] or (math.isnan(got[key]) and math.isnan(want[key]))
        assert same, f"{key}: {got[key]!r} != {want[key]!r}"


class TestRunLengthSummary:
    @pytest.mark.parametrize("case", ["one_shot-edd", "subspace-edd", "one_shot-arl"])
    def test_matches_per_trial_oracle(self, case):
        spec, model, grid = LOCKSTEP_CASES[case]
        horizon = 1000
        reported, taus = _trial_crossings(spec, model, grid, 12, horizon, 26)
        for j in range(len(grid)):
            col = reported[:, j]
            _assert_same(_summaries(col, taus, horizon), run_lengths(col, taus, horizon))

    @pytest.mark.parametrize(
        "reported, change_points",
        [
            ([-1, -1, -1], [0, 0, 0]),  # all censored
            ([3, 0, 5], [3, 4, 5]),  # all false alarms
            ([-1, 9, 2], [0, 4, 6]),  # one trial used
            ([7], [2]),  # one trial in all
        ],
        ids=["all-censored", "all-false-alarm", "one-used", "one-trial"],
    )
    def test_hand_built_columns(self, reported, change_points):
        col = np.array(reported, dtype=np.int64)
        _assert_same(_summaries(col, change_points, 40), run_lengths(col, change_points, 40))
