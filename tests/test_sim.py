"""Episode generation and the Monte Carlo run-length machinery."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from oracles import episode_loop, first_crossing, run_lengths, scalar_cusum
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
from sscusum.detect import SEGMENT, _scan, subspace_increments
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

    def test_bool_horizon_rejected(self):
        # True was a one-tick horizon: a (2, 1) episode
        with pytest.raises(ValueError, match="^horizon must be an integer, got True"):
            generate_episode(pure_noise_model(2), True, 0)

    def test_non_finite_shift_rejected(self):
        with pytest.raises(ValueError, match="alpha must be finite"):
            mean_shift_model(3, mu=math.nan)


# the draw's edge cases: onsets out of order, shared, and before tick 0
ORACLE_WAVEFORMS = {
    "step": Waveform.step(),
    "table": Waveform.from_samples(np.linspace(-1.0, 2.0, 37), first_tick=0),
}
ORACLE_ONSETS = {
    "unsorted": [40, 3, 300, 17, 0],
    "tied": [5, 5, 5, 260, 260],
    "negative": [-30, 4, -1, 600, 2],
}


class TestEpisodeOracle:
    """The episode against a per-(sensor, tick) loop over its documented
    layout; each sensor's signal is one window of a single waveform call."""

    ALPHA = np.array([1.0, -2.5, 0.0, 0.3, 4.0])

    def _model(self, waveform, onsets, sigma2):
        return ScenarioModel(k=5, sigma2=sigma2, alpha=self.ALPHA,
                             waveform=ORACLE_WAVEFORMS[waveform], onsets=ORACLE_ONSETS[onsets])

    def _oracle(self, waveform, onsets, sigma2, horizon, seed):
        return episode_loop(self.ALPHA, ORACLE_WAVEFORMS[waveform], ORACLE_ONSETS[onsets],
                            sigma2, horizon, seed)

    @pytest.mark.parametrize("horizon", [1, 256, 257, 700])
    @pytest.mark.parametrize("onsets", sorted(ORACLE_ONSETS))
    @pytest.mark.parametrize("waveform", sorted(ORACLE_WAVEFORMS))
    def test_noiseless_episode_is_the_signal(self, waveform, onsets, horizon):
        got = generate_episode(self._model(waveform, onsets, 0.0), horizon, seed=7)
        assert np.array_equal(got, self._oracle(waveform, onsets, 0.0, horizon, 7))

    @pytest.mark.parametrize("horizon", [257, 700])
    @pytest.mark.parametrize("waveform", sorted(ORACLE_WAVEFORMS))
    def test_noisy_episode_follows_the_block_layout(self, waveform, horizon):
        got = generate_episode(self._model(waveform, "negative", 2.5), horizon, seed=8)
        assert got.tobytes() == self._oracle(waveform, "negative", 2.5, horizon, 8).tobytes()

    def test_each_tick_is_evaluated_once(self):
        calls = []

        def step(m):
            calls.append(m.copy())
            return (m >= 1).astype(float)

        # a sensor whose onset lies far past the horizon adds only its own window
        onsets = np.array([7, 0, 10**6, 7])
        model = ScenarioModel(k=4, sigma2=1.0, alpha=np.ones(4), waveform=Waveform(step),
                              onsets=onsets)
        calls.clear()  # the model's own causality check
        got = generate_episode(model, 300, seed=3)  # two blocks: ticks 1..512
        assert len(calls) == 1
        want = np.concatenate([np.arange(1 - 10**6, 513 - 10**6), np.arange(-6, 513)])
        assert np.array_equal(np.sort(calls[0]), want)
        assert got.tobytes() == episode_loop(np.ones(4), step, onsets, 1.0, 300, 3).tobytes()


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


class TestModels:
    def test_fractional_onset_rejected(self):
        # [0, 1.5] used to be truncated to [0, 1]
        with pytest.raises(ValueError, match=r"^onsets must be whole ticks, got \[0.0, 1.5\]"):
            mean_shift_model(2, 1.0, onsets=[0, 1.5])

    def test_whole_float_onsets_stored_as_integers(self):
        model = mean_shift_model(2, 1.0, onsets=np.array([0.0, 3.0]))
        assert model.onsets.dtype.kind == "i"
        assert model.onsets.tolist() == [0, 3]

    def test_pure_noise_fractional_k_rejected(self):
        # used to reach numpy's raw TypeError
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5"):
            pure_noise_model(2.5)


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

    def test_fractional_k_rejected_before_drawing(self):
        # used to reach numpy's raw TypeError
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5"):
            uniform_onsets(rng, k=2.5, tau_max=3)
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

    def test_factory_of_different_k_rejected_before_drawing(self, monkeypatch):
        monkeypatch.setattr(sim, "_draw_blocks", _no_draw)
        models = iter([pure_noise_model(3), pure_noise_model(4)])
        with pytest.raises(ValueError, match="^the models need one k, got k=3 and k=4"):
            operating_curve(OneShotSpec(mu=0.8), lambda rng: next(models),
                            mean_shift_model(3, 0.8), [2.0], trials=2, seed=0,
                            horizon_arl=100, horizon_edd=100)

    @pytest.mark.parametrize(
        "settings, error, message",
        [
            (dict(mu=0.0), DegenerateInputError, "^mu = 0 gives a degenerate likelihood ratio$"),
            (dict(mu=0.5, sigma2=-1.0), ValueError, "^sigma2 must be positive$"),
            (dict(mu=math.nan), ValueError, "^mu and sigma2 must be finite, got mu=nan, "),
        ],
        ids=["zero-mu", "negative-sigma2", "nan-mu"],
    )
    def test_race_settings_rejected_when_built(self, settings, error, message):
        # each spec was built, and failed only once operating_curve had drawn noise
        with pytest.raises(error, match=message):
            OneShotSpec(**settings)

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


def _traced_peak(run) -> int:
    """The most bytes traced at once while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _drift_reference(noise, change, *, w, ticks, seed, tau_max=0, sync=False, **settings):
    """empirical_drift's (lower, lower_se, upper, upper_se) from whole
    episodes: each of the seed's two children's generate_episode, scored by
    subspace_increments, and the mean and standard error of its increments."""
    horizon = ticks + w + 2 * tau_max + 1
    out = []
    for model, child in zip((noise, change), np.random.SeedSequence(seed).spawn(2)):
        _, inc = subspace_increments(generate_episode(model, horizon, child), w=w,
                                     tau_max=tau_max, sync=sync, **settings)
        out += [float(inc.mean()), float(inc.std(ddof=1) / math.sqrt(inc.size))]
    return tuple(out)


_BROADBAND = ScenarioModel(
    k=5, sigma2=1.5, alpha=np.linspace(0.4, 1.2, 5),
    waveform=Waveform.from_samples(np.random.default_rng(9).standard_normal(2500)),
    onsets=np.array([0, 3, 1, 6, 2]),
)
# calibrations over several engine steps (2,048 ticks a step for two
# episodes), with and without delay estimation, and a broadband source with
# per-sensor onsets whose first ticks are pure noise
DRIFT_CASES = {
    "no-sync": (pure_noise_model(6), mean_shift_model(6, 0.4), dict(w=12, ticks=5000, seed=5)),
    "sync": (
        pure_noise_model(5), mean_shift_model(5, 0.5),
        dict(w=16, tau_max=4, sync=True, sync_every=7, delta=2, n_max=3, ticks=4500, seed=6),
    ),
    "table-onsets": (
        pure_noise_model(5, 1.5), _BROADBAND, dict(w=20, tau_max=6, sync=True, ticks=3000, seed=7),
    ),
    "table-onsets-no-sync": (
        pure_noise_model(5, 1.5), _BROADBAND, dict(w=20, tau_max=6, ticks=3000, seed=7),
    ),
}


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
        assert cal.lower == pytest.approx(1.0, rel=0.03)
        assert cal.upper > cal.lower
        assert cal.valid
        assert cal.midpoint == pytest.approx((cal.lower + cal.upper) / 2)


    @pytest.mark.parametrize("ticks", [0, -10])
    def test_ticks_below_one_rejected(self, ticks):
        with pytest.raises(ValueError, match="ticks must be >= 1"):
            empirical_drift(pure_noise_model(3), mean_shift_model(3, mu=0.5), w=5, ticks=ticks)

    def test_w_none_rejected(self):
        # used to raise a raw TypeError from adding None to an int
        with pytest.raises(ValueError, match="^w must be an integer, got None"):
            empirical_drift(pure_noise_model(3), mean_shift_model(3, mu=0.5), w=None)

    def test_models_of_different_k_rejected_before_drawing(self, monkeypatch):
        # used to return an interval from a k=3 and a k=4 episode
        monkeypatch.setattr(sim, "_draw_blocks", _no_draw)
        with pytest.raises(ValueError, match="k=3 and k=4"):
            empirical_drift(pure_noise_model(3), mean_shift_model(4, 0.5), w=5, ticks=100)

    def test_t0_rejected_before_drawing(self, monkeypatch):
        # t0 only relabelled the scored ticks; it is no pass setting
        monkeypatch.setattr(sim, "_draw_blocks", _no_draw)
        with pytest.raises(ValueError, match="^t0 is not a pass setting"):
            empirical_drift(pure_noise_model(3), mean_shift_model(3, 0.5), w=5, ticks=100, t0=3)

    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    def test_equals_whole_episode_reference(self, case, workers):
        noise, change, settings = DRIFT_CASES[case]
        want = _drift_reference(noise, change, **settings)
        for n in (1, 3):
            workers(n)
            cal = empirical_drift(noise, change, **settings)
            got = (cal.lower, cal.lower_se, cal.upper, cal.upper_se)
            assert got == want, f"{n} workers"

    def test_traced_peak_does_not_grow_with_the_episode(self):
        # the episodes stream through the engine's one buffer: only the two
        # series of increments grow with ticks, 16 bytes a tick, plus 8 a
        # tick for the deviations std() computes of one series (holding
        # each whole (20, n) episode instead grew by about 170)
        def peak(ticks):
            return _traced_peak(lambda: empirical_drift(
                pure_noise_model(20), mean_shift_model(20, 0.3), w=10, ticks=ticks, seed=1
            ))

        assert peak(80_000) - peak(5_000) <= 24 * (80_000 - 5_000)


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
# leaves some trials censored at the horizon; in the "one-live" cases it
# leaves exactly one, so the engine scores slabs of that trial alone
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
    "subspace-one-live-arl": (
        SubspaceSpec(w=10, tau_max=0, d=1.2, sync=False), pure_noise_model(6), [2.0, 5.0, 15.0],
    ),
    "sync-one-live-arl": (
        SubspaceSpec(w=10, tau_max=3, d=1.9), pure_noise_model(6), [4.0, 15.0, 34.0],
    ),
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
        # the race and a pure-noise ARL case too: every case draws on the pool
        names = ("subspace-edd", "sync-edd", "one_shot-edd", "subspace-arl")
        cases = [LOCKSTEP_CASES[case] for case in names]
        workers(1)
        serial = [_trial_crossings(*case, 12, 1000, 25)[0] for case in cases]
        workers(3)
        pooled = [_trial_crossings(*case, 12, 1000, 25)[0] for case in cases]
        for one, many in zip(serial, pooled):
            assert np.array_equal(many, one)
            assert (one[:, 0] >= 0).all()

    def test_a_failing_draw_raises_with_any_worker_count(self, workers):
        def short(m):
            if m.max() > 600:
                raise ValueError(f"no sample past tick 600, asked for {m.max()}")
            return (m >= 1).astype(float)

        model = ScenarioModel(k=4, sigma2=1.0, alpha=np.zeros(4), waveform=Waveform(short),
                              onsets=np.zeros(4, dtype=int))
        for n in (1, 3):
            workers(n)
            # the third block, ticks 513..768, fails in every trial
            with pytest.raises(ValueError, match="no sample past tick 600, asked for 768"):
                _trial_crossings(OneShotSpec(mu=0.5), model, [1e9], 6, 1000, 3)

    @pytest.mark.parametrize("case", ["subspace-one-live-arl", "sync-one-live-arl"])
    def test_last_live_trial_scans_as_one_row(self, case, monkeypatch):
        # the replay cases above reach a slab with one live trial, whose
        # (1,) state takes the one-row CUSUM loop
        states = []

        def recording_scan(S, inc):
            states.append(S.shape)
            return _scan(S, inc)

        monkeypatch.setattr("sscusum.sim._scan", recording_scan)
        spec, model, grid = LOCKSTEP_CASES[case]
        lockstep, _ = _trial_crossings(spec, model, grid, 12, 1000, 23)
        assert (1,) in states
        assert (lockstep[:, -1] < 0).sum() == 1
        assert np.array_equal(lockstep, _replay(spec, model, grid, 12, 1000, 23))

    def test_race_traced_peak_is_about_one_buffer(self):
        # the race draws into one (40, 125, 256) buffer and scores it in
        # place; a slab rebuilt by concatenation each step, with separate
        # increments, held about four such blocks (39 MB) at once
        peak = _traced_peak(lambda: _trial_crossings(
            OneShotSpec(0.2), pure_noise_model(125), [5, 9.25], 40, 2000, 3
        ))
        assert peak < 1.5 * 40 * 125 * 256 * 8

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
