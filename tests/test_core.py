"""Frames, delay profiles, normalization, scenarios, CSV schema."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sscusum.core
from oracles import read_sensor_csv_naive
from sscusum.core import (
    DelayProfile,
    MultiSensorFrame,
    Pass,
    ScenarioModel,
    SpikedStats,
    Waveform,
    frames_from_array,
    normalize_stream,
    read_sensor_csv,
    write_sensor_csv,
)
from sscusum.detect import SubspaceCusum
from sscusum.errors import (
    CsvFormatError,
    DegenerateInputError,
    DimensionMismatchError,
)
from sscusum.sim import SubspaceSpec
from test_detect import RULE_POINTS


class TestNormalizeStream:
    def test_simple(self):
        assert np.allclose(normalize_stream([1, 3, 5]), [-1, 0, 1])

    def test_asymmetric(self):
        assert np.allclose(normalize_stream([0, 0, 4]), [-0.5, -0.5, 1.0])

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_stream([2, 2, 2])

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_stream([])
        with pytest.raises(DegenerateInputError):
            normalize_stream([1.0, np.nan])

    def test_postconditions(self):
        rng = np.random.default_rng(0)
        out = normalize_stream(rng.standard_normal(257))
        assert abs(out.mean()) < 1e-12
        assert np.max(np.abs(out)) == 1.0

    def test_prefix_statistics(self):
        x = np.array([0.0, 2.0, 100.0])
        out = normalize_stream(x, stats_prefix=2)
        # mean 1, max-abs 1 over the prefix; the tail just rides along
        assert np.allclose(out, [-1.0, 1.0, 99.0])

    def test_prefix_below_one_rejected(self):
        # a negative prefix must not slice from the end (x[:-8] is 2 of 10 samples)
        for prefix in (0, -8):
            with pytest.raises(DegenerateInputError, match="stats prefix"):
                normalize_stream(np.arange(10.0), stats_prefix=prefix)

    def test_fractional_prefix_rejected(self):
        # 2.5 used to slice 2 samples
        with pytest.raises(ValueError, match="^stats_prefix must be an integer, got 2.5"):
            normalize_stream(np.arange(10.0), stats_prefix=2.5)
        assert np.array_equal(normalize_stream(np.arange(10.0), stats_prefix=np.int64(2)),
                              normalize_stream(np.arange(10.0), stats_prefix=2))

    def test_bool_prefix_rejected(self):
        # True was a one-sample prefix, then "series is constant over the
        # normalization window"
        with pytest.raises(ValueError, match="^stats_prefix must be an integer, got True"):
            normalize_stream(np.arange(10.0), stats_prefix=True)

    def test_two_dimensional_input_rejected(self):
        # a (2, 5) record was normalized as one series of 10
        with pytest.raises(DimensionMismatchError, match=r"raw must be a \(n\) array"):
            normalize_stream(np.arange(10.0).reshape(2, 5))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40),
        st.floats(-1e3, 1e3),
        st.floats(0.01, 1e3),
    )
    def test_shift_and_scale_invariance(self, values, c, a):
        x = np.asarray(values)
        if np.max(np.abs(x - x.mean())) < 1e-6:
            return  # effectively constant
        base = normalize_stream(x)
        assert np.allclose(normalize_stream(a * x + c), base, atol=1e-9)
        assert np.allclose(normalize_stream(-a * x + c), -base, atol=1e-9)


class TestMultiSensorFrame:
    def test_requires_two_sensors(self):
        with pytest.raises(DimensionMismatchError):
            MultiSensorFrame(t=0, values=np.array([1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MultiSensorFrame(t=0, values=np.array([1.0, np.inf]))

    def test_k(self):
        assert MultiSensorFrame(t=3, values=np.zeros(4)).k == 4

    @pytest.mark.parametrize("t", [1.5, 3.0, "3", True],
                             ids=["fraction", "whole-float", "str", "bool"])
    def test_non_integer_tick_rejected(self, t):
        # 1.5 was truncated to 1, "3" parsed as 3 and True taken as 1
        with pytest.raises(ValueError, match="t must be an integer"):
            MultiSensorFrame(t=t, values=np.zeros(2))

    def test_none_tick_rejected(self):
        # a raw TypeError from int(None) before
        with pytest.raises(ValueError, match="^t must be an integer, got None"):
            MultiSensorFrame(t=None, values=np.zeros(2))

    def test_numpy_integer_tick_is_a_python_int(self):
        frame = MultiSensorFrame(t=np.int64(4), values=np.zeros(2))
        assert frame.t == 4 and type(frame.t) is int

    def test_frames_from_array_fractional_t0_raises_at_first_frame(self):
        frames = frames_from_array(np.zeros((2, 3)), t0=1.5)  # yielded ticks 1, 2, 3
        with pytest.raises(ValueError, match="t must be an integer, got 1.5"):
            next(frames)


def _replay(frames):
    """The frames an iterator yields before it stops, and the error it
    stopped with (None at the end of the record)."""
    out = []
    try:
        for frame in frames:
            out.append(frame)
    except Exception as exc:
        return out, exc
    return out, None


def _one_by_one(streams, t0):
    """The frames of ``streams`` built one at a time, each fully checked."""
    return (MultiSensorFrame(t0 + j, streams[:, j]) for j in range(streams.shape[1]))


def _assert_same_replay(got, want):
    """Two replays agree in tick types, ticks, value bits and error."""
    (frames, error), (expected, expected_error) = got, want
    assert len(frames) == len(expected)
    for frame, ref in zip(frames, expected):
        assert type(frame) is MultiSensorFrame and type(frame.t) is type(ref.t) is int
        assert frame.t == ref.t
        assert frame.values.dtype == ref.values.dtype
        assert frame.values.tobytes() == ref.values.tobytes()
    assert type(error) is type(expected_error)
    assert str(error) == str(expected_error)


CHUNK = sscusum.core._REPLAY_CHUNK


class TestFramesFromArray:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 6),
        n=st.integers(CHUNK - 2, 2 * CHUNK + 2),
        t0=st.integers(-10**6, 10**6),
        numpy_t0=st.booleans(),
        bad=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 5), st.integers(0, 2 * CHUNK + 1),
                      st.sampled_from([np.nan, np.inf, -np.inf])),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_frames_built_one_by_one(self, k, n, t0, numpy_t0, bad, seed):
        streams = np.random.default_rng(seed).standard_normal((k, n))
        if bad is not None:
            sensor, column, value = bad
            streams[sensor % k, column % n] = value
        if numpy_t0:
            t0 = np.int64(t0)
        _assert_same_replay(_replay(frames_from_array(streams, t0)),
                            _replay(_one_by_one(streams, t0)))

    @pytest.mark.parametrize("column", [0, CHUNK - 1, CHUNK, CHUNK + 9],
                             ids=["first", "last-of-chunk", "first-of-chunk", "last"])
    def test_nan_raises_at_its_own_frame(self, column):
        streams = np.ones((3, CHUNK + 10))
        streams[1, column] = np.nan
        frames, error = _replay(frames_from_array(streams, t0=5))
        assert [f.t for f in frames] == list(range(5, 5 + column))
        assert type(error) is ValueError
        assert str(error) == f"non-finite reading in frame t={5 + column}"

    @pytest.mark.parametrize("t0", [True, None, "3"], ids=["bool", "none", "str"])
    def test_non_integer_t0_raises_at_first_frame(self, t0):
        # True yielded tick 1; None and "3" raised a raw TypeError from t0 + j
        frames = frames_from_array(np.zeros((2, 3)), t0=t0)
        with pytest.raises(ValueError, match=f"^t must be an integer, got {t0!r}$"):
            next(frames)

    def test_one_dimensional_record_rejected_at_first_frame(self):
        # a raw IndexError ("tuple index out of range") before
        frames = frames_from_array(np.zeros(5))
        with pytest.raises(DimensionMismatchError, match=r"got shape \(5,\)$"):
            next(frames)

    @pytest.mark.parametrize("t0", [1.5, None, True])
    def test_empty_record_checks_no_t0(self, t0):
        assert list(frames_from_array(np.zeros((3, 0)), t0=t0)) == []

    def test_values_do_not_alias_the_input(self):
        streams = np.arange(12.0).reshape(3, 4)
        frames = frames_from_array(streams)
        first = next(frames)
        streams[:] = np.nan  # after the first chunk was copied and checked
        assert first.values.tolist() == [0.0, 4.0, 8.0]
        assert [f.values.tolist() for f in frames] == [[1.0, 5.0, 9.0], [2.0, 6.0, 10.0],
                                                       [3.0, 7.0, 11.0]]

    def test_detector_sees_the_same_frames(self):
        # stream-detect's shape: k=3, w=200, 4,000 ticks, with a burst to cross
        streams = np.random.default_rng(41).standard_normal((3, 4000))
        streams[:, 1500:2500] += 1.5 * np.random.default_rng(42).standard_normal(1000)
        runs = []
        for frames in (frames_from_array(streams, t0=1), _one_by_one(streams, 1)):
            det = SubspaceCusum(w=200, d=1.5, b=50.0)
            runs.append(([repr(det.step(f)) for f in frames], repr(det.state)))
        assert runs[0] == runs[1]
        assert "crossed_at=None" not in runs[0][1]  # the burst is detected


class TestPass:
    """Each tick rule of a pass against its hand formula, at the shapes of
    ``RULE_POINTS``: (k, w, tau_max, sync) with headroom, without it although
    tau_max > 0, and with more sensors than window samples."""

    @pytest.mark.parametrize("k, w, tau_max, sync", RULE_POINTS)
    def test_one_scored_tick_needs_w_plus_one_plus_headroom(self, k, w, tau_max, sync):
        run = Pass(w, tau_max, sync)
        headroom = tau_max * sync
        needed = w + 1 + 2 * headroom
        assert (run.headroom, run.margin + 1) == (headroom, needed)
        assert run.scored(needed, t0=4) == range(4 + headroom, 5 + headroom)
        assert not run.scored(needed - 1, t0=4)
        assert run.scored(needed + 37, t0=-3) == range(-3 + headroom, 35 + headroom)

    @pytest.mark.parametrize("k, w, tau_max, sync", RULE_POINTS)
    def test_cadence_lookahead_and_carry(self, k, w, tau_max, sync):
        for every in (None, 3):
            run = Pass(w, tau_max, sync, sync_every=every)
            cadence = w if every is None else every  # by default once per window
            assert (run.cadence, run.lookahead) == (cadence, w)
            # the first unscored tick's columns, and a sync segment short of one tick
            assert run.carry == w + 2 * tau_max * sync + (cadence - 1 if sync else 0)

    @pytest.mark.parametrize("k, w, tau_max, sync", RULE_POINTS)
    def test_episode_length_and_fit_start(self, k, w, tau_max, sync):
        run = Pass(w, tau_max, sync)
        # tau_max headroom with sync or without, so switching sync keeps the samples
        assert run.episode_ticks(500) == 500 + w + 2 * tau_max + 1
        assert len(run.scored(run.episode_ticks(500))) == 501 + 2 * tau_max * (not sync)
        # a segment's delays are fitted on the w samples after its first tick
        assert run.fit_start(17) == 18
        assert run.fit_start(np.array([4, 14])).tolist() == [5, 15]

    @pytest.mark.parametrize("settings, message", [
        (dict(w=None), "^w must be an integer, got None"),
        (dict(w=2.5), "^w must be an integer, got 2.5"),
        (dict(w=0), "^need w >= 1, got w=0"),
        (dict(w=1, sync=True), "^need w >= 2 to estimate delays, got w=1"),
        (dict(w=5, tau_max=True), "^tau_max must be an integer, got True"),
        (dict(w=5, sync_every=2.5), "^sync_every must be an integer, got 2.5"),
        (dict(w=5, tau_max=-1), "^require tau_max >= 0, delta >= 0, n_max >= 1"),
        (dict(w=5, delta=-1), "delta >= 0, n_max >= 1"),
        (dict(w=5, n_max=0), "delta >= 0, n_max >= 1"),
        (dict(w=5, sync_every=0), "sync_every >= 1$"),
    ])
    def test_bad_settings_raise_at_construction(self, settings, message):
        with pytest.raises(ValueError, match=message):
            Pass(**settings)

    def test_numpy_integer_settings_accepted(self):
        run = Pass(np.int64(5), np.int32(2), True, np.int64(1), np.int64(3), np.int64(4))
        assert run.scored(20) == range(3, 14) and run.cadence == 4

    def test_subspace_spec_is_a_pass(self):
        spec = SubspaceSpec(w=10, tau_max=3, d=1.9)
        assert isinstance(spec, Pass)
        assert spec.sync and spec.scored(100) == Pass(10, 3, True).scored(100)
        assert SubspaceSpec(w=10, d=1.0).tau_max == 0
        with pytest.raises(TypeError):
            SubspaceSpec(10, 3, True, 1, 10, None, 1.9)  # d is keyword-only
        with pytest.raises(ValueError, match="^need w >= 2 to estimate delays"):
            SubspaceSpec(w=1, d=1.0)  # checked when built, not when run


class TestDelayProfile:
    def test_reference_entry_must_be_zero(self):
        with pytest.raises(ValueError):
            DelayProfile(np.array([1, 0]), tau_max=2)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            DelayProfile(np.array([0, 5]), tau_max=2)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            DelayProfile(np.array([], dtype=int), tau_max=2)

    @pytest.mark.parametrize("tau", [[0, 1.7], np.array([0.0, -0.5]), [0.0, np.nan]])
    def test_fractional_delay_rejected(self, tau):
        # [0, 1.7] used to be stored as [0, 1]
        with pytest.raises(ValueError, match="delays must be whole ticks"):
            DelayProfile(tau, tau_max=2)

    @pytest.mark.parametrize("tau_max, message", [
        (1.5, "tau_max must be an integer, got 1.5"),
        (-1, "tau_max must be >= 0, got -1"),
    ])
    def test_bad_tau_max_rejected(self, tau_max, message):
        # DelayProfile([0, 1], 1.5) was accepted
        with pytest.raises(ValueError, match=message):
            DelayProfile([0, 1], tau_max)

    def test_numpy_integer_tau_max_accepted(self):
        assert DelayProfile([0, 1], np.int64(1)).tau_hat.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "tau", [np.array([False, True]), np.array(["0", "1"]), [0.0, 1e300], [0.0, 2.0**63]],
        ids=["bool", "str", "1e300", "2**63"],
    )
    def test_non_integer_delays_rejected_by_name(self, tau):
        # the bools were accepted as delays 0 and 1, the strings raised
        # numpy's "invalid literal for int()", and the floats beyond int64
        # its "invalid value encountered in cast"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^delays must be whole ticks, got "):
                DelayProfile(tau, tau_max=2)

    def test_whole_float_delays_stored_as_integers(self):
        profile = DelayProfile(np.array([0.0, -2.0, 1.0]), tau_max=2)
        assert profile.tau_hat.dtype.kind == "i"
        assert profile.tau_hat.tolist() == [0, -2, 1]


class TestWaveform:
    def test_step_is_strictly_causal(self):
        step = Waveform.step()
        assert step(np.array([-2, -1, 0, 1, 5])).tolist() == [0, 0, 0, 1, 1]

    def test_negative_ticks_forced_to_zero(self):
        w = Waveform(lambda m: np.ones_like(m, dtype=float))
        assert w(np.array([-3, -1])).tolist() == [0.0, 0.0]
        assert w(np.array([0, 2])).tolist() == [1.0, 1.0]

    def test_from_samples(self):
        w = Waveform.from_samples([5.0, 7.0], first_tick=1)
        assert w(np.array([0, 1, 2, 3])).tolist() == [0.0, 5.0, 7.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_samples_non_finite_table_rejected(self, bad):
        # a nan entry was accepted and came back as the signal
        with pytest.raises(ValueError, match="^values must be finite, got a nan or inf entry"):
            Waveform.from_samples([1.0, bad, 2.0])

    @pytest.mark.parametrize("first_tick", [1.5, 2.0, None], ids=["fraction", "whole-float", "none"])
    def test_from_samples_non_integer_first_tick_rejected(self, first_tick):
        # 1.5 raised a raw IndexError when the waveform was evaluated
        with pytest.raises(ValueError, match=f"^first_tick must be an integer, got {first_tick}"):
            Waveform.from_samples([1.0, 2.0], first_tick=first_tick)

    def test_from_samples_numpy_integer_first_tick_accepted(self):
        w = Waveform.from_samples([5.0, 7.0], first_tick=np.int64(0))
        assert w(np.array([0, 1, 2])).tolist() == [5.0, 7.0, 0.0]


class TestScenarioModel:
    def _model(self, **kw):
        base = dict(
            k=2,
            sigma2=1.0,
            alpha=np.array([1.0, 2.0]),
            waveform=Waveform.step(),
            onsets=np.array([3, 5]),
        )
        base.update(kw)
        return ScenarioModel(**base)

    def test_change_point_is_min_onset(self):
        assert self._model().change_point == 3

    def test_noncausal_waveform_rejected(self):
        class NotCausal:
            def __call__(self, ticks):
                return np.ones(np.asarray(ticks).shape)

        with pytest.raises(ValueError):
            ScenarioModel(
                k=2,
                sigma2=1.0,
                alpha=np.ones(2),
                waveform=NotCausal(),
                onsets=np.zeros(2, dtype=int),
            )

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            self._model(alpha=np.ones(3))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma2", np.nan, "sigma2 must be finite"),
            ("sigma2", np.inf, "sigma2 must be finite"),
            ("alpha", np.array([1.0, np.nan]), "alpha must be finite"),
            ("alpha", np.array([-np.inf, 2.0]), "alpha must be finite"),
        ],
    )
    def test_non_finite_parameter_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            self._model(**{field: value})

    def test_fractional_onset_rejected(self):
        # [3, 5.5] used to be stored as [3, 5]
        with pytest.raises(ValueError, match=r"^onsets must be whole ticks, got \[3.0, 5.5\]"):
            self._model(onsets=[3, 5.5])

    def test_fractional_k_rejected(self):
        # used to report "alpha must have shape (2.5,)"
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5"):
            self._model(k=2.5)


class TestSpikedStats:
    def test_from_scenario(self):
        model = ScenarioModel(
            k=2,
            sigma2=0.5,
            alpha=np.array([3.0, 4.0]),
            waveform=Waveform.step(),
            onsets=np.zeros(2, dtype=int),
        )
        stats = SpikedStats.from_scenario(model)
        assert np.allclose(stats.u, [0.6, 0.8])
        assert stats.energy == pytest.approx(1.0)  # unit step
        assert stats.rho == pytest.approx(1.0 * 25.0 / 0.5)
        assert stats.theta(1.0) == pytest.approx(25.0)
        assert stats.theta(0.0) == 0.0

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            SpikedStats(u=np.array([1.0, 1.0]), rho=1.0, energy=1.0, signal_power=2.0)

    def test_zero_alpha_rejected(self):
        model = ScenarioModel(
            k=2,
            sigma2=1.0,
            alpha=np.zeros(2),
            waveform=Waveform.step(),
            onsets=np.zeros(2, dtype=int),
        )
        with pytest.raises(DegenerateInputError):
            SpikedStats.from_scenario(model)

    @pytest.mark.parametrize("horizon", [2.5, 0, -3])
    def test_energy_horizon_must_be_a_count(self, horizon):
        # 2.5 averaged 3 ticks; 0 and -3 gave numpy's "Mean of empty slice"
        # warning and rho = nan
        model = ScenarioModel(k=2, sigma2=1.0, alpha=np.ones(2), waveform=Waveform.step(),
                              onsets=np.zeros(2, dtype=int))
        kind = "an integer" if horizon == 2.5 else ">= 1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^energy_horizon must be {kind}, got {horizon}"):
                SpikedStats.from_scenario(model, energy_horizon=horizon)


class TestSensorCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        streams = rng.standard_normal((3, 7))
        path = tmp_path / "episode.csv"
        write_sensor_csv(path, streams, t0=4)
        t0, back = read_sensor_csv(path)
        assert t0 == 4
        assert np.array_equal(back, streams)

    @pytest.mark.parametrize("t0", [1.5, None, True], ids=["fraction", "none", "bool"])
    def test_non_integer_t0_rejected_before_the_file_is_opened(self, tmp_path, t0):
        # 1.5 and None raised a raw TypeError after the header was written,
        # and True wrote ticks from 1
        path = tmp_path / "episode.csv"
        with pytest.raises(ValueError, match=f"^t0 must be an integer, got {t0!r}$"):
            write_sensor_csv(path, np.zeros((2, 3)), t0=t0)
        assert not path.exists()

    def test_writer_deterministic(self, tmp_path):
        streams = np.random.default_rng(3).standard_normal((2, 5))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sensor_csv(a, streams)
        write_sensor_csv(b, streams)
        assert a.read_bytes() == b.read_bytes()

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,s1\n1,0.5\n")
        with pytest.raises(CsvFormatError):
            read_sensor_csv(path)

    def test_gap_detected_with_line_number(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,s1,s2\n1,0.0,0.0\n3,0.0,0.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_sensor_csv(path)
        assert err.value.line == 3

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,s1,s2\n1,0.0,\n")
        with pytest.raises(CsvFormatError):
            read_sensor_csv(path)

    def test_writer_matches_csv_writer(self, tmp_path):
        streams = np.array(
            [[0.1, -0.0, 5e-324, 1e308], [-1e-310, -1.7976931348623157e308, -1.5, 2.0]]
        )
        path, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_sensor_csv(path, streams, t0=-1)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "s1", "s2"])
            for j in range(streams.shape[1]):
                writer.writerow([j - 1] + [repr(float(v)) for v in streams[:, j]])
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_rejected_before_opening(self, tmp_path, bad):
        streams = np.zeros((2, 5))
        streams[1, 3] = bad
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="non-finite reading at tick 5"):
            write_sensor_csv(path, streams, t0=2)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_record_rejected_before_opening(self, tmp_path, shape):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="at least one sensor and one tick"):
            write_sensor_csv(path, np.zeros(shape))
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(0, 4),
        n=st.integers(0, 6),
        t0=st.integers(),
        data=st.data(),
    )
    def test_what_the_writer_accepts_reads_back_unchanged(self, tmp_path_factory, k, n, t0, data):
        extremes = st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
             1.7976931348623157e308, -1.7976931348623157e308]
        )
        cells = st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False))
        streams = np.array(data.draw(st.lists(cells, min_size=k * n, max_size=k * n)))
        streams = streams.reshape(k, n)
        path = tmp_path_factory.mktemp("csv") / "record.csv"
        try:
            write_sensor_csv(path, streams, t0=t0)
        except ValueError:
            assert not (k and n)  # only an empty record is refused
            assert not path.exists()
            return
        t0_back, back = read_sensor_csv(path)
        assert t0_back == t0
        assert back.shape == (k, n)
        assert back.tobytes() == streams.tobytes()

    def test_plain_file_takes_one_numpy_parse(self, tmp_path, monkeypatch):
        def scan(fh):
            raise AssertionError("per-cell scan ran on a plain file")

        monkeypatch.setattr(sscusum.core, "_scan_sensor_csv", scan)
        streams = np.random.default_rng(4).standard_normal((3, 50))
        path = tmp_path / "plain.csv"
        write_sensor_csv(path, streams, t0=9)
        t0, back = read_sensor_csv(path)
        assert t0 == 9 and np.array_equal(back, streams)
        path.write_bytes(b"t, s1 ,s2\n\n-2,0.5,-0.0\n-1, 1e-310 ,+3\n")
        t0, back = read_sensor_csv(path)
        assert t0 == -2 and back.tolist() == [[0.5, 1e-310], [-0.0, 3.0]]

    def test_frames_from_array_ticks(self):
        streams = np.zeros((2, 3))
        ticks = [f.t for f in frames_from_array(streams, t0=7)]
        assert ticks == [7, 8, 9]


def assert_reads_like_oracle(path):
    """read_sensor_csv gives the naive reader's (t0, array) bit for bit, or
    its error message and line."""
    expected = read_sensor_csv_naive(path)
    if expected[0] == "error":
        _, message, line = expected
        with pytest.raises(CsvFormatError) as err:
            read_sensor_csv(path)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)
    else:
        t0, streams = read_sensor_csv(path)
        assert t0 == expected[0]
        assert streams.shape == expected[1].shape
        assert streams.tobytes() == expected[1].tobytes()


# Cells float() accepts though they are not plain decimals, and cells the
# contract rejects (unparseable, empty, non-finite or overflowing).
ODD_CELLS = ["-0.0", "5e-324", "2.2250738585072014e-308", "1e308", " 1.5 ", "\t2\t",
             "1_0", '"2.5"', ".5", "5.", "+3", "\x0b7", "\xa08", "\u0661"]
BAD_CELLS = ["nan", "inf", "-Infinity", "1e309", "", " ", "abc", "0x1", "1e", "9\x1c"]


@st.composite
def sensor_texts(draw):
    """A sensor dump text that may break the contract anywhere."""
    k = draw(st.integers(1, 3))
    header = ["t"] + [f"s{i + 1}" for i in range(k)]
    kind = draw(st.sampled_from(["plain"] * 5 + ["padded", "quoted", "renamed", "blank"]))
    if kind == "padded":
        header = [f" {h}\t" for h in header]
    elif kind == "quoted":
        header = [f'"{h}"' for h in header]
    elif kind == "renamed":
        header[-1] = "x"
    lines = ["" if kind == "blank" else ",".join(header)]
    t = draw(st.sampled_from([-3, 0, 1, 7, 2**63 - 2]))
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.sampled_from(["row"] * 20 + ["blank", "comment", "short", "long"]))
        if row == "blank":
            lines.append("")
            continue
        if row == "comment":
            lines.append("# note")
            continue
        tick = draw(st.sampled_from(["next"] * 12 + ["float", "gap", "back", "padded", "plus"]))
        t += {"gap": 2, "back": -1}.get(tick, 0)
        cell = {"float": f"{t}.0", "padded": f" {t} ", "plus": f"+{t}"}.get(tick, str(t))
        t += 1
        cells = [cell]
        for _ in range(k + {"short": -1, "long": 1}.get(row, 0)):
            pick = draw(st.integers(0, 19))
            if pick == 0:
                cells.append(draw(st.sampled_from(BAD_CELLS)))
            elif pick <= 3:
                cells.append(draw(st.sampled_from(ODD_CELLS)))
            else:
                cells.append(repr(draw(st.floats(allow_nan=False, allow_infinity=False))))
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


class TestReadSensorCsvAgainstOracle:
    @pytest.mark.parametrize(
        "text",
        [
            "t,s1,s2\n1,0.5,-0.0\n2,5e-324,1e308\n",
            "t,s1,s2\r\n1,0.5,1.5\r\n\r\n2,2.5,3.5\r\n",
            "t,s1\n\n3,0.5\n\n4,1.5",
            "t,s1,s2\n1, 0.5 ,\t2\n2,1_0,\"2.5\"\n",
            "t,s1\n# comment\n1,0.5\n",
            "t,s1\n1.0,0.5\n",
            "t,s1\n1,0.5\n3,0.5\n",
            "t,s1\n2,0.5\n1,0.5\n",
            "t,s1,s2\n1,0.5,0.5\n2,nan,0.5\n3,0.5,inf\n",
            "t,s1,s2\n1,0.5\n",
            "t,s1,s2\n1,,0.5\n",
            "time,s1\n1,0.5\n",
            "t,s2\n1,0.5\n",
            "t,s1\n",
            "",
            "t,s1\n9223372036854775807,0.5\n9223372036854775808,1.5\n",
            "t,s1\n9223372036854775807,0.5\n-9223372036854775808,1.5\n",
            "t,s1\r,s2\n1,0.5,0.5\n",
            "t,s1\n1,0.5\x1c\n",
            "t,s1\n1,0.5\n   \n2,0.5\n",
        ],
    )
    def test_examples(self, tmp_path, text):
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode())
        assert_reads_like_oracle(path)

    @settings(max_examples=300, deadline=None)
    @given(sensor_texts())
    def test_generated(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "case.csv"
        path.write_bytes(text.encode())
        assert_reads_like_oracle(path)
