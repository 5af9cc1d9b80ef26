"""Frames, delay profiles, normalization, scenarios, CSV schema."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sscusum.core
from oracles import read_sensor_csv_naive
from sscusum.core import (
    DelayProfile,
    MultiSensorFrame,
    ScenarioModel,
    SpikedStats,
    Waveform,
    frames_from_array,
    normalize_stream,
    read_sensor_csv,
    write_sensor_csv,
)
from sscusum.errors import (
    CsvFormatError,
    DegenerateInputError,
    DimensionMismatchError,
)


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


class TestSensorCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        streams = rng.standard_normal((3, 7))
        path = tmp_path / "episode.csv"
        write_sensor_csv(path, streams, t0=4)
        t0, back = read_sensor_csv(path)
        assert t0 == 4
        assert np.array_equal(back, streams)

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
