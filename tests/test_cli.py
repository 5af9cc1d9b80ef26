"""Command-line workflows: validation, exit codes, determinism, thin-shell equivalence."""

import csv
from pathlib import Path

import numpy as np
import pytest

from sscusum import sim
from sscusum.cli import build_parser, main
from sscusum.core import normalize_stream, read_sensor_csv, write_sensor_csv
from sscusum.detect import async_pipeline, calibrate_drift, subspace_increments


def run(argv):
    return main([str(a) for a in argv])


def simulate_noise_file(tmp_path, k=3, horizon=400, seed=21, sigma2=1.0, name="noise.csv"):
    path = tmp_path / name
    code = run(
        ["simulate", "--k", k, "--sigma2", sigma2, "--horizon", horizon, "--seed", seed, "--out", path]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_noiseless_step_episode(self, tmp_path):
        out = tmp_path / "episode.csv"
        code = run(
            ["simulate", "--k", 2, "--sigma2", 0, "--alpha", "1,2", "--onsets", "3,5",
             "--horizon", 6, "--seed", 1, "--out", out]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["t", "s1", "s2"]
        values = np.array([[float(c) for c in row[1:]] for row in rows[1:]]).T
        assert values[0].tolist() == [0, 0, 0, 1, 1, 1]
        assert values[1].tolist() == [0, 0, 0, 0, 0, 2]

    def test_common_mu_amplitude(self, tmp_path):
        out = tmp_path / "mu.csv"
        run(["simulate", "--k", 2, "--sigma2", 0, "--mu", 1, "--onsets", "3,5",
             "--horizon", 6, "--seed", 1, "--out", out])
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[6][2] == repr(1.0)  # second sensor steps to mu

    def test_byte_identical_reruns(self, tmp_path):
        a = simulate_noise_file(tmp_path, name="a.csv")
        b = simulate_noise_file(tmp_path, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_comparison_preset_accepted(self, tmp_path):
        out = tmp_path / "preset.csv"
        code = run(
            ["simulate", "--k", 50, "--mu", 0.1, "--tau-max", 20, "--w", 20,
             "--horizon", 80, "--seed", 3, "--out", out]
        )
        assert code == 0
        assert out.exists()

    def test_matches_direct_module_call(self, tmp_path):
        # thin-shell check: the CLI output is exactly the module composition
        cli_path = simulate_noise_file(tmp_path, k=2, horizon=50, seed=5, name="cli.csv")
        direct_path = tmp_path / "direct.csv"
        streams = sim.generate_episode(sim.pure_noise_model(2, 1.0), 50, 5)
        write_sensor_csv(direct_path, streams, t0=1)
        assert cli_path.read_bytes() == direct_path.read_bytes()

    def test_missing_required_flag_is_validation_error(self, tmp_path, capsys):
        assert run(["simulate", "--k", 2, "--horizon", 5, "--seed", 1]) == 1
        assert "out" in capsys.readouterr().err

    def test_bad_alpha_length(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(["simulate", "--k", 3, "--alpha", "1,2", "--horizon", 5, "--seed", 1, "--out", out])
        assert code == 1


class TestCalibrate:
    def test_noise_calibration_near_factor(self, tmp_path, capsys):
        path = simulate_noise_file(tmp_path, k=4, horizon=900, seed=6)
        assert run(["calibrate", "--in", path, "--w", 30]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert value == pytest.approx(1.5, abs=0.15)

    def test_unit_factor_returns_mean(self, tmp_path, capsys):
        path = simulate_noise_file(tmp_path, k=4, horizon=900, seed=6)
        assert run(["calibrate", "--in", path, "--w", 30, "--factor", 1.0]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert value == pytest.approx(1.0, abs=0.1)

    def test_prefix_too_short(self, tmp_path, capsys):
        path = simulate_noise_file(tmp_path, k=3, horizon=200, seed=7)
        assert run(["calibrate", "--in", path, "--w", 50, "--prefix", 20]) == 1
        assert "too short" in capsys.readouterr().err

    def test_missing_input_names_its_flag(self, capsys):
        assert run(["calibrate", "--w", 10]) == 1
        assert "missing required option --in\n" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["calibrate", "--in", tmp_path / "absent.csv", "--w", 10]) == 2

    def test_normalization_flags(self, tmp_path, capsys):
        # scale one sensor way up; per-sensor normalization brings the drift
        # estimate back to the unscaled value
        rng = np.random.default_rng(30)
        streams = rng.standard_normal((3, 600))
        streams[1] *= 40.0
        path = tmp_path / "scaled.csv"
        write_sensor_csv(path, streams)
        assert run(["calibrate", "--in", path, "--w", 25, "--factor", 1.0]) == 0
        raw = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert run(["calibrate", "--in", path, "--w", 25, "--factor", 1.0,
                    "--normalize", "--norm-prefix", 400]) == 0
        normed = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert raw > 10 * normed  # the hot sensor dominated the raw statistic
        assert normed < 1.0  # normalized amplitudes sit within [-1, 1]

    def test_rate_is_not_a_calibrate_flag(self, tmp_path):
        # calibrate prints a drift, not a time; the shared seismic preset's
        # rate key (read by detect) still loads under calibrate
        record = simulate_noise_file(tmp_path, k=3, horizon=700)
        assert run(["calibrate", "--in", record, "--w", 30, "--rate", 250]) == 1
        configs = Path(__file__).resolve().parent.parent / "configs"
        assert run(["--config", configs / "seismic.cfg", "calibrate", "--in", record,
                    "--prefix", 500]) == 0


class TestDetect:
    def test_injected_change_alarms_after_onset(self, tmp_path, capsys):
        out = tmp_path / "episode.csv"
        run(["simulate", "--k", 3, "--sigma2", 1, "--mu", 1.5, "--onsets", "150,152,155",
             "--horizon", 400, "--seed", 8, "--out", out])
        report = tmp_path / "report.csv"
        traj = tmp_path / "traj.csv"
        # drift from the pre-change prefix through the same (sync-on) pipeline;
        # a fixed d near the noise power would sit below the inflated
        # pre-change mean that delay re-estimation induces on pure noise
        code = run(["detect", "--in", out, "--w", 20, "--tau-max", 5, "--factor", 1.5,
                    "--prefix", 140, "--b", 15, "--out", report, "--trajectory-out", traj])
        assert code == 0
        rows = list(csv.DictReader(report.read_text().splitlines()))
        assert rows[0]["detector"] == "subspace"
        crossed = int(rows[0]["crossed_at"])
        assert crossed > 150
        assert int(rows[0]["reported_at"]) == crossed + 20
        assert traj.exists()

    def test_no_alarm_report(self, tmp_path):
        path = simulate_noise_file(tmp_path, k=3, horizon=300, seed=9)
        report = tmp_path / "report.csv"
        code = run(["detect", "--in", path, "--w", 15, "--d", 1.5, "--b", 1e6, "--out", report])
        assert code == 0
        rows = list(csv.DictReader(report.read_text().splitlines()))
        assert rows[0]["crossed_at"] == ""

    def test_rate_flag_adds_seconds(self, tmp_path):
        path = simulate_noise_file(tmp_path, k=2, horizon=300, seed=10)
        report = tmp_path / "report.csv"
        run(["detect", "--in", path, "--w", 10, "--d", 1.2, "--b", 8, "--rate", 250,
             "--out", report])
        header = report.read_text().splitlines()[0]
        assert header.endswith("crossed_sec,reported_sec")

    def test_malformed_csv_is_io_error_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,s1,s2\n1,0.1,0.2\n2,0.3\n")
        report = tmp_path / "report.csv"
        assert run(["detect", "--in", bad, "--w", 5, "--d", 1, "--b", 5, "--out", report]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_calibration_fallback_when_d_absent(self, tmp_path, capsys):
        path = simulate_noise_file(tmp_path, k=3, horizon=500, seed=11)
        report = tmp_path / "report.csv"
        code = run(["detect", "--in", path, "--w", 20, "--factor", 1.5, "--prefix", 300,
                    "--b", 1e6, "--out", report])
        assert code == 0
        assert "calibrated drift" in capsys.readouterr().out

    def test_requires_d_or_factor(self, tmp_path):
        path = simulate_noise_file(tmp_path, k=2, horizon=100, seed=12)
        assert run(["detect", "--in", path, "--w", 10, "--b", 5, "--out", tmp_path / "r.csv"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--d", 1.2, "--rate", 0],
            ["--d", 1.2, "--rate", -250],
            ["--factor", -1.5, "--prefix", 200],
            ["--d", 1.2, "--normalize", "--norm-prefix", -390],
        ],
        ids=["zero-rate", "negative-rate", "negative-factor", "negative-norm-prefix"],
    )
    def test_out_of_range_value_is_validation_error(self, tmp_path, capsys, flags):
        path = simulate_noise_file(tmp_path, k=2, horizon=400, seed=10)
        report = tmp_path / "report.csv"
        assert run(["detect", "--in", path, "--w", 10, "--b", 8, "--out", report] + flags) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not report.exists()

    def test_non_finite_csv_is_io_error_with_line(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("t,s1,s2\n1,0.1,0.2\n2,0.3,0.4\n3,nan,0.5\n")
        report = tmp_path / "report.csv"
        assert run(["detect", "--in", bad, "--w", 1, "--d", 1, "--b", 5, "--out", report]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_tied_axes_exit_0(self, tmp_path, capsys):
        # alternating near-tied axes keep the two leading eigenvalues a hair
        # apart; the eigendecomposition still resolves them
        tied = tmp_path / "tied.csv"
        big = repr(float(np.sqrt(1 + 1e-7)))
        rows = ["t,s1,s2"]
        for t in range(1, 13):
            rows.append(f"{t},{big},0.0" if t % 2 else f"{t},0.0,1.0")
        tied.write_text("\n".join(rows) + "\n")
        code = run(["detect", "--in", tied, "--w", 2, "--d", 0.5, "--b", 100,
                    "--out", tmp_path / "r.csv"])
        assert code == 0
        assert "no alarm" in capsys.readouterr().out

    def test_overflowing_cell_is_exit_3(self, tmp_path, capsys):
        # 1e200 is a finite reading, but its square overflows the covariance
        path = simulate_noise_file(tmp_path, k=2, horizon=60, seed=15)
        lines = path.read_text().splitlines()
        lines[30] = lines[30].split(",")[0] + ",1e200,0.5"
        path.write_text("\n".join(lines) + "\n")
        code = run(["detect", "--in", path, "--w", 5, "--d", 1.5, "--b", 10,
                    "--out", tmp_path / "r.csv"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_first_row_is_exit_3(self, tmp_path, capsys):
        # the first row is scored but sits in no window: only its square overflows
        path = simulate_noise_file(tmp_path, k=2, horizon=60, seed=15)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split(",")[0] + ",1e200,0.5"
        path.write_text("\n".join(lines) + "\n")
        code = run(["detect", "--in", path, "--no-sync", "--w", 20, "--d", 1.5, "--b", 10,
                    "--out", tmp_path / "r.csv"])
        assert code == 3
        assert "non-finite squared projection" in capsys.readouterr().err


def _two_pass_detect(path, out_dir, *, w, tau_max, factor, prefix, b, rate, normalize):
    """``detect --factor/--prefix`` as two passes, the prefix scored on its own,
    with the outputs written through ``csv.writer``."""
    t0, streams = read_sensor_csv(path)
    if normalize:
        streams = np.stack([normalize_stream(row) for row in streams])
    _, prefix_inc = subspace_increments(streams[:, :prefix], w=w, tau_max=tau_max, sync=True, t0=t0)
    d = calibrate_drift(prefix_inc, factor=factor)
    report = async_pipeline(streams, w=w, tau_max=tau_max, d=d, b=b, sync=True, t0=t0,
                            full_trajectory=True).report
    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detector", "crossed_at", "reported_at", "b", "d", "crossed_sec",
                         "reported_sec"])
        writer.writerow(["subspace", report.crossed_at, report.reported_at, repr(float(b)),
                         repr(d), repr(report.crossed_at / rate), repr(report.reported_at / rate)])
    with open(out_dir / "trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "S"])
        for t, s in zip(report.ticks.tolist(), report.statistic.tolist()):
            writer.writerow([t, repr(s)])
    return (
        f"calibrated drift d={d!r}\n"
        f"alarm: crossed_at={report.crossed_at} reported_at={report.reported_at} "
        f"({report.reported_at / rate:.1f} s)\n"
    )


class TestDetectOnePass:
    @pytest.mark.parametrize("normalize, b", [(False, 15.0), (True, 0.6)])
    def test_outputs_equal_two_pass_reference(self, tmp_path, capsys, normalize, b):
        record = tmp_path / "episode.csv"
        run(["simulate", "--k", 3, "--sigma2", 1, "--mu", 1.5, "--onsets", "250,252,255",
             "--horizon", 500, "--seed", 31, "--out", record])
        capsys.readouterr()
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        expected = _two_pass_detect(record, ref_dir, w=20, tau_max=5, factor=1.5, prefix=217,
                                    b=b, rate=250.0, normalize=normalize)
        argv = ["detect", "--in", record, "--w", 20, "--tau-max", 5, "--factor", 1.5,
                "--prefix", 217, "--b", b, "--rate", 250, "--out", tmp_path / "report.csv",
                "--trajectory-out", tmp_path / "trajectory.csv"]
        assert run(argv + ["--normalize"] * normalize) == 0
        assert capsys.readouterr().out == expected
        for name in ("report.csv", "trajectory.csv"):
            assert (tmp_path / name).read_bytes() == (ref_dir / name).read_bytes()


class TestCurve:
    def test_small_curve_schema_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["curve", "--k", 3, "--mu", 0.8, "--w", 8, "--tau-max", 3, "--no-sync",
                "--trials", 25, "--horizon", 2500, "--horizon-edd", 400,
                "--b-grid", "2,5", "--b-grid-oneshot", "1,3", "--d", 1.3, "--seed", 13]
        assert run(argv + ["--out", out_a]) == 0
        assert run(argv + ["--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = list(csv.DictReader(out_a.read_text().splitlines()))
        assert {r["detector"] for r in rows} == {"subspace", "one_shot"}
        assert len(rows) == 4

    def test_empty_grid_is_validation_error(self, tmp_path):
        code = run(["curve", "--k", 3, "--mu", 0.5, "--w", 8, "--trials", 5,
                    "--horizon", 200, "--b-grid", "", "--seed", 1, "--out", tmp_path / "c.csv"])
        assert code == 1

    def test_zero_horizon_edd_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run(["curve", "--k", 3, "--mu", 0.8, "--w", 8, "--no-sync", "--trials", 2,
                    "--horizon", 300, "--horizon-edd", 0, "--b-grid", "2", "--d", 1.3,
                    "--seed", 1, "--out", out])
        assert code == 1
        assert "--horizon-edd must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_drift_calibration(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run(["curve", "--k", 3, "--mu", 0.9, "--w", 8, "--no-sync", "--trials", 10,
                    "--horizon", 800, "--horizon-edd", 300, "--b-grid", "3",
                    "--detector", "subspace", "--seed", 14, "--out", out])
        assert code == 0
        assert "calibrated drift" in capsys.readouterr().out


class TestNegativeTauMax:
    """A negative --tau-max is rejected before any draw, naming the flag."""

    SIMULATE = ["simulate", "--k", 2, "--mu", 1, "--horizon", 20, "--seed", 1]
    CURVE = ["curve", "--k", 3, "--mu", 0.8, "--w", 8, "--trials", 2, "--horizon", 300,
             "--b-grid", "2", "--d", 1.3, "--seed", 1]

    @pytest.mark.parametrize("command", ["simulate", "curve"])
    def test_flag_is_validation_error(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        argv = getattr(self, command.upper()) + ["--tau-max", -3, "--out", out]
        assert run(argv) == 1
        assert "error: --tau-max must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("tau-max = -1\n")
        out = tmp_path / "out.csv"
        assert run(["--config", cfg] + self.CURVE + ["--out", out]) == 1
        assert "error: --tau-max must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    # one line each, after a base preset that both curve and detect accept
    BASE = ("k = 3\nmu = 0.8\nw = 8\nd = 1.3\nb = 8\nb-grid = 2\n"
            "seed = 1\ntrials = 2\nhorizon = 300\n")

    @pytest.mark.parametrize(
        "line, command",
        [
            ("w = 20.5", "curve"),
            ("k = 3.0", "curve"),
            ("seed = abc", "curve"),
            ("detector = bogus", "curve"),
            ("sync = maybe", "curve"),
            ("normalize = yes please", "detect"),
        ],
    )
    def test_bad_value_rejected_with_its_line(self, tmp_path, capsys, line, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.BASE + line + "\n")
        out = tmp_path / "out.csv"
        argv = ["--config", cfg, command, "--out", out]
        if command == "detect":
            argv += ["--in", simulate_noise_file(tmp_path, k=3, horizon=200)]
        assert run(argv) == 1
        assert f"{cfg}:10: " in capsys.readouterr().err
        assert not out.exists()

    def test_no_sync_flag_beats_config_sync(self, tmp_path, capsys):
        record = simulate_noise_file(tmp_path, k=3, horizon=400, seed=6)
        cfg = tmp_path / "sync.cfg"
        cfg.write_text("sync = true\ntau-max = 3\nw = 20\n")
        capsys.readouterr()
        drifts = []
        for argv in (
            ["--config", cfg, "calibrate", "--no-sync"],
            ["calibrate", "--no-sync", "--tau-max", 3, "--w", 20],
            ["--config", cfg, "calibrate"],
        ):
            assert run(argv + ["--in", record]) == 0
            drifts.append(capsys.readouterr().out)
        assert drifts[0] == drifts[1] != drifts[2]

    def test_every_curve_key_matches_its_flag(self, tmp_path):
        values = {
            "k": 3, "sigma2": 1.5, "mu": 0.8, "w": 8, "tau-max": 2, "delta": 2, "n-max": 3,
            "d": 1.3, "b-grid": "2,4", "b-grid-oneshot": "1,2", "detector": "both",
            "trials": 4, "horizon": 400, "horizon-edd": 150, "seed": 5,
        }
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items())
                       + f"sync = on\nout = {tmp_path / 'config.csv'}\n")
        curve_keys = {a.dest for a in build_parser().commands["curve"]._actions} - {"help"}
        assert {key.replace("-", "_") for key in values} | {"sync", "out"} == curve_keys
        assert run(["--config", cfg, "curve"]) == 0
        flags = [item for key, value in values.items() for item in (f"--{key}", value)]
        assert run(["curve", *flags, "--sync", "--out", tmp_path / "flags.csv"]) == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()

    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("# preset\nk = 2\nsigma2 = 0\nmu = 1\nonsets = 3,5\nhorizon = 6\n")
        out = tmp_path / "episode.csv"
        code = run(["--config", cfg, "simulate", "--seed", 1, "--out", out])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 7  # header + 6 ticks

        out2 = tmp_path / "episode2.csv"
        code = run(["--config", cfg, "simulate", "--seed", 1, "--horizon", 8, "--out", out2])
        assert code == 0
        assert len(list(csv.reader(out2.read_text().splitlines()))) == 9

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert run(["--config", cfg, "simulate", "--seed", 1]) == 1

    def test_unknown_key_rejected_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("k = 2\n# the typo\ntau_mx = 20\nhorizon = 6\n")
        out = tmp_path / "episode.csv"
        assert run(["--config", cfg, "simulate", "--seed", 1, "--out", out]) == 1
        assert f"{cfg}:3: unknown key 'tau_mx'" in capsys.readouterr().err
        assert not out.exists()

    def test_key_of_another_subcommand_allowed(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("k = 2\nhorizon = 6\nb = 3.5\nnormalize = true\n")
        assert run(["--config", cfg, "simulate", "--seed", 1, "--out", tmp_path / "e.csv"]) == 0

    def test_shipped_presets_load(self, tmp_path):
        # each preset under the command it documents, with flags shrinking the run
        configs = Path(__file__).resolve().parent.parent / "configs"
        record = simulate_noise_file(tmp_path, k=3, horizon=700)
        code = run(["--config", configs / "seismic.cfg", "detect", "--in", record,
                    "--prefix", 500, "--b", 50, "--out", tmp_path / "report.csv"])
        assert code == 0
        for name in ("curve_weak.cfg", "curve_strong.cfg"):
            code = run(["--config", configs / name, "curve", "--d", 2.0, "--trials", 2,
                        "--horizon", 300, "--horizon-edd", 100, "--out", tmp_path / name])
            assert code == 0

    def test_unknown_command_rejected(self):
        assert run(["frobnicate"]) == 1
