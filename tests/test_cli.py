import csv
import io
import itertools
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsteer import __version__, cli, geometry, protocol, steering, tomography
from qsteer.cli import main, parse_target
from qsteer.errors import ConfigError, DimensionMismatchError, NumericalError
from qsteer.protocol import NO_NOISE, NoiseConfig, run_blind, sweep
from qsteer.states import DensityState, QubitTarget, QutritTarget, fidelity

from conftest import MALFORMED_CIRCUIT_TEXTS, csv_text


@pytest.fixture
def runner():
    return CliRunner()


def read(path):
    return path.read_bytes()


class TestParseTarget:
    def test_catalog_labels(self):
        label, t = parse_target("+")
        assert label == "+" and isinstance(t, QubitTarget)
        label, t = parse_target("qutrit-equal")
        assert isinstance(t, QutritTarget)

    def test_explicit_angles(self):
        _, t = parse_target("qubit:1.0,2.0")
        assert (t.theta, t.phi) == (1.0, 2.0)
        _, t = parse_target("qutrit:1.0,1.0,0.5,0.25")
        assert t.phi02 == 0.25

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_target("bogus")
        with pytest.raises(ConfigError):
            parse_target("qubit:1.0")


class TestSteerCommand:
    def test_blind_one_step(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", repr(math.pi / 2), "--N", "1",
             "--mode", "blind", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "fidelity_vs_n.csv").read_text().splitlines()
        assert rows[0] == "target,J,n,mean_fid,std"
        final = float(rows[-1].split(",")[3])
        assert final >= 1 - 1e-10

    def test_nonblind_writes_histogram(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", repr(math.pi / 4), "--N", "30",
             "--mode", "nonblind", "--trajectories", "500", "--seed", "3",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "repetitions_hist.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        payload = json.loads((tmp_path / "records.json").read_text())
        assert payload["config"]["mode"] == "nonblind"
        rep = payload["records"]["repetitions"]
        assert rep["n_trajectories"] == 500
        # from I/2 without noise, the |-> half flags at cycle n with
        # probability 2^-n: the exact law beside the samples, conditioned on
        # a flag within N = 30 as the frequencies are
        flagged = 1 - 0.5**30
        assert list(rows[0]) == ["repetitions", "count", "frequency", "cdf", "exact_pmf"]
        assert [int(r["repetitions"]) for r in rows] == sorted(int(k) for k in rep["counts"])
        for row in rows:
            want = 0.5 ** int(row["repetitions"]) / flagged
            assert float(row["exact_pmf"]) == pytest.approx(want, rel=1e-12)
        assert rep["exact_failure_probability"] == pytest.approx(0.5 + 0.5**31, rel=1e-12)
        assert rep["exact_mean"] == pytest.approx(2 - 30 * 0.5**30 / flagged, rel=1e-12)

    def test_nonblind_without_flags_has_no_exact_mean(self, runner, tmp_path):
        # at J = 0 the ancilla never reads 1: all of the law's mass is on failure
        args = ["steer", "--target", "+", "--J", "0", "--N", "5", "--mode", "nonblind",
                "--trajectories", "10", "--out", str(tmp_path)]
        assert runner.invoke(main, args).exit_code == 0
        rep = json.loads((tmp_path / "records.json").read_text())["records"]["repetitions"]
        assert rep["mean"] is None and rep["exact_mean"] is None
        assert rep["exact_failure_probability"] == 1.0

    def test_invalid_config_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["steer", "--target", "bogus", "--J", "0.5", "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("target", ["+", "qutrit-equal"])
    @pytest.mark.parametrize("coupling", ["nan", "inf", "-inf"])
    def test_nonfinite_coupling_is_config_error(self, runner, tmp_path, target, coupling):
        result = runner.invoke(
            main,
            ["steer", "--target", target, "--J", coupling, "--N", "2",
             "--mode", "blind", "--out", str(tmp_path)],
        )
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert "not finite" in error["message"]

    def test_noise_file_unknown_key_rejected(self, runner, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"depolarizing_p": 0.1, "mystery": 1}))
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", "0.5", "--noise", str(noise),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "raw",
        [
            {"depolarizing_p": "x"},
            {"reset_infidelity": None},
            {"readout_confusion": "ab"},
            # booleans and numeric strings, which float() would accept
            {"depolarizing_p": True},
            {"depolarizing_p": "0.1"},
            {"amplitude_damping_gamma": False},
            {"readout_confusion": [[True, False], [False, True]]},
            {"readout_confusion": [["0.9", "0.1"], [0, 1]]},
            # integers too large for a float
            {"depolarizing_p": 10**400},
            {"readout_confusion": [[10**400, 0], [0, 1]]},
        ],
    )
    def test_noise_file_bad_value_is_config_error(self, runner, tmp_path, raw):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(raw))
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", "0.5", "--noise", str(noise),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "config"

    def test_noise_file_null_confusion_and_integers_accepted(self, runner, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"readout_confusion": None, "depolarizing_p": 0,
                                     "reset_infidelity": 0.05}))
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", "0.785", "--N", "5", "--noise", str(noise),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        echo = json.loads((tmp_path / "records.json").read_text())["config"]["noise"]
        assert echo["readout_confusion"] is None and echo["depolarizing_p"] == 0.0

    @pytest.mark.parametrize("mode", ["blind", "nonblind"])
    def test_trajectories_below_one_is_usage_error(self, runner, tmp_path, mode):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", "0.785", "--N", "5", "--mode", mode,
             "--trajectories", "0", "--out", str(out)],
        )
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "config"
        assert "--trajectories" in lines[0]
        assert not out.exists()

    def test_noise_file_nan_confusion_is_config_error(self, runner, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text('{"readout_confusion": [[NaN, NaN], [0, 1]]}')
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", "0.785", "--N", "5", "--mode", "nonblind",
             "--noise", str(noise), "--out", str(out)],
        )
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "config"
        assert not (out / "records.json").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["steer", "--target", "+", "--J", "0.5", "--N", "3", "--mode", "blind"],
            ["steer", "--target", "+", "--J", "0.5", "--N", "3", "--mode", "nonblind",
             "--trajectories", "10"],
            ["sweep", "--targets", "+", "--Js", "0.5", "--N", "3"],
            ["tomo", "--target", "+", "--J", "0.5", "--N", "3"],
        ],
        ids=["steer-blind", "steer-nonblind", "sweep", "tomo"],
    )
    def test_noise_file_3x3_confusion_is_config_error(self, runner, tmp_path, args):
        # the ancilla is a qubit: blind runs never read the confusion, but
        # must not echo one that cannot apply
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"readout_confusion": np.eye(3).tolist()}))
        out = tmp_path / "out"
        result = runner.invoke(main, args + ["--noise", str(noise), "--out", str(out)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "config"
        assert not out.exists() or not any(out.iterdir())

    def test_noise_file_applied(self, runner, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"depolarizing_p": 0.2}))
        result = runner.invoke(
            main,
            ["steer", "--target", "+", "--J", repr(math.pi / 2), "--N", "50",
             "--noise", str(noise), "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        rows = (tmp_path / "fidelity_vs_n.csv").read_text().splitlines()
        final = float(rows[-1].split(",")[3])
        assert final == pytest.approx(0.9, abs=1e-9)  # (1-p) + p/2


DETERMINISM_CASES = [
    ["steer", "--target", "+", "--J", "0.9", "--N", "5", "--mode", "blind"],
    ["steer", "--target", "+", "--J", "0.8", "--N", "20", "--mode", "nonblind",
     "--trajectories", "400", "--seed", "11"],
    ["sweep", "--Js", "0.5,1.0", "--N", "4"],
    ["kak", "--target", "+", "--J", "0.4"],
    ["circuit", "--target", "-i", "--J", "0.7"],
    ["tomo", "--target", "+", "--J", "0.7", "--N", "3", "--shots", "512", "--seed", "5"],
    ["qpt", "--target", "+", "--J", "0.6", "--shots", "400", "--seed", "2"],
]


class TestDeterminism:
    @pytest.mark.parametrize("args", DETERMINISM_CASES)
    def test_byte_identical_reruns(self, runner, tmp_path, args):
        """A rerun over stale, longer files leaves no old tail behind."""
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(out_a)]).exit_code == 0
        for p in out_a.iterdir():
            with open(p, "ab") as fh:
                fh.write(b"\xff junk\n" * 512)  # 4 KiB
        for out in (out_a, out_b):
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert read(out_a / name) == read(out_b / name), name

    @pytest.mark.parametrize("args", DETERMINISM_CASES)
    def test_rerun_writes_every_file_in_place(self, runner, tmp_path, monkeypatch, args):
        """Every output file goes through cli._overwrite, and none is opened
        with O_TRUNC, which on ext4 flushes the file on close."""
        out = tmp_path / "out"
        argv = args + ["--out", str(out)]
        assert runner.invoke(main, argv).exit_code == 0
        overwritten, opened = [], []
        overwrite, os_open = cli._overwrite, os.open

        def spy_overwrite(path, *rest, **kw):
            overwritten.append(Path(path))
            return overwrite(path, *rest, **kw)

        def spy_open(path, flags, *rest, **kw):
            opened.append((Path(path), flags))
            return os_open(path, flags, *rest, **kw)

        monkeypatch.setattr(cli, "_overwrite", spy_overwrite)
        monkeypatch.setattr(os, "open", spy_open)
        result = runner.invoke(main, argv)
        monkeypatch.undo()
        assert result.exit_code == 0, result.output
        files = sorted(out.rglob("*"))
        assert files and sorted(overwritten) == files
        assert sorted(p for p, _ in opened if out in p.parents) == files
        assert not [p for p, flags in opened if flags & os.O_TRUNC]


OUTPUT_CASES = {
    "steer-blind": (
        ["steer", "--target", "+", "--J", "0.5", "--N", "2"],
        ["fidelity_vs_n.csv"],
        ["records.json"],
    ),
    "steer-nonblind": (
        ["steer", "--target", "+", "--J", "0.5", "--N", "5", "--mode", "nonblind",
         "--trajectories", "20"],
        ["fidelity_vs_n.csv", "repetitions_hist.csv"],
        ["records.json"],
    ),
    "sweep": (["sweep", "--Js", "0.5", "--N", "2"], ["sweep.csv"], ["sweep.json"]),
    "tomo": (
        ["tomo", "--target", "+", "--J", "0.5", "--N", "2"],
        ["tomo_fidelities.csv"],
        ["tomo.json"],
    ),
    "qpt": (["qpt", "--target", "+", "--J", "0.5"], ["ptm.csv", "r_minus_i.csv"], ["qpt.json"]),
}


class TestOutputFiles:
    """Every command writes both its CSV and its JSON files."""

    @pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
    def test_writes_csv_and_json(self, runner, tmp_path, case):
        args, csv_files, json_files = OUTPUT_CASES[case]
        result = runner.invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(csv_files + json_files)

    @pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
    def test_format_option_is_a_usage_error(self, runner, tmp_path, case):
        args, _, _ = OUTPUT_CASES[case]
        result = runner.invoke(main, [*args, "--format", "json", "--out", str(tmp_path)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "config"
        assert not list(tmp_path.iterdir())


class TestErrorPath:
    @pytest.mark.parametrize(
        "args",
        [
            ["steer", "--target", "+", "--J", "0.5", "--N", "abc"],
            ["steer", "--target", "+", "--J", "0.5", "--mode", "sideways"],
            ["sweep", "--Js", "0.3", "--repeats", "2"],
            ["bogus"],
            ["--bogus", "steer"],
            ["steer", "--target", "+", "--J", "0.5", "--max-steps", "3"],
            ["sweep", "--Js", "0.3", "--seed", "1"],
            *(
                [*command, "--N", steps]
                for command in (["steer", "--target", "+", "--J", "0.5"],
                                ["sweep", "--Js", "0.5"],
                                ["tomo", "--target", "+", "--J", "0.5"])
                for steps in ("0", "-1")
            ),
        ],
    )
    def test_usage_error_is_one_json_line(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "config" and error["message"]
        assert not list(tmp_path.iterdir())

    def test_library_error_exits_3(self, runner, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr(cli, "run_blind", fail)
        result = runner.invoke(main, ["steer", "--target", "+", "--J", "0.5",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert json.loads(lines[0]) == {
            "error": {"kind": "numerical", "message": "eigensolver did not converge"}
        }
        assert len(lines) == 1

    @pytest.mark.parametrize("args", [
        ["steer", "--target", "+", "--J", "0.5", "--N", "50", "--mode", "blind"],
        ["steer", "--target", "+", "--J", "0.5", "--N", "50", "--mode", "nonblind",
         "--trajectories", "50"],
        ["sweep", "--Js", "0.5", "--N", "50"],
        ["tomo", "--target", "qutrit-equal", "--J", "0.5", "--N", "50"],
    ], ids=["steer-blind", "steer-nonblind", "sweep", "tomo"])
    def test_run_over_byte_budget_exits_2(self, runner, tmp_path, monkeypatch, args):
        # the budget is lowered, so a small run stands for one too large to allocate
        monkeypatch.setattr(protocol, "MAX_RUN_BYTES", 1000)
        result = runner.invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "config" and "budget of 1000 bytes" in error["message"]
        assert not list(tmp_path.iterdir())

    def test_tomo_counts_its_reconstructions(self, runner, tmp_path, monkeypatch):
        # the blind run's 51 states fit in this budget; tomo's rows do not
        monkeypatch.setattr(protocol, "MAX_RUN_BYTES", 20_000)
        result = runner.invoke(main, ["tomo", "--target", "+", "--J", "0.5", "--N", "50",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "budget of 20000 bytes" in json.loads(lines[0])["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", [["kak", "--circuit"],
                                        ["steer", "--target", "+", "--J", "0.5", "--noise"]],
                             ids=["kak-circuit", "steer-noise"])
    def test_input_file_not_utf8_is_one_json_line(self, runner, tmp_path, option):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        result = runner.invoke(main, [*option, str(path), "--out", str(out)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "config" and "cannot read" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["steer", "--help"]])
    def test_help_and_version_exit_0(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith("Usage:") or __version__ in result.stdout


class TestSweepCommand:
    def test_grid_with_stabilizer_average(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sweep", "--Js", repr(math.pi / 2), "--N", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "target,J,n,mean_fid,std,stabilizer_avg"
        finals = [ln for ln in lines[1:] if ln.split(",")[2] == "1"]
        assert len(finals) == 6
        for ln in finals:
            assert float(ln.split(",")[5]) == pytest.approx(1.0, abs=1e-10)

    def test_explicit_angle_targets(self, runner, tmp_path):
        text = "qubit:0.3,1.2,+,qutrit:0.4,1.1,0.3,2.0,0"
        result = runner.invoke(main, ["sweep", "--targets", text, "--Js", "0.7,0.3,0.7",
                                      "--N", "3", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "sweep.json").read_text())
        labels = ["qubit:0.3,1.2", "+", "qutrit:0.4,1.1,0.3,2.0", "0"]
        assert payload["config"]["targets"] == labels
        fids, average = sweep([parse_target(t) for t in labels], [0.7, 0.3, 0.7], 3)
        assert [list(r.values()) for r in payload["rows"]] == [
            [j, f, n, avg, std, label]
            for label, j, n, f, std, avg in _sweep_rows(labels, [0.7, 0.3, 0.7], fids, average)
        ]

    @pytest.mark.parametrize(
        "text", ["qubit:0.3", "qubit:0.3,+", "+,qutrit:0.4,1.1,0.3", "qubit:0.3,,1.2"]
    )
    def test_short_angle_list_is_one_json_line(self, runner, tmp_path, text):
        result = runner.invoke(main, ["sweep", "--targets", text, "--Js", "0.5",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "config"
        assert not list(tmp_path.iterdir())


def _sweep_rows(labels, couplings, fids, average) -> list[tuple]:
    """A sweep grid's (label, J, n, mean_fid, std, stabilizer_avg) rows, each
    curve's std 0.0 and a NaN average None."""
    return [(label, j, n, f, 0.0, None if math.isnan(avg) else avg)
            for label, target_fids, target_avgs in zip(labels, fids.tolist(), average.tolist())
            for j, curve, avgs in zip(couplings, target_fids, target_avgs)
            for n, (f, avg) in enumerate(zip(curve, avgs))]


def _stdlib_sweep_files(rows, config) -> tuple[bytes, bytes]:
    """sweep.csv and sweep.json as csv.writer and json.dumps write them."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cli.SWEEP_HEADER)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
    payload = {"config": config, "tool_version": __version__,
               "rows": [dict(zip(cli.SWEEP_HEADER, row)) for row in rows]}
    return buf.getvalue().encode(), (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


# sweep targets: catalog labels, qubit:theta,phi labels (csv quotes them for
# their comma) and qutrit targets
_sweep_labels = st.lists(
    st.sampled_from(["0", "1", "+", "-", "i", "-i", "qutrit-equal"])
    | st.builds("qubit:{!r},{!r}".format, st.floats(0, math.pi), st.floats(0, 6.28))
    | st.builds("qutrit:{!r},{!r},{!r},{!r}".format, st.floats(0, math.pi), st.floats(0, math.pi),
                st.floats(0, 6.28), st.floats(0, 6.28)),
    min_size=1, max_size=4,
)
# couplings repeat, and 0.0 and -0.0 (equal, but printed apart) are drawn often
_sweep_couplings = st.lists(st.sampled_from([0.0, -0.0, 0.7, math.pi / 2]) | st.floats(-7, 7),
                            min_size=1, max_size=4)
_sweep_noise = st.sampled_from([
    NO_NOISE,
    NoiseConfig(depolarizing_p=0.01),
    NoiseConfig(amplitude_damping_gamma=0.02),
    NoiseConfig(depolarizing_p=0.01, amplitude_damping_gamma=0.02, reset_infidelity=0.05,
                readout_confusion=[[0.97, 0.03], [0.05, 0.95]]),
])


class TestWriteSweep:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(labels=_sweep_labels, couplings=_sweep_couplings, steps=st.integers(1, 6),
           noise=_sweep_noise)
    @example(labels=["0", "+", "qutrit-equal", "-i", "qubit:0.7,1.9"],
             couplings=[0.7, 0.3, 0.7, -0.0, 0.0], steps=5, noise=NO_NOISE)
    @example(labels=["0", "1", "+", "-", "i", "-i"], couplings=[0.39, 0.79, 1.57], steps=30,
             noise=NoiseConfig(amplitude_damping_gamma=0.02))
    def test_bytes_equal_stdlib(self, tmp_path, labels, couplings, steps, noise):
        fids, average = sweep([parse_target(t) for t in labels], couplings, steps, noise)
        config = {"command": "sweep", "targets": labels, "couplings": couplings, "steps": steps,
                  "noise": cli._noise_echo(noise)}
        cli.write_sweep(labels, couplings, fids, average, tmp_path / "s.csv", tmp_path / "s.json",
                        config)
        rows = _sweep_rows(labels, couplings, fids, average)
        want_csv, want_json = _stdlib_sweep_files(rows, config)
        assert (tmp_path / "s.csv").read_bytes() == want_csv
        assert (tmp_path / "s.json").read_bytes() == want_json

    def test_signed_zeros_and_none_print_apart(self, tmp_path):
        # 0.0 == -0.0, so the cache keys each curve and average with its signs:
        # under every J index, the targets share no (curve, average) pattern
        signs = list(itertools.product([0.0, -0.0], [0.0, -0.0, math.nan]))
        labels = ["a", "b", 'q"x,y', "a\nb"]
        couplings = [0.0, -0.0, 0.0]
        cells = [[signs[(t + 2 * j) % len(signs)] for j in range(3)] for t in range(4)]
        fids = np.array([[[m, 1.0] for m, _ in row] for row in cells])
        average = np.array([[[avg, -0.0] for _, avg in row] for row in cells])
        cli.write_sweep(labels, couplings, fids, average, tmp_path / "s.csv", tmp_path / "s.json",
                        {})
        want_csv, want_json = _stdlib_sweep_files(_sweep_rows(labels, couplings, fids, average), {})
        assert (tmp_path / "s.csv").read_bytes() == want_csv
        assert (tmp_path / "s.json").read_bytes() == want_json

    def test_target_sorts_last(self):
        # a row's JSON object is its tail's text, then its label's
        assert sorted(cli.SWEEP_HEADER)[-1] == "target"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_numerical_error(self, tmp_path, value):
        # a NaN average is written as None; any other non-finite value is refused
        grid = np.full((1, 1, 2), 0.5)
        bad = grid.copy()
        bad[0, 0, 1] = value
        cases = [([value], grid, grid), ([0.5], bad, grid)]
        if not math.isnan(value):
            cases.append(([0.5], grid, bad))
        for couplings, fids, average in cases:
            with pytest.raises(NumericalError):
                cli.write_sweep(["+"], couplings, fids, average, tmp_path / "s.csv",
                                tmp_path / "s.json", {})

    @pytest.mark.parametrize("labels, couplings, avg_shape", [
        (["a", "b"], [0.5], (1, 1, 2)),
        (["a"], [0.5, 0.7], (1, 1, 2)),
        (["a"], [0.5], (1, 1, 3)),
    ], ids=["labels", "couplings", "average"])
    def test_arrays_that_miss_the_grid_are_refused(self, tmp_path, labels, couplings, avg_shape):
        # zip would drop the rows of the missing targets or couplings
        with pytest.raises(DimensionMismatchError):
            cli.write_sweep(labels, couplings, np.full((1, 1, 2), 0.5), np.full(avg_shape, 0.5),
                            tmp_path / "s.csv", tmp_path / "s.json", {})
        assert not list(tmp_path.iterdir())


# floats at the edges of "%.17g": signed zero, NaN, infinities, the smallest
# subnormal and the largest magnitudes; header text that csv quotes
_EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308,
                np.float64(0.1), np.float64(-1 / 3)]
_CSV_HEADER_TEXT = st.sampled_from(["a,b", 'say "hi"', "two\nlines", "\r", "", " c0 "]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=5)


class TestWriteCsv:
    def test_each_float_at_17_digits(self, tmp_path):
        floats = [0.1, 1 / 3, -0.0, 0.0, float("nan"), -float("inf"), 1e-300]
        rows = [[f, i, "x", None] for i, f in enumerate(floats)]
        cli.write_csv(tmp_path / "t.csv", ["f", "i", "s", "none"], rows)
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            "f,i,s,none", "0.10000000000000001,0,x,", "0.33333333333333331,1,x,", "-0,2,x,",
            "0,3,x,", "nan,4,x,", "-inf,5,x,", "1e-300,6,x,",
        ]

    def test_repeated_values_read_as_alone(self, tmp_path):
        # each distinct nonzero float is formatted once; 0.0 and -0.0 are
        # equal but print apart
        nan = float("nan")
        floats = [0.0, -0.0, 0.0, 0.1, np.float64(0.1), 1 / 3, -0.0, 1 / 3, nan, nan, 1e-300]
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], [[f, f] for f in floats])
        want = ["a,b"] + [f"{f:.17g},{f:.17g}" for f in floats]
        assert (tmp_path / "t.csv").read_text().splitlines() == want

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.tuples(st.integers(0, 4), st.integers(0, 5)), data=st.data())
    def test_float_array_matches_the_cell_by_cell_renderer(self, tmp_path, shape, data):
        # qpt's PTM tables go in as float64 arrays and take the one-format path
        cells = data.draw(st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS),
                                   min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        header = data.draw(st.lists(_CSV_HEADER_TEXT, min_size=shape[1], max_size=shape[1]))
        table = np.array(cells, dtype=float).reshape(shape)
        cli.write_csv(tmp_path / "t.csv", header, table)
        with open(tmp_path / "t.csv", newline="") as fh:
            got = fh.read()
        assert got == csv_text(header, table.tolist())
        assert got == csv_text(header, [list(row) for row in table])  # np.float64 cells


# JSON values: every scalar kind json.dumps accepts (floats include NaN,
# +-inf and -0.0; text includes non-ASCII and control characters), nested
# in lists, tuples and dicts with str or int keys, empty ones included.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**100), 2**100) | st.floats() | st.text(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(-5, 5), children, max_size=3)
    ),
    max_leaves=30,
)


class TestWriteJson:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=_json_values)
    @example(payload={"b": [float("nan"), float("inf"), -float("inf"), -0.0, 2**64],
                      "a": {"t": (True, False, None), "e": [], "d": {}, "\u00e9\x01": ["\x1f"]}})
    @example(payload=[[[]], {}, (), "x"])
    def test_bytes_equal_stdlib_indent(self, tmp_path, payload):
        cli.write_json(tmp_path / "p.json", payload)
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "p.json").read_bytes() == want.encode()

    @pytest.mark.parametrize(
        "text", ["[", "]}", "{[]}", '"', '\\', '\\"]', '"[', "a\nb", "[]", "{}", '\\\\"{', "\u2028]"]
    )
    def test_brackets_and_escapes_inside_strings(self, tmp_path, text):
        payload = {text: [text, {text: text, "k": []}], "z" + text: {}}
        cli.write_json(tmp_path / "p.json", payload)
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "p.json").read_bytes() == want.encode()

    def _assert_failed_write_keeps_old_file(self, tmp_path, payload, error):
        path = tmp_path / "p.json"
        cli.write_json(path, {"ok": 1})
        before = read(path)
        with pytest.raises(error):
            cli.write_json(path, payload)
        assert read(path) == before

    def test_type_error_keeps_old_file(self, tmp_path):
        self._assert_failed_write_keeps_old_file(tmp_path, {"a": {1, 2}}, TypeError)

    def test_value_error_keeps_old_file(self, tmp_path):
        payload = {"a": []}
        payload["a"].append(payload)
        self._assert_failed_write_keeps_old_file(tmp_path, payload, ValueError)

    def test_circular_raises_value_error(self, tmp_path):
        payload = {"a": []}
        payload["a"].append(payload)
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "p.json", payload)

    @pytest.mark.parametrize(
        "payload",
        [np.int64(3), {"a": np.int64(3)}, [1, [np.int64(3)]], {"a": {1, 2}}, [{"a": [set()]}]],
    )
    def test_unserializable_raises_type_error(self, tmp_path, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli.write_json(tmp_path / "p.json", payload)


class TestKakCommand:
    def test_steering_line_output(self, runner, tmp_path):
        result = runner.invoke(
            main, ["kak", "--target", "+", "--J", "0.3", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "kak.json").read_text())
        assert np.allclose(payload["weyl_coordinates"], [0.3, 0.3, 0.0], atol=1e-8)
        assert payload["locally_equivalent_cnot"] is False
        assert payload["reassembly_distance"] < 1e-9

    def test_target_builds_the_frame_once(self, runner, tmp_path, monkeypatch):
        # steering_kak reads the frame of the operator the command built
        calls = []
        build = steering.steering_frame

        def counted(t):
            calls.append(t)
            return build(t)

        monkeypatch.setattr(steering, "steering_frame", counted)
        result = runner.invoke(
            main, ["kak", "--target", "qubit:0.7,1.9", "--J", "2.5", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_circuit_file_source(self, runner, tmp_path):
        result = runner.invoke(
            main, ["circuit", "--target", "+", "--J", "0.5", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            ["kak", "--circuit", str(tmp_path / "circuit.txt"), "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "kak.json").read_text())
        assert np.allclose(payload["weyl_coordinates"], [0.5, 0.5, 0.0], atol=1e-8)

    def test_circuit_path_spelling_writes_the_same_file(self, runner, tmp_path, monkeypatch):
        result = runner.invoke(main, ["circuit", "--target", "+", "--J", "0.785",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        monkeypatch.chdir(tmp_path)
        spellings = ["circuit.txt", "./circuit.txt", str(tmp_path / "circuit.txt")]
        for i, path in enumerate(spellings):
            result = runner.invoke(main, ["kak", "--circuit", path, "--out", f"k{i}"])
            assert result.exit_code == 0, result.output
        files = [read(tmp_path / f"k{i}" / "kak.json") for i in range(len(spellings))]
        assert files[0] == files[1] == files[2]
        assert json.loads(files[0])["config"]["circuit"] == "circuit.txt"

    @pytest.mark.parametrize("name", sorted(MALFORMED_CIRCUIT_TEXTS))
    def test_malformed_circuit_file_is_config_error(self, runner, tmp_path, name):
        path = tmp_path / "circuit.txt"
        path.write_text(MALFORMED_CIRCUIT_TEXTS[name])
        result = runner.invoke(main, ["kak", "--circuit", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "config"
        assert not (tmp_path / "kak.json").exists()

    def test_requires_source(self, runner, tmp_path):
        result = runner.invoke(main, ["kak", "--out", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra", [["--target", "0", "--J", "0.3"], ["--target", "0"],
                                       ["--J", "0.3"]])
    def test_circuit_with_target_or_coupling_is_config_error(self, runner, tmp_path, extra):
        # kak.json's config would name only the circuit, so the other source is refused
        assert runner.invoke(main, ["circuit", "--target", "+", "--J", "0.5",
                                    "--out", str(tmp_path)]).exit_code == 0
        out = tmp_path / "kak"
        result = runner.invoke(
            main, ["kak", "--circuit", str(tmp_path / "circuit.txt"), *extra, "--out", str(out)]
        )
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "config"
        assert not out.exists()

    def test_target_runs_no_eigensolver(self, runner, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("decomposition called by kak --target")

        monkeypatch.setattr(cli, "kak_decompose", forbidden)
        monkeypatch.setattr(geometry, "kak_decompose", forbidden)
        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for target, coupling in [("+", "0.3"), ("qubit:0.7,1.9", "2.5"), ("-i", "-4.0"),
                                 ("+", repr(math.pi / 2)), ("0", repr(math.pi))]:
            result = runner.invoke(
                main, ["kak", "--target", target, "--J", coupling, "--out", str(tmp_path)]
            )
            assert result.exit_code == 0, result.output
            payload = json.loads((tmp_path / "kak.json").read_text())
            assert payload["reassembly_distance"] <= 1e-12

    @pytest.mark.parametrize("target,coupling", [("+", "0.785"), ("qubit:0.7,1.9", "2.5")])
    def test_target_agrees_with_emitted_circuit(self, runner, tmp_path, target, coupling):
        args = ["--target", target, "--J", coupling]
        assert runner.invoke(main, ["circuit", *args, "--out", str(tmp_path)]).exit_code == 0
        assert runner.invoke(main, ["kak", *args, "--out", str(tmp_path / "t")]).exit_code == 0
        result = runner.invoke(
            main, ["kak", "--circuit", str(tmp_path / "circuit.txt"), "--out", str(tmp_path / "c")]
        )
        assert result.exit_code == 0, result.output
        got, want = (json.loads((tmp_path / d / "kak.json").read_text()) for d in ("c", "t"))
        assert np.max(np.abs(np.subtract(got["weyl_coordinates"], want["weyl_coordinates"]))) <= 1e-9
        assert got["locally_equivalent_cnot"] is want["locally_equivalent_cnot"] is False

    @pytest.mark.parametrize("theta,phi", [(math.pi / 2, 0.0), (0.7, 1.9), (2.1, 5.4)])
    def test_target_stable_under_angle_perturbation(self, runner, tmp_path, theta, phi):
        def leaves(x):
            if isinstance(x, dict):
                return [v for k in sorted(x) for v in leaves(x[k])]
            return [v for item in x for v in leaves(item)] if isinstance(x, list) else [x]

        def numbers(t, p, out):
            result = runner.invoke(
                main, ["kak", "--target", f"qubit:{t!r},{p!r}", "--J", "0.785", "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            payload = json.loads((out / "kak.json").read_text())
            del payload["config"], payload["tool_version"]
            return np.array(leaves(payload), dtype=float)

        base = numbers(theta, phi, tmp_path / "base")
        rng = np.random.default_rng(15)
        for i in range(8):
            t, p = (x * (1 + 1e-15 * rng.uniform(-1, 1)) for x in (theta, phi))
            assert np.max(np.abs(numbers(t, p, tmp_path / str(i)) - base)) <= 1e-9


class TestCircuitCommand:
    def test_qubit_circuit_verification(self, runner, tmp_path):
        result = runner.invoke(
            main, ["circuit", "--target", "i", "--J", "1.1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["phase_invariant_distance"] <= 1e-9
        assert payload["cnot_count"] == 2
        text = (tmp_path / "circuit.txt").read_text()
        from qsteer.circuits import parse_text

        parse_text(text)

    def test_qutrit_circuit(self, runner, tmp_path):
        result = runner.invoke(
            main, ["circuit", "--target", "qutrit-equal", "--J", "0.8", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["phase_invariant_distance"] <= 1e-9
        assert payload["gate_count"] == 34

    @pytest.mark.parametrize("target", ["+", "qutrit-equal"])
    def test_builds_the_frame_once(self, runner, tmp_path, monkeypatch, target):
        # the synthesis reads the operator's frame instead of building its own
        calls = []
        build = steering.steering_frame

        def counted(t):
            calls.append(t)
            return build(t)

        monkeypatch.setattr(steering, "steering_frame", counted)
        result = runner.invoke(
            main, ["circuit", "--target", target, "--J", "0.8", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    @pytest.mark.parametrize("target, name", [("+", "synth_kak_circuit"),
                                              ("qutrit-equal", "synth_qutrit_circuit")])
    def test_synthesis_picked_by_dimension(self, runner, tmp_path, monkeypatch, target, name):
        calls = []
        for each in ("synth_kak_circuit", "synth_qutrit_circuit"):
            def counted(op, synth=getattr(cli, each), each=each):
                calls.append(each)
                return synth(op)

            monkeypatch.setattr(cli, each, counted)
        result = runner.invoke(
            main, ["circuit", "--target", target, "--J", "0.8", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        assert calls == [name]


class TestTomoAndQpt:
    @pytest.mark.parametrize("target", ["+", "qutrit-equal"])
    def test_tomo_estimate_covers_its_peak(self, runner, tmp_path, monkeypatch, target):
        estimates = []
        check = cli._check_run_bytes

        def recorded(n_bytes):
            estimates.append(n_bytes)
            check(n_bytes)

        monkeypatch.setattr(cli, "_check_run_bytes", recorded)
        for steps in (2000, 8000):
            tracemalloc.start()
            try:
                result = runner.invoke(main, ["tomo", "--target", target, "--J", "0.785",
                                              "--N", str(steps), "--shots", "100",
                                              "--out", str(tmp_path / str(steps))])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            assert estimates[-1] >= peak, (steps, estimates[-1], peak)

    def test_tomo_infinite_shots_exact(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["tomo", "--target", "+", "--J", "0.9", "--N", "4", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "tomo.json").read_text())
        for row in payload["fidelities"]:
            assert row["reconstructed"] == pytest.approx(row["exact"], abs=1e-9)

    def test_qpt_identity_error_channel(self, runner, tmp_path):
        result = runner.invoke(
            main, ["qpt", "--target", "+", "--J", repr(math.pi / 2), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "qpt.json").read_text())
        assert payload["max_abs_r_minus_i"] <= 1e-9
        assert payload["average_gate_fidelity"] == pytest.approx(1.0, abs=1e-9)
        grid = (tmp_path / "r_minus_i.csv").read_text().splitlines()
        assert len(grid) == 17  # header + 16 rows

    @pytest.mark.parametrize(
        "args",
        [
            ["tomo", "--shots", "64", "--seed", "-1"],
            ["tomo", "--shots", "abc"],
            ["tomo", "--shots", "0"],
            ["tomo", "--seed", str(2**113)],
            ["qpt", "--shots", "64", "--seed", "-1"],
            ["qpt", "--shots", "abc"],
            ["qpt", "--shots", "0"],
            ["qpt", "--shots", "-5"],
            ["qpt", "--seed", str(2**96)],
            *(
                [command, "--shots", shots]
                for command in ("tomo", "qpt")
                for shots in (str(2**63), str(10**20), "9" * 5000)
            ),
        ],
    )
    def test_bad_shots_or_seed_is_config_error(self, runner, tmp_path, args):
        result = runner.invoke(
            main, [args[0], "--target", "+", "--J", "0.9", *args[1:], "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "config"

    @pytest.mark.parametrize("args", [["tomo", "--N", "1"], ["qpt"]], ids=["tomo", "qpt"])
    def test_largest_shot_count_runs(self, runner, tmp_path, args):
        shots = str(2**63 - 1)
        result = runner.invoke(
            main, [*args, "--target", "+", "--J", "0.5", "--shots", shots, "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / f"{args[0]}.json").read_text())["config"]["shots"] == shots

    @pytest.mark.parametrize("target,n_observables", [("+", 3), ("qutrit-equal", 8)])
    def test_tomo_shot_keys_are_distinct(self, runner, tmp_path, monkeypatch, target, n_observables):
        # the key of every draw, read off the bit generator each time it is re-keyed
        keys = []
        philox = np.random.Philox

        class Recording(philox):
            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                words = value["state"]["key"]
                keys.append(int(words[0]) + (int(words[1]) << 64))
                philox.state.__set__(self, value)

        monkeypatch.setattr(np.random, "Philox", Recording)
        result = runner.invoke(
            main,
            ["tomo", "--target", target, "--J", "0.785", "--N", "10", "--shots", "64",
             "--seed", "3", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert len(keys) == 11 * n_observables
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("target,shots,noisy", [
        ("+", "64", False), ("-i", "inf", True), ("qutrit-equal", "4096", False),
        ("qutrit:0.4,1.1,0.3,2.0", "1", True),
    ])
    def test_tomo_rows_equal_per_step_calls(self, runner, tmp_path, target, shots, noisy):
        # row n is the last estimate of a call on the states of steps 0..n
        seed, steps = 2**40 + 5, 10
        noise_args = []
        if noisy:
            noise_file = tmp_path / "noise.json"
            noise_file.write_text(json.dumps(NOISE_FILES["all"]))
            noise_args = ["--noise", str(noise_file)]
        result = runner.invoke(
            main,
            ["tomo", "--target", target, "--J", "0.785", "--N", str(steps), "--shots", shots,
             "--seed", str(seed), *noise_args, "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        _, op = cli._operator(target, 0.785)
        d = op.system_dim
        noise = cli.load_noise(noise_args[1] if noisy else None)
        _, states = run_blind(cli._maximally_mixed(d), op, steps, noise)
        tomo = tomography.tomo_qubit_state if d == 2 else tomography.tomo_qutrit_state
        n_shots = None if shots == "inf" else int(shots)
        last = [tomo(states[: n + 1], shots=n_shots, seed=seed)[n] for n in range(len(states))]
        want = fidelity(np.stack(last), op.target).tolist()
        rows = json.loads((tmp_path / "tomo.json").read_text())["fidelities"]
        assert [row["reconstructed"] for row in rows] == want

    @pytest.mark.parametrize("target,shots,noisy", [
        ("+", 64, False), ("-i", 4096, True), ("qutrit-equal", 64, False),
        ("qutrit:0.4,1.1,0.3,2.0", 1, True),
    ])
    def test_tomo_draws_follow_the_key_rule(self, runner, tmp_path, monkeypatch, target, shots,
                                            noisy):
        # step n, observable i of a run with seed s is row j = n K + i of one
        # draw, and reads Philox key words (j, s + 1) like trajectory j
        seed, steps = 1, 2
        noise_args = []
        if noisy:
            noise_file = tmp_path / "noise.json"
            noise_file.write_text(json.dumps(NOISE_FILES["all"]))
            noise_args = ["--noise", str(noise_file)]
        draws = []
        draw = tomography._keyed_multinomial

        def record(*args):
            draws.append(draw(*args))
            return draws[-1]

        monkeypatch.setattr(tomography, "_keyed_multinomial", record)
        result = runner.invoke(
            main,
            ["tomo", "--target", target, "--J", "0.785", "--N", str(steps), "--shots", str(shots),
             "--seed", str(seed), *noise_args, "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        _, op = cli._operator(target, 0.785)
        d = op.system_dim
        noise = cli.load_noise(noise_args[1] if noisy else None)
        _, states = run_blind(cli._maximally_mixed(d), op, steps, noise)
        probs = tomography._outcome_probs(states, tomography._EIGENBASES[d][1], snap=True)
        probs = probs.reshape(-1, d)
        assert len(draws) == 1 and len(draws[0]) == len(probs) == (steps + 1) * (d * d - 1)
        for j, (row, p) in enumerate(zip(draws[0], probs)):
            rng = np.random.Generator(np.random.Philox(key=((seed + 1) << 64) + j))
            assert np.array_equal(row, rng.multinomial(shots, p)), j

    def test_tomo_builds_one_generator_and_no_state_per_step(self, runner, tmp_path, monkeypatch):
        built = {"philox": 0, "state": 0, "projected": 0}

        def counting(name, make):
            def wrapped(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.random, "Philox", counting("philox", np.random.Philox))
        monkeypatch.setattr(DensityState, "__post_init__",
                            counting("state", DensityState.__post_init__))
        monkeypatch.setattr(tomography, "mle_project",
                            counting("projected", tomography.mle_project))
        # at 16 shots most of the 201 estimates have a negative eigenvalue
        for steps, shots in (("10", "4096"), ("200", "16")):
            built.update(philox=0, state=0, projected=0)
            result = runner.invoke(
                main,
                ["tomo", "--target", "qutrit-equal", "--J", "0.785", "--N", steps, "--shots", shots,
                 "--seed", "3", "--out", str(tmp_path / steps)],
            )
            assert result.exit_code == 0, result.output
            assert built["philox"] == 1
            # the maximally mixed start state only; the estimates that need
            # it are projected in one call
            assert built["state"] == 1
            assert built["projected"] <= 1
        assert built["projected"] == 1


NOISE_FILES = {
    "depolarizing_p": {"depolarizing_p": 0.05},
    "amplitude_damping_gamma": {"amplitude_damping_gamma": 0.1},
    "readout_confusion": {"readout_confusion": [[0.9, 0.1], [0.2, 0.8]]},
    "reset_infidelity": {"reset_infidelity": 0.3},
    "all": {
        "depolarizing_p": 0.05,
        "amplitude_damping_gamma": 0.1,
        "readout_confusion": [[0.9, 0.1], [0.2, 0.8]],
        "reset_infidelity": 0.3,
    },
}


class TestTomoMatchesSteer:
    @pytest.mark.parametrize("key", sorted(NOISE_FILES))
    @pytest.mark.parametrize("target", ["+", "qutrit-equal"])
    def test_exact_fidelities_equal_blind_steer(self, runner, tmp_path, target, key):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(NOISE_FILES[key]))
        common = ["--target", target, "--J", "0.9", "--N", "6", "--noise", str(noise),
                  "--out", str(tmp_path)]
        result = runner.invoke(main, ["tomo", *common, "--shots", "inf"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["steer", *common, "--mode", "blind"])
        assert result.exit_code == 0, result.output
        tomo = json.loads((tmp_path / "tomo.json").read_text())
        steer = json.loads((tmp_path / "records.json").read_text())
        exact = [row["exact"] for row in tomo["fidelities"]]
        blind = steer["records"][0]["fidelities"]
        assert len(exact) == len(blind) == 7
        assert np.max(np.abs(np.subtract(exact, blind))) <= 1e-12
        assert tomo["config"]["noise"] == steer["config"]["noise"]
