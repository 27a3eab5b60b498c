import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import blochx
from blochx import cli, serialize, spin
from blochx.bloch import pure_state_from_direction
from blochx.cli import main, parse_args
from blochx.linalg import ValidationError
from blochx.serialize import dumps, matrix_from_json, matrix_to_json
from conftest import nested_lists


SRC_ROOT = Path(blochx.__file__).resolve().parents[1]


def child_env(env_extra=None):
    """Environment for a child that must import the blochx under test.

    The absolute source root goes in front of any inherited PYTHONPATH, so a
    relative entry (such as ``src``) or another installed copy of blochx
    cannot change what the child imports when it runs in another cwd.
    """
    env = os.environ.copy()
    env.pop("BLOCHX_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT),
                                                      env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(args, cwd, env_extra=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "blochx", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env(env_extra), timeout=timeout)


def test_child_imports_blochx_under_test(tmp_path):
    result = subprocess.run([sys.executable, "-c",
                             "import blochx; print(blochx.__file__)"],
                            capture_output=True, text=True, cwd=tmp_path,
                            env=child_env())
    assert result.returncode == 0, result.stderr
    assert (Path(result.stdout.strip()).resolve()
            == Path(blochx.__file__).resolve())


def write_state(path, matrix):
    path.write_text(dumps({"blochx_schema": 1, "kind": "state",
                           "n": matrix.shape[0],
                           "matrix": matrix_to_json(matrix)}) + "\n")


@pytest.fixture
def psi_file(tmp_path):
    path = tmp_path / "psi.json"
    write_state(path, pure_state_from_direction(np.pi / 3, 0.0).matrix)
    return path


class TestParseArgs:
    def test_measure_config(self):
        cfg = parse_args(["measure", "--s", "0.5", "--direction", "0,0,1",
                          "--state", "psi.json", "--samples", "1000"])
        assert cfg.command == "measure"
        assert cfg.seed == 0
        assert cfg.samples == 1000

    def test_verify_composite_config(self):
        cfg = parse_args(["verify", "--prop", "2bis", "--s1", "0.5", "--s2", "0.5"])
        assert cfg.command == "verify"
        assert cfg.s1 == 0.5

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("BLOCHX_SEED", "99")
        cfg = parse_args(["measure", "--s", "0.5", "--direction", "0,0,1",
                          "--state", "psi.json", "--samples", "10"])
        assert cfg.seed == 99

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv("BLOCHX_SEED", "99")
        cfg = parse_args(["measure", "--s", "0.5", "--direction", "0,0,1",
                          "--state", "psi.json", "--samples", "10", "--seed", "3"])
        assert cfg.seed == 3


class TestGenerators:
    def test_pauli_matrices_in_report(self, tmp_path):
        out = tmp_path / "gen.json"
        result = run_cli(["generators", "--n", "2", "--json", str(out)], tmp_path)
        assert result.returncode == 0
        report = json.loads(out.read_text())
        assert report["blochx_schema"] == 1
        assert report["count"] == 3
        mats = [matrix_from_json(m) for m in report["generators"]]
        assert np.array_equal(mats[0], np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(mats[1], np.array([[0, -1j], [1j, 0]], dtype=complex))
        assert np.array_equal(mats[2], np.array([[1, 0], [0, -1]], dtype=complex))

    def test_stdout_default(self, tmp_path):
        result = run_cli(["generators", "--n", "3"], tmp_path)
        assert result.returncode == 0
        assert json.loads(result.stdout)["count"] == 8


class TestBloch:
    def test_state_round_trip(self, tmp_path, psi_file):
        first = run_cli(["bloch", "--state", str(psi_file), "--to-vector"], tmp_path)
        assert first.returncode == 0
        vec_report = json.loads(first.stdout)
        assert vec_report["kind"] == "bloch_vector"
        vec_file = tmp_path / "vec.json"
        vec_file.write_text(first.stdout)
        second = run_cli(["bloch", "--state", str(vec_file), "--to-matrix"], tmp_path)
        assert second.returncode == 0
        back = matrix_from_json(json.loads(second.stdout)["matrix"])
        original = pure_state_from_direction(np.pi / 3, 0.0).matrix
        assert np.max(np.abs(back - original)) < 1e-10

    def test_purity_reported(self, tmp_path, psi_file):
        result = run_cli(["bloch", "--state", str(psi_file)], tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert abs(report["purity"] - 1.0) < 1e-10
        assert abs(report["norm"] - 1.0) < 1e-10


class TestSpin:
    def test_emit_observable(self, tmp_path):
        out = tmp_path / "obs.json"
        result = run_cli(["spin", "--s", "1", "--direction", "0,0,1",
                          "--emit", str(out)], tmp_path)
        assert result.returncode == 0
        report = json.loads(out.read_text())
        assert report["eigenvalues"] == [-1, 0, 1]
        assert len(report["eigenstates"]) == 3

    def test_direction_normalization_warning(self, tmp_path):
        result = run_cli(["spin", "--s", "0.5", "--direction", "0,0,2"], tmp_path)
        assert result.returncode == 0
        assert "normaliz" in result.stderr


class TestMeasure:
    def test_report_schema_and_determinism_fields(self, tmp_path, psi_file):
        out = tmp_path / "rep.json"
        result = run_cli(["measure", "--s", "0.5", "--direction", "0,0,1",
                          "--state", str(psi_file), "--samples", "20000",
                          "--seed", "42", "--out", str(out)], tmp_path)
        assert result.returncode == 0
        report = json.loads(out.read_text())
        for field in ("born", "empirical", "max_dev", "records_sample",
                      "std_errors", "counts", "outcome_eigenvalues"):
            assert field in report
        assert sum(report["counts"]) == 20000
        assert report["seed"] == 42
        assert len(report["records_sample"]) == 10
        # theta = pi/3 against the +z axis: outcome probabilities 1/4, 3/4
        assert abs(report["born"][0] - 0.25) < 1e-12
        assert abs(report["born"][1] - 0.75) < 1e-12
        assert report["max_dev"] < 0.02

    def test_trajectory_csv(self, tmp_path, psi_file):
        out = tmp_path / "rep.json"
        result = run_cli(["measure", "--s", "0.5", "--direction", "0,0,1",
                          "--state", str(psi_file), "--samples", "100",
                          "--seed", "1", "--trajectory-steps", "5",
                          "--out", str(out)], tmp_path)
        assert result.returncode == 0
        csv_path = tmp_path / "rep.trajectory.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "tau,coord_0,coord_1,coord_2"
        assert len(lines) == 6
        assert json.loads(out.read_text())["trajectory_csv"] == str(csv_path)

    def test_env_seed_fallback_matches_flag(self, tmp_path, psi_file):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["measure", "--s", "0.5", "--direction", "0,0,1",
                "--state", str(psi_file), "--samples", "500"]
        by_flag = run_cli([*base, "--seed", "7", "--out", str(out_a)], tmp_path)
        assert by_flag.returncode == 0, by_flag.stderr
        by_env = run_cli([*base, "--out", str(out_b)], tmp_path,
                         env_extra={"BLOCHX_SEED": "7"})
        assert by_env.returncode == 0, by_env.stderr
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["empirical"] == b["empirical"]
        assert b["seed"] == 7


    def test_ten_million_samples_stay_small(self, tmp_path, psi_file):
        out = tmp_path / "rep.json"
        with open(tmp_path / "stderr.txt", "w") as err:
            child = subprocess.Popen([sys.executable, "-m", "blochx", "measure",
                                      "--s", "0.5", "--direction", "0,0,1",
                                      "--state", str(psi_file),
                                      "--samples", "10000000", "--seed", "5",
                                      "--out", str(out)],
                                     cwd=tmp_path, env=child_env(),
                                     stdout=subprocess.DEVNULL, stderr=err)
            deadline = time.monotonic() + 120
            while True:
                pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                if pid or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
        if not pid:
            child.kill()
            child.wait()
            pytest.fail("measure --samples 10000000 did not finish in 120 s")
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 0, (tmp_path / "stderr.txt").read_text()
        assert sum(json.loads(out.read_text())["counts"]) == 10_000_000
        assert usage.ru_maxrss < 200 * 1024     # kilobytes on Linux

    def test_eigenstate_input_has_finite_std_errors(self, tmp_path):
        # the group weight of this eigenstate, read back from its state
        # file, rounds to just above 1
        direction = "0.6313762241158432,0.12798629680985413,0.7648421872844885"
        obs = spin.spin_along(spin.build_spin_system(1.5),
                              cli._parse_direction_flag(direction))
        state = tmp_path / "eigenstate.json"
        write_state(state, obs.eigenstates[0].matrix)
        out = tmp_path / "rep.json"
        assert main(["measure", "--s", "1.5", "--direction=" + direction,
                     "--state", str(state), "--samples", "1000",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["born"][0] > 1
        assert report["std_errors"] == [0, 0, 0, 0]


class TestCompose:
    def test_coupled_basis_report(self, tmp_path):
        result = run_cli(["compose", "--s1", "0.5", "--s2", "0.5",
                          "--direction", "0,0,1", "--basis", "coupled"], tmp_path)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["n"] == 4
        labels = [(e["s"], e["mu_s"]) for e in report["entries"]]
        assert labels == [(0, 0), (1, -1), (1, 0), (1, 1)]

    def test_product_basis_report(self, tmp_path):
        result = run_cli(["compose", "--s1", "0.5", "--s2", "1",
                          "--direction", "1,0,0", "--basis", "product"], tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert len(report["entries"]) == 6
        assert {"mu1", "mu2", "amplitudes"} <= set(report["entries"][0])


class TestArrayReports:
    """The CLI hands complex arrays to the serializer; each report must be
    byte for byte what the nested [re, im] lists of matrix_to_json give."""

    @pytest.mark.parametrize("argv", [
        ["generators", "--n", "16"],
        ["spin", "--s", "3.5", "--direction=0.3,-0.4,0.5"],
        ["measure", "--s", "0.5", "--direction", "0.6,0,0.8", "--state", "PSI",
         "--samples", "1000", "--seed", "3"],
        ["bloch", "--state", "COORDS", "--to-matrix"],
        ["compose", "--s1", "1.5", "--s2", "1", "--direction=0.2,0.3,-0.9",
         "--basis", "coupled"],
        ["compose", "--s1", "0.5", "--s2", "1", "--direction=1,0,0",
         "--basis", "product"],
    ], ids=["generators", "spin", "measure", "bloch", "compose-coupled",
            "compose-product"])
    def test_report_matches_the_nested_list_path(self, argv, tmp_path, psi_file,
                                                  monkeypatch, capsys):
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps({"n": 3, "coords": [0.1, -0.2, 0.0, 0.05,
                                                         -0.0, 0.1, 0.2, -0.1]}))
        files = {"PSI": str(psi_file), "COORDS": str(coords)}
        bodies = []
        monkeypatch.setattr(serialize, "dumps",
                            lambda body: bodies.append(body) or dumps(body))
        assert main([files.get(a, a) for a in argv]) == 0
        assert len(bodies) == 1
        assert capsys.readouterr().out == dumps(nested_lists(bodies[0])) + "\n"


class TestVerify:
    def test_prop1_passes(self, tmp_path):
        out = tmp_path / "v.json"
        result = run_cli(["verify", "--prop", "1", "--s", "1", "--trials", "10",
                          "--seed", "7", "--out", str(out)], tmp_path)
        assert result.returncode == 0
        report = json.loads(out.read_text())
        for field in ("max_deviation", "trials", "pass"):
            assert field in report
        assert report["pass"] is True

    def test_prop2bis_passes(self, tmp_path):
        result = run_cli(["verify", "--prop", "2bis", "--s1", "0.5", "--s2", "0.5",
                          "--trials", "5", "--seed", "3"], tmp_path)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["checks"]["basis_agreement_deviation"] < 1e-10

    def test_impossible_tolerance_exits_2(self, tmp_path):
        result = run_cli(["verify", "--prop", "1", "--s", "0.5", "--trials", "5",
                          "--seed", "1", "--tolerance", "0"], tmp_path)
        assert result.returncode == 2
        assert json.loads(result.stdout)["pass"] is False


class TestErrors:
    def test_invalid_spin_names_flag(self, tmp_path):
        result = run_cli(["measure", "--s", "0.4", "--direction", "0,0,1",
                          "--state", "x.json", "--samples", "10"], tmp_path)
        assert result.returncode == 1
        assert "--s" in result.stderr and "invalid spin" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_unknown_flag(self, tmp_path):
        result = run_cli(["generators", "--n", "2", "--bogus"], tmp_path)
        assert result.returncode == 1
        assert "--bogus" in result.stderr

    def test_unreadable_state_file(self, tmp_path):
        result = run_cli(["measure", "--s", "0.5", "--direction", "0,0,1",
                          "--state", "missing.json", "--samples", "10"], tmp_path)
        assert result.returncode == 1
        assert "--state" in result.stderr

    def test_malformed_direction(self, tmp_path):
        result = run_cli(["spin", "--s", "0.5", "--direction", "0,0"], tmp_path)
        assert result.returncode == 1
        assert "--direction" in result.stderr

    @pytest.mark.parametrize("text", ["nan,0,0", "inf,0,0"])
    def test_non_finite_direction(self, text, tmp_path):
        result = run_cli(["spin", "--s", "0.5", "--direction", text], tmp_path)
        assert result.returncode == 1
        assert "--direction" in result.stderr and "must be finite" in result.stderr
        assert "Warning" not in result.stderr

    def test_trajectory_requires_out(self, tmp_path, psi_file):
        result = run_cli(["measure", "--s", "0.5", "--direction", "0,0,1",
                          "--state", str(psi_file), "--samples", "10",
                          "--trajectory-steps", "5"], tmp_path)
        assert result.returncode == 1
        assert "--out" in result.stderr

    def test_verify_prop1_needs_spin(self, tmp_path):
        result = run_cli(["verify", "--prop", "1"], tmp_path)
        assert result.returncode == 1
        assert "--s" in result.stderr

    def test_state_dimension_mismatch(self, tmp_path, psi_file):
        result = run_cli(["measure", "--s", "1", "--direction", "0,0,1",
                          "--state", str(psi_file), "--samples", "10"], tmp_path)
        assert result.returncode == 1
        assert "does not match" in result.stderr

    @pytest.mark.parametrize("argv", [
        ["bloch", "--state", "STATE", "--to-vector"],
        ["measure", "--s", "0.5", "--direction", "0,0,1", "--state", "STATE",
         "--samples", "10"],
    ])
    def test_state_with_negative_eigenvalue(self, argv, tmp_path):
        # Hermitian with unit trace, so only the eigenvalue check can refuse it
        state = tmp_path / "negative.json"
        write_state(state, np.diag([1.5, -0.5]).astype(complex))
        result = run_cli([str(state) if a == "STATE" else a for a in argv], tmp_path)
        assert result.returncode == 1
        assert "negative eigenvalue" in result.stderr

    def test_help_exits_zero(self, tmp_path):
        result = run_cli(["--help"], tmp_path)
        assert result.returncode == 0
        assert "generators" in result.stdout

    def test_in_process_main_usage_error(self, capsys):
        code = main(["measure", "--s", "0.5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_validation_error_exits_2(self, monkeypatch, capsys):
        def fail(cfg):
            raise ValidationError("simplex centroid is off the ball center")
        monkeypatch.setitem(cli._HANDLERS, "spin", fail)
        assert main(["spin", "--s", "0.5", "--direction", "0,0,1"]) == 2
        assert "error: simplex centroid" in capsys.readouterr().err

    def test_other_value_error_exits_1(self, monkeypatch, capsys):
        def fail(cfg):
            raise ValueError("dimension mismatch: state is 3, generators are 2")
        monkeypatch.setitem(cli._HANDLERS, "spin", fail)
        assert main(["spin", "--s", "0.5", "--direction", "0,0,1"]) == 1
        assert "error: dimension mismatch" in capsys.readouterr().err

    def test_failed_spectrum_check_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(spin, "SPECTRUM_ATOL", -1.0)
        assert main(["spin", "--s", "1", "--direction", "0,0,1"]) == 2
        assert "spectrum deviates" in capsys.readouterr().err


class TestSizeLimits:
    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built before the size check")
        for name in ("build_generators", "build_spin_system", "build_composite"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["generators", "--n", "65"],
        ["spin", "--s", "32", "--direction", "0,0,1"],
        ["measure", "--s", "32", "--direction", "0,0,1", "--state", "psi.json",
         "--samples", "10"],
        ["verify", "--prop", "1", "--s", "40"],
        ["compose", "--s1", "3.5", "--s2", "4", "--direction", "0,0,1",
         "--basis", "coupled"],
        ["verify", "--prop", "2", "--s1", "4", "--s2", "3.5"],
    ])
    def test_oversized_input_is_a_usage_error(self, argv, nothing_built, capsys):
        assert main(argv) == 1
        assert "above the limit of 64" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, value, nothing_built, capsys):
        assert main(["verify", "--prop", "1", "--s", "0.5", f"--tolerance={value}"]) == 1
        assert "--tolerance must be finite" in capsys.readouterr().err

    def test_dimension_below_two_is_refused_by_the_flag(self, capsys):
        with pytest.raises(cli.UsageError, match="at least 2"):
            parse_args(["generators", "--n", "1"])
        assert main(["generators", "--n", "1"]) == 1
        assert "at least 2" in capsys.readouterr().err

    def test_largest_accepted_sizes(self):
        assert parse_args(["generators", "--n", "64"]).n == 64
        assert parse_args(["spin", "--s", "31.5", "--direction", "0,0,1"]).s == 31.5
        cfg = parse_args(["compose", "--s1", "3.5", "--s2", "3.5", "--direction",
                          "0,0,1", "--basis", "product"])
        assert cfg.s2 == 3.5

    @pytest.mark.parametrize("argv", [
        ["generators", "--n", "65"],
        ["measure", "--s", "32", "--direction", "0,0,1", "--state", "psi.json",
         "--samples", "10"],
    ])
    def test_oversized_child_exits_1_quickly(self, argv, tmp_path):
        result = run_cli(argv, tmp_path, timeout=30)
        assert result.returncode == 1
        assert "above the limit of 64" in result.stderr
