import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import blochx
from blochx import cli, serialize, spin
from blochx.bloch import pure_state_from_direction, random_density
from blochx.cli import main, parse_args
from blochx.linalg import ValidationError
from blochx.generators import GeneratorSet
from blochx.serialize import dumps, matrix_from_json, write
from conftest import ket_state, matrix_to_json, nested_lists


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


def without_timestamp(text):
    return [line for line in text.splitlines() if '"generated_at"' not in line]


class TestMalformedSeedEnv:
    @pytest.mark.parametrize("argv", [
        ["generators", "--n", "2"],
        ["spin", "--s", "1", "--direction", "0,0,1"],
        ["bloch", "--state", "PSI"],
        ["compose", "--s1", "0.5", "--s2", "1", "--direction", "0,0,1",
         "--basis", "coupled"],
    ], ids=["generators", "spin", "bloch", "compose"])
    def test_ignored_by_commands_without_a_seed(self, argv, psi_file, monkeypatch,
                                                capsys):
        argv = [str(psi_file) if a == "PSI" else a for a in argv]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("BLOCHX_SEED", "x")
        assert main(argv) == 0
        assert without_timestamp(capsys.readouterr().out) == without_timestamp(clean)

    @pytest.mark.parametrize("argv", [
        ["measure", "--s", "0.5", "--direction", "0,0,1", "--state", "PSI",
         "--samples", "10"],
        ["verify", "--prop", "1", "--s", "0.5"],
    ], ids=["measure", "verify"])
    def test_refused_by_commands_with_a_seed(self, argv, psi_file, monkeypatch, capsys):
        monkeypatch.setenv("BLOCHX_SEED", "x")
        assert main([str(psi_file) if a == "PSI" else a for a in argv]) == 1
        assert "BLOCHX_SEED: invalid seed" in capsys.readouterr().err


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


def _without_stamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if '"generated_at"' not in line)


class TestReportOutput:
    """The generators report is streamed to its file or stdout one member at
    a time; every other report is formatted whole, then written."""

    @pytest.mark.parametrize("argv, flag", [
        (["generators", "--n", "7"], "--json"),
        (["spin", "--s", "1.5", "--direction=0.3,-0.4,0.5"], "--emit"),
    ], ids=["generators", "spin"])
    def test_file_report_equals_stdout_report(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main(argv + [flag, str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert _without_stamp(out.read_text()) == _without_stamp(stdout)

    def test_n48_generators_file_never_holds_the_stack(self, tmp_path):
        out = tmp_path / "g48.json"
        tracemalloc.start()
        try:
            assert main(["generators", "--n", "48", "--json", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the stack alone is 85 MB and its text 89 MB; the streamed peak was 0.4 MB
        assert peak < 4_000_000
        assert out.stat().st_size > 80_000_000

    @pytest.mark.parametrize("argv", [["generators", "--n", "2", "--json"],
                                      ["spin", "--s", "1", "--direction", "0,0,1", "--emit"]],
                             ids=["generators", "spin"])
    def test_unwritable_path_is_a_usage_error(self, argv, tmp_path, capsys):
        assert main(argv + [str(tmp_path / "missing" / "report.json")]) == 1
        assert "cannot write output file" in capsys.readouterr().err
        assert main(argv + [str(tmp_path)]) == 1
        assert "cannot write output file" in capsys.readouterr().err

    def test_report_that_fails_to_format_writes_nothing(self, tmp_path, psi_file,
                                                        monkeypatch, capsys):
        monkeypatch.setattr(cli, "purity", lambda r: float("nan"))
        argv = ["bloch", "--state", str(psi_file), "--to-vector"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "non-finite number" in err
        # bloch writes to stdout only, so its parsed flags are pointed at a file
        path = tmp_path / "vector.json"

        def parse(argv):
            args = parse_args(argv)
            args.output = str(path)
            return args
        monkeypatch.setattr(cli, "parse_args", parse)
        assert main(argv) == 1
        assert "non-finite number" in capsys.readouterr().err
        assert not path.exists()

    def test_streamed_report_that_fails_part_way_leaves_no_file(self, tmp_path,
                                                                 monkeypatch, capsys):
        # c is written after the file is opened and the first fields are in it
        monkeypatch.setattr(cli, "build_generators", lambda n: GeneratorSet(n, float("nan")))
        out = tmp_path / "g.json"
        assert main(["generators", "--n", "3", "--json", str(out)]) == 1
        assert "non-finite number" in capsys.readouterr().err
        assert not out.exists()


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

    def test_trajectory_csv_is_written_row_by_row(self, tmp_path):
        psi = tmp_path / "psi32.json"
        write_state(psi, random_density(32, np.random.default_rng(32)).matrix)
        out = tmp_path / "rep.json"
        tracemalloc.start()
        try:
            assert main(["measure", "--s", "15.5", "--direction=0,0,1", "--state", str(psi),
                         "--samples", "1000", "--trajectory-steps", "250",
                         "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # this 5.8 MB CSV built whole peaked at 18.0 MB (70.5 MB at 1,000 steps);
        # row by row it peaks at 1.2 MB, as without --trajectory-steps
        assert peak < 4_000_000
        lines = (tmp_path / "rep.trajectory.csv").read_text().splitlines()
        assert len(lines) == 251 and lines[-1].count(",") == 32 * 32 - 1

    def test_trajectory_csv_that_fails_part_way_is_removed(self, tmp_path, psi_file,
                                                          monkeypatch, capsys):
        def fail_after_one_row(r, m, steps):
            yield 0.0, r
            raise ValueError("trajectory point")

        monkeypatch.setattr(cli, "approach_trajectory", fail_after_one_row)
        out = tmp_path / "rep.json"
        assert main(["measure", "--s", "0.5", "--direction=0,0,1", "--state", str(psi_file),
                     "--samples", "100", "--trajectory-steps", "5", "--out", str(out)]) == 1
        assert "trajectory point" in capsys.readouterr().err
        assert not (tmp_path / "rep.trajectory.csv").exists() and not out.exists()

    def test_report_that_cannot_be_written_leaves_no_csv(self, tmp_path, psi_file, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        assert main(["measure", "--s", "0.5", "--direction=0,0,1", "--state", str(psi_file),
                     "--samples", "100", "--trajectory-steps", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file") and err.count("\n") == 1
        assert list(tmp_path.glob("*.trajectory.csv")) == []

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
        write_state(state, ket_state(obs.kets[0]).matrix)
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
    """The CLI hands complex arrays and generator sets to the serializer;
    each report must be byte for byte what the nested [re, im] lists of
    matrix_to_json give."""

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
        monkeypatch.setattr(serialize, "write",
                            lambda body, fp: bodies.append(body) or write(body, fp))
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


def buffered_env():
    """``child_env`` with stdout buffered, as it is by default: the bytes left
    in a buffered stdout are what the interpreter's exit would flush again."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestStdoutFailures:
    """A report that cannot reach stdout exits 1 with one error line and no
    traceback, and the interpreter's exit adds no "Exception ignored" line."""

    def test_closed_pipe(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-m", "blochx", "generators", "--n", "32"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
                                 env=buffered_env())
        head = child.stdout.read(10)
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert head == b'{\n  "bloch'
        assert stderr == "error: cannot write report to stdout: [Errno 32] Broken pipe\n"

    def test_pipe_closed_before_a_small_report(self, tmp_path, psi_file):
        # the report fits stdout's buffer, so only the flush meets the closed pipe
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "blochx", "bloch", "--state",
                                     str(psi_file)], stdout=write, stderr=subprocess.PIPE,
                                    text=True, cwd=tmp_path, env=buffered_env(), timeout=120)
        finally:
            os.close(write)
        assert result.returncode == 1
        assert result.stderr == "error: cannot write report to stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["bloch", "--state", "PSI"], ["generators", "--n", "16"]],
                             ids=["formatted whole", "streamed"])
    def test_full_device(self, argv, tmp_path, psi_file):
        argv = [str(psi_file) if a == "PSI" else a for a in argv]
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "blochx", *argv], stdout=full,
                                    stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                                    env=buffered_env(), timeout=120)
        assert result.returncode == 1
        assert result.stderr == ("error: cannot write report to stdout: "
                                 "[Errno 28] No space left on device\n")


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

    def test_state_file_above_the_cap(self, tmp_path, psi_file):
        # a valid state behind blanks: accepted at the cap, refused one byte above it
        text = psi_file.read_text()
        for extra, code in ((0, 0), (1, 1)):
            big = tmp_path / "big.json"
            big.write_text(" " * (cli.MAX_STATE_BYTES + extra - len(text)) + text)
            assert big.stat().st_size == cli.MAX_STATE_BYTES + extra
            result = run_cli(["bloch", "--state", str(big)], tmp_path)
            assert result.returncode == code, result.stderr
        assert result.stderr == (f"error: --state file {big} is larger than "
                                 f"{cli.MAX_STATE_BYTES:,} bytes\n")

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
        for name in ("build_generators", "build_spin_system", "build_composite",
                     "DensityState", "BlochVector"):
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

    @pytest.mark.parametrize("obj", [
        {"n": 65, "matrix": np.full((65, 65, 2), 0.0).tolist()},
        {"n": 65, "coords": [0.0] * (65 * 65 - 1)},
    ], ids=["matrix", "coords"])
    def test_oversized_state_file_is_a_usage_error(self, obj, tmp_path, nothing_built,
                                                   capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(obj))
        assert main(["bloch", "--state", str(state)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: --state file {state}: state has dimension 65, "
                                     "above the limit of 64\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, value, nothing_built, capsys):
        assert main(["verify", "--prop", "1", "--s", "0.5", f"--tolerance={value}"]) == 1
        assert "--tolerance must be finite" in capsys.readouterr().err

    def test_single_trajectory_step_is_refused_before_sampling(self, nothing_built, capsys):
        argv = ["measure", "--s", "0.5", "--direction", "0,0,1", "--state", "psi.json",
                "--samples", "3000000", "--trajectory-steps", "1", "--out", "out.json"]
        with pytest.raises(cli.UsageError, match="at least 2 steps"):
            parse_args(argv)
        assert main(argv) == 1
        assert "need at least 2 steps, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["1001", "1000000000000000"])
    def test_oversized_trajectory_is_refused_before_sampling(self, steps, nothing_built,
                                                             monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the steps check")
        monkeypatch.setattr(cli, "run_measurement", refuse)
        argv = ["measure", "--s", "0.5", "--direction", "0,0,1", "--state", "psi.json",
                "--samples", "10", "--trajectory-steps", steps, "--out", "out.json"]
        with pytest.raises(cli.UsageError, match="above the limit of 1000"):
            parse_args(argv)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert parse_args(argv[:-4] + ["--trajectory-steps", str(cli.MAX_TRAJECTORY_STEPS),
                                       "--out", "out.json"]).trajectory_steps == 1000

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

    def test_oversized_trials_are_refused_before_anything_is_built(self, nothing_built,
                                                                     capsys):
        argv = ["verify", "--prop", "1", "--s", "0.5", "--trials", "100000000000"]
        with pytest.raises(cli.UsageError, match="above the limit of 1000000"):
            parse_args(argv)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert parse_args(["verify", "--prop", "1", "--s", "0.5",
                           "--trials", str(cli.MAX_TRIALS)]).trials == cli.MAX_TRIALS

    def test_trials_bound_is_in_the_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "1,000,000" in capsys.readouterr().out

    def test_trajectory_bound_is_in_the_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["measure", "--help"])
        assert "2 to 1,000 points" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["generators", "--n", "65"],
        ["measure", "--s", "32", "--direction", "0,0,1", "--state", "psi.json",
         "--samples", "10"],
    ])
    def test_oversized_child_exits_1_quickly(self, argv, tmp_path):
        result = run_cli(argv, tmp_path, timeout=30)
        assert result.returncode == 1
        assert "above the limit of 64" in result.stderr


class _Accepted(Exception):
    """Raised in place of a builder: every flag of the call was accepted."""


def run_main_quietly(argv, env_seed=None):
    """Run the CLI in-process with every builder refused and BLOCHX_SEED set to
    ``env_seed`` (or unset); returns (exit code, stdout, stderr), with exit
    code 0 once every flag was accepted.  A numpy warning fails the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name in ("build_generators", "build_spin_system", "build_composite"):
            stack.enter_context(mock.patch.object(cli, name, side_effect=_Accepted))
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop("BLOCHX_SEED", None)
        if env_seed is not None:
            os.environ["BLOCHX_SEED"] = env_seed
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error")
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(argv)
        except _Accepted:
            code = 0
    return code, out.getvalue(), err.getvalue()


# each numeric flag in a call that is valid apart from it; "{}" is its text
MEASURE = ["measure", "--s=0.5", "--direction=0,0,1", "--state", "psi.json"]
NUMERIC_FLAGS = {
    "--s": ["spin", "--s={}", "--direction=0,0,1"],
    "--s1": ["compose", "--s1={}", "--s2=0.5", "--direction=0,0,1", "--basis", "coupled"],
    "--s2": ["verify", "--prop", "2", "--s1=0.5", "--s2={}"],
    "--direction": ["spin", "--s=0.5", "--direction={}"],
    "--n": ["generators", "--n={}"],
    "--samples": [*MEASURE, "--samples={}"],
    "--trials": ["verify", "--prop", "1", "--s=0.5", "--trials={}"],
    "--trajectory-steps": [*MEASURE, "--samples=10", "--trajectory-steps={}",
                           "--out", "out.json"],
    "--seed": ["verify", "--prop", "1", "--s=0.5", "--seed={}"],
    "BLOCHX_SEED": ["verify", "--prop", "1", "--s=0.5"],
}
NUMBER_TEXT = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "1e200", "-1e200", "1e308",
                     "1e-400", "0", "-0", "2", "64", "65", "1000001",
                     str(2 ** 64 - 1), str(2 ** 64)]),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-400, 400)))


def run_numeric_flag(flag, texts):
    text = ",".join(texts) if flag == "--direction" else texts[0]
    argv = [a.format(text) for a in NUMERIC_FLAGS[flag]]
    return run_main_quietly(argv, text if flag == "BLOCHX_SEED" else None)


@settings(max_examples=400, deadline=None)
@given(flag=st.sampled_from(sorted(NUMERIC_FLAGS)),
       texts=st.lists(NUMBER_TEXT, min_size=3, max_size=3))
@example(flag="--s", texts=["inf"] * 3)
@example(flag="--s1", texts=["1e400"] * 3)
@example(flag="--direction", texts=["1e200"] * 3)
def test_numeric_flags_end_in_one_error_line(flag, texts):
    code, out, err = run_numeric_flag(flag, texts)
    assert code in (0, 1) and out == ""
    lines = err.splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), err
    assert sum(line.startswith("error: ") for line in lines) == code, err


class TestNumericFlags:
    @pytest.mark.parametrize("flag, text", [
        ("--s", "inf"), ("--s", "1e400"), ("--s", "-inf"), ("--s", "nan"),
        ("--s1", "inf"), ("--s2", "1e400"),
    ])
    def test_non_finite_spin_is_a_usage_error(self, flag, text):
        code, _, err = run_numeric_flag(flag, [text])
        assert code == 1
        assert err == f"error: argument {flag}: invalid spin: {text!r}\n"

    def test_large_finite_direction_is_normalized(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spin", "--s=0.5", "--direction=1e200,1e200,1e200"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: normalizing direction 1e200,1e200,1e200 "
                                "(norm 1.73205e+200)\n")
        assert json.loads(captured.out)["direction"] == [1 / np.sqrt(3.0)] * 3

    @pytest.mark.parametrize("obj, message", [
        ({"n": 2, "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]},
         "density matrix trace inf+0j is not 1"),
        ({"n": 2, "matrix": [[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]]},
         "density matrix is not Hermitian within 1e-12"),
        ({"n": 2, "coords": [1e308, 1e308, 0]}, "coordinate norm inf exceeds 1"),
    ], ids=["trace", "hermitian", "coords"])
    def test_overflowing_state_file_is_one_error_line(self, obj, message):
        code, out, err = run_main_on_state(obj, "bloch")
        assert code == 1 and out == ""
        assert err.startswith("error: --state file ") and err.endswith(f": {message}\n")

    @pytest.mark.parametrize("argv, code", [
        (["spin", "--s", "inf", "--direction", "0,0,1"], 1),
        (["spin", "--s", "0.5", "--direction=1e200,1e200,1e200"], 0),
    ])
    def test_child_prints_one_line_with_runtime_warnings_as_errors(self, argv, code,
                                                                   tmp_path):
        result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                                 "blochx", *argv], capture_output=True, text=True,
                                cwd=tmp_path, env=child_env())
        assert result.returncode == code
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("warning: " if code == 0 else "error: ")


# --state files a little off the valid ones: each mutation below makes the file
# invalid, so the CLI must answer with exit 1 or 2 and one error line
VALID_MATRIX = {"n": 2, "matrix": [[[0.5, 0.0], [0.25, -0.125]],
                                   [[0.25, 0.125], [0.5, 0.0]]]}
VALID_COORDS = {"n": 2, "coords": [0.125, -0.25, 0.375]}
NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.just(float("nan")), st.just(float("inf")),
                         st.just(float("-inf")), st.just(10 ** 400),
                         st.lists(st.floats(0, 1), max_size=2), st.just({"re": 0.5}))
NOT_A_CELL = st.one_of(NOT_A_NUMBER, st.floats(-1, 1), st.integers(-3, 3),
                       st.lists(st.floats(-1, 1), min_size=3, max_size=4),
                       st.lists(st.floats(-1, 1), max_size=1))


@st.composite
def near_valid_state(draw):
    kind = draw(st.sampled_from(["part", "cell", "extra part", "missing part", "row",
                                 "nesting", "matrix", "n", "coord", "coords"]))
    obj = copy.deepcopy(VALID_COORDS if kind in ("n", "coord", "coords") else VALID_MATRIX)
    i, j, k = draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
    m = obj.get("matrix")
    if kind == "part":
        m[i][j][k] = draw(NOT_A_NUMBER)
    elif kind == "cell":
        m[i][j] = draw(NOT_A_CELL)
    elif kind == "extra part":
        m[i][j].append(draw(st.one_of(st.floats(-1, 1), NOT_A_NUMBER)))
    elif kind == "missing part":
        del m[i][j][k]
    elif kind == "row":
        if draw(st.booleans()):
            del m[i][j]
        else:
            m.append(m[i][:j + 1])
    elif kind == "nesting":
        obj["matrix"] = draw(st.sampled_from([[m], m[0], [c for row in m for c in row],
                                              [[[cell] for cell in row] for row in m]]))
    elif kind == "matrix":
        obj["matrix"] = draw(NOT_A_CELL)
    elif kind == "n":
        obj["n"] = draw(st.one_of(NOT_A_NUMBER, st.sampled_from([2.0, 2.7, "2"]),
                                  st.integers(3, 10 ** 12), st.integers(-5, 1)))
    elif kind == "coord":
        obj["coords"][i + j] = draw(NOT_A_NUMBER)
    else:
        obj["coords"] = draw(st.one_of(NOT_A_NUMBER, st.floats(-1, 1),
                                       st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=8),
                                       st.just([VALID_COORDS["coords"]])))
    return obj


def run_main_on_state(obj, command):
    """Write ``obj`` as a --state file and run the CLI on it in-process;
    returns (exit code, stdout, stderr).  A numpy warning fails the call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(json.dumps(obj))
        argv = (["bloch", "--state", str(path)] if command == "bloch" else
                ["measure", "--s", "0.5", "--direction", "0,0,1", "--state", str(path),
                 "--samples", "10"])
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(obj=near_valid_state(), command=st.sampled_from(["bloch", "measure"]))
# malformed files that once escaped the exit-code contract
@example(obj={"n": 2, "matrix": [[0.5, [0, 0]], [[0, 0], [0.5, 0]]]}, command="bloch")
@example(obj={"n": 2, "matrix": [[[0.5], [0, 0]], [[0, 0], [0.5, 0]]]}, command="bloch")
@example(obj={"n": 2, "matrix": [[[0.5, None], [0, 0]], [[0, 0], [0.5, 0]]]},
         command="measure")
@example(obj={"n": 2, "matrix": 5}, command="bloch")
@example(obj={"n": 2, "matrix": [[[0.5, 0, 7], [0, 0]], [[0, 0], [0.5, 0]]]},
         command="bloch")
@example(obj={"n": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]},
         command="measure")
@example(obj={"n": 2.7, "coords": [0.125, -0.25, 0.375]}, command="bloch")
# nested past numpy's 32 iterator dimensions
@example(obj={"n": 2, "matrix": [[[[[0.5]]]]] * 8}, command="bloch")
@example(obj={"n": 2, "matrix": json.loads("[" * 40 + "0.5" + "]" * 40)}, command="bloch")
def test_near_valid_state_files_are_usage_errors(obj, command):
    code, out, err = run_main_on_state(obj, command)
    assert code in (1, 2)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("obj", [VALID_MATRIX, VALID_COORDS])
def test_valid_state_files_still_pass(obj):
    code, out, err = run_main_on_state(obj, "bloch")
    assert code == 0 and err == ""
    assert json.loads(out)["n"] == 2


# whole calls: each subcommand with every flag valid apart from at most two,
# each of those near-valid or left out; STATE and OUT stand for the drawn
# --state file and output path
DIRECTION = (["--direction=0.6,0,0.8"], ["--direction=0,0", "--direction=nan,0,1"])
WHOLE_CALLS = {
    "generators": {"n": (["--n=3"], ["--n=1", "--n=65"]), "out": (["--json=OUT"], [])},
    "bloch": {"state": (["--state=STATE"], []),
              "mode": (["", "--to-vector", "--to-matrix"], ["--to-vector --to-matrix"])},
    "spin": {"s": (["--s=1"], ["--s=0.4", "--s=32"]), "direction": DIRECTION,
             "out": (["--emit=OUT"], [])},
    "measure": {"s": (["--s=0.5"], ["--s=1", "--s=32"]), "direction": DIRECTION,
                "state": (["--state=STATE"], []), "samples": (["--samples=50"], ["--samples=0"]),
                "seed": (["--seed=3"], ["--seed=-1"]),
                "steps": (["", "--trajectory-steps=3"], ["--trajectory-steps=1"]),
                "out": (["--out=OUT"], [])},
    "compose": {"s1": (["--s1=0.5"], ["--s1=0.3", "--s1=8"]), "s2": (["--s2=1"], ["--s2=-1"]),
                "direction": DIRECTION,
                "basis": (["--basis=coupled", "--basis=product"], ["--basis=both"]),
                "out": (["--out=OUT"], [])},
    "verify": {"prop": (["--prop=1", "--prop=2", "--prop=2bis"], ["--prop=3"]),
               "s": (["--s=0.5"], ["--s=40"]), "s1": (["--s1=0.5"], ["--s1=4"]),
               "s2": (["--s2=1"], ["--s2=3.5"]),
               "trials": (["--trials=2"], ["--trials=0", "--trials=1000001"]),
               "seed": (["--seed=3"], ["--seed=x"]), "out": (["--out=OUT"], [])},
}
STATE_TEXTS = {
    "matrix": json.dumps(VALID_MATRIX),
    "coords": json.dumps(VALID_COORDS),
    "65-level matrix": json.dumps({"n": 65, "matrix": matrix_to_json(np.eye(65) / 65)}),
    "65-level coords": json.dumps({"n": 65, "coords": [0.0] * (65 * 65 - 1)}),
    "malformed": '{"n": 2, "matrix": [[[0.5, 0]',
    "missing": None,
}
# every output path but the first ends the run in an error
OUTPUTS = ["report.json", "missing/report.json", "adir", "/dev/full"]


@st.composite
def whole_call(draw):
    command = draw(st.sampled_from(sorted(WHOLE_CALLS)))
    flags = WHOLE_CALLS[command]
    broken = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for name, (valid, near) in flags.items():
        argv += draw(st.sampled_from(near + [""] if name in broken else valid)).split()
    return argv


@settings(max_examples=200, deadline=None)
# half the draws take the valid state file, and half the writable path
@given(argv=whole_call(),
       state=st.one_of(st.just("matrix"), st.sampled_from(sorted(STATE_TEXTS))),
       output=st.one_of(st.just(OUTPUTS[0]), st.sampled_from(OUTPUTS)))
# the two holes: an oversized bloch state, and a CSV left by a report that failed
@example(argv=["bloch", "--state=STATE"], state="65-level matrix", output="adir")
@example(argv=["bloch", "--state=STATE"], state="65-level coords", output="adir")
@example(argv=["measure", "--s=0.5", "--direction=0,0,1", "--state=STATE", "--samples=10",
               "--trajectory-steps=3", "--out=OUT"], state="matrix", output="adir")
def test_whole_calls_end_in_a_report_or_one_error_line(argv, state, output):
    """Exit 0, 1 or 2; an error exit prints one error line and leaves no
    report, CSV or other file; a bad state file or output path never exits
    0.  Any exception out of main, and so any traceback, fails the test."""
    if output == "/dev/full":  # its trajectory CSV would go into /dev
        argv = [a for a in argv if not a.startswith("--trajectory-steps")]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "adir").mkdir()
        if STATE_TEXTS[state] is not None:
            (tmp / "state.json").write_text(STATE_TEXTS[state])
        before = sorted(tmp.rglob("*"))
        out_path = output if output.startswith("/") else str(tmp / output)
        call = [a.replace("=STATE", f"={tmp / 'state.json'}").replace("=OUT", f"={out_path}")
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), warnings.catch_warnings():
            os.environ.pop("BLOCHX_SEED", None)
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(call)
        left = sorted(tmp.rglob("*"))
    out, err = out.getvalue(), err.getvalue()
    lines = err.splitlines()
    assert code in (0, 1, 2)
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), err
    assert sum(line.startswith("error: ") for line in lines) == (code != 0), err
    if code:
        assert out == "" and left == before
    if "--state=STATE" in argv and state not in ("matrix", "coords"):
        assert code != 0
    if any(a.endswith("=OUT") for a in argv) and output != "report.json":
        assert code != 0


def test_matrix_from_json_keeps_every_bit():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 1] = complex(-0.0, 0.0)
    m[1, 0] = complex(0.0, -0.0)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert back.dtype == complex and back.tobytes() == m.tobytes()
