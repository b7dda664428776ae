import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from jacspec import cli, diagonalize, specfun

FLOAT_CELL = re.compile(r"^-?\d+(\.\d+)?(e-?\+?\d+)?$|^-?\d+(\.\d+)?e[-+]?\d+$")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestSpectrumCommand:
    def test_exactly_solvable_csv(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--g", "0.6", "--c1", "0.3", "--c2", "0.3",
             "--n", "0:10", "--tol", "1e-8"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        for row in rows:
            n = int(row["n"])
            assert abs(float(row["lambda"]) - (n - 0.36 + 0.3)) < 1e-7
            assert row["converged"] == "true"

    def test_free_case_is_integers(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--g", "0", "--c1", "0", "--c2", "0", "--n", "0:5"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            assert abs(float(row["lambda"]) - int(row["n"])) < 1e-9

    def test_zero_coupling_ties(self, capsys):
        # g = 0, c1 - c2 = 1: the diagonal 1, 1, 3, 3 has exact ties
        code, out, err = run_cli(
            ["spectrum", "--g", "0", "--c1", "1", "--c2", "0", "--n", "0:3"], capsys
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        values = [float(row["lambda"]) for row in rows]
        assert values == sorted(values)
        for got, want in zip(values, [1.0, 1.0, 3.0, 3.0]):
            assert abs(got - want) < 1e-8

    def test_coupling_beyond_size_cap_exits_one(self, capsys):
        code, _, err = run_cli(["spectrum", "--g", "1e200", "--n", "0:3"], capsys)
        assert code == 1
        assert "truncation" in err

    @pytest.mark.parametrize("flag, value", [("--g", "-1e-5"), ("--c1", "-2E+1"),
                                             ("--c2", "-1e-3")])
    def test_negative_value_in_exponent_notation(self, flag, value, capsys):
        # argparse alone reads "-1e-5" as a flag and exits 1
        spaced = run_cli(["spectrum", flag, value, "--n", "0:2"], capsys)
        joined = run_cli(["spectrum", f"{flag}={value}", "--n", "0:2"], capsys)
        assert spaced[0] == 0, spaced[2]
        assert spaced == joined

    def test_overflowing_shift_difference_exits_one(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--c1", "1e308", "--c2=-1e308", "--n", "0:2"], capsys
        )
        assert code == 1
        assert out == ""
        assert "|c1 - c2|" in err and "1.7976931348623157e+308" in err
        assert "Traceback" not in err

    def test_tol_below_count_rounding_exits_one(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--g", "0.5", "--c1", "1", "--c2", "0", "--n", "4090:4095",
             "--tol", "1e-12"], capsys
        )
        assert code == 1
        assert "rounding term" in err

    def test_invalid_range_exits_one(self, capsys):
        code, _, err = run_cli(["spectrum", "--n", "5:3"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_flag_exits_one(self, capsys):
        code, _, _ = run_cli(["spectrum", "--n", "abc"], capsys)
        assert code == 1

    def test_tol_window(self, capsys):
        code, _, _ = run_cli(["spectrum", "--n", "0:2", "--tol", "1"], capsys)
        assert code == 1

    def test_csv_cells_are_well_formed(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--g", "0.5", "--c1", "1", "--c2", "0", "--n", "0:6"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["n", "lambda", "truncation_n", "est_error", "converged"]
        for line in lines[1:]:
            cells = line.split(",")
            assert "." in cells[1] or "e" in cells[1]
            assert cells[1] == cells[1].lower()
            assert FLOAT_CELL.match(cells[3])

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--g", "0.4", "--n", "0:3", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "rows", "fits", "checks"}
        assert doc["config"]["command"] == "spectrum"
        assert [r["n"] for r in doc["rows"]] == [0, 1, 2, 3]

    def test_deterministic_output_files(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                ["spectrum", "--g", "0.5", "--c1", "1", "--c2", "0",
                 "--n", "0:12", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAsymptoticsCommand:
    def test_collapse_case(self, capsys):
        code, out, _ = run_cli(
            ["asymptotics", "--g", "0.6", "--c1", "0.3", "--c2", "0.3",
             "--n", "0:16", "--tol", "1e-8"],
            capsys,
        )
        assert code == 0
        table, fits_line = out.rsplit("\n", 2)[0], out.strip().split("\n")[-1]
        rows = list(csv.DictReader(io.StringIO(table)))
        assert all(abs(float(r["r1"])) < 1e-7 for r in rows)
        fits = json.loads(fits_line)["fits"]
        assert fits["s_n"]["alpha"] > 0

    def test_json_contains_fits(self, capsys):
        code, out, _ = run_cli(
            ["asymptotics", "--g", "0.5", "--c1", "1", "--c2", "0",
             "--n", "8:64", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fits"]["s_n"]["alpha"] > 0.0
        assert list(doc["rows"][0]) == [
            "n", "lambda", "first_order", "diag_corr", "r1", "r2",
            "s_n", "s_n_tail_bound",
        ]


class TestVerifyCommand:
    def test_default_instance_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--g", "0.5", "--nmax", "20000"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "bessel_bound" in out and "similarity_defect" in out

    def test_zero_coupling_skips_offset_decay(self, capsys):
        code, out, _ = run_cli(["verify", "--g", "0", "--nmax", "20000"], capsys)
        assert code == 0
        assert "SKIPPED(g=0)" in out

    def test_forced_bug_fails(self, capsys, monkeypatch):
        # harness self-test: a negated bound must surface as FAIL + exit 3
        def broken(s_max, grid):
            return diagonalize.BoundCheckReport(
                name="bessel_bound", grid_size=1, max_ratio=2.0,
                violations=[{"s": 0, "x": 1.0, "ratio": 2.0}],
            )

        monkeypatch.setattr(diagonalize, "check_bessel_bound", broken)
        code, out, _ = run_cli(["verify", "--g", "0.5", "--nmax", "20000"], capsys)
        assert code == 3
        assert "FAIL" in out

    def test_forced_similarity_defect_fails(self, capsys, monkeypatch):
        # a moved check keeps its threshold: a defect of 1 fails alone
        monkeypatch.setattr(diagonalize, "verify_similarity", lambda bundle: 1.0)
        code, out, _ = run_cli(["verify", "--g", "0.5", "--nmax", "20000"], capsys)
        assert code == 3
        fails = [line.split() for line in out.splitlines() if "FAIL" in line]
        assert fails == [["FAIL", "similarity_defect", "metric=1.0"]]

    def test_forced_orthonormality_defect_fails(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(diagonalize, "u_column_mass",
                            lambda n, g, tol: (1.0 - 1e-6, 0))
        path = tmp_path / "verify.json"
        code, _, _ = run_cli(["verify", "--g", "0.5", "--nmax", "20000",
                              "--format", "json", "--out", str(path)], capsys)
        assert code == 3
        checks = json.loads(path.read_text())["checks"]
        assert [(c["name"], c["status"]) for c in checks if c["status"] != "PASS"] == [
            ("orthonormality", "FAIL")]


class TestOracleCommand:
    def test_standard_coupling(self, capsys):
        code, out, _ = run_cli(["oracle", "--g", "0.7", "--cap", "12"], capsys)
        assert code == 0
        for line in out.strip().split("\n"):
            assert float(line.split("=")[1]) < 1e-10

    def test_zero_coupling_is_exact(self, capsys):
        code, out, _ = run_cli(["oracle", "--g", "0", "--cap", "8"], capsys)
        assert code == 0
        for line in out.strip().split("\n"):
            assert float(line.split("=")[1]) == 0.0

    def test_negative_coupling_matches_positive(self, capsys):
        # U(-g) = P U(g) P, so every route sees the same magnitudes
        code, out, err = run_cli(["oracle", "--g", "-0.5"], capsys)
        assert code == 0, err
        code, ref, _ = run_cli(["oracle", "--g", "0.5"], capsys)
        assert code == 0
        assert out == ref
        assert len(out.strip().split("\n")) == 3

    def test_cap_limit(self, capsys):
        code, _, err = run_cli(["oracle", "--cap", "40"], capsys)
        assert code == 1
        assert "30" in err
        code, out, err = run_cli(["oracle", "--cap", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert "[0, 30]" in err

    def test_too_few_contour_points(self, capsys):
        code, _, err = run_cli(["oracle", "--cap", "4", "--points", "16"], capsys)
        assert code == 1
        assert "64" in err

    @pytest.mark.parametrize("g", ["4", "5"])
    def test_conjugation_sum_grows_its_truncation(self, g, capsys):
        # K = cap + 80 leaves a column tail above 1e-13 here; K doubles
        code, out, err = run_cli(["oracle", "--g", g], capsys)
        assert code == 0, err
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            assert float(line.split("=")[1]) < 1e-10

    def test_conjugation_sum_beyond_its_cap_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_ORACLE_K_MAX", 100)
        code, out, err = run_cli(["oracle", "--g", "4"], capsys)
        assert code == 1
        assert out == ""
        assert "truncation K=100" in err

    def test_contour_arithmetic_failure_exits_one(self, capsys):
        # from g ~ 7 the contour route's imaginary residue passes 1e-8
        code, out, err = run_cli(["oracle", "--g", "7"], capsys)
        assert code == 1
        assert out == ""
        assert "imaginary residue" in err


class TestCouplingLimit:
    @pytest.mark.parametrize("command", ["asymptotics", "verify", "oracle"])
    @pytest.mark.parametrize("g", ["19", "20", "-20"])
    def test_beyond_limit_exits_one(self, command, g, capsys):
        code, out, err = run_cli([command, "--g", g], capsys)
        assert code == 1
        assert out == ""
        assert repr(specfun.MAX_COUPLING) in err

    def test_asymptotics_below_limit_runs(self, capsys):
        code, out, err = run_cli(
            ["asymptotics", "--g", "18.8", "--n", "8:40", "--format", "json"], capsys
        )
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert all(r["diag_corr"] != 0.0 and r["s_n"] > 0.0 for r in rows)

    def test_verify_below_limit_runs(self, capsys):
        # offset_decay's fixed blocks lie before the turning point n ~ g^2
        # here, so the check may FAIL (exit 3); it must not crash
        code, out, _ = run_cli(["verify", "--g", "18.8", "--nmax", "20000"], capsys)
        assert code in (0, 3)
        assert "laguerre_bound(x=1413.76)" in out

    def test_spectrum_has_no_coupling_limit(self, capsys):
        code, _, err = run_cli(["spectrum", "--g", "20", "--n", "0:3"], capsys)
        assert code == 0, err

    @pytest.mark.parametrize("command", ["asymptotics", "verify", "oracle"])
    @pytest.mark.parametrize("g", ["1e-200", "-1e-200", "1e-160"])
    def test_underflowing_coupling_exits_one(self, command, g, capsys):
        # 4 g^2 underflows (or goes subnormal) while g != 0
        code, out, err = run_cli([command, f"--g={g}"], capsys)
        assert code == 1
        assert out == ""
        assert repr(specfun.MIN_COUPLING) in err
        assert "Traceback" not in err

    def test_smallest_coupling_runs(self, capsys):
        assert 4.0 * specfun.MIN_COUPLING**2 >= sys.float_info.min
        code, out, err = run_cli(
            ["asymptotics", "--g", repr(specfun.MIN_COUPLING), "--n", "8:20"], capsys)
        assert code == 0, err
        with pytest.warns(UserWarning, match="g = 0"):
            code, out, err = run_cli(["asymptotics", "--g", "0", "--n", "8:20"], capsys)
        assert code == 0, err

    @pytest.mark.parametrize("g", ["1e-200", "-1e-200"])
    def test_spectrum_accepts_underflowing_coupling(self, g, capsys):
        code, out, err = run_cli(["spectrum", f"--g={g}", "--n", "0:3"], capsys)
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["converged"] for row in rows] == ["true"] * 4
        for row, want in zip(rows, [1.0, 1.0, 3.0, 3.0]):
            assert abs(float(row["lambda"]) - want) < 1e-8


class TestVerifyFlags:
    def test_bad_grid_exits_one(self, capsys):
        code, _, _ = run_cli(["verify", "--xgrid", "0:10:50"], capsys)
        assert code == 1
        code, _, _ = run_cli(["verify", "--xgrid", "1:10:1"], capsys)
        assert code == 1

    def test_grid_beyond_limit_exits_one(self, capsys):
        # refused while parsing, before any Bessel function is evaluated
        code, out, err = run_cli(["verify", "--xgrid", "1:1e10:200"], capsys)
        assert code == 1
        assert out == ""
        assert "hi <= 100000" in err
        assert cli._parse_grid("1:1e5:2") == (1.0, 1e5, 2)

    @pytest.mark.parametrize("count", [cli._XGRID_COUNT_MAX + 1, 100000])
    def test_grid_count_beyond_cap_exits_one(self, count, capsys):
        code, out, err = run_cli(["verify", "--xgrid", f"1e4:1e5:{count}"], capsys)
        assert code == 1
        assert out == ""
        assert f"count <= {cli._XGRID_COUNT_MAX}" in err

    def test_grid_count_cap_and_default_are_valid(self):
        cap = cli._XGRID_COUNT_MAX
        assert cli._parse_grid(f"1e4:1e5:{cap}") == (1e4, 1e5, cap)
        assert cli._parse_grid(cli._DEFAULTS["xgrid"]) == (0.1, 100.0, 200)

    @pytest.mark.parametrize("nmax", ["1", "10", "30", "99"])
    def test_nmax_below_minimum_exits_one(self, nmax, capsys):
        # laguerre_bound's early window n <= nmax // 10 would hold less
        # than one oscillation of w_n(1)
        code, out, err = run_cli(["verify", "--nmax", nmax], capsys)
        assert code == 1
        assert out == ""
        assert f"--nmax >= {cli._NMAX_MIN}" in err

    def test_nmax_minimum_is_one_oscillation_at_x_one(self):
        # the phase 2 sqrt(n x) of w_n(x) reaches 2 pi at n = pi^2 for x = 1
        assert cli._NMAX_MIN == 100
        assert (cli._NMAX_MIN // 10) >= math.pi**2 > ((cli._NMAX_MIN - 1) // 10)

    def test_nmax_minimum_runs(self, capsys):
        code, out, err = run_cli(["verify", "--nmax", str(cli._NMAX_MIN)], capsys)
        assert code == 0, err
        assert "laguerre_bound(x=1) metric=1.0" in out

    def test_range_wider_than_cap_exits_one(self, capsys):
        code, _, _ = run_cli(["spectrum", "--n", "0:200001"], capsys)
        assert code == 1


class TestHarness:
    def test_defaults_dump(self, capsys):
        code, out, _ = run_cli(["--defaults"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["g"] == 0.5 and doc["tol"] == 1e-8

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("JS_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cli._apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_cli_import_leaves_numpy_unloaded(self):
        # JS_THREADS only caps BLAS threads if numpy loads after main() starts
        env = dict(os.environ, JS_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, jacspec.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == "False"

    def test_repeated_calls_match_separate_processes(self):
        # main() builds its parser once per process and reuses it
        argvs = [["verify", "--g", "0.3"], ["spectrum", "--n", "0:3"],
                 ["verify", "--xgrid", "0:1:5"]]
        separate = []
        for argv in argvs:
            done = subprocess.run([sys.executable, "-m", "jacspec.cli", *argv],
                                  capture_output=True, text=True)
            separate.append([done.returncode, done.stdout])
        script = (
            "import contextlib, io, json, sys\n"
            "from jacspec import cli\n"
            "res = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        code = cli.main(argv)\n"
            "    res.append([code, buf.getvalue()])\n"
            "print(json.dumps(res))\n"
        )
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == separate
        assert [code for code, _ in separate] == [0, 0, 1]

    def test_console_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "jacspec.cli", "--defaults"],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(out.stdout)["format"] == "csv"
