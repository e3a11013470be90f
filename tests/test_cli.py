import dataclasses
import json
import math
import os
import subprocess
import sys
import types

import pytest

from ttstar_toda import cli, log_tau, verify


def run(args):
    return cli.main(args)


def parse_error_code(args):
    with pytest.raises(SystemExit) as exc:
        run(args)
    return exc.value.code


class TestMaps:
    def test_trivial(self, capsys):
        assert run(["maps", "--n", "3", "--gamma", "0,0", "--reproducible"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["monodromy"]["m"] == [0.0, 0.0]
        assert doc["monodromy"]["log_e"] == [0.0, 0.0]

    def test_default_rho_is_global(self, capsys):
        assert run(["maps", "--n", "3", "--gamma", "0.3,0.1", "--reproducible"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert max(abs(v) for v in doc["monodromy"]["log_e"]) <= 1e-12
        assert doc["monodromy"]["m"] == [-0.15, -0.05]

    def test_even_branch(self, capsys):
        assert run(["maps", "--n", "2", "--gamma", "0.4", "--reproducible"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["asymptotic"]["gamma"]) == 1
        # the full extension carries the forced middle zero
        assert doc["full"]["gamma"] == [0.4, 0.0, -0.4]
        assert doc["full"]["m"] == [-0.2, 0.0, 0.2]

    def test_genericity_exit_2(self, capsys):
        assert run(["maps", "--n", "3", "--gamma", "1.9,0"]) == 2
        assert "gap" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["nan,0", "0,inf"])
    def test_non_finite_rho_exit_2(self, rho, capsys):
        # a NaN rho was written out as "log_e": ["nan", ...] with exit 0
        assert run(["maps", "--n", "3", "--gamma", "0.3,0.1", f"--rho={rho}",
                    "--reproducible"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "rho must be finite" in out.err

    def test_empty_rho_exit_2(self, capsys):
        # an empty --rho was read as absent and replaced by global_rho
        assert run(["maps", "--n", "3", "--gamma", "0.3,0.1", "--rho", "",
                    "--reproducible"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "could not parse comma-separated reals from ''" in out.err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        # an OSError left main as a traceback with exit 1
        out = tmp_path / "missing" / "x.json"
        assert run(["maps", "--n", "3", "--gamma", "0.3,0.1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err

    def test_out_writes_the_document(self, tmp_path, capsys):
        # the bytes stdout gets without --out, and nothing on stdout
        argv = ["maps", "--n", "3", "--gamma", "0.3,0.1", "--reproducible"]
        assert run(argv) == 0
        doc = capsys.readouterr().out
        out = tmp_path / "maps.json"
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == "" and out.read_text() == doc

    def test_empty_out_exit_2(self, capsys):
        # an empty --out was read as absent: exit 0, the JSON on stdout
        assert run(["maps", "--n", "3", "--gamma", "0.3,0.1", "--out", ""]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")

    def test_determinism(self, capsys):
        run(["maps", "--n", "3", "--gamma", "0.3,0.1", "--reproducible"])
        out1 = capsys.readouterr().out
        run(["maps", "--n", "3", "--gamma", "0.3,0.1", "--reproducible"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_seventeen_digit_floats(self, capsys):
        run(["maps", "--n", "1", "--gamma", "0.5", "--reproducible"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        # value survives the round trip bit-for-bit
        from ttstar_toda.data_maps import global_rho
        assert doc["global_rho"][0] == global_rho(1, (0.5,))[0]


class TestSolve:
    def test_trivial(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run(["solve", "--n", "3", "--gamma", "0,0", "--x0", "0.01",
                  "--x1", "8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("x,w0,w1")
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert abs(vals[1]) <= 1e-9 and abs(vals[2]) <= 1e-9

    @pytest.mark.parametrize("n, gamma", [("1", "0.3"), ("2", "0.3"), ("3", "0.3,0.1")])
    def test_series_seed_runs_to_x1_8(self, n, gamma, tmp_path):
        # from the series seed at x0 = 0.01 a forward run holds the orbit
        # until the growing modes take over, but blows up before x = 8 on
        # none of these
        out = tmp_path / "s.csv"
        assert run(["solve", "--n", n, "--gamma", gamma, "--x0", "0.01", "--x1", "8",
                    "--out", str(out)]) == 0
        assert float(out.read_text().strip().split("\n")[-1].split(",")[0]) == 8.0

    def test_domain_floor_runs_to_x1(self, tmp_path):
        # a(0.9) = 0.2: the seed starts at x = 1.5e-7 with |w0| = 5.93, and
        # a fixed blow-up threshold of 5 stopped it at the first step, exit 3
        out = tmp_path / "e.csv"
        assert run(["solve", "--n", "1", "--gamma", "0.9", "--x1", "6",
                    "--out", str(out), "--reproducible"]) == 0
        assert float(out.read_text().strip().split("\n")[-1].split(",")[0]) == 6.0

    def test_tiny_x0_runs_to_x1(self, tmp_path):
        # the first step is capped at 0.15 x0 = 1.5e-31, and an underflow
        # test absolute below x = 1 stopped the run at x0 itself, exit 3.
        # From 1e-30 the run leaves the orbit sooner than from 0.01 and
        # meets a singularity near x = 7.17, so it runs to 6
        out = tmp_path / "tiny.csv"
        assert run(["solve", "--n", "1", "--gamma", "0.3", "--x0", "1e-30", "--x1", "6",
                    "--out", str(out), "--reproducible"]) == 0
        lines = out.read_text().strip().split("\n")
        assert float(lines[1].split(",")[0]) == 1e-30
        assert float(lines[-1].split(",")[0]) == 6.0

    def test_tiny_x0_to_default_x1_stops_on_underflow(self, tmp_path):
        # to the default x1 = 8 the run meets the singularity near 7.17
        # with |w| below its blow-up threshold, and steps down to 1e-14 x
        # took 26,864 rows; below 1e-10 x it stops after about 1,450
        out = tmp_path / "tiny.csv"
        assert run(["solve", "--n", "1", "--gamma", "0.3", "--x0", "1e-30",
                    "--out", str(out), "--reproducible"]) == 3
        lines = out.read_text().strip().split("\n")
        assert len(lines) < 2000
        assert lines[-1].startswith("# stopped: step_underflow at x=7.16")

    def test_subnormal_x0_is_refused(self, tmp_path):
        # at a subnormal x, wt/x overflows: the run once stepped h down to
        # 0 (a test h < 1e-10 x never fired, and it never returned), then
        # stopped on a step underflow after a first row with H = inf; now
        # the start is refused before any step, and no CSV is written.
        # In a subprocess, so that a hang fails by its timeout
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = tmp_path / "sub.csv"
        argv = ["solve", "--n", "1", "--gamma", "0.3", "--x0", "1e-320", "--x1", "1",
                "--out", str(out), "--reproducible"]
        code = "\n".join([f"import sys; sys.path.insert(0, {src!r})",
                          "from ttstar_toda import cli, global_solutions as gs",
                          f"print(cli.main({argv!r}))",
                          "try: gs.solve_global((0.3, 0.1), 5e-324)",
                          "except gs.UnsupportedConfigError as exc: print(exc)"])
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        rc, err = res.stdout.splitlines()
        assert rc == "2" and err == "the vector field is not finite at the start x0 = 5e-324"
        assert "x0 = 1e-320" in res.stderr and not out.exists()

    def test_wild_last_step_is_silent(self, tmp_path):
        # at rel_tol 0.9 the run accepts a last step to a finite but wild
        # state (x = 5.526): the end-of-run batch calls over it printed 7
        # numpy RuntimeWarnings; the row keeps H = -inf under the trailer
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = tmp_path / "wild.csv"
        res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                              "ttstar_toda.cli", "solve", "--n", "3", "--gamma", "0.3,0.1",
                              "--rel-tol", "0.9", "--out", str(out), "--reproducible"],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert (res.returncode, res.stderr) == (3, "")
        *_, last, trailer = out.read_text().splitlines()
        assert last.split(",")[-2] == "-inf"
        assert trailer.startswith("# stopped: blowup at x=5.52")

    def test_debug_log_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TTSTAR_LOG", "debug")
        assert run(["solve", "--n", "3", "--gamma", "0,0", "--x1", "1",
                    "--out", str(tmp_path / "d.csv")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("[ttstar] integrated to x=1 (") and err.endswith(
            " steps, stop=completed)\n")

    def test_rows_follow_the_global_solution(self, sol_031, tmp_path):
        # at (0.3, 0.1) the rows up to x = 4 stay within 1e-6 of the
        # shooting solution's w and wt (3.7e-8 in w, 5.0e-7 in wt)
        out = tmp_path / "g.csv"
        assert run(["solve", "--n", "3", "--gamma", "0.3,0.1", "--x0", "0.01", "--x1", "8",
                    "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().split("\n")[1:]]
        near = [r for r in rows if r[0] <= 4.0]
        assert near[-1][0] > 3.9
        for r in near:
            st = sol_031.state(r[0])
            assert max(abs(a - b) for a, b in zip(r[1:5], st.w + st.wt)) <= 1e-6

    def test_unconverged_series_exit_2(self, tmp_path, capsys):
        # a(0, 0.95) = 0.1: the series has not converged above 1e-8
        out = tmp_path / "u.csv"
        assert run(["solve", "--n", "3", "--gamma", "0,0.95", "--out", str(out)]) == 2
        assert "a(gamma) = 0.10000000000000009" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, gamma, rho", [("3", "0.3,0.1", "nan,0"),
                                                ("3", "0.3,0.1", "inf,0"),
                                                ("3", "0.3,0.1", "-inf,0"),
                                                ("1", "0.3", "nan")])
    def test_non_finite_rho_exit_2(self, n, gamma, rho, tmp_path, capsys):
        # a NaN rho made a NaN first dropped term, which passed as
        # converged: a row of NaNs and a blow-up at x0, exit 3
        out = tmp_path / "r.csv"
        assert run(["solve", "--n", n, "--gamma", gamma, f"--rho={rho}",
                    "--out", str(out)]) == 2
        assert "rho must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_exit_2(self, flag, value, tmp_path, capsys):
        # these stopped on step_underflow at x0 and exited 3
        out = tmp_path / "t.csv"
        assert run(["solve", "--n", "3", "--gamma", "0.3,0.1", f"{flag}={value}",
                    "--out", str(out)]) == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_x1_exit_2(self, tmp_path, capsys):
        # the stepper never returned
        out = tmp_path / "i.csv"
        assert run(["solve", "--n", "3", "--gamma", "0,0", "--x1", "inf",
                    "--out", str(out)]) == 2
        assert "x_end must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_rho_exit_2(self, tmp_path, capsys):
        # an empty --rho was read as absent and replaced by global_rho
        out = tmp_path / "e.csv"
        assert run(["solve", "--n", "3", "--gamma", "0.3,0.1", "--rho", "",
                    "--out", str(out)]) == 2
        assert "could not parse comma-separated reals from ''" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        # an OSError left main as a traceback with exit 1
        out = tmp_path / "missing" / "t.csv"
        assert run(["solve", "--n", "3", "--gamma", "0,0", "--x1", "1",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err

    def test_empty_out_exit_2(self, tmp_path, monkeypatch, capsys):
        # an empty --out was read as absent: exit 0 and a trajectory.csv
        # in the working directory
        monkeypatch.chdir(tmp_path)
        assert run(["solve", "--n", "3", "--gamma", "0,0", "--x1", "1", "--out", ""]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_blowup_exit_3(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = run(["solve", "--n", "3", "--gamma", "0.3,0.1", "--rho", "1,1",
                  "--x0", "0.01", "--x1", "6", "--out", str(out)])
        assert rc == 3
        assert out.read_text().strip().split("\n")[-1].startswith("# stopped:")


class TestTau:
    def test_trivial_value(self, capsys):
        rc = run(["tau", "--gamma", "0,0", "--x1", "0.01", "--x2", "5",
                  "--reproducible"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["log_tau"] == pytest.approx(0.01 ** 2 - 25.0, abs=1e-9)
        assert isinstance(doc["x2"], float)
        assert list(doc) == ["gamma", "x1", "x2", "log_tau", "shooting"]

    def test_shooting_block(self, capsys):
        # the solve's shooting summary, as ttstar constant writes it
        assert run(["tau", "--gamma", "0.3,0.1", "--x1", "0.01", "--x2", "6",
                    "--reproducible"]) == 0
        shooting = json.loads(capsys.readouterr().out)["shooting"]
        assert list(shooting) == ["iterations", "x_start", "residual", "probe_residual",
                                  "match_residual", "correction"]
        assert (shooting["iterations"], shooting["x_start"]) == (1, 0.01)
        assert shooting["residual"] < shooting["probe_residual"] < 1e-4
        assert 0.0 < shooting["correction"] < 1e-11

    def test_default_tolerances_are_the_library_defaults(self, capsys):
        rc = run(["tau", "--gamma", "0.3,0.1", "--x1", "0.01", "--x2", "6",
                  "--reproducible"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["log_tau"] == log_tau((0.3, 0.1), 0.01, 6.0)

    def test_below_series_floor_exit_3(self, capsys):
        # a(-0.95, 0) = 0.1: the small-x series has not converged above the
        # lowest shooting start, and the error names a(gamma)
        rc = run(["tau", "--gamma=-0.95,0", "--x1", "0.01", "--x2", "6"])
        assert rc == 3
        assert "a(gamma) = 0.1" in capsys.readouterr().err


class TestConstant:
    def test_trivial(self, capsys):
        rc = run(["constant", "--gamma", "0,0", "--reproducible"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["c_numeric"]) <= 1e-6
        assert doc["abs_diff"] <= 1e-6
        assert list(doc.keys()) == ["gamma", "c_numeric", "c_closed", "abs_diff",
                                    "x1", "x2_used", "tail_bound",
                                    "integrator_stats", "shooting", "a", "series_order",
                                    "series_error"]
        # the trivial orbit takes the one rule too, with a step of 0: one
        # probe and one relaunch, both identically zero
        assert doc["integrator_stats"]["integrations"] == 2
        assert doc["shooting"]["residual"] == doc["shooting"]["probe_residual"] == 0.0
        # a(0, 0) = 2: written "2.0", like x2_used "7.0", so both load as floats
        assert doc["a"] == 2.0
        assert isinstance(doc["a"], float) and isinstance(doc["x2_used"], float)

    def test_integrator_stats_reproducible(self, capsys):
        argv = ["constant", "--gamma", "0.1,-0.1", "--reproducible"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        stats = json.loads(first)["integrator_stats"]
        assert list(stats) == ["integrations", "steps", "rejected", "rhs_evals",
                               "tangent_rhs_evals"]
        # one solve at x1 = 0.08 from a converged series: one tangent probe
        # at 4.95 and the plain run on from its last node at or below 3
        assert stats["integrations"] == 2 and stats["rhs_evals"] > stats["steps"] > 0
        assert json.loads(first)["shooting"]["iterations"] == 1

    def test_genericity_exit_2(self):
        assert run(["constant", "--gamma", "1.9,0"]) == 2

    def test_below_domain_floor_exit_2(self, capsys):
        # a(gamma) = 0.05 < 0.2: refused before any solve; a is printed
        # exactly, so a = 2 - 1.8 = 0.19999999999999996 does not read 0.2
        assert run(["constant", "--gamma=-0.975,0.075"]) == 2
        assert "a_min" in capsys.readouterr().err
        assert run(["constant", "--gamma=-0.9,0.9"]) == 2
        assert "a(gamma) = min_l s_l = 0.19999999999999996 is below" in capsys.readouterr().err

    def test_default_threshold_is_the_constant_suites(self, monkeypatch, capsys):
        # the default was 1e-2, where verify --suite constant gates the
        # same residual at 1e-11
        report = cli.tc.constant_numeric((0.0, 0.0))
        monkeypatch.setattr(cli.tc, "constant_numeric", lambda gamma, x2: dataclasses.replace(
            report, abs_diff=1e-9))
        assert run(["constant", "--gamma", "0,0", "--reproducible"]) == 4
        assert json.loads(capsys.readouterr().out)["abs_diff"] == 1e-9
        assert run(["constant", "--gamma", "0,0", "--threshold", "1e-8",
                    "--reproducible"]) == 0

    def test_blowup_exit_3(self, monkeypatch, capsys):
        # main maps tau_constant's BlowupError to 3 for every command
        def blown(gamma, x2):
            raise cli.tc.BlowupError("global solve failed")
        monkeypatch.setattr(cli.tc, "constant_numeric", blown)
        assert run(["constant", "--gamma", "0.3,0.1"]) == 3
        assert capsys.readouterr().err == "error: global solve failed\n"


class TestFlags:
    # a flag is registered only where it is read; argparse exits 2 on the rest
    def test_constant_rejects_n(self):
        assert parse_error_code(["constant", "--n", "1", "--gamma", "0.3,0.1"]) == 2

    def test_tau_rejects_n(self):
        assert parse_error_code(["tau", "--n", "1", "--gamma", "0.3,0.1"]) == 2

    def test_maps_rejects_tolerances(self):
        assert parse_error_code(["maps", "--gamma", "0.3,0.1", "--rel-tol", "1e-9"]) == 2
        assert parse_error_code(["maps", "--gamma", "0.3,0.1", "--abs-tol", "1e-9"]) == 2
        # a global solve has one tolerance set: only solve takes tolerances
        assert parse_error_code(["tau", "--gamma", "0.3,0.1", "--rel-tol", "1e-9"]) == 2
        assert parse_error_code(["tau", "--gamma", "0.3,0.1", "--abs-tol", "1e-9"]) == 2
        assert parse_error_code(["constant", "--gamma", "0.3,0.1", "--rel-tol", "1e-9"]) == 2
        assert parse_error_code(["constant", "--gamma", "0.3,0.1", "--abs-tol", "1e-9"]) == 2

    def test_seed_only_on_verify(self):
        assert parse_error_code(["constant", "--seed", "5", "--gamma", "0.3,0.1"]) == 2
        assert parse_error_code(["tau", "--seed", "5", "--gamma", "0.3,0.1"]) == 2
        assert parse_error_code(["maps", "--seed", "5", "--gamma", "0.3,0.1"]) == 2
        assert parse_error_code(["solve", "--seed", "5", "--gamma", "0.3,0.1"]) == 2

    def test_solve_tolerance_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["solve", "--gamma", "0.3,0.1"])
        cfg = cli.hf.IntegratorConfig()
        assert (args.rel_tol, args.abs_tol) == (cfg.rel_tol, cfg.abs_tol)

    @pytest.mark.parametrize("argv", [["constant", "--gamma", "0.3,0.1"],
                                      ["verify", "--suite", "specfun", "--samples", "2"],
                                      ["verify", "--suite", "dynamics", "--samples", "2"]])
    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_bad_threshold_exit_2(self, argv, threshold, monkeypatch, capsys):
        # NaN read as a verification failure (exit 4), a negative threshold
        # failed every run and inf passed a run whose every solve failed:
        # all are refused before any solve
        monkeypatch.setattr(cli.tc, "constant_numeric", None)
        assert run(argv + [f"--threshold={threshold}", "--reproducible"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--threshold must be non-negative" in out.err

    def test_verify_rejects_tolerances(self):
        assert parse_error_code(["verify", "--suite", "specfun", "--rel-tol", "1e-9"]) == 2
        assert parse_error_code(["verify", "--suite", "specfun", "--abs-tol", "1e-9"]) == 2


class TestVerify:
    def test_specfun(self, capsys):
        rc = run(["verify", "--suite", "specfun", "--samples", "20",
                  "--seed", "7", "--reproducible"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert doc["max_residual"] <= 1e-10

    def test_symplectic(self, capsys):
        rc = run(["verify", "--suite", "symplectic", "--n", "3",
                  "--samples", "10", "--seed", "7", "--reproducible"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-7

    def test_genfun(self, capsys):
        rc = run(["verify", "--suite", "genfun", "--n", "5",
                  "--samples", "10", "--seed", "7", "--reproducible"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-6

    def test_dynamics(self, capsys):
        rc = run(["verify", "--suite", "dynamics", "--n", "3",
                  "--samples", "20", "--seed", "7", "--reproducible"])
        assert rc == 0

    def test_dynamics_even_n(self, capsys):
        # the even chain, with its forced middle entry 0, passes the same
        # checks at the same threshold
        assert run(["verify", "--suite", "dynamics", "--n", "4",
                    "--samples", "20", "--seed", "7", "--reproducible"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 4 and doc["pass"] is True

    def test_constant_acceptance_gammas(self, capsys):
        # eight samples are the eight acceptance gammas, whatever the seed;
        # their worst is 2.2e-13
        assert run(["verify", "--suite", "constant", "--samples", "8", "--seed", "3",
                    "--reproducible"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threshold"] == 1e-11 and doc["max_residual"] <= 1e-11

    def test_constant_typed_failure_is_inf(self, monkeypatch, capsys):
        def blown(gamma):
            raise cli.tc.BlowupError("global solve failed")
        monkeypatch.setattr(cli.tc, "constant_numeric", blown)
        assert run(["verify", "--suite", "constant", "--samples", "2",
                    "--reproducible"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_residual"] == "inf" and doc["pass"] is False

    @pytest.mark.parametrize("suite, target, name, value", [
        ("constant", cli.tc, "constant_numeric",
         lambda gamma: types.SimpleNamespace(abs_diff=math.nan)),
        ("specfun", verify, "psi_m2", lambda z: math.nan),
        ("symplectic", cli.dm, "_log_ratios", lambda n, gamma: [0.0, math.nan]),
    ], ids=["constant", "specfun", "symplectic"])
    def test_nan_residual_fails(self, suite, target, name, value, monkeypatch, capsys):
        # max() drops a NaN, and these passed with max_residual 0.0
        monkeypatch.setattr(target, name, value)
        assert run(["verify", "--suite", suite, "--samples", "3", "--reproducible"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_residual"] == "inf" and doc["pass"] is False

    def test_constant_rejects_n(self, capsys):
        assert run(["verify", "--suite", "constant", "--n", "4", "--samples", "1"]) == 2
        assert "the constant suite takes n = 3, got n = 4" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_separatrix(self, n, capsys):
        assert run(["verify", "--suite", "separatrix", "--n", n, "--samples", "2",
                    "--reproducible"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threshold"] == 1e-9 and doc["max_residual"] <= 1e-9

    def test_separatrix_rejects_n(self, capsys):
        assert run(["verify", "--suite", "separatrix", "--n", "3", "--samples", "1"]) == 2
        assert "the separatrix suite takes n = 1 or 2, got n = 3" in capsys.readouterr().err

    def test_unknown_suite_exit_2(self, capsys):
        assert run(["verify", "--suite", "nope"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown suite 'nope'; choose from ['constant', 'dynamics', "
            "'genfun', 'separatrix', 'specfun', 'symplectic']\n")

    @pytest.mark.parametrize("suite", ["specfun", "genfun", "symplectic", "dynamics",
                                       "constant", "separatrix"])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_no_samples_exit_2(self, suite, samples, capsys):
        # zero samples once passed with max_residual 0.0, and specfun with
        # -1 failed on numpy's "negative dimensions are not allowed"
        assert run(["verify", "--suite", suite, "--samples", samples, "--reproducible"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--samples must be at least 1, got {samples}" in out.err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_1_exit_2(self, n, capsys):
        # specfun never reads n, and reported "n": 0 with exit 0
        for suite in verify.SUITES:
            assert run(["verify", "--suite", suite, "--n", n, "--samples", "2",
                        "--reproducible"]) == 2
            out = capsys.readouterr()
            assert out.out == "" and f"n must be a positive integer, got {n}" in out.err

    def test_verify_determinism(self, capsys):
        args = ["verify", "--suite", "genfun", "--n", "3", "--samples", "5",
                "--seed", "11", "--reproducible"]
        run(args)
        out1 = capsys.readouterr().out
        run(args)
        assert out1 == capsys.readouterr().out


def key_paths(doc, prefix=""):
    """Every key path of a JSON object, depth first in document order."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += key_paths(value, f"{prefix}{key}.")
    return paths


_MAPS_PATHS = ["asymptotic", "asymptotic.n", "asymptotic.gamma", "asymptotic.rho",
               "monodromy", "monodromy.n", "monodromy.m", "monodromy.log_e", "global_rho",
               "full", "full.gamma", "full.rho", "full.m", "full.log_e"]
_SHOOTING_PATHS = ["shooting", "shooting.iterations", "shooting.x_start", "shooting.residual",
                   "shooting.probe_residual", "shooting.match_residual", "shooting.correction"]


class TestJsonLayout:
    # every key of each command's document, in the order it is written
    @pytest.mark.parametrize("argv, paths", [
        (["maps", "--n", "3", "--gamma", "0.3,0.1"], _MAPS_PATHS),
        (["maps", "--n", "2", "--gamma", "0.4"], _MAPS_PATHS),
        (["constant", "--gamma", "0.3,0.1"],
         ["gamma", "c_numeric", "c_closed", "abs_diff", "x1", "x2_used", "tail_bound",
          "integrator_stats", "integrator_stats.integrations", "integrator_stats.steps",
          "integrator_stats.rejected", "integrator_stats.rhs_evals",
          "integrator_stats.tangent_rhs_evals", *_SHOOTING_PATHS,
          "a", "series_order", "series_error"]),
        (["tau", "--gamma", "0.3,0.1"], ["gamma", "x1", "x2", "log_tau", *_SHOOTING_PATHS]),
        (["verify", "--suite", "specfun", "--samples", "2"],
         ["suite", "n", "samples", "seed", "max_residual", "threshold", "pass"]),
    ], ids=["maps-n3", "maps-n2", "constant", "tau", "verify"])
    def test_key_paths(self, argv, paths, capsys):
        assert run(argv + ["--reproducible"]) == 0
        assert key_paths(json.loads(capsys.readouterr().out)) == paths


class TestJsonWriter:
    def test_escapes_and_types(self):
        s = cli.dumps17({"a": [1.0 / 3.0, 1, True, None], "b": 'q"uote'})
        doc = json.loads(s)
        assert doc["a"][0] == 1.0 / 3.0
        assert doc["b"] == 'q"uote'

    def test_17g_format(self):
        s = cli.dumps17({"v": math.pi})
        assert "3.1415926535897931" in s

    def test_integral_floats_stay_floats(self):
        s = cli.dumps17({"a": 7.0, "b": 0.0, "c": -0.0, "d": 1e22, "e": 6, "f": 1e16})
        assert s == ('{"a": 7.0, "b": 0.0, "c": -0.0, "d": 1e+22, "e": 6, '
                     '"f": 10000000000000000.0}\n')
        doc = json.loads(s)
        assert [type(doc[k]) for k in "abcdef"] == [float] * 4 + [int, float]
        assert math.copysign(1.0, doc["c"]) == -1.0
