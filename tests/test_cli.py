import json
import math

import pytest

from ttstar_toda import cli, log_tau


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
                                    "integrator_stats", "a", "series_order",
                                    "series_error"]
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
        # one solve at x1 = 0.08 from a converged series: two probes at 4.95
        assert stats["integrations"] == 2 and stats["rhs_evals"] > stats["steps"] > 0

    def test_genericity_exit_2(self):
        assert run(["constant", "--gamma", "1.9,0"]) == 2

    def test_below_domain_floor_exit_2(self, capsys):
        # a(gamma) = 0.05 < 0.2: refused before any solve; a is printed
        # exactly, so a = 2 - 1.8 = 0.19999999999999996 does not read 0.2
        assert run(["constant", "--gamma=-0.975,0.075"]) == 2
        assert "a_min" in capsys.readouterr().err
        assert run(["constant", "--gamma=-0.9,0.9"]) == 2
        assert "a(gamma) = min_l s_l = 0.19999999999999996 is below" in capsys.readouterr().err


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

    def test_unknown_suite_exit_2(self):
        assert run(["verify", "--suite", "nope"]) == 2

    def test_verify_determinism(self, capsys):
        args = ["verify", "--suite", "genfun", "--n", "3", "--samples", "5",
                "--seed", "11", "--reproducible"]
        run(args)
        out1 = capsys.readouterr().out
        run(args)
        assert out1 == capsys.readouterr().out


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
