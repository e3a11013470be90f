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

    def test_one_flag_keeps_the_other_default(self, capsys):
        # --rel-tol alone at its default value must not loosen abs_tol
        base = ["tau", "--gamma", "0.3,0.1", "--x1", "0.01", "--x2", "6", "--reproducible"]
        assert run(base) == 0
        plain = json.loads(capsys.readouterr().out)["log_tau"]
        assert run(base + ["--rel-tol", "1e-12"]) == 0
        assert json.loads(capsys.readouterr().out)["log_tau"] == plain


class TestConstant:
    def test_trivial(self, capsys):
        rc = run(["constant", "--gamma", "0,0", "--reproducible"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["c_numeric"]) <= 1e-6
        assert doc["abs_diff"] <= 1e-6
        assert list(doc.keys()) == ["gamma", "c_numeric", "c_closed", "abs_diff",
                                    "x1_grid", "x2_used",
                                    "extrapolation_exponent", "tail_bound",
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
        assert list(stats) == ["integrations", "steps", "rejected", "rhs_evals"]
        assert stats["integrations"] > 3 and stats["rhs_evals"] > stats["steps"] > 0

    def test_genericity_exit_2(self):
        assert run(["constant", "--gamma", "1.9,0"]) == 2

    def test_below_domain_floor_exit_2(self, capsys):
        # a(gamma) = 0.05 < 0.2: refused before any solve
        assert run(["constant", "--gamma=-0.975,0.075"]) == 2
        assert "a_min" in capsys.readouterr().err


class TestFlags:
    # a flag is registered only where it is read; argparse exits 2 on the rest
    def test_constant_rejects_n(self):
        assert parse_error_code(["constant", "--n", "1", "--gamma", "0.3,0.1"]) == 2

    def test_tau_rejects_n(self):
        assert parse_error_code(["tau", "--n", "1", "--gamma", "0.3,0.1"]) == 2

    def test_maps_rejects_tolerances(self):
        assert parse_error_code(["maps", "--gamma", "0.3,0.1", "--rel-tol", "1e-9"]) == 2
        assert parse_error_code(["maps", "--gamma", "0.3,0.1", "--abs-tol", "1e-9"]) == 2

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
