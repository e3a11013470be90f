"""The verification module on its own: the fold, typed failures and the
input refusals, without the command line."""

import dataclasses
import math
import types

import pytest

from ttstar_toda import tau_constant as tc
from ttstar_toda import verify


def test_report_fields_and_default_threshold():
    rep = verify.run("specfun", 3, 4, 7)
    assert [f.name for f in dataclasses.fields(rep)] == [
        "suite", "n", "samples", "seed", "max_residual", "threshold"]
    assert (rep.suite, rep.n, rep.samples, rep.seed) == ("specfun", 3, 4, 7)
    assert rep.threshold == verify.SUITES["specfun"][1] == 1e-10
    assert 0.0 < rep.max_residual <= rep.threshold and rep.passed is True


def test_given_threshold_decides():
    worst = verify.run("specfun", 1, 4, 7).max_residual
    rep = verify.run("specfun", 1, 4, 7, threshold=0.5 * worst)
    assert rep.max_residual == worst and rep.threshold == 0.5 * worst
    assert rep.passed is False


def test_nan_residual_folds_to_inf(monkeypatch):
    # max() over residuals that hold a NaN can return a finite value
    monkeypatch.setattr(verify, "psi_m2", lambda z: math.nan)
    rep = verify.run("specfun", 3, 3, 0)
    assert rep.max_residual == math.inf and rep.passed is False


def test_typed_solve_failure_is_inf(monkeypatch):
    calls = []

    def blown(gamma):
        calls.append(gamma)
        raise tc.BlowupError("global solve failed")
    monkeypatch.setattr(tc, "constant_numeric", blown)
    rep = verify.run("constant", 3, 5, 0)
    assert rep.max_residual == math.inf and rep.passed is False
    # the first failure ends the run: the other samples are not solved
    assert calls == [verify.ACCEPTANCE_GAMMAS[0]]


def test_constant_suite_takes_the_acceptance_gammas_first(monkeypatch):
    seen = []
    monkeypatch.setattr(tc, "constant_numeric",
                        lambda gamma: seen.append(gamma) or types.SimpleNamespace(abs_diff=0.0))
    for seed in (0, 1):
        seen.clear()
        assert verify.run("constant", 3, 8, seed).max_residual == 0.0
        assert seen == list(verify.ACCEPTANCE_GAMMAS)


@pytest.mark.parametrize("suite, n, samples, threshold, message", [
    ("nope", 3, 2, None, "unknown suite 'nope'; choose from ['constant', 'dynamics', "
                         "'genfun', 'separatrix', 'specfun', 'symplectic']"),
    ("constant", 3, 0, None, "--samples must be at least 1, got 0"),
    ("specfun", 3, -1, None, "--samples must be at least 1, got -1"),
    ("specfun", 0, 2, None, "n must be a positive integer, got 0"),
    ("constant", -1, 2, None, "n must be a positive integer, got -1"),
    ("constant", 3, 2, math.nan, "--threshold must be non-negative and finite, got nan"),
    ("constant", 3, 2, -1.0, "--threshold must be non-negative and finite, got -1.0"),
    ("constant", 3, 2, math.inf, "--threshold must be non-negative and finite, got inf"),
    ("constant", 4, 2, None, "the constant suite takes n = 3, got n = 4"),
    ("separatrix", 3, 2, None, "the separatrix suite takes n = 1 or 2, got n = 3"),
])
def test_refusals(suite, n, samples, threshold, message, monkeypatch):
    # each is refused before any solve
    monkeypatch.setattr(tc, "constant_numeric", None)
    with pytest.raises(ValueError) as exc:
        verify.run(suite, n, samples, 0, threshold)
    assert str(exc.value) == message


def test_checked_threshold():
    assert verify.checked_threshold("constant") == 1e-11
    assert verify.checked_threshold("constant", 0.0) == 0.0
    with pytest.raises(ValueError, match="non-negative and finite"):
        verify.checked_threshold("constant", -1e-300)
