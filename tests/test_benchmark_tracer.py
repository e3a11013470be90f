"""The benchmark's tracer against the library's names.

`perfbench/tracing.py` wraps the library's layer boundaries by rebinding
module and class attributes by name, some of which the library keeps only
for it (`global_solutions.reg_density`, `make_backward_basis`).  Installing
and uninstalling the tracer here fails the suite on a dropped name, not
only the benchmark's own smoke test.  Nothing under perfbench/ is changed.
"""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing"), importlib.import_module("workloads")
    for name in ("tracing", "workloads", "checks", "clock"):
        sys.modules.pop(name, None)


def test_tracer_installs_and_uninstalls(perfbench):
    tracing, workloads = perfbench
    lib = workloads.Library()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, lib)
        rebound = list(tracer._restore)
        assert ("hamiltonian_flow.reg_density" in tracer.names
                and "global_solutions.make_backward_basis" in tracer.names)
    finally:
        tracer.uninstall()
    for owner, attr, original in rebound:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
