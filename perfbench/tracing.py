"""Layer-boundary tracing for the benchmark, installed from outside the library.

The library imports its collaborators by name (``from .global_solutions
import solve_global``), so a call from one module into the next is wrapped
by rebinding that name in the *calling* module.  Every wrapped call records
a span (name, start, end, parent span, op id) and adds its duration to the
parent's child time, so self time = duration - time covered by child spans.

Spans are kept in compact arrays and written when the run ends; the
aggregates (calls, total, self, failures per name) are updated as spans
close, so they stay exact even past the span cap.  Only spans with an op id
above 0 (the measured phase) enter the aggregates; set-up spans (op 0) are
stored but not aggregated.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

import numpy as np

# Beyond this many stored spans only the aggregates are updated (28 bytes
# per stored span; the limit keeps a traced run under ~30 MB of spans).
SPAN_CAP = 1_000_000


class Tracer:
    def __init__(self):
        self.op = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []  # [name id, child time, start, span index]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.failures: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.op_counts: dict[int, dict[str, float]] = {}
        self.dropped = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self._start)
        if idx < SPAN_CAP:
            self._name.append(nid)
            self._parent.append(stack[-1][3] if stack else -1)
            self._op.append(self.op)
            self._end.append(0.0)
            start = perf_counter()
            self._start.append(start)
        else:
            idx = -1
            self.dropped += 1
            start = perf_counter()
        frame = [nid, 0.0, start, idx]
        stack.append(frame)
        return frame

    def _close(self, frame: list, ok: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        nid, child, start, idx = frame
        dur = end - start
        if idx >= 0:
            self._end[idx] = end
        if self._stack:
            self._stack[-1][1] += dur
        if self.op > 0:
            name = self.names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
            if not ok:
                self.failures[name] = self.failures.get(name, 0) + 1

    def count(self, key: str, value: float) -> None:
        if self.op > 0:
            self.counts[key] = self.counts.get(key, 0) + value
            per_op = self.op_counts.setdefault(self.op, {})
            per_op[key] = per_op.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped in a span; `after(result)` records counts."""
        nid = self._intern(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(nid)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(frame, ok)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------

    def rebind(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr (a module global or a class method) by a wrapper."""
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def mean_us(self, name: str, self_only: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        table = self.self_time if self_only else self.total
        return 1e6 * table[name] / calls

    def write(self, path: str, meta: dict) -> None:
        """Write the stored spans (arrays) and the run metadata."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh,
                     name=np.frombuffer(self._name, dtype=np.int32),
                     parent=np.frombuffer(self._parent, dtype=np.int32),
                     op=np.frombuffer(self._op, dtype=np.int32),
                     start=np.frombuffer(self._start, dtype=np.float64),
                     end=np.frombuffer(self._end, dtype=np.float64),
                     names=np.array(self.names),
                     meta=np.array(json.dumps(dict(meta, dropped_spans=self.dropped))))


def install(tracer: Tracer, lib) -> None:
    """Wrap every layer boundary the benchmark measures.

    `lib` is the namespace of library modules (see workloads.Library).  The
    one private name is global_solutions._integrate_raw: it is the only
    entry point global_solutions uses into the stepper.
    """
    fl, gs, tc, dm = lib.hamiltonian_flow, lib.global_solutions, lib.tau_constant, lib.data_maps

    def after_integration(traj):
        st = traj.stats
        tracer.count("integrations", 1)
        tracer.count("steps", st.n_steps)
        tracer.count("rejected_steps", st.n_rejected)
        tracer.count("rhs_evals", st.n_rhs_evals)
        tracer.count("completed", traj.stop_reason == "completed")

    def after_solve(sol):
        tracer.count("newton_iterations", sol.diagnostics["iterations"])
        if tracer.op > 0:
            prev = tracer.counts.get("match_residual_max", 0.0)
            tracer.counts["match_residual_max"] = max(prev, sol.diagnostics["match_residual"])

    # bench -> tau_constant / global_solutions / data_maps entry points
    tracer.rebind(tc, "constant_numeric", "tau_constant.constant_numeric")
    tracer.rebind(gs, "make_backward_basis", "global_solutions.make_backward_basis")
    for attr in ("asymptotic_to_monodromy", "monodromy_to_asymptotic", "global_rho",
                 "verify_generating_function", "verify_symplectic", "gen_fun_F"):
        tracer.rebind(dm, attr, f"data_maps.{attr}")
    # tau_constant -> global_solutions / itself / data_maps / special_functions
    tracer.rebind(tc, "solve_global", "global_solutions.solve_global", after_solve)
    tracer.rebind(tc, "constant_closed", "tau_constant.constant_closed")
    tracer.rebind(tc, "gen_fun_F", "data_maps.gen_fun_F")
    tracer.rebind(tc, "psi_m2", "special_functions.psi_m2")
    tracer.rebind(gs, "solve_global", "global_solutions.solve_global", after_solve)
    tracer.rebind(gs.GlobalSolution, "reg_integral", "global_solutions.reg_integral")
    tracer.rebind(gs.GlobalSolution, "state", "global_solutions.state")
    # global_solutions -> hamiltonian_flow
    tracer.rebind(gs, "_integrate_raw", "hamiltonian_flow.integrate", after_integration)
    tracer.rebind(gs, "reg_density", "hamiltonian_flow.reg_density")
    tracer.rebind(fl.Trajectory, "sample_state", "hamiltonian_flow.sample_state")
    # data_maps -> special_functions
    tracer.rebind(dm, "psi_m2", "special_functions.psi_m2")
    tracer.rebind(dm, "log_gamma", "special_functions.log_gamma")
