"""Spans around the solver's public calls, recorded from outside the program.

`Tracer.installed()` swaps the public functions listed in `_wrap_points` for
wrappers that record one span per call (name, start, end, parent span, run
id) and restores the originals on exit.  No file of the solver changes: the
wrappers replace module and class attributes that the solver looks up at
call time.  Spans stay in memory until `write_jsonl`.

`aggregate` turns the spans of one run id into the per-layer metrics: total
seconds, calls and self seconds (duration minus the time covered by direct
child spans) per span name, plus the counts the wrappers make themselves.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

import scipy.sparse.linalg as spla

import chns_imex.imex as imex
import chns_imex.mms as mms
import chns_imex.solvers as solvers
import chns_imex.spatial as spatial

#: span names whose `.s` and `.calls` are reported (0 when never called)
SPAN_NAMES = (
    "imex.step", "imex.attempt_step",
    "spatial.explicit_tendency", "weno.reconstruct",
    "solvers.newton", "solvers.newton.residual", "solvers.newton.jacobian",
    "solvers.newton.factorize", "solvers.newton.lu_solve",
    "solvers.cstage", "solvers.cstage.assemble", "operators.laplacian_nd",
    "solvers.cstage.krylov", "solvers.cstage.factorize",
    "solvers.cstage.lu_solve",
    "mms.forcing", "setup.initial", "setup.integrator",
)
#: span names whose `.self_s` is also reported
SELF_TIME_NAMES = ("imex.attempt_step", "spatial.explicit_tendency",
                   "solvers.newton", "solvers.cstage")
#: span of the tracer's own work; its time is taken out of every ancestor
BOOKKEEPING = "trace.bookkeeping"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "run", "ok", "attrs")

    def __init__(self, sid, parent, name, run):
        self.id, self.parent, self.name, self.run = sid, parent, name, run
        self.start = self.end = 0.0
        self.ok = False
        self.attrs = None

    def as_dict(self) -> dict:
        out = {"run": self.run, "id": self.id, "parent": self.parent,
               "name": self.name, "start": self.start, "end": self.end,
               "ok": self.ok}
        if self.attrs:
            out.update(self.attrs)
        return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = None
        self._stack: list[Span] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; returns (result, span)."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            span.ok = True
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return out, span

    def _owner(self) -> str:
        """The solver stage ('newton' or 'cstage') the current call is in."""
        for span in reversed(self._stack):
            if span.name in ("solvers.newton", "solvers.cstage"):
                return span.name
        return "scipy"

    # -- wrappers ------------------------------------------------------------

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)[0]
        return wrapper

    def _weno(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            (minus, plus), span = self.call("weno.reconstruct", fn,
                                            *args, **kwargs)
            span.attrs = {"points": minus.size}
            return minus, plus
        return wrapper

    def _residual(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a residual called by solve() itself starts a Newton iteration;
            # the others come from the damped line search
            direct = sys._getframe(1).f_code.co_name == "solve"
            out, span = self.call("solvers.newton.residual", fn,
                                  *args, **kwargs)
            span.attrs = {"direct": direct}
            return out
        return wrapper

    def _splu(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = self._owner()
            lu, span = self.call(owner + ".factorize", fn, *args, **kwargs)
            if owner == "solvers.newton":
                # computed work count: stored nonzeros of the two factors;
                # building L and U costs time, kept out of the layer times
                span.attrs = {"lu_nnz": self.call(
                    BOOKKEEPING, lambda: int(lu.L.nnz + lu.U.nnz))[0]}
            return _TracedLU(self, lu, owner + ".lu_solve")
        return wrapper

    def _cg(self, fn):
        @functools.wraps(fn)
        def wrapper(A, b, *args, callback=None, **kwargs):
            iters = [0]

            def count(xk):
                iters[0] += 1
                if callback is not None:
                    callback(xk)

            out, span = self.call("solvers.cstage.krylov", fn, A, b, *args,
                                  callback=count, **kwargs)
            span.attrs = {"iters": iters[0]}
            return out
        return wrapper

    def _wrap_points(self):
        """(owner, attribute, wrapper factory) for every traced call."""
        def plain(name):
            return functools.partial(self._plain, name)
        return (
            (imex.Integrator, "step", plain("imex.step")),
            (imex.Integrator, "attempt_step", plain("imex.attempt_step")),
            (spatial.SpatialDiscretization, "explicit_tendency",
             plain("spatial.explicit_tendency")),
            (spatial, "reconstruct_lr_cells", self._weno),
            (spatial, "reconstruct_lr_faces", self._weno),
            (solvers.HydroSolver, "solve", plain("solvers.newton")),
            (solvers.HydroSolver, "residual", self._residual),
            (solvers.HydroSolver, "jacobian", plain("solvers.newton.jacobian")),
            (spla, "splu", self._splu),
            (imex, "solve_c_stage", plain("solvers.cstage")),
            (solvers, "assemble_c_matrix", plain("solvers.cstage.assemble")),
            (spla, "cg", self._cg),
            (solvers, "laplacian_nd", plain("operators.laplacian_nd")),
            (mms, "forcing_state", plain("mms.forcing")),
        )

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, make in self._wrap_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class _TracedLU:
    """A SuperLU factorization whose solve() calls are spans."""

    def __init__(self, tracer: Tracer, lu, name: str):
        self._tracer, self._lu, self._name = tracer, lu, name

    def solve(self, *args, **kwargs):
        return self._tracer.call(self._name, self._lu.solve,
                                 *args, **kwargs)[0]

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def aggregate(spans) -> dict:
    """Per-layer metrics of the spans of one run id.

    Counts that the program also keeps (Newton iterations, factorizations,
    retries) are taken only from attempts that succeeded, as the program's
    `StepRecord`s are.
    """
    by_id = {s.id: s for s in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    bookkeeping = dict.fromkeys(by_id, 0.0)
    attempt_ok = {}
    for s in spans:
        if s.parent in child_time:
            child_time[s.parent] += s.end - s.start
        if s.name == BOOKKEEPING:
            up = s.parent
            while up in by_id:
                bookkeeping[up] += s.end - s.start
                up = by_id[up].parent
        if s.name == "imex.attempt_step":
            attempt_ok[s.id] = s.ok
        elif s.parent in attempt_ok:
            attempt_ok[s.id] = attempt_ok[s.parent]

    m = {}
    for name in SPAN_NAMES:
        m[name + ".s"] = 0.0
        m[name + ".calls"] = 0
    for name in SELF_TIME_NAMES:
        m[name + ".self_s"] = 0.0
    weno_points = krylov_iters = direct_residuals = newton_solves = 0
    factorizations = retries = 0
    lu_nnz = []
    for s in spans:
        if s.name == BOOKKEEPING:
            continue
        dur = s.end - s.start - bookkeeping[s.id]
        m[s.name + ".s"] = m.get(s.name + ".s", 0.0) + dur
        m[s.name + ".calls"] = m.get(s.name + ".calls", 0) + 1
        if s.name in SELF_TIME_NAMES:
            m[s.name + ".self_s"] += s.end - s.start - child_time[s.id]
        attrs = s.attrs or {}
        weno_points += attrs.get("points", 0)
        krylov_iters += attrs.get("iters", 0)
        if s.name == "solvers.newton.factorize":
            lu_nnz.append(attrs["lu_nnz"])
        if s.name == "imex.attempt_step" and not s.ok:
            retries += 1
        if not attempt_ok.get(s.id, False):
            continue
        if s.name == "solvers.newton.residual" and attrs["direct"]:
            direct_residuals += 1
        elif s.name == "solvers.newton":
            newton_solves += 1
        elif s.name == "solvers.newton.factorize":
            factorizations += 1

    m["weno.points"] = weno_points
    # each Newton solve evaluates one residual before its first iteration
    m["solvers.newton.iters"] = direct_residuals - newton_solves
    m["solvers.newton.factorizations"] = factorizations
    m["solvers.newton.lu_nnz"] = max(lu_nnz, default=0)
    fact = m["solvers.newton.factorize.calls"]
    m["solvers.newton.solves_per_factorization"] = (
        m["solvers.newton.lu_solve.calls"] / fact if fact else 0.0)
    m["solvers.cstage.krylov.iters"] = krylov_iters
    m["imex.retries"] = retries
    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_run: list[dict]) -> dict:
    """Metric-wise median over runs (each run is one traced repetition)."""
    keys = {k for run in per_run for k in run}
    return {k: statistics.median(run.get(k, 0) for run in per_run)
            for k in sorted(keys)}
