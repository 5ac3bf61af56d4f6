"""Outside-in tracing of sdar_glm: spans from rebinding public names.

Nothing in the package is edited.  While a `Tracer` is installed, the names
that the package's modules look up at call time (``solver.gradient``,
``simulate.gsdar_fit``, the ``Dataset`` class in each consuming module, ...)
point at wrappers that record one span per call: name, start, end, parent
span and op id.  Spans stay in memory until the run writes them out.

Newton steps and value evaluations inside the restricted solve are counted by
`CountingLogistic`, a `Logistic` whose ``variance`` and ``cumulant`` calls
count only while the innermost open span is ``solver.restricted``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name).  The first three are the names the benchmark
# itself calls; the rest are the names the package's modules look up.
WRAPPED = (
    ("sdar_glm", "gsdar_fit", "solver.fit"),
    ("sdar_glm", "run_replications", "simulate"),
    ("sdar_glm.cli", "main", "cli"),
    ("sdar_glm.families", "linear_predictor", "families.x_pass"),
    ("sdar_glm.solver", "gradient", "families.gradient"),
    ("sdar_glm.solver", "negative_log_likelihood", "families.nll"),
    ("sdar_glm.path", "negative_log_likelihood", "families.nll"),
    ("sdar_glm.solver", "top_t_support", "solver.screen"),
    ("sdar_glm.solver", "restricted_mle", "solver.restricted"),
    ("sdar_glm.path", "gsdar_fit", "solver.fit"),
    ("sdar_glm.simulate", "gsdar_fit", "solver.fit"),
    ("sdar_glm.cli", "gsdar_fit", "solver.fit"),
    ("sdar_glm.simulate", "agsdar_fit", "path"),
    ("sdar_glm.simulate", "generate_instance", "simulate.generate"),
    ("sdar_glm.cli", "read_libsvm", "dataio.read"),
    ("sdar_glm.solver", "Dataset", "families.dataset"),
    ("sdar_glm.simulate", "Dataset", "families.dataset"),
    ("sdar_glm.dataio", "Dataset", "families.dataset"),
    ("sdar_glm.cli", "Dataset", "families.dataset"),
)

OP = "op"
# Work the tracer does between a call's return and its parent's return (the
# OBSERVERS below).  It counts as covered time for the parent, so it never
# inflates a layer's self time, and it is no layer itself.
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Span recorder plus per-op counters.  Records only inside `op()`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.path_results: list = []
        self._stack: list[Span] = []
        self._op: int | None = None

    @property
    def recording(self) -> bool:
        return self._op is not None

    def innermost(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def count(self, key: str, amount: float = 1) -> None:
        if self.recording:
            self.counts[key] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Bracket one op: every span opened inside carries `op_id`."""
        self._op = op_id
        try:
            with self.span(OP):
                yield
        finally:
            self._op = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _x_bytes(data_arg: int):
    return lambda t, args, result: t.count("families.x_bytes", args[data_arg].X.nbytes)


def _restricted(t: Tracer, args, beta) -> None:
    """Did the solve meet its gradient tolerance, and is a coefficient at the cap?"""
    family, data, active, _init, cfg = args
    Xa = np.ascontiguousarray(data.X[:, np.asarray(active, dtype=int)])
    g = Xa.T @ (family.mean(Xa @ beta) - data.y) / data.n
    t.count("solver.restricted.converged", bool(np.max(np.abs(g)) <= cfg.newton_grad_tol))
    if family.name == "logistic":
        t.count("solver.cap_bound", bool(np.any(np.abs(beta) >= cfg.coef_cap)))


def _output_bytes(t: Tracer, args, code) -> None:
    argv = list(args[0])
    if "--output" in argv:
        t.count("cli.output.bytes", os.path.getsize(argv[argv.index("--output") + 1]))


# Counters read from a call's arguments and result once its span has closed.
OBSERVERS = {
    "families.x_pass": _x_bytes(0),
    "families.gradient": _x_bytes(1),
    "solver.fit": lambda t, args, fit: t.count("solver.outer_iters", fit.iters),
    "solver.restricted": _restricted,
    "path": lambda t, args, result: t.path_results.append(result),
    "dataio.read": lambda t, args, data: t.count("dataio.read.bytes", os.path.getsize(args[0])),
    "cli": _output_bytes,
}


def _wrap(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            with tracer.span(BOOKKEEPING):
                observe(tracer, args, result)
        return result

    return traced


def counting_logistic(tracer: Tracer):
    """A Logistic family that counts Newton steps and value evaluations."""
    from sdar_glm import Logistic

    class CountingLogistic(Logistic):
        def variance(self, theta):
            if tracer.innermost() == "solver.restricted":
                tracer.count("solver.newton")
            return super().variance(theta)

        def cumulant(self, theta):
            if tracer.innermost() == "solver.restricted":
                tracer.count("solver.linesearch.evals")
            return super().cumulant(theta)

    return CountingLogistic()


@contextlib.contextmanager
def installed(tracer: Tracer, family):
    """Rebind every name in WRAPPED, and the logistic family, for the block."""
    saved = []

    def rebind(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for mod_name, attr, span_name in WRAPPED:
            module = importlib.import_module(mod_name)
            rebind(module, attr, _wrap(tracer, span_name, getattr(module, attr)))
        simulate = importlib.import_module("sdar_glm.simulate")
        cli = importlib.import_module("sdar_glm.cli")
        rebind(simulate, "LOGISTIC", family)
        get_family = cli.get_family
        rebind(cli, "get_family", lambda name: family if name == "logistic" else get_family(name))
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
