"""Thread-aware span tracer and the per-layer instrumentation of viscowave.

The tracer never edits the package: it replaces public functions and
table methods with wrappers *at the names their callers look up* (for
example ``kernels.cubic_char_roots_batch`` is what ``vdw_kernel_basis``
calls, ``experiments.l2_norm_radial`` is what ``solution_norm`` calls) and
restores the originals afterwards.  Each wrapper records one span (name,
start, end, parent, thread) and the counters of its layer.

``thread_map`` runs norms and tau values on worker threads, so every
thread keeps its own span stack and the tasks of a ``thread_map`` call
name that call's span as their parent across threads.  A span's self time
is its duration minus the part of that interval its children cover.
Spans are held in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("spectrum", "kernels", "quadrature", "oracle", "experiments", "cli")


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.polynomials: dict = defaultdict(list)   # (deg, gamma, tau) -> radii
        self.max_workers = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, parent: int | None = None) -> tuple[int, int | None, float]:
        """Start a span on this thread; ``parent`` overrides the stack top."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, token, layer: str, name: str) -> None:
        end = perf_counter()
        sid, parent, start = token
        self._stack().pop()
        span = Span(sid, parent, layer, name, threading.get_ident(), start, end)
        with self._lock:
            self.spans.append(span)

    def call(self, layer: str, name: str, fn, args, kwargs, parent=None):
        token = self.open(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(token, layer, name)

    def add(self, **counts) -> None:
        with self._lock:
            self.counts.update(counts)

    # -- derived quantities ------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            edge = s.start
            for lo, hi in sorted(children.get(s.sid, ())):
                lo, hi = max(lo, edge, s.start), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.sid] = (s.end - s.start) - covered
        return out

    def layer_self(self, own: dict[int, float] | None = None) -> dict[str, float]:
        own = self.self_times() if own is None else own
        out = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for s in self.spans:
            out[s.layer] += own[s.sid]
        return out

    def distinct_polynomials(self) -> int:
        return sum(np.unique(np.concatenate(radii)).size
                   for radii in self.polynomials.values())

    def dump(self, fh, pass_label: str) -> None:
        for s in self.spans:
            fh.write(json.dumps({"pass": pass_label, "id": s.sid,
                                 "parent": s.parent, "layer": s.layer,
                                 "name": s.name, "thread": s.thread,
                                 "start": s.start, "end": s.end}) + "\n")


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (BENCHMARK.json ``per_layer``)."""
    c = tracer.counts
    own = tracer.self_times()
    busy = tracer.layer_self(own)
    rows = c["spectrum.rows_cubic"] + c["spectrum.rows_quartic"]
    tables = sum(own[s.sid] for s in tracer.spans if s.name in TABLE_SPANS)
    return {
        "spectrum.calls": c["spectrum.calls"],
        "spectrum.rows_cubic": c["spectrum.rows_cubic"],
        "spectrum.rows_quartic": c["spectrum.rows_quartic"],
        "spectrum.busy_s": busy["spectrum"],
        "spectrum.rows_per_s": _ratio(rows, busy["spectrum"]),
        "spectrum.flagged_rows": c["spectrum.flagged_rows"],
        "spectrum.distinct_ratio": _ratio(tracer.distinct_polynomials(), rows),
        "quadrature.norms": c["quadrature.norms"],
        "quadrature.integrals": c["quadrature.integrals"],
        "quadrature.nodes": c["quadrature.nodes"],
        "quadrature.nodes_per_norm": _ratio(c["quadrature.nodes"],
                                            c["quadrature.norms"]),
        "quadrature.busy_s": busy["quadrature"],
        "kernels.calls": c["kernels.calls"],
        "kernels.busy_s": busy["kernels"],
        "kernels.table_cells": c["kernels.table_cells"],
        "kernels.tables_s": tables,
        "oracle.calls": c["oracle.calls"],
        "oracle.busy_s": busy["oracle"],
        "oracle.mode_steps": c["oracle.mode_steps"],
        "oracle.mode_steps_per_s": _ratio(c["oracle.mode_steps"], busy["oracle"]),
        "oracle.fallback_calls": c["oracle.fallback_calls"],
        "experiments.busy_s": busy["experiments"],
        "experiments.tasks": c["experiments.tasks"],
        "experiments.workers": tracer.max_workers,
        "experiments.queue_wait_s": c["experiments.queue_wait_s"],
        "cli.busy_s": busy["cli"],
        "cli.csv_bytes": c["cli.csv_bytes"],
    }


def _ratio(num, den) -> float:
    return float(num) / den if den > 0 else 0.0


# ---------------------------------------------------------------------------
# instrumentation sites
# ---------------------------------------------------------------------------

TABLE_SPANS = ("kernels.VdwKernelBasis.eval", "kernels.VdwKernelBasis.mode_tables",
               "kernels.MgtModeBasis.eval")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rk4_steps(t_eval, step: float) -> int:
    """Steps the fixed-step integrator takes to reach every output time."""
    t_prev, steps = 0.0, 0
    for t_next in np.asarray(t_eval, dtype=float):
        dt = t_next - t_prev
        if dt > 0:
            steps += max(1, math.ceil(dt / step - 1e-12))
            t_prev = t_next
    return steps


class Instrumentation:
    """Wrappers for one tracer, installed at every caller-side name."""

    def __init__(self, tracer: Tracer, vw):
        self.t = tracer
        self.vw = vw
        self._saved: list[tuple[object, str, object]] = []
        # unwrapped solvers, so the fallback test adds no spectrum rows
        self._solvers = {"integrate_vdw_mode": vw.spectrum.cubic_char_roots_batch,
                         "integrate_mgt_mode": vw.spectrum.quartic_char_roots_batch}

    # -- generic -----------------------------------------------------------

    def _site(self, owner, attr: str, wrapper_factory) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _plain(self, layer: str, name: str, after=None):
        t = self.t

        def factory(fn):
            def wrapper(*args, **kwargs):
                out = t.call(layer, name, fn, args, kwargs)
                t.add(**{f"{layer}.calls": 1})
                if after is not None:
                    after(fn, args, kwargs, out)
                return out
            return wrapper
        return factory

    # -- per-layer counters ------------------------------------------------

    def _roots_after(self, fn, args, kwargs, out):
        a = _bound(fn, args, kwargs)
        roots, flags = out[0], out[3]
        params = a["params"]
        key = "spectrum.rows_cubic" if roots.shape[-1] == 3 else "spectrum.rows_quartic"
        self.t.add(**{key: roots.shape[0],
                      "spectrum.flagged_rows": int(np.count_nonzero(flags))})
        radii = np.array(a["r"], dtype=float).ravel()
        with self.t._lock:
            self.t.polynomials[(roots.shape[-1], params.gamma, params.tau)].append(radii)

    def _table_after(self, fn, args, kwargs, out):
        basis, t = args[0], (args[1] if len(args) > 1 else kwargs["t"])
        self.t.add(**{"kernels.table_cells": int(np.size(t)) * basis.r.size})

    def _oracle_after(self, fn, args, kwargs, out):
        """Mode steps of every call; a single-mode call at a radius the
        root solver flags is a fallback call (the kernel path's only route
        there), whoever makes it."""
        a = _bound(fn, args, kwargs)
        step, fallback = a["step"], False
        if "gamma" in a:                             # batched integrators
            modes = np.asarray(a["r"]).size
        else:
            modes = 1
            params = a["params"]
            if fn.__name__ == "integrate_vdw_mode":
                params = params.without_tau()
            if step is None:
                step = self.vw.oracle.default_step(params, a["r"])
            solve = self._solvers[fn.__name__]
            fallback = bool(solve(params, np.array([float(a["r"])]))[3][0])
        self.t.add(**{"oracle.mode_steps": modes * _rk4_steps(out.t, step),
                      "oracle.fallback_calls": int(fallback)})

    def _csv_after(self, fn, args, kwargs, out):
        argv = list(args[0])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.t.add(**{"cli.csv_bytes": os.path.getsize(path)})

    # -- wrappers that reshape their arguments -----------------------------

    def _norm_factory(self, fn):
        """l2_norm_radial: its integrand callable is experiments' mode field
        (kernel path plus oracle fallback), so time it as experiments."""
        t = self.t

        def wrapper(spectrum, *args, **kwargs):
            def field(r):
                return t.call("experiments", "experiments.field", spectrum,
                              (r,), {})
            out = t.call("quadrature", "quadrature.l2_norm_radial", fn,
                         (field,) + args, kwargs)
            t.add(**{"quadrature.norms": 1})
            return out
        return wrapper

    def _integral_factory(self, fn):
        t = self.t

        def wrapper(f, *args, **kwargs):
            def counted(r):
                t.add(**{"quadrature.nodes": int(np.size(r))})
                return f(r)
            out = t.call("quadrature", "quadrature.adaptive_integral", fn,
                         (counted,) + args, kwargs)
            t.add(**{"quadrature.integrals": 1})
            return out
        return wrapper

    def _thread_map_factory(self, fn):
        t = self.t

        def wrapper(task_fn, items):
            items = list(items)
            token = t.open()
            sid, submitted = token[0], token[2]
            threads = set()

            def task(x):
                started = perf_counter()
                with t._lock:
                    t.counts["experiments.queue_wait_s"] += started - submitted
                    threads.add(threading.get_ident())
                return t.call("experiments", "experiments.task", task_fn, (x,),
                              {}, parent=sid)
            try:
                return fn(task, items)
            finally:
                t.close(token, "experiments", "experiments.thread_map")
                t.add(**{"experiments.tasks": len(items)})
                with t._lock:
                    t.max_workers = max(t.max_workers, len(threads))
        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        vw = self.vw
        spectrum, kernels, quadrature = vw.spectrum, vw.kernels, vw.quadrature
        oracle, experiments, cli = vw.oracle, vw.experiments, vw.cli
        for owner in (spectrum, kernels, experiments, cli):
            for fname in ("cubic_char_roots_batch", "quartic_char_roots_batch"):
                self._site(owner, fname, self._plain(
                    "spectrum", f"spectrum.{fname}", self._roots_after))
        for owner in (kernels, experiments):
            for fname in ("vdw_kernel_basis", "mgt_mode_basis",
                          "vdw_mode_solution", "mgt_mode_solution",
                          "leading_profiles"):
                self._site(owner, fname, self._plain("kernels", f"kernels.{fname}"))
        self._site(cli, "vdw_kernel_basis",
                   self._plain("kernels", "kernels.vdw_kernel_basis"))
        for cls, meth in ((kernels.VdwKernelBasis, "eval"),
                          (kernels.VdwKernelBasis, "mode_tables"),
                          (kernels.MgtModeBasis, "eval")):
            self._site(cls, meth, self._plain(
                "kernels", f"kernels.{cls.__name__}.{meth}", self._table_after))
        self._site(experiments, "l2_norm_radial", self._norm_factory)
        self._site(quadrature, "adaptive_integral", self._integral_factory)
        for owner in (experiments, oracle):
            for fname in ("integrate_vdw_mode", "integrate_mgt_mode",
                          "integrate_vdw_many", "integrate_mgt_many"):
                self._site(owner, fname, self._plain(
                    "oracle", f"oracle.{fname}", self._oracle_after))
        self._site(experiments, "thread_map", self._thread_map_factory)
        for fname in ("solution_norm", "oracle_mode_comparison"):
            self._site(experiments, fname,
                       self._plain("experiments", f"experiments.{fname}"))
        for fname in ("decay_experiment", "singular_limit_energy",
                      "singular_limit_solution"):
            self._site(cli, fname, self._plain("experiments", f"experiments.{fname}"))
        self._site(cli, "run_command",
                   self._plain("cli", "cli.run_command", self._csv_after))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer, vw):
    """Install the wrappers for the duration of one pass."""
    inst = Instrumentation(tracer, vw)
    try:
        inst.install()
        yield inst
    finally:
        inst.restore()
