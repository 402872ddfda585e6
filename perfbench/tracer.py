"""Call tracing for the torbif modules, installed from outside the package.

``Tracer.installed()`` wraps every public function of each torbif layer module
and rebinds the wrapper in every ``torbif.*`` namespace that holds the
function: modules import each other's names directly, so rebinding only the
defining module would miss most calls.  Leaving the block restores every
original object.

Each call adds to its function's aggregates: calls, wall seconds, busy
seconds (thread CPU time, which leaves out time spent waiting for the
interpreter lock while the build_report pool runs) and self seconds (busy
seconds minus the busy seconds of wrapped callees).  Calls of functions not in
``HOT`` also keep a span ``(id, parent, thread, name, start, end)`` in memory
and the process CPU time they spanned; the first span of a pool thread takes
the open ``build_report`` span as its parent.  Hot leaf functions keep only
calls, busy and self seconds.  A few functions feed extra counters (``OBSERVERS``).
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = (
    "intlat", "torusrep", "eulerring", "spectra", "bifurcation",
    "problemfile", "corroborate", "oracle", "cli",
)

# Called hundreds of thousands of times per report; spans would dominate memory.
HOT = frozenset({
    "intlat.hermite_basis",
    "intlat.subgroup_intersect",
    "intlat.subgroup_canonical",
    "torusrep.canonical_weight",
})

# The extended-gcd step inside hermite_basis and snf: wrapping it would add a
# second wrapped call per elimination step and double the cost of tracing HNF.
UNWRAPPED = frozenset({"intlat.xgcd"})

POOL_PARENT = "problemfile.build_report"


def _star(counters: dict, args: tuple, result) -> None:
    a, b = args[0], args[1]
    counters["eulerring.star.term_pairs"] = counters.get("eulerring.star.term_pairs", 0) + len(a.terms) * len(b.terms)
    counters["eulerring.star.out_terms"] = counters.get("eulerring.star.out_terms", 0) + len(result.terms)


def _deg_minus_id(counters: dict, args: tuple, result) -> None:
    counters["eulerring.deg_minus_id.max_terms"] = max(
        counters.get("eulerring.deg_minus_id.max_terms", 0), len(result.terms))


def _newton(counters: dict, args: tuple, result) -> None:
    counters["corroborate.iterations"] = counters.get("corroborate.iterations", 0) + result.iterations


def _report_to_json(counters: dict, args: tuple, result) -> None:
    counters["problemfile.report_bytes"] = counters.get("problemfile.report_bytes", 0) + len(result.encode())


OBSERVERS = {
    "eulerring.star": _star,
    "eulerring.deg_minus_id": _deg_minus_id,
    "corroborate.newton_branch": _newton,
    "problemfile.report_to_json": _report_to_json,
}
# Distinct arguments are kept for these, to measure how much a memo could reuse;
# subgroups are keyed by their canonical annihilator basis, which hashes fast.
DISTINCT_ARGS = {
    "intlat.subgroup_intersect": lambda args: (
        args[0].ambient_rank, args[0].annihilator.basis, args[1].annihilator.basis),
}

MAX_COUNTERS = frozenset({"eulerring.deg_minus_id.max_terms"})


class _ThreadState:
    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.stack: list[list] = []  # [span id, busy seconds of wrapped callees]
        self.agg: dict[str, list[float]] = {}  # calls, wall, busy, self, process cpu
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.spans: list[tuple] = []


class Tracer:
    """Per-thread call aggregates and spans; merged by :meth:`collect`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._pool_parent: int | None = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def _wrap(self, key: str, fn):
        tracer = self
        observe = OBSERVERS.get(key)
        distinct = DISTINCT_ARGS.get(key)
        perf, busy_clock, proc_clock = time.perf_counter, time.thread_time, time.process_time

        if key in HOT:
            local = self._local

            def hot(*args, **kwargs):
                st = getattr(local, "st", None) or tracer._state()
                stack = st.stack
                frame = [None, 0.0]
                stack.append(frame)
                c0 = busy_clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    busy = busy_clock() - c0
                    stack.pop()
                    if stack:
                        stack[-1][1] += busy
                    agg = st.agg.get(key)
                    if agg is None:
                        agg = st.agg[key] = [0, 0.0, 0.0, 0.0, 0.0]
                    agg[0] += 1
                    agg[2] += busy
                    agg[3] += busy - frame[1]
                if distinct is not None:
                    st.distinct.setdefault(key, set()).add(distinct(args))
                if observe is not None:
                    observe(st.counters, args, result)
                return result

            return hot

        def spanned(*args, **kwargs):
            st = tracer._state()
            sid = next(tracer._ids)
            parent = st.stack[-1][0] if st.stack else tracer._pool_parent
            frame = [sid, 0.0]
            st.stack.append(frame)
            if key == POOL_PARENT:
                outer, tracer._pool_parent = tracer._pool_parent, sid
            w0 = perf()
            p0 = proc_clock()
            c0 = busy_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = busy_clock()
                p1 = proc_clock()
                w1 = perf()
                if key == POOL_PARENT:
                    tracer._pool_parent = outer
                st.stack.pop()
                busy = c1 - c0
                if st.stack:
                    st.stack[-1][1] += busy
                agg = st.agg.get(key)
                if agg is None:
                    agg = st.agg[key] = [0, 0.0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += w1 - w0
                agg[2] += busy
                agg[3] += busy - frame[1]
                agg[4] += p1 - p0
                st.spans.append((sid, parent, st.thread, key, w0, w1))
            if observe is not None:
                observe(st.counters, args, result)
            return result

        return spanned

    @contextmanager
    def installed(self):
        """Wrap every public torbif function for the duration of the block."""
        targets: dict[object, str] = {}
        for layer in LAYERS:
            module = sys.modules[f"torbif.{layer}"]
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and key not in UNWRAPPED):
                    targets[obj] = key
        wrappers = {fn: self._wrap(key, fn) for fn, key in targets.items()}
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "torbif" or n.startswith("torbif.")]
        patched: list[tuple[object, str, object]] = []
        try:
            for module in namespaces:
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, name, wrappers[obj])
                        patched.append((module, name, obj))
            yield self
        finally:
            for module, name, obj in reversed(patched):
                setattr(module, name, obj)

    def collect(self) -> dict:
        """Merge the per-thread records: aggregates, counters, distinct counts, spans."""
        agg: dict[str, list[float]] = {}
        counters: dict[str, int] = {}
        distinct: dict[str, set] = {}
        spans: list[tuple] = []
        for st in self._states:
            for key, vals in st.agg.items():
                acc = agg.setdefault(key, [0, 0.0, 0.0, 0.0, 0.0])
                for i, v in enumerate(vals):
                    acc[i] += v
            for key, v in st.counters.items():
                counters[key] = max(counters.get(key, 0), v) if key in MAX_COUNTERS else counters.get(key, 0) + v
            for key, s in st.distinct.items():
                distinct.setdefault(key, set()).update(s)
            spans.extend(st.spans)
        spans.sort()
        return {
            "agg": {k: {"calls": int(v[0]), "wall_s": v[1], "busy_s": v[2], "self_s": v[3], "cpu_s": v[4]}
                    for k, v in sorted(agg.items())},
            "counters": dict(sorted(counters.items())),
            "distinct": {k: len(s) for k, s in sorted(distinct.items())},
            "spans": spans,
        }
