"""Span tracer for the benchmark's traced runs.

The tracer wraps the simulator's public entry points from outside: it
swaps a module or class attribute for a timing wrapper on ``install()``
and puts the original object back on ``restore()``.  No source under
``src/`` changes, and nothing here sets ``GpuConfig.telemetry`` or
passes a host profiler, so a traced run takes exactly the code path of
an untraced one (``ReplayExecutionUnit.step`` falls back to the generic
issue loop when an observer is attached).

Each wrapper records a span: name, ``perf_counter_ns`` start and end,
parent span and job id.  Coarse entry points (one call per launch or per
job) keep one record per call.  The hot ones -- ``ReplayExecutionUnit.step``,
``_compute_event_floor``, ``MemoryHierarchy.access`` and
``Launch.dispatch``, called up to millions of times per pass -- are folded
into one aggregate span per (name, parent span) holding the call count,
total and self time; a record per call would need gigabytes.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> (owner import path, attribute, hot).  ``owner`` is a
#: module or a class; ``hot`` spans are aggregated per parent span.
WRAPPED: Tuple[Tuple[str, str, str, bool], ...] = (
    ("eu.batch", "repro.eu.batch", "run_functional", False),
    ("eu.replay.stats", "repro.eu.replay", "record_trace_stats", False),
    ("eu.replay.step", "repro.eu.replay:ReplayExecutionUnit", "step", True),
    ("eu.floor", "repro.eu.replay:ReplayExecutionUnit",
     "_compute_event_floor", True),
    ("memory.access", "repro.memory.hierarchy:MemoryHierarchy", "access",
     True),
    ("gpu.dispatch", "repro.gpu.dispatch:Launch", "dispatch", True),
    ("gpu.simulator", "repro.gpu.simulator:GpuSimulator", "run", False),
    ("kernels.check", "repro.kernels.workload:Workload", "verify", False),
    ("runner", "repro.runner:Runner", "run", False),
    ("runner.cache_load", "repro.runner:ResultCache", "load", False),
    ("runner.cache_store", "repro.runner:ResultCache", "store", False),
)

#: Name of the span wrapping every workload factory call.
BUILD = "kernels.build"


def _resolve(path: str) -> Any:
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Install span wrappers around the layers' entry points.

    Use as a context manager, or call :meth:`install` and
    :meth:`restore`.  Spans nest through one stack, so the tracer
    supports a single thread: the traced runs simulate in-process.
    """

    def __init__(self) -> None:
        #: Coarse span records: (id, name, parent id, job, start, end).
        self.spans: List[Tuple[int, str, int, str, int, int]] = []
        #: Per-layer totals: name -> [calls, total_ns, self_ns].
        self.totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: Hot spans folded per parent: (name, parent id, parent name)
        #: -> same triple.  A hot parent has id 0.
        self.folded: Dict[Tuple[str, int, str], List[int]] = defaultdict(
            lambda: [0, 0, 0])
        #: Trace entries returned by the functional pass.
        self.batch_entries = 0
        #: ResultCache.load calls that found no entry.
        self.cache_misses = 0
        #: Job id stamped on spans opened from now on.
        self.job = ""
        # Stack frames: [span id, child ns, name].  Frame 0 is the root.
        self._stack: List[list] = [[0, 0, ""]]
        self._next_id = 1
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping --------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        stack = self._stack
        totals = self.totals[name]
        now = time.perf_counter_ns

        if hot:
            folded = self.folded

            def hot_wrapper(*args, **kwargs):
                frame = [0, 0, name]
                stack.append(frame)
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = now() - start
                    stack.pop()
                    parent = stack[-1]
                    parent[1] += duration
                    own = duration - frame[1]
                    totals[0] += 1
                    totals[1] += duration
                    totals[2] += own
                    agg = folded[(name, parent[0], parent[2])]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += own

            return hot_wrapper

        spans = self.spans
        tracer = self

        # Cache spans carry the runner job key they load or store.
        keyed = name.startswith("runner.cache_")

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0, name]
            parent_id = stack[-1][0]
            job = args[1].key if keyed else tracer.job
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                spans.append((span_id, name, parent_id, job, start, end))
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, result: Any) -> None:
        if name == "eu.batch":
            self.batch_entries += sum(len(trace) for trace in result)
        elif name == "runner.cache_load" and result is None:
            self.cache_misses += 1

    def span(self, name: str, job: Optional[str] = None) -> "_Span":
        """A span the benchmark opens itself (a job, a pass)."""
        return _Span(self, name, job)

    # -- install / restore -------------------------------------------------

    def _swap(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import repro.kernels as kernels

        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, path, attr, hot in WRAPPED:
            owner = _resolve(path)
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._swap(owner, attr, self._wrap(name, original, hot))
        build = self._wrap(BUILD, lambda factory, **kw: factory(**kw),
                           False)

        stack = self._stack
        runs = defaultdict(int)

        def wrap_factory(factory: Callable, workload: str) -> Callable:
            def traced_factory(**params):
                if stack[-1][2] == "runner":
                    # Runner-driven builds start a new job of the batch.
                    runs[workload] += 1
                    self.job = f"{workload}#{runs[workload]}"
                return build(factory, **params)

            return traced_factory

        registry = kernels.WORKLOAD_REGISTRY
        for name, factory in list(dict.items(registry)):
            self._saved.append((registry, name, factory))
            dict.__setitem__(registry, name, wrap_factory(factory, name))
        # Generated stress_* names resolve through this module function.
        dynamic = kernels.dynamic_factory

        def traced_dynamic(name: str):
            factory = dynamic(name)
            return None if factory is None else wrap_factory(factory, name)

        self._swap(kernels, "dynamic_factory", traced_dynamic)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                dict.__setitem__(owner, attr, original)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def seconds(self, name: str, own: bool = False) -> float:
        """Total (or self, with *own*) seconds spent in layer *name*."""
        return self.totals[name][2 if own else 1] / 1e9 \
            if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def dump(self, path) -> None:
        """Write every span (coarse and folded) as JSON."""
        body = {
            "spans": [dict(id=s[0], name=s[1], parent=s[2], job=s[3],
                           start_ns=s[4], end_ns=s[5]) for s in self.spans],
            "folded": [dict(name=name, parent=parent, parent_name=pname,
                            calls=v[0], total_ns=v[1], self_ns=v[2])
                       for (name, parent, pname), v
                       in sorted(self.folded.items())],
            "totals": {name: dict(calls=v[0], total_ns=v[1], self_ns=v[2])
                       for name, v in sorted(self.totals.items())},
        }
        with open(path, "w") as fh:
            json.dump(body, fh)


class _Span:
    """Context manager for a benchmark-opened span (never hot)."""

    def __init__(self, tracer: Tracer, name: str, job: Optional[str]):
        self.tracer = tracer
        self.name = name
        self.job = job

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        if self.job is not None:
            tracer.job = self.job
        self.id = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._stack[-1][0]
        self.frame = [self.id, 0, self.name]
        tracer._stack.append(self.frame)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = time.perf_counter_ns()
        tracer._stack.pop()
        duration = end - self.start
        tracer._stack[-1][1] += duration
        totals = tracer.totals[self.name]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - self.frame[1]
        tracer.spans.append((self.id, self.name, self.parent, tracer.job,
                             self.start, end))
