"""In-memory spans around the program's layer boundaries, from outside it.

:func:`install` wraps the public function of each layer (model build,
engine profile, graph construction, overlay, transform, lowering,
simulate, store, lease, service, batch) in place, so every caller in the
process — and in processes forked from it — records one span per call.
Nothing under ``src/`` changes, and an untraced run never calls
:func:`install`, so it runs the program exactly as shipped.

A :class:`Span` is timed on the system-wide monotonic clock, so spans of
the benchmark, its forked sweep workers and the daemon line up on one
timeline.  All spans of one question share the ``request`` id of its
outermost span; ``n`` is a per-call count (events profiled, tasks built
or simulated, store hits, cells computed).

The benchmark process keeps its spans in memory.  A forked worker starts
with an empty buffer and appends its spans to ``spans-<pid>.jsonl`` in
the trace directory whenever its outermost span ends; the daemon writes
its buffer there when it shuts down.  :func:`chrome_trace` merges them in
``repro.tracing.export``'s Chrome trace-event shape, which Perfetto opens.
"""

import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Span(NamedTuple):
    """One call of a wrapped layer function."""

    name: str
    start: int                 # perf_counter_ns, system-wide monotonic
    end: int
    pid: int
    tid: int
    id: int                    # unique within pid
    parent: Optional[int]      # enclosing span of the same thread
    request: int               # id of the outermost span
    n: Optional[int]           # per-call count, when the layer has one


class Tracer:
    """Span buffer shared by every wrapper :func:`install` creates."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a forked worker must not re-report its parent's spans, and the
        # fork may have happened inside a span (run_batch): start clean
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._forked = True

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``count(result)`` gives n."""
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            request = parent[1] if parent else span_id
            stack.append((span_id, request))
            start = time.perf_counter_ns()
            n = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = Span(name, start, end, os.getpid(),
                            threading.get_ident(), span_id,
                            parent[0] if parent else None, request, n)
                with tracer._lock:
                    tracer.spans.append(span)
                if tracer._forked and not stack:
                    tracer.flush()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def flush(self) -> None:
        """Append buffered spans to this process's file and clear them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")


def load_spans(out_dir: str) -> List[Span]:
    """Spans other processes flushed into ``out_dir``."""
    spans: List[Span] = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as f:
                spans.extend(Span(*json.loads(line)) for line in f if line)
    return spans


# --------------------------------------------------------------- targets

def _len(result) -> int:
    return len(result)


def _events(trace) -> int:
    return len(trace.events)


def _hit(values) -> int:
    return int(values is not None)


def _computed(report) -> int:
    return report.computed


#: (span name, module, attribute path, count) for every wrapped layer
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("models.registry.build_model", "repro.models.registry",
     "build_model", None),
    ("framework.engine.run_iteration", "repro.framework.engine",
     "Engine.run_iteration", _events),
    ("core.construction.build_graph", "repro.core.construction",
     "build_graph", _len),
    ("core.graph.overlay", "repro.core.graph",
     "DependencyGraph.overlay", None),
    ("core.graph.copy", "repro.core.graph", "DependencyGraph.copy", None),
    ("optimizations.apply", "repro.scenarios.pipeline",
     "OptimizationPipeline.apply", None),
    ("core.compiled.build", "repro.core.compiled",
     "CompiledGraph.build", None),
    ("core.compiled.simulate_many", "repro.core.compiled",
     "simulate_many", _len),
    ("core.simulate.simulate", "repro.core.simulate", "simulate",
     lambda result: len(result.start_us)),
    ("analysis.session.predict", "repro.analysis.session",
     "WhatIfSession.predict", None),
    ("scenarios.runner.run", "repro.scenarios.runner",
     "ScenarioRunner.run", None),
    ("scenarios.scenario.build_model", "repro.scenarios.scenario",
     "Scenario.build_model", None),
    ("scenarios.scenario.build_pipeline", "repro.scenarios.scenario",
     "Scenario.build_pipeline", None),
    ("scenarios.store.get", "repro.scenarios.store", "SweepStore.get", _hit),
    ("scenarios.store.put", "repro.scenarios.store", "SweepStore.put", None),
    ("scenarios.service.predict", "repro.scenarios.service",
     "PredictService.predict", None),
    ("scenarios.service.checkout", "repro.scenarios.service",
     "SessionPool.checkout", None),
    ("scenarios.backends.lease.try_acquire", "repro.scenarios.backends",
     "FileLease.try_acquire", None),
    ("scenarios.batch.run_batch", "repro.scenarios.batch", "run_batch",
     _computed),
)


def _patch_function(module, attr: str, wrapped: Callable,
                    original: Callable) -> None:
    """Replace ``original`` in its module and every module that imported
    it by name (``from x import f`` binds a second reference)."""
    setattr(module, attr, wrapped)
    for other in list(sys.modules.values()):
        namespace = getattr(other, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(other, key, wrapped)


def _patch_method(cls, attr: str, tracer: Tracer, name: str,
                  count: Optional[Callable]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__,
                                                   count)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, count))


def _optimization_classes() -> Dict[type, str]:
    """Registry key of every shipped optimization model class."""
    from repro.scenarios.registry import DEFAULT_REGISTRY
    return {type(spec.create({})): spec.key
            for spec in DEFAULT_REGISTRY.specs()}


def _wrap_optimizations(tracer: Tracer) -> None:
    """Per-optimization ``apply`` spans, named by registry key.

    An ``apply`` a subclass inherits (P3 from the parameter server) is
    wrapped once, on the defining class, and names the span after the
    class of the instance it runs on.
    """
    keys = _optimization_classes()
    owner = {cls: next(k for k in cls.__mro__ if "apply" in k.__dict__)
             for cls in keys}
    for klass in set(owner.values()):
        apply = klass.__dict__["apply"]
        per_key = {key: tracer.wrap(f"optimizations.apply.{key}", apply)
                   for cls, key in keys.items() if owner[cls] is klass}

        def dispatch(self, graph, context, _per_key=per_key, _apply=apply):
            traced = _per_key.get(keys.get(type(self)))
            if traced is None:
                return _apply(self, graph, context)
            return traced(self, graph, context)

        klass.apply = dispatch


def install(tracer: Tracer) -> List[str]:
    """Wrap every layer in :data:`TARGETS`; returns the names not found.

    A layer a later version of the program drops or renames is skipped
    (its per-layer metrics then read zero) rather than failing the run.
    """
    missing = []
    for name, module_name, path, count in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(name)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in getattr(owner, "__dict__", {}):
            missing.append(name)
            continue
        if owner is module:
            original = getattr(module, attr)
            _patch_function(module, attr,
                            tracer.wrap(name, original, count), original)
        else:
            _patch_method(owner, attr, tracer, name, count)
    _wrap_optimizations(tracer)
    return missing


# ------------------------------------------------------------- reporting

def chrome_trace(spans: Sequence[Span], origin_ns: int,
                 metadata: Dict[str, object]) -> str:
    """Chrome trace-event JSON of spans (``ts``/``dur`` in microseconds)."""
    events: List[Dict[str, object]] = []
    lanes = set()
    for s in spans:
        args: Dict[str, object] = {"id": s.id, "request": s.request}
        if s.parent is not None:
            args["parent"] = s.parent
        if s.n is not None:
            args["n"] = s.n
        events.append({
            "name": s.name,
            "cat": s.name.rsplit(".", 1)[0],
            "ph": "X",
            "ts": (s.start - origin_ns) / 1000.0,
            "dur": (s.end - s.start) / 1000.0,
            "pid": s.pid,
            "tid": s.tid,
            "args": args,
        })
        lanes.add((s.pid, s.tid))
    for pid, tid in sorted(lanes):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": f"thread {tid}"}})
    for pid in sorted({pid for pid, _ in lanes}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"pid {pid}"}})
    return json.dumps({"traceEvents": events, "metadata": metadata})


def self_times(spans: Iterable[Span]) -> Dict[Tuple[int, int], int]:
    """Self time (ns) of each span: its duration minus its children's."""
    spans = list(spans)
    own = {(s.pid, s.id): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and (s.pid, s.parent) in own:
            own[(s.pid, s.parent)] -= s.end - s.start
    return own
