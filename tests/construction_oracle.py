"""Reference dependency-graph construction: the straightforward per-event path.

This is the construction path the bulk builder in
:mod:`repro.core.construction` replaced, kept verbatim in spirit as a slow
oracle for differential tests and for the construction perf gate:

* every task goes through the dataclass ``Task(...)`` constructor, so each
  field write passes the copy-on-write / lowering write barrier;
* tasks are linked one at a time with ``DependencyGraph.append``;
* synchronization gates and communication triggers are found by linear
  scans over every GPU/comm event;
* validation is the unfused three-pass check (positions, then edge
  direction, then a list-building topological sort);
* layer mapping writes ``layer``/``phase`` through the write barrier.

Nothing here is imported by the package; only tests and benchmarks use it.
"""

import math
from typing import Dict, Iterable, List, Optional

from repro.common.errors import GraphConsistencyError, TraceError
from repro.core.graph import DependencyGraph
from repro.core.mapping import _marker_windows
from repro.core.simulate import simulate
from repro.core.task import Task, TaskKind
from repro.tracing.records import EventCategory, ExecutionThread, TraceEvent
from repro.tracing.trace import Trace

_MIN_API_US = 1.0

_CATEGORY_TO_KIND = {
    EventCategory.RUNTIME: TaskKind.CPU,
    EventCategory.KERNEL: TaskKind.GPU_KERNEL,
    EventCategory.MEMCPY: TaskKind.MEMCPY,
    EventCategory.COMM: TaskKind.COMM,
    EventCategory.DATALOAD: TaskKind.DATALOAD,
}


def oracle_build_graph(trace: Trace, map_layers: bool = True) -> DependencyGraph:
    """Construct the dependency graph the slow, obviously-correct way."""
    events = [e for e in trace.events if e.category is not EventCategory.MARKER]
    if not events:
        raise TraceError("trace contains no executable events")

    graph = DependencyGraph()
    per_thread: Dict[ExecutionThread, List[TraceEvent]] = {}
    for event in sorted(events, key=lambda e: (e.start_us, e.end_us)):
        per_thread.setdefault(event.thread, []).append(event)

    task_of: Dict[int, Task] = {}
    launch_by_corr: Dict[int, Task] = {}
    gpu_by_corr: Dict[int, Task] = {}
    sync_events: List[TraceEvent] = []
    dtoh_waits: List[Task] = []

    for thread in sorted(per_thread):
        thread_events = per_thread[thread]
        for i, event in enumerate(thread_events):
            next_start = (thread_events[i + 1].start_us
                          if i + 1 < len(thread_events) else event.end_us)
            created = _make_tasks(event, next_start)
            for task in created:
                graph.append(task)
            task_of[id(event)] = created[0]
            primary = created[0]
            if event.correlation_id is not None:
                if event.category is EventCategory.RUNTIME:
                    launch_by_corr[event.correlation_id] = primary
                elif event.is_gpu_side:
                    gpu_by_corr[event.correlation_id] = primary
            if _is_sync_api(event):
                sync_events.append(event)
            if len(created) == 2:
                dtoh_waits.append(created[1])

    for corr, gpu_task in gpu_by_corr.items():
        launch = launch_by_corr.get(corr)
        if launch is None:
            raise TraceError(f"GPU task with correlation {corr} has no launch API")
        graph.add_dependency(launch, gpu_task)
        launch.metadata["launches"] = gpu_task
        gpu_task.metadata["launched_by"] = launch

    for event in sync_events:
        sync_task = task_of[id(event)]
        for gate in _gating_tasks(event, per_thread, task_of):
            if gate is not sync_task:
                graph.add_dependency(gate, sync_task)
    for wait_task in dtoh_waits:
        corr = wait_task.correlation_id
        gpu_task = gpu_by_corr.get(corr) if corr is not None else None
        if gpu_task is not None:
            graph.add_dependency(gpu_task, wait_task)

    _add_comm_dependencies(graph, per_thread, task_of)
    _add_dataload_dependencies(graph)

    oracle_validate(graph)
    if map_layers:
        oracle_map_tasks_to_layers(graph, trace)
    return graph


def _make_tasks(event: TraceEvent, next_start_us: float) -> List[Task]:
    kind = _CATEGORY_TO_KIND[event.category]
    gap = 0.0
    if kind in (TaskKind.CPU, TaskKind.DATALOAD):
        gap = max(0.0, next_start_us - event.end_us)

    if event.category is EventCategory.RUNTIME and "DtoH" in event.name:
        launch = Task(
            name=event.name, kind=TaskKind.CPU, thread=event.thread,
            duration=_MIN_API_US * 5, gap=0.0,
            correlation_id=event.correlation_id,
            trace_start_us=event.start_us,
            metadata={"oracle_layer": event.layer, "split": "launch"},
        )
        wait = Task(
            name=f"{event.name}#wait", kind=TaskKind.CPU, thread=event.thread,
            duration=_MIN_API_US, gap=gap,
            correlation_id=event.correlation_id,
            trace_start_us=event.start_us,
            metadata={"split": "wait"},
        )
        return [launch, wait]

    duration = event.duration_us
    if _is_sync_api(event):
        duration = _MIN_API_US * 4
    task = Task(
        name=event.name, kind=kind, thread=event.thread,
        duration=duration, gap=gap,
        correlation_id=event.correlation_id,
        size_bytes=event.size_bytes,
        trace_start_us=event.start_us,
        metadata={"oracle_layer": event.layer, "oracle_phase": event.phase,
                  **event.metadata},
    )
    return [task]


def _is_sync_api(event: TraceEvent) -> bool:
    return (event.category is EventCategory.RUNTIME
            and "Synchronize" in event.name)


def _gating_tasks(sync_event, per_thread, task_of) -> List[Task]:
    gates: List[Task] = []
    deadline = sync_event.end_us + 1e-6
    for thread, events in per_thread.items():
        if thread.is_cpu:
            continue
        last: Optional[TraceEvent] = None
        for event in events:
            if event.end_us <= deadline:
                last = event
            else:
                break
        if last is not None:
            gates.append(task_of[id(last)])
    return gates


def _add_dataload_dependencies(graph: DependencyGraph) -> None:
    producers: Dict[object, Task] = {}
    for task in graph.tasks():
        batch = task.metadata.get("produces_batch")
        if batch is not None and task.kind is TaskKind.DATALOAD:
            producers[batch] = task
    if not producers:
        return
    for task in graph.tasks():
        batch = task.metadata.get("consumes_batch")
        if batch is None:
            continue
        producer = producers.get(batch)
        if producer is None:
            continue
        launch = task.metadata.get("launched_by")
        target = launch if isinstance(launch, Task) else task
        if producer is not target:
            graph.add_dependency(producer, target)


def _add_comm_dependencies(graph, per_thread, task_of) -> None:
    comm_events = [e for events in per_thread.values() for e in events
                   if e.category is EventCategory.COMM]
    if not comm_events:
        return
    gpu_events = sorted(
        (e for events in per_thread.values() for e in events if e.is_gpu_side),
        key=lambda e: e.end_us,
    )
    for comm in comm_events:
        trigger: Optional[TraceEvent] = None
        for event in gpu_events:
            if event.end_us <= comm.start_us + 1e-6:
                trigger = event
            else:
                break
        if trigger is not None:
            graph.add_dependency(task_of[id(trigger)], task_of[id(comm)])


# ------------------------------------------------------------------ validate

def oracle_validate(graph: DependencyGraph) -> None:
    """The unfused invariant check: links, then edge direction, then cycles."""
    position: Dict[Task, int] = {}
    for thread, head in graph._heads.items():
        prev = None
        count = 0
        task = head
        while task is not None:
            if graph._prev[task] is not prev:
                raise GraphConsistencyError(
                    f"broken prev link at {task!r} on {thread}"
                )
            if task.thread != thread:
                raise GraphConsistencyError(
                    f"{task!r} linked on {thread} but claims {task.thread}"
                )
            position[task] = count
            count += 1
            prev = task
            task = graph._next[task]
        if graph._tails[thread] is not prev:
            raise GraphConsistencyError(f"broken tail link on {thread}")
        if graph._counts[thread] != count:
            raise GraphConsistencyError(
                f"count mismatch on {thread}: "
                f"{graph._counts[thread]} recorded, {count} linked"
            )
    if len(position) != len(graph._succ):
        raise GraphConsistencyError(
            f"{len(graph._succ)} tasks in adjacency but "
            f"{len(position)} linked in thread order"
        )
    for src, dsts in graph._succ.items():
        for dst in dsts:
            if src.thread == dst.thread and graph.is_ordered(src.thread):
                if position[src] >= position[dst]:
                    raise GraphConsistencyError(
                        f"edge {src!r} -> {dst!r} contradicts thread order"
                    )
    _topological_order(graph)


def _topological_order(graph: DependencyGraph) -> List[Task]:
    indeg: Dict[Task, int] = {}
    for thread in graph._heads:
        ordered = graph.is_ordered(thread)
        first = True
        for task in graph.iter_tasks_on(thread):
            indeg[task] = len(graph._pred[task]) + (
                0 if first or not ordered else 1)
            first = False
    ready = [t for t, d in indeg.items() if d == 0]
    order: List[Task] = []
    while ready:
        task = ready.pop()
        order.append(task)
        children: Iterable[Task] = graph._succ[task]
        if graph.is_ordered(task.thread):
            nxt = graph._next[task]
            if nxt is not None:
                children = list(children) + [nxt]
        for child in children:
            indeg[child] -= 1
            if indeg[child] == 0:
                ready.append(child)
    if len(order) != len(graph):
        raise GraphConsistencyError(
            f"dependency cycle: only {len(order)} of {len(graph)} tasks "
            "are reachable"
        )
    return order


# ------------------------------------------------------------------- mapping

def oracle_map_tasks_to_layers(graph: DependencyGraph, trace: Trace) -> int:
    """Layer mapping with every write going through the write barrier."""
    windows = _marker_windows(trace)
    if not windows:
        return 0
    mapped = 0
    for thread in graph.threads():
        if not thread.is_cpu:
            continue
        thread_windows = windows.get(thread.index, [])
        if not thread_windows:
            continue
        idx = 0
        for task in graph.iter_tasks_on(thread):
            start = task.trace_start_us
            while (idx < len(thread_windows)
                   and thread_windows[idx][1] <= start):
                idx += 1
            if idx >= len(thread_windows):
                break
            win_start, win_end, layer, phase = thread_windows[idx]
            if not win_start <= start < win_end:
                continue
            if task.layer is None:
                task.layer = layer
                task.phase = phase
                mapped += 1
            launched = task.metadata.get("launches")
            if isinstance(launched, Task) and launched.layer is None:
                launched.layer = layer
                launched.phase = phase
                mapped += 1
    return mapped


# ---------------------------------------------------------------- comparison

_FIELDS = ("name", "kind", "thread", "duration", "gap", "layer", "phase",
           "correlation_id", "size_bytes", "priority", "trace_start_us")


def _same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def assert_same_graph(new, ref, allow_seals: bool = False) -> None:
    """``new`` and ``ref`` are the same graph, task for task.

    ``allow_seals`` accepts the seal an overlay (``_cow_base``) leaves on
    ``new``'s tasks, as on the base graph of a session that has answered
    questions.
    """
    extra = {"metadata", "_cow_base"} if allow_seals else None
    assert new.threads() == ref.threads()
    assert new._unordered == ref._unordered
    twin = {}
    for thread in ref.threads():
        ours, theirs = new.tasks_on(thread), ref.tasks_on(thread)
        assert len(ours) == len(theirs), thread
        twin.update(zip(ours, theirs))
    assert len(twin) == len(new) == len(ref)
    for task, other in twin.items():
        assert type(task) is Task
        for name in _FIELDS:
            assert _same_value(getattr(task, name), getattr(other, name)), (
                name, task, other)
        assert list(task.metadata) == list(other.metadata), task
        for key, value in task.metadata.items():
            expected = other.metadata[key]
            if isinstance(value, Task):
                assert twin[value] is expected, (key, task)
            else:
                assert _same_value(value, expected), (key, task)
        if extra is None:
            assert (set(vars(task)) - set(_FIELDS)) == {"metadata"}, task
        else:
            assert "metadata" in vars(task), task
            assert (set(vars(task)) - set(_FIELDS)) <= extra, task
    edges = {(twin[s], twin[d]) for s, ds in new._succ.items() for d in ds}
    ref_edges = {(s, d) for s, ds in ref._succ.items() for d in ds}
    assert edges == ref_edges
    back = {(twin[s], twin[d]) for d, ss in new._pred.items() for s in ss}
    assert back == ref_edges
    ours = simulate(new)
    theirs = simulate(ref)
    assert ours.makespan_us == theirs.makespan_us
    for task, other in twin.items():
        assert _same_value(ours.start_us[task], theirs.start_us[other])
