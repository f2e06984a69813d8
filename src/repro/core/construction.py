"""Dependency-graph construction from CUPTI-like traces (paper Section 4.2).

Implements the five dependency types:

1. **CPU program order** — implicit via per-thread task lists.
2. **CUDA-stream order** — implicit via per-thread task lists.
3. **Correlation** — ``cudaLaunchKernel``/``cudaMemcpyAsync`` -> GPU task,
   via CUPTI correlation IDs.
4. **CUDA synchronization** — a synchronizing API depends on the last GPU
   task (per stream/channel) that completes before the API returns.  The
   *wait* portion of the API's measured duration is stripped, so simulation
   re-derives waiting from dependencies instead of replaying stale waits.
   Blocking DtoH copies are split into a launch part and a wait part.
5. **Communication** — an all-reduce waits for the gradients of its bucket;
   recovered from the bucket metadata the framework instrumentation records.

CPU *gaps* (non-CUDA runtime invisible to the profiler) are measured between
consecutive CPU tasks and attached to the preceding task (Section 4.2.1).
"""

from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.common.errors import TraceError
from repro.core.graph import DependencyGraph, collector_paused
from repro.core.task import Task, TaskKind
from repro.tracing.records import EventCategory, ExecutionThread, TraceEvent
from repro.tracing.trace import Trace

#: measured durations below this are treated as pure API overhead
_MIN_API_US = 1.0

_CATEGORY_TO_KIND = {
    EventCategory.RUNTIME: TaskKind.CPU,
    EventCategory.KERNEL: TaskKind.GPU_KERNEL,
    EventCategory.MEMCPY: TaskKind.MEMCPY,
    EventCategory.COMM: TaskKind.COMM,
    EventCategory.DATALOAD: TaskKind.DATALOAD,
}

_RUNTIME = EventCategory.RUNTIME
_DATALOAD = EventCategory.DATALOAD
_GPU_SIDE = (EventCategory.KERNEL, EventCategory.MEMCPY)


def build_graph(trace: Trace, map_layers: bool = True) -> DependencyGraph:
    """Construct the kernel-level dependency graph from a trace.

    Args:
        trace: a profiled iteration (must contain at least one non-marker
            event).
        map_layers: run the synchronization-free task-to-layer mapping
            (Section 4.3) after construction.

    Returns:
        A validated :class:`~repro.core.graph.DependencyGraph`.
    """
    events = [e for e in trace.events if e.category is not EventCategory.MARKER]
    if not events:
        raise TraceError("trace contains no executable events")
    with collector_paused():
        graph = _link_events(events)
        graph.validate()
        if map_layers:
            from repro.core.mapping import map_tasks_to_layers
            map_tasks_to_layers(graph, trace)
    return graph


def _link_events(events: List[TraceEvent]) -> DependencyGraph:
    """Tasks, thread order and every explicit edge for ``events``."""
    graph = DependencyGraph()
    per_thread: Dict[ExecutionThread, List[TraceEvent]] = {}
    for event in sorted(events, key=lambda e: (e.start_us, e.end_us)):
        per_thread.setdefault(event.thread, []).append(event)

    # primaries[thread][i]: the (first) task made for per_thread[thread][i]
    primaries: Dict[ExecutionThread, List[Task]] = {}
    launch_by_corr: Dict[int, Task] = {}   # correlation id -> CPU launch task
    gpu_by_corr: Dict[int, Task] = {}      # correlation id -> GPU task
    syncs: List[Tuple[float, Task]] = []   # (wait deadline, sync API task)
    dtoh_waits: List[Task] = []            # wait-halves of blocking DtoH APIs
    producers: Dict[object, Task] = {}     # batch -> data-loading task
    consumers: List[Tuple[object, Task]] = []  # (batch, uploading task)
    has_comm = False

    # one pass per thread: classify each event once, build its task(s)
    # without the write barrier, then link the whole thread in bulk
    fresh = Task._fresh
    cpu = TaskKind.CPU
    kind_of = _CATEGORY_TO_KIND
    for thread in sorted(per_thread):
        thread_events = per_thread[thread]
        next_starts: List[Optional[float]] = [
            e.start_us for e in thread_events[1:]]
        next_starts.append(None)
        tasks: List[Task] = []
        prim: List[Task] = []
        for event, next_start in zip(thread_events, next_starts):
            category = event.category
            start = event.start_us
            end = start + event.duration_us
            corr = event.correlation_id
            meta = event.metadata
            gap = 0.0
            if (next_start is not None
                    and (category is _RUNTIME or category is _DATALOAD)):
                # CPU time the profiler cannot see, up to the next task
                gap = next_start - end
                if not gap > 0.0:
                    gap = 0.0
            if category is _RUNTIME:
                name = event.name
                sync = "Synchronize" in name
                if "DtoH" in name:
                    # blocking DtoH: a short launch API, then a wait task
                    # gated by the copy
                    task = fresh(name, cpu, event.thread, _MIN_API_US * 5,
                                 0.0, corr, 0.0, start,
                                 {"oracle_layer": event.layer,
                                  "split": "launch"})
                    wait = fresh(f"{name}#wait", cpu, event.thread,
                                 _MIN_API_US, gap, corr, 0.0, start,
                                 {"split": "wait"})
                    tasks.append(task)
                    tasks.append(wait)
                    dtoh_waits.append(wait)
                    meta = None  # the split halves drop the event metadata
                else:
                    # a sync API's measured wait is stripped; simulation
                    # re-derives it from the gating edges
                    task = fresh(name, cpu, event.thread,
                                 _MIN_API_US * 4 if sync else event.duration_us,
                                 gap, corr, event.size_bytes, start,
                                 {"oracle_layer": event.layer,
                                  "oracle_phase": event.phase, **meta})
                    tasks.append(task)
                if sync:
                    syncs.append((end + 1e-6, task))
                if corr is not None:
                    launch_by_corr[corr] = task
            else:
                task = fresh(event.name, kind_of[category], event.thread,
                             event.duration_us, gap, corr, event.size_bytes,
                             start, {"oracle_layer": event.layer,
                                     "oracle_phase": event.phase, **meta})
                tasks.append(task)
                if category in _GPU_SIDE:
                    if corr is not None:
                        gpu_by_corr[corr] = task
                elif category is _DATALOAD:
                    batch = meta.get("produces_batch")
                    if batch is not None:
                        producers[batch] = task
                else:
                    has_comm = True
            prim.append(task)
            if meta:
                batch = meta.get("consumes_batch")
                if batch is not None:
                    consumers.append((batch, task))
        graph.extend(thread, tasks)
        primaries[thread] = prim

    # dependency type 3: correlation edges
    for corr, gpu_task in gpu_by_corr.items():
        launch = launch_by_corr.get(corr)
        if launch is None:
            raise TraceError(f"GPU task with correlation {corr} has no launch API")
        graph.add_dependency(launch, gpu_task)
        launch.metadata["launches"] = gpu_task
        gpu_task.metadata["launched_by"] = launch

    # dependency type 4: synchronization edges
    if syncs:
        _add_sync_dependencies(graph, syncs, per_thread, primaries)
    # blocking DtoH: the wait half depends on its memory copy
    for wait_task in dtoh_waits:
        corr = wait_task.correlation_id
        gpu_task = gpu_by_corr.get(corr) if corr is not None else None
        if gpu_task is not None:
            graph.add_dependency(gpu_task, wait_task)

    # dependency type 5: communication edges (ground-truth distributed traces)
    if has_comm:
        _add_comm_dependencies(graph, per_thread, primaries)

    # data-loading edges: the input upload waits for the loader worker's
    # batch hand-off (framework instrumentation: produces/consumes markers)
    if producers and consumers:
        _add_dataload_dependencies(graph, producers, consumers)
    return graph


# --------------------------------------------------------------------- helpers

def _add_sync_dependencies(
    graph: DependencyGraph,
    syncs: List[Tuple[float, Task]],
    per_thread: Dict[ExecutionThread, List[TraceEvent]],
    primaries: Dict[ExecutionThread, List[Task]],
) -> None:
    """Gate each synchronization API on the GPU/comm tasks it waited for.

    For each GPU stream and communication channel: the task before the
    first one (in thread order) that ends after the API returns.  Found by
    bisecting the running maximum of the thread's end times, which is
    non-decreasing even where end times are not.  O(S x T log N).
    """
    gates = [
        (list(accumulate([e.start_us + e.duration_us for e in events], max)),
         primaries[thread])
        for thread, events in per_thread.items() if not thread.is_cpu
    ]
    for deadline, sync_task in syncs:
        for ends, prim in gates:
            k = bisect_right(ends, deadline)
            if k and prim[k - 1] is not sync_task:
                graph.add_dependency(prim[k - 1], sync_task)


def _add_dataload_dependencies(
    graph: DependencyGraph,
    producers: Dict[object, Task],
    consumers: List[Tuple[object, Task]],
) -> None:
    """Wire data-loading tasks to the uploads that consume their batches.

    The loader worker runs on its own CPU thread; the control thread's
    ``cudaMemcpyAsync`` for a mini-batch cannot be issued before the worker
    produced it.  Batches are matched by the ``produces_batch`` /
    ``consumes_batch`` instrumentation metadata.
    """
    for batch, task in consumers:
        producer = producers.get(batch)
        if producer is None:
            continue
        launch = task.metadata.get("launched_by")
        target = launch if isinstance(launch, Task) else task
        if producer is not target:
            graph.add_dependency(producer, target)


def _add_comm_dependencies(
    graph: DependencyGraph,
    per_thread: Dict[ExecutionThread, List[TraceEvent]],
    primaries: Dict[ExecutionThread, List[Task]],
) -> None:
    """Wire all-reduce tasks to the GPU task that made their bucket ready.

    Uses the wait-free-backprop semantics: a bucket's all-reduce may start
    once the backward kernels of its trigger layer finish.  The trigger GPU
    task is the last GPU task ending at or before the primitive's observed
    start, found by bisecting all GPU tasks stably sorted by end time.
    """
    comm: List[Tuple[TraceEvent, Task]] = []
    gpu: List[Tuple[float, Task]] = []
    for thread, events in per_thread.items():
        for event, task in zip(events, primaries[thread]):
            if event.category is EventCategory.COMM:
                comm.append((event, task))
            elif event.category in _GPU_SIDE:
                gpu.append((event.start_us + event.duration_us, task))
    gpu.sort(key=itemgetter(0))
    ends = [end for end, _ in gpu]
    for event, task in comm:
        k = bisect_right(ends, event.start_us + 1e-6)
        if k:
            graph.add_dependency(gpu[k - 1][1], task)
