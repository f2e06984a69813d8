"""Synchronization-free task-to-layer mapping (paper Section 4.3).

The framework instrumentation records a timestamp window ``C_L`` around each
layer phase on the CPU (the *markers* in our traces).  Mapping works without
any added CUDA synchronization:

1. every CPU task whose start falls inside a layer's CPU window belongs to
   that layer/phase;
2. every GPU task whose *launch API* falls inside the window belongs to the
   same layer/phase, found through the CUPTI correlation ID.

This is exactly Figure 3 of the paper: GPU kernels are attributed by the
CUDA launch calls invoked during ``C_L``, never by their own (asynchronous,
possibly much later) execution timestamps.
"""

from typing import Dict, List, Optional, Tuple

from repro.common.errors import MappingError
from repro.core.graph import DependencyGraph
from repro.core.task import Task
from repro.tracing.records import EventCategory
from repro.tracing.trace import Trace


def map_tasks_to_layers(graph: DependencyGraph, trace: Trace) -> int:
    """Fill ``task.layer``/``task.phase`` from the trace's layer markers.

    Returns:
        The number of tasks that received a layer assignment.

    Raises:
        MappingError: if marker windows overlap on the same CPU thread
            (instrumentation bug) — ambiguity would corrupt the mapping.
    """
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
            mapped += _assign(task, layer, phase)
    return mapped


def _assign(task: Task, layer: str, phase: Optional[str]) -> int:
    """Assign layer/phase to a CPU task and its correlated GPU task."""
    count = 0
    if task.layer is None:
        _write(task, layer, phase)
        count += 1
    launched = task.metadata.get("launches")
    if isinstance(launched, Task) and launched.layer is None:
        _write(launched, layer, phase)
        count += 1
    return count


def _write(task: Task, layer: str, phase: Optional[str]) -> None:
    """Set ``layer``/``phase``, through the write barrier only if armed.

    A task sealed by an overlay (``_cow_base``) must be written through
    ``Task.__setattr__`` so the overlay journals it for undo.  Any other
    task — every task of a freshly built graph — is written directly.
    """
    d = task.__dict__
    if "_cow_base" in d:
        task.layer = layer
        task.phase = phase
    else:
        d["layer"] = layer
        d["phase"] = phase


def _marker_windows(
    trace: Trace,
) -> Dict[int, List[Tuple[float, float, str, Optional[str]]]]:
    """Per-CPU-thread sorted, non-overlapping marker windows."""
    windows: Dict[int, List[Tuple[float, float, str, Optional[str]]]] = {}
    for marker in trace.by_category(EventCategory.MARKER):
        if marker.layer is None:
            raise MappingError(f"marker {marker.name!r} lacks a layer name")
        windows.setdefault(marker.thread.index, []).append(
            (marker.start_us, marker.end_us, marker.layer, marker.phase)
        )
    for thread_index, wins in windows.items():
        wins.sort()
        for prev, cur in zip(wins, wins[1:]):
            if cur[0] < prev[1] - 1e-6:
                raise MappingError(
                    f"overlapping layer windows on cpu:{thread_index}: "
                    f"{prev[2]}#{prev[3]} and {cur[2]}#{cur[3]}"
                )
    return windows


def mapping_coverage(graph: DependencyGraph) -> float:
    """Fraction of GPU tasks that carry a layer assignment.

    Useful as a quality metric: input upload and iteration-boundary syncs
    legitimately stay unmapped, so coverage is high but below 1.0.
    """
    gpu_tasks = [t for t in graph.tasks() if t.is_gpu]
    if not gpu_tasks:
        return 0.0
    return sum(1 for t in gpu_tasks if t.layer is not None) / len(gpu_tasks)
