"""Execution simulation — the paper's Algorithm 1.

The simulator traverses the dependency graph, dispatching each task to its
execution thread:

* ``u.start = max(P[thread], max over parents of parent end)``;
* ``P[thread] = u.start + u.duration + u.gap``;
* a task becomes dispatchable when its explicit parents *and* its thread
  predecessor have executed.

There is one engine, in :mod:`repro.core.compiled`: :func:`simulate`
lowers the graph to flat columns (cached on the graph until it changes)
and runs a lazy-deletion min-heap keyed on each dispatchable task's
*feasible start*, plus a policy key and the task's stable ordinal —
O(N log N) instead of the naive per-dispatch frontier scan's O(N * F).
A popped entry whose thread made progress since it was pushed is stale;
it is re-pushed with its recomputed feasible start (feasible starts only
grow, so lazy reinsertion is exact, not approximate).

Ties in ``(feasible_start, policy_key)`` break on the task's **stable
ordinal** (thread-major position; see
:func:`repro.core.compiled.stable_ordinals`), so dispatch order — and
therefore every simulated timestamp — is a pure function of the graph
*data*, never of allocation addresses.

The ``schedule`` step (Algorithm 1 line 9) is pluggable through a
:class:`SchedulePolicy`, which ranks dispatchable tasks by a secondary key
(after feasible start, before ordinal order).  This is how P3's priority
queue (``make_priority_scheduler``) and other Schedule-primitive
overrides plug in.  The engine is property-tested against an independent
frontier-scan reference in the test suite.
"""

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.graph import DependencyGraph
from repro.core.task import Task
from repro.tracing.records import ExecutionThread


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        start_us: simulated start time of every task.
        makespan_us: end of the last task (excluding its trailing gap) —
            the predicted iteration time.
        thread_busy: per-thread busy intervals ``(start, end)`` for
            breakdown analysis.
        ordinals: the stable task ordinals this run dispatched under
            (thread-major; see :func:`repro.core.compiled.stable_ordinals`).
            Used to order duration ties deterministically in
            :meth:`critical_tasks`.
    """

    start_us: Dict[Task, float]
    makespan_us: float
    thread_busy: Dict[ExecutionThread, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    ordinals: Optional[Dict[Task, int]] = None

    def end_us(self, task: Task) -> float:
        """Simulated completion time of a task."""
        return self.start_us[task] + task.duration

    def critical_tasks(self, top: int = 10) -> List[Task]:
        """The ``top`` tasks by duration — a quick bottleneck view.

        Duration ties break by stable ordinal (earlier ordinal first)
        when this result carries them, so the ranking is a pure function
        of the graph data — never of dict insertion or allocation order.
        """
        if self.ordinals is not None:
            ordinals = self.ordinals
            return heapq.nlargest(
                top, self.start_us,
                key=lambda t: (t.duration, -ordinals.get(t, 0)))
        return heapq.nlargest(top, self.start_us, key=lambda t: t.duration)


class SchedulePolicy:
    """A heap-friendly scheduling policy (the paper's Schedule primitive).

    The engine orders dispatchable tasks by
    ``(feasible_start, policy.key(task), stable_ordinal)``; subclasses
    override :meth:`key` to reorder ties without forfeiting the O(N log N)
    engine.  The default key (0 for every task) reproduces the
    earliest-feasible-start, ordinal-tie-break baseline schedule.
    """

    def key(self, task: Task) -> float:
        """Secondary sort key; smaller dispatches first among feasible ties."""
        return 0.0


class PrioritySchedulePolicy(SchedulePolicy):
    """P3-style priority override (paper Appendix Algorithm 7).

    Among dispatchable tasks, the earliest feasible start still wins (work
    conservation), but when several prioritized tasks could start at the
    same instant the one with the highest ``task.priority`` goes first.
    """

    def __init__(self, is_prioritized: Callable[[Task], bool]) -> None:
        self._is_prioritized = is_prioritized

    def key(self, task: Task) -> float:
        return -float(task.priority) if self._is_prioritized(task) else 0.0


def make_priority_scheduler(
    is_prioritized: Callable[[Task], bool],
) -> PrioritySchedulePolicy:
    """Build the P3 priority schedule override (see
    :class:`PrioritySchedulePolicy`)."""
    return PrioritySchedulePolicy(is_prioritized)


def simulate(
    graph: DependencyGraph,
    policy: Optional[SchedulePolicy] = None,
) -> SimulationResult:
    """Run Algorithm 1 over the graph and return predicted timings.

    ``policy`` is a :class:`SchedulePolicy`; ``None`` uses the default
    earliest-start policy.  The graph's lowering is cached on it
    (:func:`repro.core.compiled.compiled_for`), so simulating an
    unchanged graph again only re-runs the engine loop.

    Raises:
        SimulationError: if the graph deadlocks (cycle), or ``policy`` is
            not a :class:`SchedulePolicy`.
        GraphConsistencyError: if the graph is locked — the base of an
            open overlay, or a closed overlay.
    """
    if policy is not None and not isinstance(policy, SchedulePolicy):
        raise SimulationError(
            f"scheduler must be a SchedulePolicy (or None), got {policy!r}")
    # imported here: repro.core.compiled imports this module's classes
    from repro.core.compiled import compiled_for
    return compiled_for(graph).run(policy)
