"""Execution simulation — the paper's Algorithm 1, event-driven.

The simulator traverses the dependency graph, dispatching each task to its
execution thread:

* ``u.start = max(P[thread], max over parents of parent end)``;
* ``P[thread] = u.start + u.duration + u.gap``;
* a task becomes dispatchable when its explicit parents *and* its thread
  predecessor have executed.

The engine is a lazy-deletion min-heap keyed on each dispatchable task's
*feasible start* (plus a policy key and the task's stable ordinal):
O(N log N) instead of the naive per-dispatch frontier scan's O(N * F).  A
popped entry whose thread made progress since it was pushed is stale; it is
re-pushed with its recomputed feasible start (feasible starts only grow, so
lazy reinsertion is exact, not approximate).

Ties in ``(feasible_start, policy_key)`` break on the task's **stable
ordinal** (thread-major position; see
:func:`repro.core.compiled.stable_ordinals`) in every engine, so dispatch
order — and therefore every simulated timestamp — is a pure function of
the graph *data*, never of allocation addresses or frontier-entry history.

The ``schedule`` step (Algorithm 1 line 9) stays pluggable two ways:

* a :class:`SchedulePolicy` ranks dispatchable tasks via a secondary key
  (after feasible start, before ordinal order) and runs on the heap
  engines — this is how P3's priority queue (``make_priority_scheduler``)
  and other Schedule-primitive overrides plug in.  Policy runs are served
  by the compiled array engine (:mod:`repro.core.compiled`) once a graph's
  lowering is warm, with this module's object-graph engine as the
  bit-identical fallback and property-test reference;
* a legacy callable ``(frontier, progress) -> task`` (the seed protocol)
  still works and routes to the reference frontier-scan engine, since an
  arbitrary function of the whole frontier cannot be heapified.

All engines implement identical semantics; the equivalence is
property-tested against an independent reference in the test suite.
"""

import heapq
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.graph import DependencyGraph
from repro.core.task import Task
from repro.tracing.records import ExecutionThread

#: Legacy scheduler protocol: picks the next task to dispatch from the
#: frontier, given the frontier and the per-thread progress map.
Scheduler = Callable[[List[Task], Dict[ExecutionThread, float]], Task]


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

    The event-driven engines order dispatchable tasks by
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

    Instances are also callable with the legacy ``(frontier, progress)``
    protocol so code written against the seed API keeps working.
    """

    def __init__(self, is_prioritized: Callable[[Task], bool]) -> None:
        self._is_prioritized = is_prioritized

    def key(self, task: Task) -> float:
        return -float(task.priority) if self._is_prioritized(task) else 0.0

    def __call__(self, frontier: List[Task],
                 progress: Dict[ExecutionThread, float]) -> Task:
        best: Optional[Task] = None
        best_key: Optional[Tuple[float, float]] = None
        for task in frontier:
            feasible = max(progress.get(task.thread, 0.0),
                           task.metadata["_ready_us"])
            key = (feasible, self.key(task))
            if best_key is None or key < best_key:
                best, best_key = task, key
        assert best is not None
        return best


def make_priority_scheduler(
    is_prioritized: Callable[[Task], bool],
) -> PrioritySchedulePolicy:
    """Build the P3 priority schedule override (see
    :class:`PrioritySchedulePolicy`)."""
    return PrioritySchedulePolicy(is_prioritized)


def earliest_start_scheduler(
    frontier: List[Task], progress: Dict[ExecutionThread, float]
) -> Task:
    """Default schedule as a legacy callable: earliest feasible start,
    stable-ordinal tie-break (the reference engine keeps its frontier
    ordinal-sorted, so first-wins scanning ties on ordinals).  Retained for
    the reference engine and API compatibility; the default simulate path
    uses the heap engines instead."""
    best = frontier[0]
    best_time = max(progress.get(best.thread, 0.0), best.metadata["_ready_us"])
    for task in frontier[1:]:
        feasible = max(progress.get(task.thread, 0.0), task.metadata["_ready_us"])
        if feasible < best_time:
            best = task
            best_time = feasible
    return best


def simulate(
    graph: DependencyGraph,
    scheduler: Optional[Scheduler] = None,
) -> SimulationResult:
    """Run Algorithm 1 over the graph and return predicted timings.

    ``scheduler`` may be a :class:`SchedulePolicy` (heap engines,
    O(N log N)) or a legacy ``(frontier, progress) -> task`` callable
    (reference engine, O(N * F)).  ``None`` uses the default
    earliest-start policy.

    Policy runs auto-select the compiled array engine
    (:mod:`repro.core.compiled`) when the graph's lowering is warm: the
    second simulate of an unmutated graph compiles it, and every later run
    skips graph setup entirely.  One-shot graphs (a fresh what-if overlay,
    simulated once) never pay the lowering cost.  Engine selection never
    affects results — the engines are pinned bit-identical.

    Raises:
        SimulationError: if the graph deadlocks (cycle), or a custom
            scheduler returns a task that is not in the frontier.
        GraphConsistencyError: if the graph is locked — the base of an
            open overlay, or a closed overlay.
    """
    graph._check_unlocked()
    if scheduler is None:
        scheduler = _DEFAULT_POLICY
    if isinstance(scheduler, SchedulePolicy):
        compiled = _warm_compiled(graph)
        if compiled is not None:
            return compiled.run(scheduler)
        return _simulate_event_driven(graph, scheduler)
    return _simulate_reference(graph, scheduler)


_DEFAULT_POLICY = SchedulePolicy()


def _warm_compiled(graph):
    """The graph's compiled lowering, warming it on the second policy run.

    Tiered like a JIT: generation G's first simulate runs the object
    engine (no lowering cost for one-shot overlay graphs); its second
    marks the graph hot and compiles; subsequent runs reuse the cache
    until a mutation bumps the generation.
    """
    from repro.core.compiled import compiled_for
    generation = graph._generation
    compiled = graph._compiled
    if compiled is not None and compiled.generation == generation:
        return compiled
    if graph.__dict__.get("_hot_generation") == generation:
        return compiled_for(graph)
    graph._hot_generation = generation
    return None


def _simulate_event_driven(
    graph: DependencyGraph, policy: SchedulePolicy
) -> SimulationResult:
    """Heap-based event-driven engine keyed on feasible start."""
    # the base policy keys every task 0.0; skip the per-push call for it
    trivial_key = type(policy) is SchedulePolicy
    policy_key = policy.key
    succ = graph._succ
    pred = graph._pred
    # per-task state [pending_refs, thread_index, ready_us]: one dict lookup
    # per release instead of separate refs/ready/thread maps
    state: Dict[Task, List] = {}
    initial: List[Task] = []

    # map threads to dense indices so the inner loop indexes flat lists
    # instead of hashing ExecutionThread keys on every dispatch
    threads = graph.threads()
    progress: List[float] = [0.0] * len(threads)
    busy_lists: List[List[Tuple[float, float]]] = [[] for _ in threads]
    ordered_at: List[bool] = [graph.is_ordered(t) for t in threads]

    heads = graph._heads
    nxt_link = graph._next
    # this walk is thread-major, so enumeration order IS the stable
    # ordinal order (see repro.core.compiled.stable_ordinals)
    ordinals: Dict[Task, int] = {}
    count = 0
    for i, thread in enumerate(threads):
        ordered = ordered_at[i]
        first = True
        task = heads.get(thread)
        while task is not None:
            ordinals[task] = count
            count += 1
            n = len(pred[task])
            if ordered and not first:
                n += 1
            state[task] = [n, i, 0.0]
            if n == 0:
                initial.append(task)
            first = False
            task = nxt_link[task]

    total = len(state)
    start_us: Dict[Task, float] = {}
    makespan = 0.0
    # heap entries: (feasible_start, policy_key, ordinal, thread_idx, task);
    # the stable ordinal breaks ties allocation-independently (and keeps
    # tuple comparison from ever reaching the task — ordinals are unique).
    # A task's ready time is final once its last reference drops (all
    # parents done), so the pushed feasible start can only go stale through
    # *thread progress* — re-checked on pop.
    heap: List[Tuple[float, float, int, int, Task]] = [
        (0.0, 0.0 if trivial_key else policy_key(task), ordinals[task],
         state[task][1], task)
        for task in initial
    ]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop

    while heap:
        feasible, pkey, o, ti, task = pop(heap)
        cur = progress[ti]
        if cur > feasible:
            # stale entry: the thread advanced since this was pushed
            push(heap, (cur, pkey, o, ti, task))
            continue
        now = feasible
        start_us[task] = now
        duration = task.duration
        end = now + duration
        if end > makespan:
            makespan = end
        progress[ti] = end + task.gap
        if duration > 0:
            busy_lists[ti].append((now, end))
        children = succ[task]
        if children:
            for child in children:
                st = state[child]
                if st[2] < end:
                    st[2] = end
                n = st[0] - 1
                st[0] = n
                if n == 0:
                    ci = st[1]
                    cf = progress[ci]
                    rc = st[2]
                    push(heap, (cf if cf > rc else rc,
                                0.0 if trivial_key else policy_key(child),
                                ordinals[child], ci, child))
        nxt = nxt_link[task] if ordered_at[ti] else None
        if nxt is not None:
            # thread order: predecessor completion gates the successor, but
            # the gap is enforced via thread progress, not readiness
            st = state[nxt]
            if st[2] < end:
                st[2] = end
            n = st[0] - 1
            st[0] = n
            if n == 0:
                cf = progress[ti]
                rc = st[2]
                push(heap, (cf if cf > rc else rc,
                            0.0 if trivial_key else policy_key(nxt),
                            ordinals[nxt], ti, nxt))

    if len(start_us) != total:
        raise SimulationError(
            f"deadlock: executed {len(start_us)} of {total} tasks "
            "(dependency cycle)"
        )
    return SimulationResult(
        start_us=start_us, makespan_us=makespan,
        thread_busy=dict(zip(threads, busy_lists)),
        ordinals=ordinals,
    )


def _simulate_reference(
    graph: DependencyGraph, scheduler: Scheduler
) -> SimulationResult:
    """The seed frontier-scan engine, kept for legacy callable schedulers."""
    # reference counts: explicit preds + one for the thread predecessor.
    # The walk is thread-major, so enumeration order IS stable-ordinal order.
    refs: Dict[Task, int] = {}
    thread_next: Dict[Task, Optional[Task]] = {}
    ordinals: Dict[Task, int] = {}
    for thread in graph.threads():
        ordered = graph.is_ordered(thread)
        prev: Optional[Task] = None
        for i, task in enumerate(graph.iter_tasks_on(thread)):
            ordinals[task] = len(ordinals)
            refs[task] = len(graph.predecessors(task)) + (
                1 if ordered and i > 0 else 0)
            thread_next[task] = None
            if ordered and prev is not None:
                thread_next[prev] = task
            task.metadata["_ready_us"] = 0.0
            prev = task

    # the frontier is kept sorted by stable ordinal (refs iterates in
    # insertion = ordinal order; releases insort below), so a scheduler
    # scanning it first-wins breaks feasible-start ties exactly like the
    # heap engines' ordinal tie-break
    frontier: List[Task] = [t for t, r in refs.items() if r == 0]
    progress: Dict[ExecutionThread, float] = {t: 0.0 for t in graph.threads()}
    start_us: Dict[Task, float] = {}
    busy: Dict[ExecutionThread, List[Tuple[float, float]]] = {
        t: [] for t in graph.threads()
    }
    total = len(graph)

    try:
        while frontier:
            task = scheduler(frontier, progress)
            try:
                frontier.remove(task)
            except ValueError:
                raise SimulationError(
                    f"scheduler returned a task outside the frontier: {task!r}"
                ) from None
            start = max(progress[task.thread], task.metadata["_ready_us"])
            start_us[task] = start
            end = start + task.duration
            progress[task.thread] = end + task.gap
            if task.duration > 0:
                busy[task.thread].append((start, end))

            def _release(child: Task) -> None:
                child.metadata["_ready_us"] = max(
                    child.metadata["_ready_us"], end)
                refs[child] -= 1
                if refs[child] == 0:
                    insort(frontier, child, key=ordinals.__getitem__)

            for child in graph.successors(task):
                _release(child)
            nxt = thread_next[task]
            if nxt is not None:
                # thread order: predecessor completion gates the successor,
                # but the gap is enforced via thread progress, not readiness
                nxt.metadata["_ready_us"] = max(nxt.metadata["_ready_us"], end)
                refs[nxt] -= 1
                if refs[nxt] == 0:
                    insort(frontier, nxt, key=ordinals.__getitem__)
    finally:
        # scrub the scratch metadata even when the scheduler or a deadlock
        # raises mid-run — over *every* task, not just the executed ones
        for task in refs:
            task.metadata.pop("_ready_us", None)

    if len(start_us) != total:
        raise SimulationError(
            f"deadlock: executed {len(start_us)} of {total} tasks "
            "(dependency cycle)"
        )
    makespan = max((start_us[t] + t.duration for t in start_us), default=0.0)
    return SimulationResult(start_us=start_us, makespan_us=makespan,
                            thread_busy=busy, ordinals=ordinals)
