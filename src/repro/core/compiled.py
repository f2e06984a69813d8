"""The simulation engine: Algorithm 1 over flat columns.

:func:`repro.core.simulate.simulate` runs here.  A
:class:`~repro.core.graph.DependencyGraph` is lowered once into densely
indexed plain lists and Algorithm 1 runs over integers:

* **stable ordinals** — every task gets a dense ordinal assigned
  thread-major (threads in sorted order, tasks in linked-list order
  within each thread).  Ordinals are a pure function of the graph *data*,
  never of allocation addresses, and the engine breaks feasible-start
  ties on them — which is what makes simulation results
  allocation-independent (the historical fig10 "last-ulp tie" drift came
  from ``id()``-ordered successor-set iteration);
* **columns** — per-ordinal ``duration`` / ``gap`` / ``thread_idx`` /
  ``tnext`` / ``indegree`` lists plus one ordinal-sorted successor row
  per task.  They are plain lists because CPython indexes lists faster
  than it unboxes array or numpy elements;
* **the engine** — a lazy-deletion min-heap over
  ``(feasible_start, policy_key, ordinal)`` integer entries.  No Task
  object is touched between heapify and the final result assembly;
* **batched multi-simulate** — :func:`simulate_many` amortizes the
  lowering across every cell of a what-if grid that shares a baseline:
  each :class:`CellDelta` patches sparse per-task duration/gap overrides
  onto copies of the baseline columns and re-runs only the engine loop.

Invalidation contract (see ``docs/perf.md``): lowering reads the graph
and writes nothing to its tasks.  The lowering is cached on its
``DependencyGraph`` and reused while two things hold: the graph's mutation
generation is the one it captured (structural mutations —
append/insert/remove/edges/``mark_unordered`` — bump it), and its
``duration``/``gap`` columns still equal the tasks' values (an O(N)
compare, which sees every in-place field write however it was made).
Those are the only task fields the columns hold, so a stale cache cannot
answer.
"""

import heapq
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.core.simulate import SchedulePolicy, SimulationResult
from repro.core.task import Task
from repro.tracing.records import ExecutionThread

#: shared empty successor row (never mutated by the engine)
_EMPTY_ROW: List[int] = []

_duration_of = attrgetter("duration")
_gap_of = attrgetter("gap")


def stable_ordinals(graph) -> Dict[Task, int]:
    """Dense, allocation-independent ordinals: topological-by-thread.

    Threads are enumerated in their sorted order and each thread's tasks
    in linked-list order, so two graphs with identical *data* assign
    identical ordinals no matter how their Task objects were allocated.
    Within every ordered thread the numbering is topological; across
    threads it is the deterministic total order the engine uses to break
    scheduling ties.
    """
    ordinal: Dict[Task, int] = {}
    for thread in graph.threads():
        for task in graph.iter_tasks_on(thread):
            ordinal[task] = len(ordinal)
    return ordinal


@dataclass
class CompiledGraph:
    """A dependency graph lowered to flat lists, ready for the engine.

    Attributes (all task columns are indexed by stable ordinal):
        tasks: ordinal → Task (for result assembly only).
        ordinal: Task → ordinal.
        duration / gap: the tasks' values at lowering time.
        thread_idx / tnext: dense thread index of each task, and the
            ordinal of its thread successor (−1 when the thread is
            unordered or the task is last on its thread).
        indegree: explicit predecessors + 1 for a gated thread
            predecessor — the simulator's initial reference counts.
        succ: explicit-successor ordinals of each task, each row sorted.
        threads / ordered: dense thread table and per-thread order flags.
        generation: the graph mutation generation this lowering captured.
    """

    tasks: List[Task]
    ordinal: Dict[Task, int]
    duration: List[float]
    gap: List[float]
    thread_idx: List[int]
    tnext: List[int]
    indegree: List[int]
    succ: List[List[int]]
    threads: List[ExecutionThread]
    ordered: List[bool]
    generation: int = 0

    def __len__(self) -> int:
        return len(self.tasks)

    @classmethod
    def build(cls, graph) -> "CompiledGraph":
        """Lower ``graph`` to column form.  O(N + E)."""
        threads = graph.threads()
        ordered = [graph.is_ordered(t) for t in threads]

        # one linked-list walk per thread assigns ordinals and reads every
        # per-task field; within a thread ordinals are consecutive, so an
        # ordered thread's successor link is simply ``i + 1``
        tasks: List[Task] = []
        ordinal: Dict[Task, int] = {}
        duration: List[float] = []
        gap: List[float] = []
        thread_idx: List[int] = []
        tnext: List[int] = []
        indegree: List[int] = []
        nxt_link = graph._next
        heads = graph._heads
        pred = graph._pred
        append = tasks.append
        for ti, thread in enumerate(threads):
            is_ordered = ordered[ti]
            task = heads.get(thread)
            first = True
            i = len(tasks)
            while task is not None:
                ordinal[task] = i
                append(task)
                d = task.__dict__
                duration.append(d["duration"])
                gap.append(d["gap"])
                thread_idx.append(ti)
                deg = len(pred[task])
                if is_ordered and not first:
                    deg += 1
                indegree.append(deg)
                first = False
                i += 1
                task = nxt_link[task]
                tnext.append(i if is_ordered and task is not None else -1)

        succ = graph._succ
        rows: List[List[int]] = []
        rows_append = rows.append
        for task in tasks:
            # adjacency rows are overwhelmingly empty or single-element;
            # specializing those sizes skips most of the sort calls
            succs = succ[task]
            m = len(succs)
            if m == 0:
                rows_append(_EMPTY_ROW)
            elif m == 1:
                (s,) = succs
                rows_append([ordinal[s]])
            else:
                rows_append(sorted(ordinal[s] for s in succs))

        return cls(tasks=tasks, ordinal=ordinal, duration=duration, gap=gap,
                   thread_idx=thread_idx, tnext=tnext, indegree=indegree,
                   succ=rows, threads=threads, ordered=ordered,
                   generation=graph._generation)

    def matches_task_values(self) -> bool:
        """Whether the ``duration``/``gap`` columns still equal the tasks'
        current values.  O(N)."""
        tasks = self.tasks
        return (list(map(_duration_of, tasks)) == self.duration
                and list(map(_gap_of, tasks)) == self.gap)

    # ----------------------------------------------------------- simulation

    def policy_keys(self, policy) -> Optional[List[float]]:
        """Per-ordinal secondary sort keys for a ``SchedulePolicy``.

        ``None`` means every key is 0.0 (the default policy), letting the
        engine skip the column entirely.
        """
        if policy is None or type(policy) is SchedulePolicy:
            return None
        key = policy.key
        return [key(task) for task in self.tasks]

    def run(self, policy: Optional[SchedulePolicy] = None,
            duration: Optional[List[float]] = None,
            gap: Optional[List[float]] = None) -> SimulationResult:
        """Run Algorithm 1 over the columns.

        ``duration``/``gap`` override the baseline columns (ordinal-indexed
        lists) — this is how :func:`simulate_many` re-runs the engine
        under a cell's sparse delta without re-lowering.
        """
        starts, makespan, busy_lists = _run_arrays(
            len(self.tasks),
            duration if duration is not None else self.duration,
            gap if gap is not None else self.gap,
            self.thread_idx, self.tnext, self.indegree, self.succ,
            len(self.threads), self.policy_keys(policy), all(self.ordered),
        )
        return SimulationResult(
            start_us=dict(zip(self.tasks, starts)),
            makespan_us=makespan,
            thread_busy=dict(zip(self.threads, busy_lists)),
            ordinals=self.ordinal,
        )


def _run_arrays(n: int, dur: List[float], gap: List[float],
                thread_idx: List[int], tnext: List[int],
                indegree: List[int], succ_rows: List[List[int]],
                n_threads: int, pkeys: Optional[List[float]],
                all_ordered: bool = False,
                ) -> Tuple[List[float], float, List[List[Tuple[float, float]]]]:
    """The array engine inner loop: integer heap entries, no Task objects.

    Heap entries are ``(feasible_start, policy_key, ordinal)`` (the policy
    column is dropped when every key is 0.0).  Ordinals are unique, so
    tuple comparison never needs a fourth element, and the ordinal
    tie-break makes dispatch order a pure function of the graph data.
    Stale entries (thread advanced since push) are re-pushed with their
    recomputed feasible start — exact, since feasible starts only grow.

    When every thread is *ordered* the heap disappears entirely
    (``all_ordered``): a task's start is ``max(thread progress, ready)``
    and both are final by the time its last predecessor executes — the
    chain edge pins each thread's dispatch order, so the global pop order
    carries no information and a plain worklist computes the identical
    fixpoint (same starts, same per-thread busy order, same makespan).
    Scheduling only has degrees of freedom on unordered channels, which
    is exactly when the heap paths below run.
    """
    indeg = indegree[:]
    ready = [0.0] * n
    starts = [0.0] * n
    progress = [0.0] * n_threads
    busy_lists: List[List[Tuple[float, float]]] = [[] for _ in range(n_threads)]
    executed = 0
    makespan = 0.0
    push = heapq.heappush
    pop = heapq.heappop

    if all_ordered:
        stack = [i for i in range(n) if indeg[i] == 0]
        append = stack.append
        while stack:
            i = stack.pop()
            ti = thread_idx[i]
            cur = progress[ti]
            rd = ready[i]
            feasible = cur if cur > rd else rd
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            progress[ti] = end + gap[i]
            if d > 0.0:
                busy_lists[ti].append((feasible, end))
            executed += 1
            for c in succ_rows[i]:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    append(c)
            c = tnext[i]
            if c >= 0:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    append(c)
    elif pkeys is None:
        heap = [(0.0, i) for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        while heap:
            feasible, i = pop(heap)
            ti = thread_idx[i]
            cur = progress[ti]
            if cur > feasible:
                push(heap, (cur, i))
                continue
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            progress[ti] = end + gap[i]
            if d > 0.0:
                busy_lists[ti].append((feasible, end))
            executed += 1
            for c in succ_rows[i]:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[thread_idx[c]]
                    rc = ready[c]
                    push(heap, (cf if cf > rc else rc, c))
            c = tnext[i]
            if c >= 0:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[ti]
                    rc = ready[c]
                    push(heap, (cf if cf > rc else rc, c))
    else:
        heap3 = [(0.0, pkeys[i], i) for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap3)
        while heap3:
            feasible, pk, i = pop(heap3)
            ti = thread_idx[i]
            cur = progress[ti]
            if cur > feasible:
                push(heap3, (cur, pk, i))
                continue
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            progress[ti] = end + gap[i]
            if d > 0.0:
                busy_lists[ti].append((feasible, end))
            executed += 1
            for c in succ_rows[i]:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[thread_idx[c]]
                    rc = ready[c]
                    push(heap3, (cf if cf > rc else rc, pkeys[c], c))
            c = tnext[i]
            if c >= 0:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[ti]
                    rc = ready[c]
                    push(heap3, (cf if cf > rc else rc, pkeys[c], c))

    if executed != n:
        raise SimulationError(
            f"deadlock: executed {executed} of {n} tasks (dependency cycle)"
        )
    return starts, makespan, busy_lists


def compiled_for(graph) -> CompiledGraph:
    """The cached :class:`CompiledGraph` of ``graph``, relowered when stale.

    The cache is valid while the graph's mutation generation matches the
    one it captured and its ``duration``/``gap`` columns still equal the
    tasks' values (:meth:`CompiledGraph.matches_task_values`).  An overlay
    restores the values it wrote on ``close()``, so a base lowering
    survives every question asked through one.  Raises
    :class:`GraphConsistencyError` on a locked graph (the base of an open
    overlay, or a closed overlay).
    """
    graph._check_unlocked()
    compiled = graph._compiled
    if (compiled is None or compiled.generation != graph._generation
            or not compiled.matches_task_values()):
        compiled = CompiledGraph.build(graph)
        graph._compiled = compiled
    return compiled


# -------------------------------------------------------- batched multi-sim


@dataclass(frozen=True)
class CellDelta:
    """One what-if cell as sparse overrides onto a shared baseline.

    ``durations``/``gaps`` map tasks of the *baseline* graph to their
    overridden values; everything unmentioned keeps the baseline value.
    Cells are cheap: :func:`simulate_many` patches them onto copies of
    the compiled baseline's columns without touching the graph.
    """

    label: str = "delta"
    durations: Dict[Task, float] = field(default_factory=dict)
    gaps: Dict[Task, float] = field(default_factory=dict)

    @classmethod
    def scale_durations(cls, tasks: Iterable[Task], factor: float,
                        label: str = "scaled") -> "CellDelta":
        """Scale the duration of each task by ``factor`` (≥ 0)."""
        if factor < 0:
            raise SimulationError("duration scale factor must be >= 0")
        return cls(label=label,
                   durations={t: t.duration * factor for t in tasks})


def simulate_many(compiled: CompiledGraph, cells: Sequence[CellDelta],
                  policy=None) -> List[object]:
    """Simulate every cell of a shared-baseline grid on one lowering.

    The baseline columns are copied per cell (O(N) list copies), each cell's sparse overrides are patched
    in by ordinal (O(|delta|)), and only the engine loop re-runs.  Cells
    referencing tasks outside the baseline raise ``SimulationError``.

    Returns one ``SimulationResult`` per cell, in cell order,
    bit-identical to lowering and simulating each patched graph from
    scratch.
    """
    ordinal = compiled.ordinal
    results = []
    for cell in cells:
        duration = gap = None
        if cell.durations:
            duration = compiled.duration[:]
            try:
                for task, value in cell.durations.items():
                    duration[ordinal[task]] = value
            except KeyError:
                raise SimulationError(
                    f"cell {cell.label!r} overrides a task outside the "
                    "compiled baseline") from None
        if cell.gaps:
            gap = compiled.gap[:]
            try:
                for task, value in cell.gaps.items():
                    gap[ordinal[task]] = value
            except KeyError:
                raise SimulationError(
                    f"cell {cell.label!r} overrides a task outside the "
                    "compiled baseline") from None
        results.append(compiled.run(policy, duration=duration, gap=gap))
    return results
