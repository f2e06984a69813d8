"""The kernel-level dependency graph.

Structure (paper Section 4.2):

* **threads** — per-execution-thread ordered task sequences.  The paper's
  dependency types 1 and 2 (sequential CPU order, sequential CUDA-stream
  order) are represented *implicitly* by this order: a task always depends
  on its thread predecessor.  Each thread's order is kept as a doubly-linked
  list (``_prev``/``_next`` maps plus per-thread head/tail), so the
  transformation primitives are O(1) pointer splices:

  =====================  ==========
  primitive              complexity
  =====================  ==========
  ``append``             O(1)
  ``extend``             O(k) for k tasks
  ``insert_after``       O(1)
  ``insert_before``      O(1)
  ``remove``             O(1) + O(preds x succs) when rewiring
  ``thread_successor``   O(1)
  ``thread_predecessor`` O(1)
  ``add_dependency``     O(1)
  ``copy``               O(N + E)
  ``overlay``            O(N + E) pointer copies, no task cloning
  ``close``              O(written tasks)
  =====================  ==========

* **explicit edges** — cross-thread dependencies: launch->kernel correlation,
  CUDA synchronization, and communication (dependency types 3-5), plus any
  edges optimization models add.

Mutating operations keep the graph consistent and are the substrate of the
transformation primitives in :mod:`repro.core.transform`.

Copy-on-write overlays
----------------------

:meth:`DependencyGraph.overlay` opens a cheap writable view scoped to one
what-if question: the overlay gets private copies of the *structure* (edges
and thread links — plain pointer maps) but shares the :class:`Task` objects
with the base graph.  Shared tasks carry a seal that arms a write barrier
(see ``Task.__setattr__``): the first attribute write to a shared task saves
its pristine state in an undo journal, and :meth:`DependencyGraph.close`
writes every journaled task back in place.  Removing tasks or rewiring edges
in the overlay touches only the overlay's private structure.  While the
overlay is open the base holds the question's values, so the base is
locked: using it raises instead of answering with the wrong numbers.
"""

import gc
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.common.errors import GraphConsistencyError
from repro.core.task import Task
from repro.tracing.records import ExecutionThread


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector around an allocation burst.

    Building or copying a graph allocates tens of thousands of objects that
    all stay live; a running collector would rescan them (and the rest of
    the heap) mid-burst with nothing to free.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class DependencyGraph:
    """Mutable kernel-level dependency graph with per-thread task order."""

    def __init__(self) -> None:
        self._succ: Dict[Task, Set[Task]] = {}
        self._pred: Dict[Task, Set[Task]] = {}
        # intrusive per-thread doubly-linked order
        self._next: Dict[Task, Optional[Task]] = {}
        self._prev: Dict[Task, Optional[Task]] = {}
        self._heads: Dict[ExecutionThread, Task] = {}
        self._tails: Dict[ExecutionThread, Task] = {}
        self._counts: Dict[ExecutionThread, int] = {}
        self._unordered: Set[ExecutionThread] = set()
        # copy-on-write bookkeeping: an overlay points at its base; a base
        # holds its open overlay's undo journal; _lock is the error message
        # while the graph must not be used (base of an open overlay, or a
        # closed overlay)
        self._cow_base: Optional["DependencyGraph"] = None
        self._journal: Optional[Dict[Task, Tuple[dict, dict]]] = None
        self._lock: Optional[str] = None
        # compiled-lowering cache (see repro.core.compiled): _generation
        # counts structural mutations; the cached CompiledGraph is valid
        # only while its captured generation matches and its duration/gap
        # columns still equal the tasks' values
        self._generation: int = 0
        self._compiled = None

    # -------------------------------------------------------------- ordering

    def mark_unordered(self, thread: ExecutionThread) -> None:
        """Drop the implicit sequential dependency on one thread.

        CPU threads and CUDA streams execute tasks in recorded program order
        (the paper's dependency types 1 and 2).  Communication channels have
        no such order: they serialize only through thread progress, and the
        *scheduler* decides ordering — which is exactly how P3's priority
        rescheduling works (paper Section 4.4, Schedule).
        """
        self._check_unlocked()
        self._unordered.add(thread)
        self._generation += 1

    def is_ordered(self, thread: ExecutionThread) -> bool:
        """Whether the thread's task list implies sequential dependencies."""
        return thread not in self._unordered

    # ----------------------------------------------------------------- queries

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, task: Task) -> bool:
        return task in self._succ

    def threads(self) -> List[ExecutionThread]:
        """All execution threads, sorted."""
        return sorted(self._heads)

    def iter_tasks_on(self, thread: ExecutionThread) -> Iterator[Task]:
        """Tasks on one thread in execution order (zero-copy iterator).

        The iterator walks the live linked list; take a snapshot with
        :meth:`tasks_on` if the loop body splices this thread's order.
        """
        task = self._heads.get(thread)
        nxt = self._next
        while task is not None:
            yield task
            task = nxt[task]

    def tasks_on(self, thread: ExecutionThread) -> List[Task]:
        """Tasks on one thread in execution order (a snapshot list)."""
        return list(self.iter_tasks_on(thread))

    def iter_tasks(self) -> Iterator[Task]:
        """All tasks, grouped by thread, in thread order (zero-copy)."""
        for thread in self.threads():
            yield from self.iter_tasks_on(thread)

    def tasks(self) -> List[Task]:
        """All tasks, grouped by thread, in thread order."""
        return list(self.iter_tasks())

    def select(self, predicate: Callable[[Task], bool]) -> List[Task]:
        """The Select primitive: all tasks satisfying ``predicate``."""
        return [t for t in self.iter_tasks() if predicate(t)]

    def successors(self, task: Task) -> Set[Task]:
        """Explicit (cross-thread) successors of a task.

        Returns the graph's *live* adjacency set — do not mutate it, and
        snapshot it (``set(...)``) before loops that add or remove the
        same task's edges.  Zero-copy so the simulator's inner loop stays
        allocation-free.
        """
        self._require(task)
        return self._succ[task]

    def predecessors(self, task: Task) -> Set[Task]:
        """Explicit (cross-thread) predecessors of a task (live set — see
        :meth:`successors` for the aliasing caveat)."""
        self._require(task)
        return self._pred[task]

    def thread_predecessor(self, task: Task) -> Optional[Task]:
        """The task immediately before ``task`` on its thread, if any."""
        self._require(task)
        return self._prev[task]

    def thread_successor(self, task: Task) -> Optional[Task]:
        """The task immediately after ``task`` on its thread, if any."""
        self._require(task)
        return self._next[task]

    # ---------------------------------------------------------------- mutation

    def append(self, task: Task) -> Task:
        """Append a task at the end of its thread's order.  O(1)."""
        self._check_unlocked()
        if task in self._succ:
            raise GraphConsistencyError(f"task already in graph: {task!r}")
        self._generation += 1
        thread = task.thread
        tail = self._tails.get(thread)
        self._prev[task] = tail
        self._next[task] = None
        if tail is None:
            self._heads[thread] = task
            self._counts[thread] = 1
        else:
            self._next[tail] = task
            self._counts[thread] += 1
        self._tails[thread] = task
        self._succ[task] = set()
        self._pred[task] = set()
        return task

    def extend(self, thread: ExecutionThread, tasks: List[Task]) -> None:
        """Append ``tasks``, in order, at the end of ``thread``'s order.

        The bulk form of :meth:`append` for graph construction: one pass
        links the whole run.  Every task must claim ``thread`` and be new
        to the graph (and appear once in ``tasks``); otherwise nothing is
        linked and :class:`GraphConsistencyError` is raised.  O(len(tasks)).
        """
        self._check_unlocked()
        if not tasks:
            return
        succ = self._succ
        for task in tasks:
            claimed = task.thread
            if claimed is not thread and claimed != thread:
                raise GraphConsistencyError(
                    f"{task!r} linked on {thread} but claims {claimed}"
                )
        if len(set(tasks)) != len(tasks) or not succ.keys().isdisjoint(tasks):
            seen: Set[Task] = set()
            for task in tasks:
                if task in succ or task in seen:
                    raise GraphConsistencyError(
                        f"task already in graph: {task!r}")
                seen.add(task)
        self._generation += 1
        prev = self._tails.get(thread)
        if prev is None:
            self._heads[thread] = tasks[0]
        self._tails[thread] = tasks[-1]
        self._counts[thread] = self._counts.get(thread, 0) + len(tasks)
        prev_map = self._prev
        next_map = self._next
        pred = self._pred
        for task in tasks:
            prev_map[task] = prev
            next_map[task] = None
            succ[task] = set()
            pred[task] = set()
            if prev is not None:
                next_map[prev] = task
            prev = task

    def insert_after(self, anchor: Task, task: Task) -> Task:
        """Insert ``task`` right after ``anchor`` in ``anchor``'s thread order.

        ``task.thread`` is forced to ``anchor.thread`` (the paper's insert
        primitive inserts into an execution thread's linked list).  O(1).
        """
        self._check_unlocked()
        self._require(anchor)
        if task in self._succ:
            raise GraphConsistencyError(f"task already in graph: {task!r}")
        self._generation += 1
        thread = anchor.thread
        task.thread = thread
        nxt = self._next[anchor]
        self._prev[task] = anchor
        self._next[task] = nxt
        self._next[anchor] = task
        if nxt is None:
            self._tails[thread] = task
        else:
            self._prev[nxt] = task
        self._counts[thread] += 1
        self._succ[task] = set()
        self._pred[task] = set()
        return task

    def insert_before(self, anchor: Task, task: Task) -> Task:
        """Insert ``task`` right before ``anchor`` in thread order.  O(1)."""
        self._check_unlocked()
        self._require(anchor)
        if task in self._succ:
            raise GraphConsistencyError(f"task already in graph: {task!r}")
        self._generation += 1
        thread = anchor.thread
        task.thread = thread
        prv = self._prev[anchor]
        self._next[task] = anchor
        self._prev[task] = prv
        self._prev[anchor] = task
        if prv is None:
            self._heads[thread] = task
        else:
            self._next[prv] = task
        self._counts[thread] += 1
        self._succ[task] = set()
        self._pred[task] = set()
        return task

    def remove(self, task: Task, rewire: bool = True) -> None:
        """Remove a task.  O(1) splice plus optional O(preds x succs) rewire.

        With ``rewire=True`` (default) each explicit predecessor is connected
        to each explicit successor, preserving transitive ordering across the
        removed node.  Sequential thread order heals automatically (the
        linked-list splice joins the neighbors).
        """
        self._check_unlocked()
        succs = self._succ.pop(task, None)
        if succs is None:
            raise GraphConsistencyError(f"task not in graph: {task!r}")
        self._generation += 1
        preds = self._pred.pop(task)
        for p in preds:
            self._succ[p].discard(task)
        for s in succs:
            self._pred[s].discard(task)
        if rewire:
            for p in preds:
                succ_p = self._succ[p]
                for s in succs:
                    if p is not s:
                        succ_p.add(s)
                        self._pred[s].add(p)
        thread = task.thread
        prv = self._prev.pop(task)
        nxt = self._next.pop(task)
        if prv is None:
            if nxt is None:
                del self._heads[thread]
                del self._tails[thread]
                del self._counts[thread]
            else:
                self._heads[thread] = nxt
                self._prev[nxt] = None
                self._counts[thread] -= 1
        else:
            self._next[prv] = nxt
            if nxt is None:
                self._tails[thread] = prv
            else:
                self._prev[nxt] = prv
            self._counts[thread] -= 1

    def add_dependency(self, src: Task, dst: Task) -> None:
        """Add an explicit edge ``src -> dst``.  O(1)."""
        self._check_unlocked()
        self._require(src)
        self._require(dst)
        if src is dst:
            raise GraphConsistencyError(f"self-dependency on {src!r}")
        self._generation += 1
        self._succ[src].add(dst)
        self._pred[dst].add(src)

    def remove_dependency(self, src: Task, dst: Task) -> None:
        """Remove an explicit edge if present.  O(1)."""
        self._check_unlocked()
        self._require(src)
        self._require(dst)
        self._generation += 1
        self._succ[src].discard(dst)
        self._pred[dst].discard(src)

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        """Check graph invariants; raise :class:`GraphConsistencyError`.

        * linked-list order is internally consistent (counts, head/tail,
          prev/next symmetry, every task on the thread it claims);
        * no explicit edge points backwards within one thread's order;
        * the combined graph (explicit edges + thread order) is acyclic.

        One walk over the thread lists records positions and in-degrees,
        then one topological pass consumes them.  A backward edge on an
        ordered thread always closes a cycle with the thread order, so the
        direction check only runs when the topological pass stalls; it
        then reports the backward edge in preference to a plain cycle.
        """
        prev_map = self._prev
        next_map = self._next
        pred = self._pred
        unordered = self._unordered
        position: Dict[Task, int] = {}
        indeg: Dict[Task, int] = {}
        ready: List[Task] = []
        for thread, head in self._heads.items():
            ordered = thread not in unordered
            prev = None
            count = 0
            task = head
            while task is not None:
                if prev_map[task] is not prev:
                    raise GraphConsistencyError(
                        f"broken prev link at {task!r} on {thread}"
                    )
                claimed = task.thread
                if claimed is not thread and claimed != thread:
                    raise GraphConsistencyError(
                        f"{task!r} linked on {thread} but claims {claimed}"
                    )
                position[task] = count
                deg = len(pred[task])
                if ordered and count:
                    deg += 1
                if deg:
                    indeg[task] = deg
                else:
                    ready.append(task)
                count += 1
                prev = task
                task = next_map[task]
            if self._tails[thread] is not prev:
                raise GraphConsistencyError(f"broken tail link on {thread}")
            if self._counts[thread] != count:
                raise GraphConsistencyError(
                    f"count mismatch on {thread}: "
                    f"{self._counts[thread]} recorded, {count} linked"
                )
        if len(position) != len(self._succ):
            raise GraphConsistencyError(
                f"{len(self._succ)} tasks in adjacency but "
                f"{len(position)} linked in thread order"
            )
        # Kahn's algorithm over explicit edges plus ordered thread links;
        # ``indeg`` holds only tasks still waiting on a predecessor
        succ = self._succ
        done = 0
        pop = ready.pop
        push = ready.append
        while ready:
            task = pop()
            done += 1
            for child in succ[task]:
                deg = indeg[child] - 1
                if deg:
                    indeg[child] = deg
                else:
                    del indeg[child]
                    push(child)
            nxt = next_map[task]
            if nxt is not None and (not unordered
                                    or task.thread not in unordered):
                deg = indeg[nxt] - 1
                if deg:
                    indeg[nxt] = deg
                else:
                    del indeg[nxt]
                    push(nxt)
        if done == len(position):
            return
        for src, dsts in succ.items():
            for dst in dsts:
                if (src.thread == dst.thread and self.is_ordered(src.thread)
                        and position[src] >= position[dst]):
                    raise GraphConsistencyError(
                        f"edge {src!r} -> {dst!r} contradicts thread order"
                    )
        raise GraphConsistencyError(
            f"dependency cycle: only {done} of {len(position)} tasks "
            "are reachable"
        )

    # --------------------------------------------------------------- internals

    def _require(self, task: Task) -> None:
        if task not in self._succ:
            raise GraphConsistencyError(f"task not in graph: {task!r}")

    # ----------------------------------------------------------------- cloning

    def copy(self) -> "DependencyGraph":
        """Deep-copy the graph (tasks are cloned; safe to mutate the copy).

        Optimization models transform a copy so the baseline graph can be
        reused for many what-if questions (paper Section 7.1: profile once,
        ask many questions).  For the common transform-and-simulate path
        prefer :meth:`overlay`, which skips cloning unmutated tasks.
        """
        self._check_unlocked()
        with collector_paused():
            return self._copy_impl()

    def _copy_impl(self) -> "DependencyGraph":
        out = DependencyGraph()
        out._unordered = set(self._unordered)
        clone_of: Dict[Task, Task] = {}
        heads = out._heads
        tails = out._tails
        nxt_out = out._next
        prv_out = out._prev
        nxt_in = self._next
        new = object.__new__
        for thread, head in self._heads.items():
            prev_clone: Optional[Task] = None
            task: Optional[Task] = head
            while task is not None:
                # inlined Task.clone(): this loop dominates copy() cost
                clone = new(Task)
                cd = clone.__dict__
                cd.update(task.__dict__)
                cd.pop("_cow_base", None)
                cd["metadata"] = dict(cd["metadata"])
                clone_of[task] = clone
                prv_out[clone] = prev_clone
                if prev_clone is None:
                    heads[thread] = clone
                else:
                    nxt_out[prev_clone] = clone
                prev_clone = clone
                task = nxt_in[task]
            nxt_out[prev_clone] = None
            tails[thread] = prev_clone
        out._counts = dict(self._counts)
        succ_out = out._succ
        pred_out = out._pred
        for task, clone in clone_of.items():
            # adjacency sets are overwhelmingly empty or single-element;
            # specializing those sizes avoids set-comprehension frames
            succs = self._succ[task]
            n = len(succs)
            if n == 0:
                succ_out[clone] = set()
            elif n == 1:
                (s,) = succs
                succ_out[clone] = {clone_of[s]}
            else:
                succ_out[clone] = {clone_of[s] for s in succs}
            preds = self._pred[task]
            n = len(preds)
            if n == 0:
                pred_out[clone] = set()
            elif n == 1:
                (p,) = preds
                pred_out[clone] = {clone_of[p]}
            else:
                pred_out[clone] = {clone_of[p] for p in preds}
        # remap task-valued metadata (launch<->kernel links) onto the clones
        for clone in clone_of.values():
            metadata = clone.metadata
            stale = None
            for key, value in metadata.items():
                if isinstance(value, Task):
                    remapped = clone_of.get(value)
                    if remapped is not None:
                        metadata[key] = remapped
                    else:
                        stale = [key] if stale is None else stale + [key]
            if stale:
                for key in stale:
                    del metadata[key]
        return out

    # ------------------------------------------------------------ copy-on-write

    def overlay(self) -> "DependencyGraph":
        """Open a copy-on-write view of this graph for one what-if question.

        The overlay owns private structure (edges, thread links) and shares
        every task object with this graph.  The first attribute write to a
        shared task saves its pristine state in the overlay's journal;
        :meth:`close` (or leaving the ``with`` block) restores every
        journaled task in place, so base tasks keep their identity for the
        life of the graph.  Until then this graph holds the question's
        values and is locked: simulating, lowering, copying, overlaying or
        mutating it raises :class:`GraphConsistencyError`.

        Overlays do not nest; asking an overlay for an overlay falls back to
        a full :meth:`copy`.
        """
        self._check_unlocked()
        if self._cow_base is not None:
            return self.copy()
        out = DependencyGraph()
        out._unordered = set(self._unordered)
        out._succ = {t: set(s) for t, s in self._succ.items()}
        out._pred = {t: set(s) for t, s in self._pred.items()}
        out._next = dict(self._next)
        out._prev = dict(self._prev)
        out._heads = dict(self._heads)
        out._tails = dict(self._tails)
        out._counts = dict(self._counts)
        out._cow_base = self
        for task in self._succ:
            task.__dict__["_cow_base"] = self
        self._journal = {}
        self._lock = (f"{self!r} is locked by its open overlay {out!r}; "
                      "close the overlay (or leave its with block) first")
        return out

    def close(self) -> None:
        """Close an overlay: restore every task it wrote, unlock its base.

        Each journaled task gets back its saved instance-dict values in
        place — same object, key order and dict size, as long as the
        question wrote existing attributes only — and its metadata
        contents.  O(written tasks).  Idempotent; a no-op on a graph that is not an
        overlay.  A closed overlay can no longer be simulated or mutated.
        """
        base = self._cow_base
        if base is None or self._lock is not None:
            return
        for task, (state, metadata) in base._journal.items():
            task.__dict__.update(state)
            saved = state["metadata"]
            if saved != metadata:
                saved.clear()
                saved.update(metadata)
        base._journal = None
        base._lock = None
        self._lock = (f"{self!r} is closed; its base graph has been "
                      "restored")

    def __enter__(self) -> "DependencyGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _cow_task_written(self, task: Task) -> None:
        """Write-barrier hook: a task sealed by this base is being written.

        Called by ``Task.__setattr__`` *before* the write lands, so the
        task's state is still pristine.  While an overlay is open the
        state is journaled for :meth:`close`; a seal left over from a
        closed overlay is simply dropped.
        """
        d = task.__dict__
        journal = self._journal
        if journal is not None and task in self._succ:
            journal[task] = (dict(d), dict(d["metadata"]))
        del d["_cow_base"]

    def _check_unlocked(self) -> None:
        if self._lock is not None:
            raise GraphConsistencyError(self._lock)

    def __repr__(self) -> str:
        kind = "overlay" if self._cow_base is not None else "DependencyGraph"
        return f"<{kind} of {len(self)} tasks at {id(self):#x}>"
