"""The reference simulator: Algorithm 1 as a naive frontier scan.

Written independently of :mod:`repro.core` against the public graph API,
scanning the whole frontier on every dispatch (O(N * F)).  The property
tests (``test_simulator_equivalence.py``) and the engine bench row
(``benchmarks/bench_core_perf.py``) check the engine against it bit for
bit.
"""


def naive_simulate(graph, key=None):
    """Frontier-scan Algorithm 1, written independently of the package.

    ``key(task)`` is the secondary sort key after feasible start (0 for
    the default schedule); ties beyond that break on the task's stable
    ordinal — its thread-major position (threads sorted, tasks in thread
    order) — matching the engine's allocation-independent tie-break.

    Returns ``(start_us, makespan, thread_busy)``: ``thread_busy`` maps
    every thread to its ``(start, end)`` intervals of nonzero-duration
    tasks, in dispatch order.
    """
    key = key or (lambda task: 0.0)
    refs, ready, ordinal = {}, {}, {}
    for thread in graph.threads():
        tasks = graph.tasks_on(thread)
        ordered = graph.is_ordered(thread)
        for i, task in enumerate(tasks):
            ordinal[task] = len(ordinal)
            refs[task] = len(graph.predecessors(task)) + (
                1 if ordered and i > 0 else 0)
            ready[task] = 0.0
    frontier = [task for task in refs if refs[task] == 0]
    progress = {t: 0.0 for t in graph.threads()}
    busy = {t: [] for t in graph.threads()}
    start_us = {}
    while frontier:
        task = min(
            frontier,
            key=lambda t: (max(progress[t.thread], ready[t]),
                           key(t), ordinal[t]),
        )
        frontier.remove(task)
        start = max(progress[task.thread], ready[task])
        start_us[task] = start
        end = start + task.duration
        progress[task.thread] = end + task.gap
        if task.duration > 0:
            busy[task.thread].append((start, end))
        released = list(graph.successors(task))
        if graph.is_ordered(task.thread):
            nxt = graph.thread_successor(task)
            if nxt is not None:
                released.append(nxt)
        for child in released:
            ready[child] = max(ready[child], end)
            refs[child] -= 1
            if refs[child] == 0:
                frontier.append(child)
    assert len(start_us) == len(graph), "reference deadlocked"
    makespan = max((s + t.duration for t, s in start_us.items()), default=0.0)
    return start_us, makespan, busy
