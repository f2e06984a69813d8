"""Contracts of the bulk construction path that the oracle diff cannot see.

* Memory: tasks built without the write barrier keep key-sharing instance
  dicts, exactly like dataclass-constructed tasks, and carry no
  copy-on-write seal.
* Barrier: layer mapping still writes through the barrier wherever it is
  armed — on an overlay's shared tasks (undone when the overlay closes) —
  and a lowered graph it maps keeps simulating correctly.
* Errors: every check the bulk linker and the fused ``validate`` make still
  raises, each with its own message.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.common.errors import ConfigError, GraphConsistencyError, TraceError
from repro.core.compiled import CompiledGraph
from repro.core.construction import build_graph
from repro.core.graph import DependencyGraph
from repro.core.mapping import map_tasks_to_layers
from repro.core.simulate import simulate
from repro.core.task import Task, TaskKind
from repro.tracing.records import (
    EventCategory,
    TraceEvent,
    cpu_thread,
    gpu_stream,
)
from repro.tracing.trace import Trace


def make_task(name, thread=None, duration=1.0):
    return Task(name=name, kind=TaskKind.CPU, thread=thread or cpu_thread(0),
                duration=duration)


def chain(n, thread=None):
    graph = DependencyGraph()
    tasks = [make_task(f"t{i}", thread) for i in range(n)]
    graph.extend(thread or cpu_thread(0), tasks)
    return graph, tasks


# ------------------------------------------------------------------ memory

def test_task_dicts_match_dataclass_tasks(tiny_trace):
    graph = build_graph(tiny_trace)
    reference = make_task("reference")
    size = sys.getsizeof(reference.__dict__)
    for task in graph.tasks():
        assert sys.getsizeof(task.__dict__) == size, task
        assert "_cow_base" not in vars(task), task


def test_task_dicts_share_keys_in_a_fresh_interpreter():
    """In a clean process, where no earlier write can have unshared the
    keys, the built tasks' dicts match dataclass tasks made before and
    after construction."""
    script = textwrap.dedent("""
        import json, sys
        from helpers import make_tiny_model
        from repro.core.construction import build_graph
        from repro.core.task import Task, TaskKind
        from repro.framework.engine import profile_iteration
        from repro.tracing.records import cpu_thread

        def make(name):
            return Task(name=name, kind=TaskKind.CPU, thread=cpu_thread(0),
                        duration=1.0)

        trace = profile_iteration(make_tiny_model())
        first = make("first")
        graph = build_graph(trace)
        after = make("after")
        print(json.dumps({
            "built": sorted({sys.getsizeof(t.__dict__) for t in graph.tasks()}),
            "first": sys.getsizeof(first.__dict__),
            "after": sys.getsizeof(after.__dict__),
        }))
    """)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    sizes = json.loads(out)
    assert sizes["built"] == [sizes["first"]] == [sizes["after"]], sizes


# ----------------------------------------------------------------- barrier

def test_mapping_an_overlay_is_undone_on_close(tiny_trace):
    base = build_graph(tiny_trace, map_layers=False)
    before = base.tasks()
    with base.overlay() as overlay:
        sizes = [sys.getsizeof(t.__dict__) for t in before]
        assert map_tasks_to_layers(overlay, tiny_trace) > 0
        mapped = [t for t in overlay.tasks() if t.layer is not None]
        assert mapped
    # the mapping wrote shared tasks through the barrier; closing the
    # overlay wrote every one back in place
    after = base.tasks()
    assert all(a is b for a, b in zip(after, before))
    assert len(after) == len(before)
    assert all(t.layer is None and t.phase is None for t in after)
    assert [sys.getsizeof(t.__dict__) for t in after] == sizes


def test_mapping_a_lowered_graph_keeps_simulating_correctly(tiny_trace):
    graph = build_graph(tiny_trace, map_layers=False)
    before = simulate(graph)
    assert map_tasks_to_layers(graph, tiny_trace) > 0
    # layer/phase are not simulation inputs: the cached lowering stays
    # valid and answers exactly like a fresh lowering of the mapped graph
    after = simulate(graph)
    fresh = CompiledGraph.build(graph).run()
    assert after.start_us == fresh.start_us == before.start_us
    assert after.makespan_us == fresh.makespan_us == before.makespan_us
    assert any(task.layer is not None for task in graph.tasks())


def test_mapping_a_fresh_graph_writes_directly(tiny_trace):
    graph = build_graph(tiny_trace, map_layers=False)
    generation = graph._generation
    assert map_tasks_to_layers(graph, tiny_trace) > 0
    assert graph._generation == generation


# ------------------------------------------------------------------ errors

class TestFreshTaskChecks:
    def test_negative_duration(self):
        with pytest.raises(ConfigError, match="negative duration"):
            Task._fresh("t", TaskKind.CPU, cpu_thread(0), -1.0, 0.0, None,
                        0.0, 0.0, {})

    def test_negative_gap(self):
        with pytest.raises(ConfigError, match="negative gap"):
            Task._fresh("t", TaskKind.CPU, cpu_thread(0), 1.0, -1.0, None,
                        0.0, 0.0, {})

    def test_negative_event_duration_reaches_the_check(self):
        event = TraceEvent(category=EventCategory.RUNTIME, name="cudaFree",
                           start_us=0.0, duration_us=1.0,
                           thread=cpu_thread(0))
        event.duration_us = -1.0  # records are mutable after validation
        with pytest.raises(ConfigError, match="negative duration"):
            build_graph(Trace(events=[event]))


class TestBulkLinkChecks:
    def test_duplicate_within_one_call(self):
        graph = DependencyGraph()
        task = make_task("a")
        with pytest.raises(GraphConsistencyError, match="already in graph"):
            graph.extend(cpu_thread(0), [task, make_task("b"), task])
        assert len(graph) == 0 and task not in graph

    def test_task_already_linked(self):
        graph, tasks = chain(3)
        with pytest.raises(GraphConsistencyError, match="already in graph"):
            graph.extend(cpu_thread(0), [make_task("new"), tasks[1]])
        assert graph.tasks() == tasks

    def test_task_on_the_wrong_thread(self):
        graph = DependencyGraph()
        stray = make_task("stray", gpu_stream(0))
        with pytest.raises(GraphConsistencyError, match="claims"):
            graph.extend(cpu_thread(0), [make_task("a"), stray])
        assert len(graph) == 0

    def test_extend_continues_an_existing_thread(self):
        graph, tasks = chain(2)
        more = [make_task("x"), make_task("y")]
        graph.extend(cpu_thread(0), more)
        assert graph.tasks() == tasks + more
        assert graph.thread_predecessor(more[0]) is tasks[-1]
        graph.validate()


class TestValidateChecks:
    def test_broken_prev_link(self):
        graph, tasks = chain(3)
        graph._prev[tasks[2]] = tasks[0]
        with pytest.raises(GraphConsistencyError, match="broken prev link"):
            graph.validate()

    def test_task_claims_another_thread(self):
        graph, tasks = chain(3)
        object.__setattr__(tasks[1], "thread", gpu_stream(0))
        with pytest.raises(GraphConsistencyError, match="claims"):
            graph.validate()

    def test_broken_tail(self):
        graph, tasks = chain(3)
        graph._tails[cpu_thread(0)] = tasks[1]
        with pytest.raises(GraphConsistencyError, match="broken tail link"):
            graph.validate()

    def test_broken_count(self):
        graph, _ = chain(3)
        graph._counts[cpu_thread(0)] += 1
        with pytest.raises(GraphConsistencyError, match="count mismatch"):
            graph.validate()

    def test_unlinked_task_in_adjacency(self):
        graph, _ = chain(2)
        ghost = make_task("ghost")
        graph._succ[ghost] = set()
        graph._pred[ghost] = set()
        with pytest.raises(GraphConsistencyError, match="in adjacency"):
            graph.validate()

    def test_backward_edge_on_an_ordered_thread(self):
        graph, tasks = chain(4)
        graph.add_dependency(tasks[3], tasks[1])
        with pytest.raises(GraphConsistencyError,
                           match="contradicts thread order"):
            graph.validate()

    def test_backward_edge_reported_in_preference_to_a_cycle(self):
        graph, tasks = chain(3)
        gpu = [make_task(f"g{i}", gpu_stream(0)) for i in range(2)]
        graph.extend(gpu_stream(0), gpu)
        graph.add_dependency(gpu[1], tasks[0])
        graph.add_dependency(tasks[2], gpu[0])
        graph.add_dependency(tasks[2], tasks[1])
        with pytest.raises(GraphConsistencyError,
                           match="contradicts thread order"):
            graph.validate()

    def test_backward_edge_allowed_on_an_unordered_thread(self):
        graph, tasks = chain(3)
        graph.mark_unordered(cpu_thread(0))
        graph.add_dependency(tasks[2], tasks[0])
        graph.validate()

    def test_cross_thread_cycle(self):
        graph, tasks = chain(2)
        gpu = [make_task(f"g{i}", gpu_stream(0)) for i in range(2)]
        graph.extend(gpu_stream(0), gpu)
        graph.add_dependency(tasks[1], gpu[0])
        graph.add_dependency(gpu[1], tasks[0])
        with pytest.raises(GraphConsistencyError,
                           match="dependency cycle: only 0 of 4"):
            graph.validate()

    def test_cycle_on_unordered_thread(self):
        graph, tasks = chain(3)
        graph.mark_unordered(cpu_thread(0))
        graph.add_dependency(tasks[0], tasks[1])
        graph.add_dependency(tasks[1], tasks[0])
        with pytest.raises(GraphConsistencyError,
                           match="dependency cycle: only 1 of 3"):
            graph.validate()


def test_orphan_gpu_kernel():
    trace = Trace(events=[
        TraceEvent(category=EventCategory.RUNTIME, name="cudaLaunchKernel",
                   start_us=0.0, duration_us=2.0, thread=cpu_thread(0),
                   correlation_id=1),
        TraceEvent(category=EventCategory.KERNEL, name="orphan",
                   start_us=3.0, duration_us=5.0, thread=gpu_stream(0),
                   correlation_id=2),
    ])
    with pytest.raises(TraceError, match="correlation 2 has no launch API"):
        build_graph(trace)
