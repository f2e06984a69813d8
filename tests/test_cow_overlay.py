"""Copy-on-write overlay semantics: base graphs come back pristine.

``DependencyGraph.overlay()`` shares task objects with the base and
journals the first write to each; closing the overlay writes them back in
place.  These tests pin down the isolation contract the what-if session
relies on (paper Section 7.1: one profile, many questions): after close
the base is the same objects with the same bits, and while an overlay is
open (or after it closed) misuse raises instead of answering wrong.
"""

import gc
import math
import multiprocessing
import re
import sys

import pytest

from helpers import registry_questions

from repro.analysis.session import WhatIfSession
from repro.common.errors import GraphConsistencyError
from repro.core.compiled import compiled_for
from repro.core.graph import DependencyGraph
from repro.core.simulate import simulate
from repro.core.task import Task, TaskKind
from repro.framework.config import TrainingConfig
from repro.framework.engine import Engine
from repro.hw.device import GPU_2080TI
from repro.hw.network import NetworkSpec
from repro.hw.topology import ClusterSpec
from repro.optimizations import (
    AutomaticMixedPrecision,
    DistributedTraining,
    FusedAdam,
    OptimizationModel,
)
from repro.optimizations.hardware import CpuUpgrade, GpuUpgrade
from repro.tracing.records import cpu_thread, gpu_stream


def make_task(name, thread=None, duration=1.0):
    return Task(name=name, kind=TaskKind.CPU, thread=thread or cpu_thread(0),
                duration=duration)


@pytest.fixture
def tiny_graph(tiny_trace):
    from repro.core.construction import build_graph
    return build_graph(tiny_trace)


def state(graph):
    """Everything closing an overlay must give back, task by task.

    Tasks by identity; per task its instance-dict keys in order, every
    value by identity, the dict's allocated size and its metadata items.
    """
    return [(task, list(vars(task)), list(vars(task).values()),
             sys.getsizeof(vars(task)), list(task.metadata.items()))
            for task in graph.tasks()]


def assert_restored(graph, before):
    after = state(graph)
    assert len(after) == len(before)
    for (task, keys, values, size, meta), (task2, keys2, values2, size2,
                                           meta2) in zip(before, after):
        assert task2 is task
        assert keys2 == keys, task
        assert all(a is b for a, b in zip(values, values2)), task
        assert size2 == size, task
        assert [k for k, _ in meta2] == [k for k, _ in meta], task
        assert all(a is b for (_, a), (_, b) in zip(meta, meta2)), task


class TestOverlayIsolation:
    def test_overlay_write_is_journaled_and_undone_on_close(self):
        g = DependencyGraph()
        a = g.append(make_task("a", duration=3.0))
        with g.overlay() as overlay:
            assert overlay.tasks()[0] is a  # shared, never cloned
            a.duration = 99.0
            assert overlay.tasks()[0].duration == 99.0
        (base_a,) = g.tasks()
        assert base_a is a
        assert a.duration == 3.0

    def test_close_restores_every_task_bit_for_bit(self, tiny_graph):
        # one earlier question seals every task, as in a warm session
        with tiny_graph.overlay():
            pass
        compiled_for(tiny_graph)  # stamps ride in the journal too
        before = state(tiny_graph)
        with tiny_graph.overlay() as overlay:
            for task in overlay.select(lambda t: t.is_gpu):
                task.scale_duration(0.25)
                task.gap = -0.0
                task.metadata["scratch"] = True
            for task in overlay.select(lambda t: t.is_cpu)[::2]:
                task.metadata = {}
                task.layer = "rewritten"
                task.priority = 7
            compiled_for(overlay)  # re-stamps the written tasks
        assert_restored(tiny_graph, before)
        for task in tiny_graph.tasks():
            assert math.copysign(1.0, task.gap) == 1.0
        tiny_graph.validate()

    def test_structural_mutation_never_touches_base(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b", thread=gpu_stream(0)))
        g.add_dependency(a, b)
        with g.overlay() as overlay:
            overlay.remove(b)
            overlay.insert_after(a, make_task("x"))
            overlay.add_dependency(overlay.tasks()[0], overlay.tasks()[1])
            overlay.validate()
        assert len(g) == 2
        assert b in g
        assert g.successors(a) == {b}
        g.validate()

    def test_close_restores_launch_kernel_links(self, tiny_graph):
        with tiny_graph.overlay() as overlay:
            kernel = next(t for t in overlay.tasks()
                          if isinstance(t.metadata.get("launched_by"), Task))
            launch = kernel.metadata["launched_by"]
            kernel.duration = kernel.duration * 2
            launch.metadata = {"launches": None}
            kernel.metadata["launched_by"] = None
        assert kernel in tiny_graph and launch in tiny_graph
        assert launch.metadata["launches"] is kernel
        assert kernel.metadata["launched_by"] is launch
        tiny_graph.validate()

    def test_base_resimulates_identically_after_heavy_overlay_mutation(
            self, tiny_graph):
        baseline = simulate(tiny_graph)
        with tiny_graph.overlay() as overlay:
            for task in overlay.select(lambda t: t.is_gpu):
                task.scale_duration(0.25)
            for task in list(overlay.iter_tasks_on(cpu_thread(0)))[::3]:
                overlay.remove(task)
            assert simulate(overlay).makespan_us != baseline.makespan_us
        again = simulate(tiny_graph)
        assert again.makespan_us == baseline.makespan_us
        assert again.start_us == baseline.start_us
        tiny_graph.validate()

    def test_open_overlay_locks_its_base(self, tiny_graph):
        task = tiny_graph.tasks()[0]
        other = tiny_graph.tasks()[-1]
        fresh = make_task("fresh")
        uses = [
            lambda g: simulate(g),
            lambda g: compiled_for(g),
            lambda g: g.copy(),
            lambda g: g.overlay(),
            lambda g: g.append(fresh),
            lambda g: g.extend(cpu_thread(0), [fresh]),
            lambda g: g.insert_after(task, fresh),
            lambda g: g.insert_before(task, fresh),
            lambda g: g.remove(task),
            lambda g: g.add_dependency(task, other),
            lambda g: g.remove_dependency(task, other),
            lambda g: g.mark_unordered(cpu_thread(0)),
        ]
        with tiny_graph.overlay() as overlay:
            for use in uses:
                with pytest.raises(GraphConsistencyError,
                                   match=re.escape(repr(overlay))):
                    use(tiny_graph)
        tiny_graph.validate()
        simulate(tiny_graph)
        tiny_graph.overlay().close()

    def test_second_overlay_waits_for_the_first_to_close(self, tiny_graph):
        first = tiny_graph.overlay()
        for task in first.select(lambda t: t.is_gpu):
            task.scale_duration(0.5)
        with pytest.raises(GraphConsistencyError, match="locked"):
            tiny_graph.overlay()
        first.close()
        baseline = simulate(tiny_graph).makespan_us
        with tiny_graph.overlay() as second:
            assert simulate(second).makespan_us == baseline
        tiny_graph.validate()

    def test_closed_overlay_refuses_simulation_and_mutation(self, tiny_graph):
        with tiny_graph.overlay() as overlay:
            task = overlay.tasks()[0]
        for use in (lambda g: simulate(g), lambda g: compiled_for(g),
                    lambda g: g.copy(), lambda g: g.remove(task),
                    lambda g: g.append(make_task("late"))):
            with pytest.raises(GraphConsistencyError, match="closed"):
                use(overlay)
        overlay.close()  # idempotent

    def test_overlay_of_overlay_falls_back_to_copy(self, tiny_graph):
        overlay = tiny_graph.overlay()
        nested = overlay.overlay()
        nested_tasks = nested.tasks()
        assert all(a is not b for a, b in zip(nested_tasks, overlay.tasks()))
        nested.validate()


class TestCowSession:
    @pytest.fixture
    def session(self, tiny_model):
        trace = Engine(model=tiny_model,
                       config=TrainingConfig()).run_iteration()
        return WhatIfSession.from_trace(trace)

    def test_predictions_match_deep_copy_sessions(self, session):
        """``predict_simulation`` transforms a deep copy: the reference."""
        cluster = ClusterSpec(2, 2, GPU_2080TI, NetworkSpec(bandwidth_gbps=10))
        reference = WhatIfSession.from_trace(session.trace, session.config)
        for optimization, cl in [(FusedAdam(), None),
                                 (AutomaticMixedPrecision(), None),
                                 (DistributedTraining(), cluster)]:
            cow = session.predict(optimization, cluster=cl)
            deep = reference.predict_simulation(optimization, cluster=cl)[1]
            assert cow.predicted_us == deep.makespan_us
            assert cow.baseline_us == reference.baseline_us

    def test_baseline_and_breakdown_stable_across_questions(self, session):
        baseline = session.baseline_us
        breakdown = session.breakdown().as_row()
        session.predict(FusedAdam())
        session.predict(AutomaticMixedPrecision())
        assert session.baseline_us == baseline
        assert session.breakdown().as_row() == breakdown
        assert simulate(session.graph).makespan_us == baseline

    def test_sweep_matches_serial_predicts(self, session):
        cluster = ClusterSpec(2, 1, GPU_2080TI, NetworkSpec(bandwidth_gbps=10))
        questions = [FusedAdam(), AutomaticMixedPrecision(),
                     (DistributedTraining(), cluster)]
        serial = [session.predict(FusedAdam()),
                  session.predict(AutomaticMixedPrecision()),
                  session.predict(DistributedTraining(), cluster=cluster)]
        swept = session.sweep(questions, processes=1)
        assert [p.predicted_us for p in swept] == \
            [p.predicted_us for p in serial]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_sweep_parallel_matches_serial(self, session):
        questions = [FusedAdam(), AutomaticMixedPrecision()]
        serial = session.sweep(questions, processes=1)
        parallel = session.sweep(questions, processes=2)
        assert [p.predicted_us for p in parallel] == \
            [p.predicted_us for p in serial]
        # forked workers never corrupt the parent's baseline
        assert simulate(session.graph).makespan_us == session.baseline_us

    def test_failed_apply_restores_base_and_resumes_collector(self, session):
        session.predict(FusedAdam())  # warm: baseline lowered, tasks sealed
        baseline = simulate(session.graph)
        before = state(session.graph)

        collector_during_apply = []

        class Exploding(OptimizationModel):
            name = "exploding"

            def apply(self, graph, context):
                collector_during_apply.append(gc.isenabled())
                for task in graph.select(lambda t: t.is_gpu):
                    task.duration = 0.0
                graph.remove(graph.tasks()[0])
                raise RuntimeError("boom")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            session.predict(Exploding())
        assert collector_during_apply == [False]
        assert gc.isenabled()
        assert_restored(session.graph, before)
        again = simulate(session.graph)
        assert again.start_us == baseline.start_us
        assert session.predict(FusedAdam()).predicted_us > 0

    def test_predict_simulation_hands_out_a_detached_graph(self, session):
        graph, result = session.predict_simulation(AutomaticMixedPrecision())
        base_tasks = set(session.graph.tasks())
        assert not any(t in base_tasks for t in graph.tasks())
        # the base is not locked by the graph the caller kept
        assert session.predict(AutomaticMixedPrecision()).predicted_us == \
            result.makespan_us
        graph.tasks()[0].duration = 1e9
        assert simulate(session.graph).makespan_us == session.baseline_us


def live_tasks():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Task)


def test_warm_session_memory_stays_flat(resnet_trace):
    """Answering questions must not retain tasks: question 30 leaves as
    many live tasks behind as question 3 did."""
    session = WhatIfSession.from_trace(resnet_trace)
    questions = [GpuUpgrade(1.5), CpuUpgrade(2.0)] * 15
    for asked, question in enumerate(questions, 1):
        session.predict(question)
        if asked == 3:
            after_three = live_tasks()
    assert live_tasks() == after_three


@pytest.mark.parametrize("model, trace_fixture", [
    ("resnet50", "resnet_trace"), ("bert_base", "bert_base_trace")])
def test_registry_predictions_match_deep_copies(model, trace_fixture,
                                                request):
    """Every shipped optimization answers bit-identically through the
    journal and through a deep copy (``predict_simulation``), and leaves
    the base graph exactly as construction built it."""
    from construction_oracle import assert_same_graph
    from repro.core.construction import build_graph

    trace = request.getfixturevalue(trace_fixture)
    cow = WhatIfSession.from_trace(trace)
    deep = WhatIfSession(trace, cow.config)
    questions = registry_questions(model)
    assert len(questions) == 13
    for key, pipeline, cluster in questions:
        ours = cow.predict(pipeline, cluster=cluster)
        _, theirs = deep.predict_simulation(pipeline, cluster=cluster)
        assert ours.predicted_us == theirs.makespan_us, key
        assert ours.baseline_us == deep.baseline_us, key
    assert_same_graph(cow.graph, build_graph(trace), allow_seals=True)
