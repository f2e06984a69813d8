"""Property tests: the simulation engine matches a naive reference.

The engine in :mod:`repro.core.compiled` (behind
:func:`repro.core.simulate.simulate`) must be *behavior-identical* to
Algorithm 1's frontier-scan formulation — same ``start_us`` for every
task, same makespan, same per-thread busy intervals — including on graphs
with unordered communication channels (where dispatch order matters) and
under P3's priority policy.  The reference,
``simulate_oracle.naive_simulate``, is written independently against the
public graph API and scans the whole frontier every dispatch; it is the
single oracle for full-result identity.
"""

from hypothesis import given, settings, strategies as st

from simulate_oracle import naive_simulate

from repro.core.compiled import CompiledGraph
from repro.core.graph import DependencyGraph
from repro.core.simulate import make_priority_scheduler, simulate
from repro.core.task import Task, TaskKind
from repro.tracing.records import comm_channel, cpu_thread, gpu_stream


def make_task(name, thread, duration, gap=0.0, kind=TaskKind.CPU, priority=0):
    return Task(name=name, kind=kind, thread=thread, duration=duration,
                gap=gap, priority=priority)


def comm_priority(task):
    return -float(task.priority) if task.is_comm else 0.0


def assert_matches_reference(result, graph, key=None):
    """Full-result identity with the oracle: starts, makespan, busy
    intervals — compared exactly, no tolerance."""
    ref_start, ref_makespan, ref_busy = naive_simulate(graph, key)
    assert result.makespan_us == ref_makespan
    assert result.start_us == ref_start
    assert result.thread_busy == ref_busy


@st.composite
def random_graph(draw):
    """Random DAG: ordered CPU+GPU threads, an unordered comm channel."""
    g = DependencyGraph()
    n_cpu = draw(st.integers(min_value=1, max_value=8))
    n_gpu = draw(st.integers(min_value=0, max_value=8))
    n_comm = draw(st.integers(min_value=0, max_value=6))
    dur = st.floats(min_value=0.0, max_value=10.0)
    gap = st.floats(min_value=0.0, max_value=3.0)
    cpu = [g.append(make_task(f"c{i}", cpu_thread(0), draw(dur), draw(gap)))
           for i in range(n_cpu)]
    gpu = [g.append(make_task(f"g{i}", gpu_stream(0), draw(dur),
                              kind=TaskKind.GPU_KERNEL))
           for i in range(n_gpu)]
    # launch/sync-like cross edges, forward-only for acyclicity
    last_launch = 0
    for j in range(n_gpu):
        i = draw(st.integers(min_value=last_launch, max_value=n_cpu - 1))
        last_launch = i
        g.add_dependency(cpu[i], gpu[j])
        if draw(st.booleans()) and last_launch + 1 < n_cpu:
            k = draw(st.integers(min_value=last_launch + 1,
                                 max_value=n_cpu - 1))
            g.add_dependency(gpu[j], cpu[k])
    if n_comm:
        channel = comm_channel(0)
        g.mark_unordered(channel)
        for i in range(n_comm):
            task = g.append(make_task(
                f"m{i}", channel, draw(dur), kind=TaskKind.COMM,
                priority=draw(st.integers(min_value=0, max_value=5))))
            # gate some transfers on compute finishing (like push-after-bwd)
            if gpu and draw(st.booleans()):
                g.add_dependency(gpu[draw(st.integers(
                    min_value=0, max_value=n_gpu - 1))], task)
            elif draw(st.booleans()):
                g.add_dependency(cpu[draw(st.integers(
                    min_value=0, max_value=n_cpu - 1))], task)
    return g


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_event_driven_matches_reference_default_schedule(g):
    g.validate()
    assert_matches_reference(simulate(g), g)


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_event_driven_matches_reference_priority_schedule(g):
    result = simulate(g, make_priority_scheduler(lambda t: t.is_comm))
    assert_matches_reference(result, g, comm_priority)


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_simulation_leaves_no_scratch_state(g):
    before = [(task, list(vars(task)), dict(task.metadata))
              for task in g.tasks()]
    simulate(g)
    simulate(g, make_priority_scheduler(lambda t: t.is_comm))
    assert [(task, list(vars(task)), dict(task.metadata))
            for task in g.tasks()] == before


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_array_engine_matches_reference_default_schedule(g):
    assert_matches_reference(CompiledGraph.build(g).run(), g)


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_array_engine_matches_object_engine_bitwise(g):
    """Full-result identity between ``simulate`` (the graph's cached
    lowering) and a fresh lowering: starts, makespan, busy intervals."""
    object_result = simulate(g)
    result = CompiledGraph.build(g).run()
    assert result.makespan_us == object_result.makespan_us
    assert result.start_us == object_result.start_us
    assert result.thread_busy == object_result.thread_busy


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_array_engine_matches_reference_priority_schedule(g):
    policy = make_priority_scheduler(lambda t: t.is_comm)
    assert_matches_reference(CompiledGraph.build(g).run(policy), g,
                             comm_priority)


@st.composite
def graph_and_writes(draw):
    """A random graph plus rounds of in-place duration/gap writes, some
    made through a question-scoped overlay."""
    g = draw(random_graph())
    n = len(g)
    write = st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.sampled_from(["duration", "gap", "scale"]),
                      st.floats(min_value=0.0, max_value=10.0))
    rounds = draw(st.lists(
        st.tuples(st.booleans(), st.lists(write, max_size=6)),
        min_size=1, max_size=4))
    return g, rounds


def _apply(tasks, writes):
    for index, field_name, value in writes:
        task = tasks[index]
        if field_name == "scale":
            task.scale_duration(value / 5.0)
        else:
            setattr(task, field_name, value)


def _assert_fresh(graph):
    """``simulate`` (cached lowering) equals a fresh lowering and the
    oracle, under both policies."""
    policy = make_priority_scheduler(lambda t: t.is_comm)
    fresh = CompiledGraph.build(graph)
    for pol, key in ((None, None), (policy, comm_priority)):
        cached = simulate(graph, pol)
        expected = fresh.run(pol)
        assert cached.makespan_us == expected.makespan_us
        assert cached.start_us == expected.start_us
        assert cached.thread_busy == expected.thread_busy
        assert_matches_reference(cached, graph, key)


@settings(max_examples=80, deadline=None)
@given(graph_and_writes())
def test_in_place_writes_between_simulates_match_a_fresh_lowering(case):
    g, rounds = case
    _assert_fresh(g)
    lowered = g._compiled
    simulate(g)
    assert g._compiled is lowered  # an unchanged graph reuses its lowering
    for through_overlay, writes in rounds:
        if through_overlay:
            with g.overlay() as working:
                _apply(working.tasks(), writes)
                _assert_fresh(working)
        else:
            _apply(g.tasks(), writes)
        _assert_fresh(g)
