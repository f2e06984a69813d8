"""Differential tests: bulk graph construction against the per-event oracle.

``repro.core.construction.build_graph`` builds tasks without the write
barrier, links each thread in one pass, bisects for synchronization gates
and communication triggers, and validates in one fused pass.  The oracle in
``construction_oracle`` is the straightforward path it replaced.  Both must
produce the same graph bit for bit: thread order, every task field,
metadata (task references mapped across the two graphs), edge sets, the
layer mapping, and simulated start times.  On traces both reject, they
must raise the same error.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from construction_oracle import assert_same_graph, oracle_build_graph
from helpers import make_tiny_model

from repro.common.errors import TraceError
from repro.core.construction import build_graph
from repro.framework.config import TrainingConfig
from repro.framework.engine import profile_iteration
from repro.hw.device import GPU_2080TI
from repro.hw.network import NetworkSpec
from repro.hw.topology import ClusterSpec
from repro.models.registry import available_models, build_model
from repro.tracing.records import (
    EventCategory,
    TraceEvent,
    comm_channel,
    cpu_thread,
    gpu_stream,
)
from repro.tracing.trace import Trace


def _outcome(builder, trace):
    try:
        return builder(trace), None
    except Exception as exc:  # compared below: same type, same message
        return None, (type(exc), str(exc))


def assert_agrees(trace, map_layers: bool = True):
    """Both paths give the same graph or the same error; returns the error."""
    ours, our_error = _outcome(lambda t: build_graph(t, map_layers), trace)
    theirs, their_error = _outcome(
        lambda t: oracle_build_graph(t, map_layers), trace)
    assert our_error == their_error
    if our_error is None:
        assert_same_graph(ours, theirs)
    return our_error


# ------------------------------------------------------------ engine traces

@pytest.mark.parametrize("model", available_models())
def test_zoo_model(model):
    trace = profile_iteration(build_model(model))
    assert_agrees(trace)


@pytest.mark.parametrize("sync_before_allreduce", [False, True])
def test_distributed_trace_with_comm_edges(sync_before_allreduce):
    cluster = ClusterSpec(2, 2, GPU_2080TI, NetworkSpec(10.0))
    trace = profile_iteration(make_tiny_model(), cluster=cluster,
                              sync_before_allreduce=sync_before_allreduce)
    assert trace.by_category(EventCategory.COMM)
    assert_agrees(trace)
    graph = build_graph(trace)
    assert any(p.is_gpu for t in graph.tasks() if t.is_comm
               for p in graph.predecessors(t))


def test_resnet_distributed_trace():
    cluster = ClusterSpec(4, 1, GPU_2080TI, NetworkSpec(10.0))
    trace = profile_iteration(build_model("resnet50"), cluster=cluster,
                              sync_before_allreduce=True)
    assert_agrees(trace)


def test_dataloader_trace():
    trace = profile_iteration(make_tiny_model(),
                              TrainingConfig(data_loading_us=5_000.0))
    assert trace.by_category(EventCategory.DATALOAD)
    assert_agrees(trace)


def test_unmapped_graph():
    assert_agrees(profile_iteration(make_tiny_model()), map_layers=False)


# --------------------------------------------------------- hand-made traces

def ev(category, name, start, dur, thread, corr=None, meta=None):
    return TraceEvent(category=category, name=name, start_us=start,
                      duration_us=dur, thread=thread, correlation_id=corr,
                      metadata=meta or {})


def test_blocking_dtoh_trace():
    """Split DtoH APIs, including one whose name also marks it a sync."""
    cpu, stream = cpu_thread(0), gpu_stream(0)
    R, K, M = EventCategory.RUNTIME, EventCategory.KERNEL, EventCategory.MEMCPY
    trace = Trace(events=[
        ev(R, "cudaLaunchKernel", 0, 2, cpu, corr=1),
        ev(K, "k1", 2, 30, stream, corr=1),
        ev(R, "cudaMemcpyAsync_DtoH", 3, 40, cpu, corr=2),
        ev(M, "CUDA memcpy DtoH", 32, 8, stream, corr=2),
        ev(R, "cudaLaunchKernel", 50, 2, cpu, corr=3),
        ev(K, "k2", 52, 10, stream, corr=3),
        ev(R, "cudaMemcpyDtoHSynchronize", 53, 10, cpu, corr=4),
        ev(M, "CUDA memcpy DtoH", 62, 5, stream, corr=4),
        ev(R, "cudaFree", 80, 1, cpu),
    ])
    assert assert_agrees(trace) is None
    waits = [t for t in build_graph(trace).tasks() if t.name.endswith("#wait")]
    assert len(waits) == 2


def test_overlapping_stream_events():
    """Non-monotone end times on a stream: gating stops at the first late end."""
    cpu, stream = cpu_thread(0), gpu_stream(1)
    R, K = EventCategory.RUNTIME, EventCategory.KERNEL
    trace = Trace(events=[
        ev(R, "cudaLaunchKernel", 0, 1, cpu, corr=1),
        ev(R, "cudaLaunchKernel", 1, 1, cpu, corr=2),
        ev(R, "cudaLaunchKernel", 2, 1, cpu, corr=3),
        ev(K, "long", 5, 100, stream, corr=1),
        ev(K, "short", 6, 4, stream, corr=2),
        ev(K, "tail", 7, 2, stream, corr=3),
        ev(R, "cudaStreamSynchronize", 3, 20, cpu),
        ev(R, "cudaDeviceSynchronize", 30, 90, cpu),
    ])
    assert assert_agrees(trace) is None


def test_orphan_error_matches():
    trace = Trace(events=[
        ev(EventCategory.RUNTIME, "cudaLaunchKernel", 0, 2, cpu_thread(0),
           corr=1),
        ev(EventCategory.KERNEL, "k", 2, 5, gpu_stream(0), corr=1),
        ev(EventCategory.KERNEL, "orphan", 7, 5, gpu_stream(0), corr=9),
    ])
    assert assert_agrees(trace)[0] is TraceError


# ------------------------------------------------------- generated traces

@st.composite
def sync_heavy_traces(draw):
    """A CPU thread launching kernels/copies onto streams, with many syncs.

    Times are small integers so end-time ties are common; kernels may
    overlap on a stream (non-monotone ends); occasional all-reduces land on
    a comm channel and a loader thread hands a batch to an upload.
    """
    n_streams = draw(st.integers(1, 3))
    free = [0.0] * n_streams
    events = []
    now = 0.0
    corr = 0
    loaded = draw(st.booleans())
    if loaded:
        events.append(ev(EventCategory.DATALOAD, "dataload", 0.0, 3.0,
                         cpu_thread(1), meta={"produces_batch": 0}))
        now = 3.0
    ops = draw(st.lists(
        st.sampled_from(["launch", "launch", "launch", "sync", "sync",
                         "stream_sync", "stream_sync", "dtoh", "comm",
                         "upload", "cpu"]),
        min_size=6, max_size=60))
    for op in ops:
        dur = float(draw(st.integers(0, 6)))
        stream = draw(st.integers(0, n_streams - 1))
        if op in ("launch", "dtoh", "upload"):
            corr += 1
            name = {"launch": "cudaLaunchKernel",
                    "dtoh": "cudaMemcpyAsync_DtoH",
                    "upload": "cudaMemcpyAsync"}[op]
            meta = {"consumes_batch": 0} if op == "upload" else None
            api_end = now + max(dur, 1.0)
            events.append(ev(EventCategory.RUNTIME, name, now, api_end - now,
                             cpu_thread(0), corr=corr))
            overlap = draw(st.booleans())
            start = api_end + float(draw(st.integers(0, 3)))
            if not overlap:
                start = max(start, free[stream])
            kdur = float(draw(st.integers(0, 12)))
            category = (EventCategory.KERNEL if op == "launch"
                        else EventCategory.MEMCPY)
            events.append(ev(category, f"{op}{corr}", start, kdur,
                             gpu_stream(stream), corr=corr, meta=meta))
            free[stream] = max(free[stream], start + kdur)
            now = api_end
        elif op in ("sync", "stream_sync"):
            name = ("cudaDeviceSynchronize" if op == "sync"
                    else "cudaStreamSynchronize")
            wait = float(draw(st.integers(0, 20)))
            events.append(ev(EventCategory.RUNTIME, name, now, dur + wait,
                             cpu_thread(0)))
            now += dur + wait
        elif op == "comm":
            start = max(free) + float(draw(st.integers(-2, 2)))
            events.append(ev(EventCategory.COMM, "allreduce", max(start, 0.0),
                             dur + 1.0, comm_channel(0)))
        else:
            events.append(ev(EventCategory.RUNTIME, "cudaFree", now, dur,
                             cpu_thread(0)))
            now += dur
        now += float(draw(st.integers(0, 2)))
    # an iteration ends by draining every stream
    events.append(ev(EventCategory.RUNTIME, "cudaDeviceSynchronize", now,
                     max(free) - now + 1.0 if max(free) > now else 1.0,
                     cpu_thread(0)))
    return Trace(events=events)


_GENERATED = Counter()


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sync_heavy_traces())
def _check_generated(trace):
    error = assert_agrees(trace)
    _GENERATED["rejected" if error else "built"] += 1
    if error is None:
        syncs = sum(1 for e in trace.events if "Synchronize" in e.name)
        _GENERATED["syncs"] += syncs


def test_generated_sync_heavy_traces():
    _GENERATED.clear()
    _check_generated()
    # the generator is causal, so most traces must build (and carry syncs)
    assert _GENERATED["built"] >= 0.8 * sum(
        _GENERATED[k] for k in ("built", "rejected"))
    assert _GENERATED["syncs"] >= 2 * _GENERATED["built"]
