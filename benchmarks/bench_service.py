"""Load-test the prediction daemon: latency, QPS and warm-hit ratio.

The service promises the paper's value proposition *as a service*: once a
workload's session is warm and its answers are memoized, a what-if query
costs an HTTP round-trip plus a store read — no profiling, no simulation.
This driver stands up one real daemon (socket and all), hammers it with
concurrent threaded clients drawn from a small scenario mix, and records
the numbers the ROADMAP asks for in ``BENCH_service.json``: p50/p99
request latency, sustained QPS, and the warm-hit ratio under load.  Every
response is also checked against the serial path, so the load test is a
correctness test at volume.

A second row times one warm memo hit in-process (no HTTP) against one
``build_model`` of the same model in the same process: a hit validates an
already-proved workload and reads the store, so it must cost a small
fraction of one model build (gate: at most ``HIT_VS_BUILD_MAX``).

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke) shrinks the client
count and request volume and writes ``BENCH_service_quick.json`` so the
committed full-mode record never gets clobbered by a CI runner's timings.
"""

import json
import os
import shutil
import tempfile
import threading
import time
import urllib.request

from conftest import run_once
from repro.models.registry import build_model
from repro.scenarios import (
    PredictServer,
    PredictService,
    Scenario,
    ScenarioRunner,
    SweepStore,
)

#: quick mode (CI smoke): fewer clients, fewer requests, one workload
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: quick runs must not clobber the committed full-mode record
BENCH_SERVICE_JSON = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "BENCH_service_quick.json" if QUICK else "BENCH_service.json")

CLIENTS = 2 if QUICK else 8
REQUESTS_PER_CLIENT = 5 if QUICK else 40

#: a warm in-process memo hit may cost at most this many model builds
HIT_VS_BUILD_MAX = 0.25
#: in-process timing: best of REPEATS means over CALLS calls each
REPEATS = 3 if QUICK else 7
CALLS = 20 if QUICK else 100


def _record(fields):
    """Merge one benchmark's fields into the service record."""
    try:
        with open(BENCH_SERVICE_JSON) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = {}
    record.update(fields)
    with open(BENCH_SERVICE_JSON, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def _scenario_mix():
    """The workload mix clients draw from (two models, two stacks full)."""
    models = ["resnet50"] if QUICK else ["resnet50", "vgg19"]
    return [Scenario(model=model, optimizations=stack)
            for model in models
            for stack in ([], ["amp"])]


def _post_predict(url: str, body: bytes):
    """One client request; returns ``(latency_s, parsed response)``."""
    request = urllib.request.Request(url + "/predict", data=body)
    t0 = time.perf_counter()
    with urllib.request.urlopen(request, timeout=60) as response:
        payload = json.loads(response.read())
    return time.perf_counter() - t0, payload


def _percentile(samples, q):
    """Nearest-rank percentile (samples must be non-empty)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[rank]


def test_service_latency_qps_and_warm_hits(benchmark):
    """One daemon, many clients: every answer exact, and fast when warm."""
    mix = _scenario_mix()
    expected = {s.label(): ScenarioRunner().run(s).as_row() for s in mix}
    bodies = [(s.label(), json.dumps(s.to_dict()).encode("utf-8"))
              for s in mix]
    tmp = tempfile.mkdtemp(prefix="bench-service-")

    def run():
        store = SweepStore(os.path.join(tmp, "store"))
        service = PredictService(store=store, workers=4)
        latencies = []
        failures = []
        lock = threading.Lock()

        with PredictServer(service) as server:
            # cold pass: one request per scenario pays profile + simulate
            t0 = time.perf_counter()
            for label, body in bodies:
                _, answer = _post_predict(server.url, body)
                if answer["row"] != expected[label] or answer["cached"]:
                    failures.append(("cold", label, answer))
            cold_s = time.perf_counter() - t0

            def client(worker: int) -> None:
                for round_ in range(REQUESTS_PER_CLIENT):
                    label, body = bodies[(worker + round_) % len(bodies)]
                    try:
                        latency, answer = _post_predict(server.url, body)
                    except Exception as exc:  # noqa: BLE001 — reported
                        with lock:
                            failures.append((worker, round_, repr(exc)))
                        return
                    with lock:
                        latencies.append(latency)
                        if answer["row"] != expected[label]:
                            failures.append((worker, round_, answer))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(CLIENTS)]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed_s = time.perf_counter() - t0
        return service, latencies, failures, cold_s, elapsed_s

    try:
        service, latencies, failures, cold_s, elapsed_s = \
            run_once(benchmark, run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    assert not failures, failures[:5]
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(latencies) == total

    memo = service.stats()["memo"]
    # warm-hit ratio over the loaded phase: of the `total` requests, all
    # were memoized by the cold pass, so every one should be a store hit
    warm_hits = memo["hits"]
    warm_ratio = warm_hits / total
    p50_ms = _percentile(latencies, 0.50) * 1000.0
    p99_ms = _percentile(latencies, 0.99) * 1000.0
    qps = total / elapsed_s if elapsed_s > 0 else float("inf")

    payload = {
        "mode": "quick" if QUICK else "full",
        "clients": CLIENTS,
        "requests": total,
        "scenario_mix": len(bodies),
        "workers": 4,
        "cold_pass_s": round(cold_s, 4),
        "p50_ms": round(p50_ms, 3),
        "p99_ms": round(p99_ms, 3),
        "qps": round(qps, 1),
        "warm_hit_ratio": round(warm_ratio, 4),
        "protocol": "one HTTP daemon + sweep-store memo; cold pass "
                    "answers each scenario once, then N threaded clients "
                    "replay the mix; latency is client-side wall clock "
                    "per request, every row checked against the serial "
                    "path",
    }
    _record(payload)

    assert warm_ratio >= 0.99, payload
    assert qps > (1.0 if QUICK else 20.0), payload
    assert p99_ms >= p50_ms > 0.0, payload


def _best_mean_s(call) -> float:
    """Best-of-REPEATS mean seconds per call over CALLS calls."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            call()
        best = min(best, (time.perf_counter() - t0) / CALLS)
    return best


def test_memo_hit_costs_a_fraction_of_one_model_build(benchmark):
    """A warm in-process hit builds no model spec: a fraction of one build."""
    scenario = Scenario(model="resnet50", optimizations=["amp"])
    payload = scenario.to_dict()
    expected = ScenarioRunner().run(scenario).as_row()
    tmp = tempfile.mkdtemp(prefix="bench-service-hit-")

    def run():
        service = PredictService(store=SweepStore(os.path.join(tmp, "store")))
        cold = service.predict(payload)
        warm = service.predict(payload)
        hit_s = _best_mean_s(lambda: service.predict(payload))
        build_s = _best_mean_s(lambda: build_model(scenario.model))
        return cold, warm, hit_s, build_s

    try:
        cold, warm, hit_s, build_s = run_once(benchmark, run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    assert cold["cached"] is False and warm["cached"] is True
    assert cold["row"] == warm["row"] == expected
    fields = {
        "memo_hit_ms": round(hit_s * 1000.0, 4),
        "memo_hit_build_model_ms": round(build_s * 1000.0, 4),
        "memo_hit_vs_build": round(hit_s / build_s, 4),
        "memo_hit_protocol": f"in-process PredictService.predict of one "
                             f"memoized {scenario.label()!r} (no HTTP) "
                             f"vs one build_model({scenario.model!r}) in "
                             f"the same process; best of {REPEATS} means "
                             f"over {CALLS} calls each",
    }
    _record(fields)
    assert hit_s <= HIT_VS_BUILD_MAX * build_s, fields
