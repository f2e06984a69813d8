"""The repository benchmark: four seeded workloads through the public API.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``cold_question`` — one client, each question a fresh
  ``ScenarioRunner().run`` (the in-process ``repro run``);
* ``whatif_stream`` — one client streaming questions at one warm runner;
* ``serve_mixed`` — two client threads against a ``repro serve-predict``
  daemon: ~85 % memo hits, ~15 % fresh scenarios;
* ``sweep_store`` — repeated ``run_batch`` sweeps of a 48-cell grid over
  a store that already holds half the cells.

Every answer is checked, outside the timed region, bit for bit against a
fresh serial ``ScenarioRunner`` (and, for the default seed, against the
committed digests in ``expected.json``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced, then again
with span wrappers installed (:mod:`spans`), prints the per-layer metrics
and writes a Chrome trace to ``.perfbench/``.  The last line of standard
output is always the JSON result.

``python3 perfbench/run.py --record-expected`` rewrites ``expected.json``
from the serial path (do it only when a change is meant to move rows).
"""

import argparse
import gc
import hashlib
import http.client
import json
import os
import queue
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import calib
import inputs
import spans as spans_mod

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_ROOT = ".perfbench"
DEFAULT_SEED = 1
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: host-speed probes (see calib) between two set-ups or two sweeps;
#: cold_question and whatif_stream probe once before every question
PROBES = 5
#: clients, daemon simulation workers and sweep workers: never above nproc
JOBS = max(1, min(2, os.cpu_count() or 1))
#: whatif_stream and serve_mixed read peak RSS after this many answers
#: (or at the end of a shorter run): their sessions grow with every
#: question, so a whole-run peak would grow with throughput and read a
#: faster program as a memory regression
RSS_AFTER = {"whatif_stream": 65, "serve_mixed": 400}
#: serve_mixed's clients stop for a host-speed probe after every slice
SLICE_S = 0.25
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import repro.scenarios; print(time.perf_counter() - t)")

WORKLOADS = ("cold_question", "whatif_stream", "serve_mixed", "sweep_store")
#: calibration siblings (see calib): serve_mixed's daemon and clients and
#: sweep_store's workers keep JOBS cores busy, the others one
SIBLINGS = {"cold_question": 0, "whatif_stream": 0,
            "serve_mixed": JOBS - 1, "sweep_store": JOBS - 1}

#: spans reported as ``<name>.calls`` and ``<name>.total_ms``
LAYER_SPANS = tuple(name for name, *_ in spans_mod.TARGETS) + tuple(
    f"optimizations.apply.{key}" for key in inputs.OPTIMIZATIONS)
#: spans that enclose other spans, also reported as ``<name>.self_ms``
SELF_SPANS = ("optimizations.apply", "analysis.session.predict",
              "scenarios.runner.run", "scenarios.scenario.build_model",
              "scenarios.service.predict")


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_ms"] = "ms"
    for name in SELF_SPANS:
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "framework.engine.events_per_s": "1/s",
        "core.construction.tasks_per_s": "1/s",
        "core.simulate.tasks_per_s": "1/s",
        "scenarios.store.hit_ratio": "ratio",
        "scenarios.service.http_overhead_ms": "ms",
        "scenarios.batch.cells_computed": "count",
        "scenarios.batch.cells_cached": "count",
        "scenarios.batch.worker_busy_frac": "ratio",
        "trace.throughput_ratio": "ratio",
    })
    return units


END_TO_END_UNITS = {"latency_p50_ms": "ms", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


# ----------------------------------------------------------------- helpers

def digest(row) -> str:
    """Short content digest of one answer row."""
    return hashlib.sha256(json.dumps(row).encode()).hexdigest()[:12]


def median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1000.0 if samples else 0.0


def p90_ms(samples: List[float]) -> Optional[float]:
    """p90 only where at least 100 samples back it (10 beyond it)."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10)[8] * 1000.0


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(speed: calib.HostSpeed,
                  step: Callable[[], float]) -> Tuple[float, float]:
    """Run ``step`` (which returns the seconds it timed) SETUP_REPEATS
    times, probing the host between; return the median host seconds and
    the median reference-host seconds."""
    spans = []
    for _ in range(SETUP_REPEATS):
        speed.probe(PROBES)
        start = time.perf_counter()
        spans.append((start, step()))
    speed.probe(PROBES)
    return (statistics.median(seconds for _, seconds in spans),
            statistics.median(speed.reference(spans)))


def import_seconds(speed: calib.HostSpeed) -> Tuple[float, float]:
    """Time a fresh interpreter takes to import the scenario API."""
    def step() -> float:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             env=child_env(), capture_output=True,
                             text=True, timeout=60, check=True)
        return float(out.stdout.strip().splitlines()[-1])
    return setup_seconds(speed, step)


@dataclass
class Context:
    """What one workload phase runs with."""

    seed: int
    seconds: float
    work: str                          # scratch directory of this run
    speed: calib.HostSpeed
    tracer: Optional[spans_mod.Tracer] = None
    expected: Optional[Dict[str, Dict[str, List[str]]]] = None


@dataclass
class Result:
    """What one workload phase measured and checked.

    Timings come in pairs: host seconds as the clock read them, and the
    reference-host seconds (see :mod:`calib`) the metrics report.
    """

    setup: Tuple[float, float] = (0.0, 0.0)    # host, reference
    latencies: List[float] = field(default_factory=list)
    ref_latencies: List[float] = field(default_factory=list)
    completed: int = 0                 # questions / requests / cells
    elapsed: float = 0.0               # timed seconds
    ref_elapsed: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    accuracy_ok: bool = True
    window: Tuple[int, int] = (0, 0)   # timed region, perf_counter_ns
    report: Dict[str, Tuple[object, str]] = field(default_factory=dict)
    client_latency_s: float = 0.0      # serve_mixed: summed client latency
    batch_computed: int = 0
    batch_cached: int = 0
    mismatches: List[str] = field(default_factory=list)
    load: str = "1 client"

    @property
    def throughput(self) -> float:
        return self.completed / self.ref_elapsed if self.ref_elapsed else 0.0

    def calibrate(self, speed: calib.HostSpeed, starts: List[float],
                  slices: Optional[List[Tuple[float, float]]] = None
                  ) -> None:
        """Reference-host latencies of the operations that started at
        ``starts``, and the reference-host elapsed time: their sum, or
        that of ``slices`` where the timed region is not one operation
        after another."""
        speed.probe(PROBES)            # the last operations' later probes
        self.ref_latencies = speed.reference(zip(starts, self.latencies))
        self.ref_elapsed = sum(speed.reference(slices) if slices is not None
                               else self.ref_latencies)

    def end_to_end(self) -> Dict[str, float]:
        return {"latency_p50_ms": median_ms(self.ref_latencies),
                "throughput_per_s": self.throughput,
                "peak_rss_mb": self.peak_rss_mb,
                "setup_s": self.setup[1]}


def check_answers(ctx: Context, workload: str, pools: Dict[str, List[str]],
                  answers: List[Tuple[str, int, Optional[list]]],
                  result: Result) -> None:
    """Check every ``(pool, index, row)`` answer; a ``None`` row raised.

    Each row must equal, bit for bit, the row a fresh serial runner gives
    for the same scenario and, for the seed ``expected.json`` was recorded
    with, the committed digest (which catches a change that moves every
    path together).  Every mismatch counts as a failed operation.
    """
    expected = (ctx.expected or {}).get(workload)
    oracle = oracle_rows([pools[pool][index] for pool, index, _ in answers])
    for pool, index, row in answers:
        want = oracle[pools[pool][index]]
        if row is None or want is None:
            problem = "no valid answer (raised, or wrong cache tier)"
        elif json.dumps(row) != json.dumps(want):
            problem = f"{row} differs from serial {want}"
        elif expected is not None and expected[pool][index] != digest(row):
            problem = f"{row} differs from expected.json"
        else:
            continue
        result.failed += 1
        if len(result.mismatches) < 5:
            result.mismatches.append(f"{pool}[{index}]: {problem}")
    result.attempted = len(answers)


def oracle_rows(texts: List[str]) -> Dict[str, Optional[list]]:
    """Rows of a fresh serial runner per distinct scenario (``None``: it
    raised, so the answer cannot be right)."""
    from repro.scenarios import Scenario, ScenarioRunner
    runner = ScenarioRunner()
    rows: Dict[str, Optional[list]] = {}
    for text in sorted(set(texts)):
        try:
            rows[text] = runner.run(Scenario.from_json(text)).as_row()
        except Exception:          # counted against the answer, not fatal
            rows[text] = None
    return rows


# ------------------------------------------- cold_question, whatif_stream

def ask_loop(ask: Callable[[str], list], pool: List[str], ctx: Context,
             result: Result, cycle: int,
             between: Optional[Callable[[], object]] = None,
             rss_after: Optional[int] = None
             ) -> List[Tuple[str, int, Optional[list]]]:
    """One closed-loop client asking ``pool`` in order for ``ctx.seconds``.

    Stops only at a multiple of ``cycle`` questions, so a run holds whole
    deck cycles.  ``between`` and a host-speed probe run before each
    question, outside the timed region.  Peak RSS is read after
    ``rss_after`` answers, or at the end.
    """
    answers = []
    starts = []
    window0 = time.perf_counter_ns()
    while result.elapsed < ctx.seconds or len(answers) % cycle:
        if between is not None:
            between()
        ctx.speed.probe()
        index = len(answers) % len(pool)
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            row = ask(pool[index])
        except Exception:          # a failure is counted, never fatal
            row = None
        latency = time.perf_counter() - t0
        result.elapsed += latency
        result.latencies.append(latency)
        answers.append(("pool", index, row))
        if len(answers) == rss_after:
            result.peak_rss_mb = peak_rss_self_mb()
    result.window = (window0, time.perf_counter_ns())
    result.completed = len(answers)
    if not result.peak_rss_mb:
        result.peak_rss_mb = peak_rss_self_mb()
    result.calibrate(ctx.speed, starts)
    return answers


def cold_question(ctx: Context) -> Result:
    from repro.scenarios import Scenario, ScenarioRunner
    pool = inputs.cold_pool(ctx.seed)
    result = Result(setup=import_seconds(ctx.speed))
    # ``repro run`` answers one question per process, so each question
    # starts from a clean heap: the cyclic garbage earlier questions left
    # (a session and its graph reference each other) is collected between
    # questions, outside the timed region, instead of landing as a
    # collection pause on whichever later question triggers it
    answers = ask_loop(
        lambda text: ScenarioRunner().run(Scenario.from_json(text)).as_row(),
        pool, ctx, result, cycle=inputs.COLD_PASS, between=gc.collect)
    check_answers(ctx, "cold_question", {"pool": pool}, answers, result)
    return result


def whatif_stream(ctx: Context) -> Result:
    from repro.scenarios import Scenario, ScenarioRunner
    pool = inputs.whatif_pool(ctx.seed)
    warm = inputs.warm_scenarios(inputs.WHATIF_MODELS)
    runners = []

    def warm_up() -> float:
        runners.clear()            # one warm runner alive at a time
        gc.collect()
        t0 = time.perf_counter()
        runner = ScenarioRunner()
        for text in warm:
            runner.run(Scenario.from_json(text))
        runners.append(runner)
        return time.perf_counter() - t0

    import_s = import_seconds(ctx.speed)
    warm_s = setup_seconds(ctx.speed, warm_up)
    result = Result(setup=(import_s[0] + warm_s[0], import_s[1] + warm_s[1]))
    runner = runners[0]
    answers = ask_loop(
        lambda text: runner.run(Scenario.from_json(text)).as_row(),
        pool, ctx, result, cycle=inputs.WHATIF_PASS,
        rss_after=RSS_AFTER["whatif_stream"])
    check_answers(ctx, "whatif_stream", {"pool": pool}, answers, result)
    accuracy(runner, result)
    return result


def accuracy(runner, result: Result) -> None:
    """Prediction error of the warm runner over the fixed check set."""
    from repro.framework import groundtruth
    from repro.scenarios import Scenario
    measure: Dict[str, Callable] = {
        "amp": lambda o: groundtruth.run_amp(o.model, o.config),
        "fused_adam": lambda o: groundtruth.run_fused_adam(o.model,
                                                           o.config),
        "reconstruct_batchnorm": lambda o: groundtruth.
        run_reconstructed_batchnorm(o.model, o.config),
        "ddp_sync": lambda o: groundtruth.run_distributed(
            o.model, o.cluster, o.config, sync_before_allreduce=True),
    }
    worst = 0.0
    outside = []
    for text, kind, band in inputs.accuracy_checks():
        outcome = runner.run(Scenario.from_json(text))
        truth = measure[kind](outcome).iteration_us
        error = abs(outcome.predicted_us - truth) / truth * 100.0
        worst = max(worst, error)
        if error > band:
            outside.append(f"{outcome.scenario.label()}: {error:.2f}% > "
                           f"{band:g}%")
    result.accuracy_ok = not outside
    result.report["pred_error_max_pct"] = (worst, "%")
    result.report["accuracy_checks"] = (len(inputs.accuracy_checks()),
                                        "; ".join(outside) or "all in band")


# ------------------------------------------------------------ serve_mixed

class Daemon:
    """One ``repro serve-predict`` process started through daemon.py."""

    def __init__(self, store: str, trace_dir: Optional[str]) -> None:
        cmd = [sys.executable, os.path.join(HERE, "daemon.py")]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        cmd += ["--", "serve-predict", "--store", store, "--port", "0",
                "--workers", str(JOBS)]
        self.proc = subprocess.Popen(cmd, env=child_env(), text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.stderr: "queue.Queue[str]" = queue.Queue()
        self.stdout: "queue.Queue[str]" = queue.Queue()
        for pipe, lines in ((self.proc.stderr, self.stderr),
                            (self.proc.stdout, self.stdout)):
            threading.Thread(target=self._drain, args=(pipe, lines),
                             daemon=True).start()
        self.peak_rss_mb = 0.0
        try:
            self.host, self.port = self._wait_for_url(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _drain(pipe, lines: "queue.Queue[str]") -> None:
        for line in pipe:
            lines.put(line)

    def _read_peak_rss(self, timeout: float) -> None:
        """Take the next peak-RSS line the launcher printed, if any."""
        try:
            line = self.stdout.get(timeout=timeout)
        except queue.Empty:
            return
        self.peak_rss_mb = json.loads(line)["peak_rss_kb"] / 1024.0

    def sample_peak_rss(self) -> None:
        """Read the daemon's peak RSS so far without stopping it."""
        self.proc.send_signal(signal.SIGUSR1)
        self._read_peak_rss(timeout=10.0)

    def _wait_for_url(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                line = self.stderr.get(timeout=0.2)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            match = re.search(r"predicting at http://([^:/\s]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("prediction daemon did not start")

    def request(self, method: str, path: str,
                body: Optional[str] = None) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("prediction daemon never became healthy")

    def stop(self) -> None:
        """Stop the daemon (SIGINT, then SIGKILL); keep a peak RSS read
        earlier, else read its final one."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if not self.peak_rss_mb:
            self._read_peak_rss(timeout=5.0)


def serve_mixed(ctx: Context) -> Result:
    from repro.scenarios import Scenario, SweepStore, run_batch
    hot, fresh, sequence = inputs.serve_mix(ctx.seed)
    warm = inputs.warm_scenarios(inputs.SERVE_MODELS)
    template = os.path.join(ctx.work, "serve-template")
    run_batch([Scenario.from_json(text) for text in hot],
              store=SweepStore(template), jobs=1)
    trace_dir = ctx.tracer.out_dir if ctx.tracer is not None else None

    daemons: List[Daemon] = []

    def start() -> float:
        """Stop the last daemon; time a new one to its warm state."""
        if daemons:
            daemons[-1].stop()
        store = os.path.join(ctx.work, f"serve-store-{len(daemons)}")
        shutil.copytree(template, store)
        t0 = time.perf_counter()
        daemon = Daemon(store, trace_dir)
        daemons.append(daemon)
        daemon.wait_healthy()
        for text in warm:
            status, _ = daemon.request("POST", "/predict", text)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status}")
        return time.perf_counter() - t0

    try:
        result = Result(setup=setup_seconds(ctx.speed, start))
        answers = drive(daemons[-1], hot, fresh, sequence, ctx, result)
    finally:
        for daemon in daemons:
            daemon.stop()
    result.peak_rss_mb = daemons[-1].peak_rss_mb

    check_answers(ctx, "serve_mixed", {"hot": hot, "fresh": fresh},
                  [(kind, j, row) for kind, j, _, row, _ in answers], result)
    hits = [latency for latency, (*_, cached)
            in zip(result.ref_latencies, answers) if cached]
    misses = [latency for latency, (*_, cached)
              in zip(result.ref_latencies, answers) if not cached]
    result.load = f"{JOBS} clients, daemon --workers {JOBS}"
    result.report["hit_p50_ms"] = (median_ms(hits), "ms")
    result.report["miss_p50_ms"] = (median_ms(misses), "ms")
    result.report["hits"] = (len(hits), "count")
    result.report["misses"] = (len(misses), "count")
    return result


def drive(daemon: Daemon, hot: List[str], fresh: List[str],
          sequence: List[Tuple[str, int]], ctx: Context,
          result: Result) -> List[tuple]:
    """Closed loop: JOBS client threads, each waiting for its reply.

    The clients run in slices of ``SLICE_S``; between two slices they
    stop and a host-speed probe runs against an idle daemon.
    """
    lock = threading.Lock()
    answers: List[tuple] = []
    starts: List[float] = []
    slices: List[Tuple[float, float]] = []
    position = [0]
    deadline = [0.0]
    window0 = time.perf_counter_ns()
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline[0]:
                        return
                    kind, j = sequence[position[0] % len(sequence)]
                    position[0] += 1
                text = hot[j] if kind == "hot" else fresh[j]
                t0 = time.perf_counter()
                status, body = daemon.request("POST", "/predict", text)
                latency = time.perf_counter() - t0
                ok = status == 200
                with lock:
                    starts.append(t0)
                    answers.append((kind, j, latency,
                                    body.get("row") if ok else None,
                                    bool(ok and body.get("cached"))))
                    sample = len(answers) == RSS_AFTER["serve_mixed"]
                if sample:
                    daemon.sample_peak_rss()
        except BaseException as exc:   # re-raised in the main thread
            errors.append(exc)

    while result.elapsed < ctx.seconds and not errors:
        ctx.speed.probe()
        start = time.perf_counter()
        deadline[0] = start + min(SLICE_S, ctx.seconds - result.elapsed)
        threads = [threading.Thread(target=client) for _ in range(JOBS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        slices.append((start, time.perf_counter() - start))
        result.elapsed += slices[-1][1]
    if errors:
        raise errors[0]
    result.window = (window0, time.perf_counter_ns())
    result.completed = len(answers)
    result.latencies = [a[2] for a in answers]
    result.client_latency_s = sum(result.latencies)   # vs server spans
    result.calibrate(ctx.speed, starts, slices)
    return answers


# ------------------------------------------------------------ sweep_store

def sweep_store(ctx: Context) -> Result:
    from repro.scenarios import Scenario, ScenarioRunner, SweepStore, \
        run_batch
    cells, cached_cells = inputs.sweep_grid(ctx.seed)
    cached = set(cached_cells)
    template = os.path.join(ctx.work, "sweep-template")
    run_batch([Scenario.from_json(cells[i]) for i in cached_cells],
              store=SweepStore(template), jobs=JOBS)
    result = Result(setup=import_seconds(ctx.speed))

    reports = []
    starts = []
    window0 = time.perf_counter_ns()
    while result.elapsed < ctx.seconds:
        store = os.path.join(ctx.work, f"sweep-{len(reports)}")
        shutil.copytree(template, store)
        ctx.speed.probe(PROBES)
        t0 = time.perf_counter()
        starts.append(t0)
        report = run_batch([Scenario.from_json(text) for text in cells],
                           store=SweepStore(store), jobs=JOBS)
        latency = time.perf_counter() - t0
        result.elapsed += latency
        result.latencies.append(latency)
        reports.append(report)
        shutil.rmtree(store)
    result.window = (window0, time.perf_counter_ns())
    result.calibrate(ctx.speed, starts)
    result.completed = len(cells) * len(reports)
    result.peak_rss_mb = peak_rss_children_mb()

    rows = ScenarioRunner(cache_sessions=False)
    answers = []
    for report in reports:
        result.batch_computed += report.computed
        result.batch_cached += report.hits
        complete = len(report.cells) == len(cells)
        for index in range(len(cells)):
            row = None
            # a cell served from the wrong tier is a wrong answer too
            if complete and report.cells[index].cached == (index in cached):
                cell = report.cells[index]
                row = rows.detached_outcome(cell.scenario, cell.baseline_us,
                                            cell.predicted_us).as_row()
            answers.append(("grid", index, row))
    check_answers(ctx, "sweep_store", {"grid": cells}, answers, result)
    result.load = f"run_batch jobs={JOBS}"
    result.report["sweeps"] = (len(reports), "count")
    return result


RUNNERS: Dict[str, Callable[[Context], Result]] = {
    "cold_question": cold_question,
    "whatif_stream": whatif_stream,
    "serve_mixed": serve_mixed,
    "sweep_store": sweep_store,
}


# ------------------------------------------------------------- per layer

def layer_metrics(all_spans, main_pid: int, traced: Result,
                  untraced_throughput: float) -> Dict[str, float]:
    """Aggregate the traced phase's spans into the per-layer metrics."""
    w0, w1 = traced.window
    window = [s for s in all_spans if s.start >= w0 and s.end <= w1]
    own = spans_mod.self_times(window)
    calls: Dict[str, int] = {}
    total: Dict[str, int] = {}
    self_ns: Dict[str, int] = {}
    count: Dict[str, int] = {}
    for s in window:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0) + (s.end - s.start)
        self_ns[s.name] = self_ns.get(s.name, 0) + own[(s.pid, s.id)]
        if s.n is not None:
            count[s.name] = count.get(s.name, 0) + s.n

    def rate(name: str) -> float:
        seconds = total.get(name, 0) / 1e9
        return count.get(name, 0) / seconds if seconds else 0.0

    metrics: Dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.total_ms"] = total.get(name, 0) / 1e6
    for name in SELF_SPANS:
        metrics[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
    gets = calls.get("scenarios.store.get", 0)
    requests = traced.completed if traced.client_latency_s else 0
    server_s = total.get("scenarios.service.predict", 0) / 1e9
    batch_s = total.get("scenarios.batch.run_batch", 0) / 1e9
    worker_s = sum(s.end - s.start for s in window
                   if s.name == "scenarios.runner.run" and s.pid != main_pid
                   and batch_s) / 1e9
    metrics.update({
        "framework.engine.events_per_s": rate(
            "framework.engine.run_iteration"),
        "core.construction.tasks_per_s": rate(
            "core.construction.build_graph"),
        "core.simulate.tasks_per_s": rate("core.simulate.simulate"),
        "scenarios.store.hit_ratio": (
            count.get("scenarios.store.get", 0) / gets if gets else 0.0),
        "scenarios.service.http_overhead_ms": (
            (traced.client_latency_s - server_s) / requests * 1000.0
            if requests else 0.0),
        "scenarios.batch.cells_computed": traced.batch_computed,
        "scenarios.batch.cells_cached": traced.batch_cached,
        "scenarios.batch.worker_busy_frac": (
            worker_s / (JOBS * batch_s) if batch_s else 0.0),
        "trace.throughput_ratio": (
            traced.throughput / untraced_throughput
            if untraced_throughput else 0.0),
    })
    return metrics


# ------------------------------------------------------------------ main

def print_report(workload: str, seed: int, result: Result,
                 speed: calib.HostSpeed, label: str = "") -> None:
    failed_frac = result.failed / result.attempted if result.attempted else 1
    print(f"{workload}{label}  seed {seed}  load {result.load}")
    print(f"  samples                 {len(result.latencies)}")
    raw_rate = result.completed / result.elapsed if result.elapsed else 0.0
    print(f"  host clock              latency_p50 "
          f"{median_ms(result.latencies):.6g} ms, throughput "
          f"{raw_rate:.6g} 1/s, setup {result.setup[0]:.6g} s; "
          f"calibration kernel {speed.median_ms():.4g} ms (median of "
          f"{len(speed.probes)}; {calib.NOMINAL_KERNEL_S * 1000:g} ms on "
          f"the reference host)")
    for name, value in result.end_to_end().items():
        print(f"  {name:<23} {value:.6g} {END_TO_END_UNITS[name]}")
    p90 = p90_ms(result.ref_latencies)
    shown = ("n/a (fewer than 100 samples)" if p90 is None
             else f"{p90:.6g} ms")
    print(f"  latency_p90_ms          {shown}")
    print(f"  failed_frac             {failed_frac:.6g} "
          f"({result.failed} of {result.attempted})")
    for name, (value, unit) in result.report.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<23} {shown} {unit}")
    for mismatch in result.mismatches:
        print(f"  mismatch: {mismatch}")


def untraced_baseline(args) -> dict:
    """A plain ``--trace 0`` run of the same workload, in its own process.

    The traced run compares against it for the tracing overhead; running
    it separately keeps module-level caches the first phase would warm
    from flattering the second.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced run failed ({proc.returncode})")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run(args) -> dict:
    expected = None
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH) as f:
            expected = json.load(f)
        if expected.get("seed") != args.seed:
            expected = None
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work)
    speed = calib.HostSpeed(SIBLINGS[args.workload])
    try:
        ctx = Context(seed=args.seed, seconds=args.seconds, work=work,
                      expected=expected, speed=speed)
        if not args.trace:
            result = RUNNERS[args.workload](ctx)
            print_report(args.workload, args.seed, result, ctx.speed)
            return {
                "correct": result.failed == 0 and result.accuracy_ok,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value,
                                   "unit": END_TO_END_UNITS[name]}
                            for name, value in result.end_to_end().items()},
            }
        baseline = untraced_baseline(args)
        ctx.tracer = spans_mod.Tracer(os.path.join(work, "spans"))
        os.makedirs(ctx.tracer.out_dir)
        missing = spans_mod.install(ctx.tracer)
        if missing:
            print(f"  layers not found (reported as 0): {missing}")
        origin = time.perf_counter_ns()
        traced = RUNNERS[args.workload](ctx)
        print_report(args.workload, args.seed, traced, ctx.speed,
                     " (traced)")
        all_spans = ctx.tracer.spans + spans_mod.load_spans(
            ctx.tracer.out_dir)
        metrics = layer_metrics(
            all_spans, os.getpid(), traced,
            baseline["metrics"]["throughput_per_s"]["value"])
        out = os.path.join(WORK_ROOT,
                           f"trace-{args.workload}-seed{args.seed}.json")
        with open(out, "w") as f:
            f.write(spans_mod.chrome_trace(all_spans, origin, {
                "workload": args.workload, "seed": args.seed,
                "timed_window_ns": list(traced.window)}))
        print(f"  chrome trace            {out} ({len(all_spans)} spans)")
    finally:
        speed.close()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": (baseline["correct"] and traced.failed == 0
                    and traced.accuracy_ok),
        "attempted": baseline["attempted"] + traced.attempted,
        "failed": baseline["failed"] + traced.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in per_layer_metric_units().items()},
    }


def record_expected() -> None:
    """Rewrite expected.json: serial-path row digests of the default seed."""
    hot, fresh, _ = inputs.serve_mix(DEFAULT_SEED)
    pools = {
        "cold_question": {"pool": inputs.cold_pool(DEFAULT_SEED)},
        "whatif_stream": {"pool": inputs.whatif_pool(DEFAULT_SEED)},
        "serve_mixed": {"hot": hot, "fresh": fresh},
        "sweep_store": {"grid": inputs.sweep_grid(DEFAULT_SEED)[0]},
    }
    expected = {}
    for workload, named in pools.items():
        expected[workload] = {}
        for name, texts in named.items():
            rows = oracle_rows(texts)
            if None in rows.values():
                raise RuntimeError(f"{workload}.{name}: a scenario raised")
            expected[workload][name] = [digest(rows[t]) for t in texts]
            print(f"{workload}.{name}: {len(texts)} rows", file=sys.stderr)
    with open(EXPECTED_PATH, "w") as f:
        json.dump({"seed": DEFAULT_SEED, **expected}, f, indent=0)
        f.write("\n")


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, os.path.abspath("src"))
    signal.signal(signal.SIGTERM, _terminate)
    if args.record_expected:
        record_expected()
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
