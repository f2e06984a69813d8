"""Host-speed calibration: a fixed reference kernel timed between work.

The benchmark runs on a few cores of a shared host, whose speed for pure
Python swings by up to 2.3x, for milliseconds and for minutes at a time
(neighbours coming and going).  Raw timings follow those swings, so two
runs of the same code minutes apart can differ by more than any change
worth gating.

:class:`HostSpeed` measures the swing.  Its :meth:`~HostSpeed.probe`
times one run of :func:`kernel`, a fixed pure-Python workload of about a
millisecond that uses no code of the program under test (a list
scheduler over small objects, dicts and a heap, like the simulator it
stands next to).  The benchmark probes between timed operations, many
times a second, so the probes sample the host in the same moments as the
work.  An operation's scale is ``NOMINAL_KERNEL_S`` over the median of
the probes within ``HALF_WINDOW_S`` of its midpoint, and reported times
are *reference-host* seconds: host seconds times the scale, the time the
work would take on a host where the kernel takes ``NOMINAL_KERNEL_S``.
A change to the program moves them exactly as it moves raw times; only
the host's speed cancels, also when it changes in the middle of a run.

Work spread over several cores also depends on how fast the *other*
cores run, which one thread cannot see (a neighbour may hold one of them
for seconds), so a workload that keeps ``n`` cores busy probes with
``n - 1`` sibling processes timing the kernel at the same time, and a
probe is the mean over the ``n`` processes.
"""

import bisect
import gc
import heapq
import json
import os
import random
import statistics
import time
from typing import Iterable, List, Tuple

#: the kernel's time on the reference host (one Intel Xeon vCPU at
#: 2.1 GHz, quiet neighbours); it only fixes the unit
NOMINAL_KERNEL_S = 0.001
#: an operation's scale takes the probes this close to its midpoint...
HALF_WINDOW_S = 1.0
#: ...or, where fewer are that close, this many nearest ones
MIN_PROBES = 5

_TASKS = 200


class _Task:
    __slots__ = ("ident", "duration", "succ", "preds", "ready")

    def __init__(self, ident: int, duration: float) -> None:
        self.ident = ident
        self.duration = duration
        self.succ: List["_Task"] = []
        self.preds = 0
        self.ready = 0.0


def kernel() -> float:
    """One fixed list-scheduling run; returns its makespan."""
    rng = random.Random(20200715)
    tasks = [_Task(i, rng.uniform(1.0, 50.0)) for i in range(_TASKS)]
    for task in tasks[1:]:
        for _ in range(3):
            pred = tasks[rng.randrange(task.ident)]
            pred.succ.append(task)
            task.preds += 1
    by_id = {task.ident: task for task in tasks}
    free = {"gpu": 0.0, "cpu": 0.0}
    heap = [(0.0, tasks[0].ident)]
    makespan = 0.0
    while heap:
        ready, ident = heapq.heappop(heap)
        task = by_id[ident]
        lane = "gpu" if ident % 3 else "cpu"
        end = max(ready, free[lane]) + task.duration
        free[lane] = end
        makespan = max(makespan, end)
        for succ in task.succ:
            succ.ready = max(succ.ready, end)
            succ.preds -= 1
            if not succ.preds:
                heapq.heappush(heap, (succ.ready, succ.ident))
    return makespan


def _time_kernel(runs: int) -> List[float]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


class _Sibling:
    """A process, forked once, that times the kernel when told to."""

    def __init__(self) -> None:
        go_r, self._go = os.pipe()
        times_r, times_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:                  # never returns into the caller
            try:
                os.close(self._go)
                os.close(times_r)
                gc.disable()
                while True:
                    runs = os.read(go_r, 1)
                    if not runs:           # the benchmark closed or died
                        break
                    line = json.dumps(_time_kernel(runs[0])) + "\n"
                    os.write(times_w, line.encode())
            finally:
                os._exit(0)
        os.close(go_r)
        os.close(times_w)
        self._times = os.fdopen(times_r)

    def start(self, runs: int) -> None:
        os.write(self._go, bytes([runs]))

    def result(self) -> List[float]:
        return json.loads(self._times.readline() or "[]")

    def close(self) -> None:
        os.close(self._go)
        self._times.close()
        os.waitpid(self.pid, 0)


class HostSpeed:
    """The probes of one run, and the scale they give.

    Call :meth:`close` when done: it stops the sibling processes.
    """

    def __init__(self, siblings: int = 0) -> None:
        self.times: List[float] = []       # perf_counter at each probe
        self.probes: List[float] = []      # seconds of each probe
        self._makespan = kernel()
        self._siblings: List[_Sibling] = []
        try:
            for _ in range(siblings):
                self._siblings.append(_Sibling())
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        while self._siblings:
            self._siblings.pop().close()

    def probe(self, runs: int = 1) -> None:
        """Time ``runs`` kernel runs here and in each sibling at once.
        The collector is off meanwhile: the kernel's objects would
        otherwise trigger collections that walk the program's heap, and
        time that instead of the host."""
        if kernel() != self._makespan:
            raise RuntimeError("calibration kernel is not deterministic")
        enabled = gc.isenabled()
        gc.disable()
        started: List[_Sibling] = []
        per_process: List[List[float]] = []
        try:
            for sibling in self._siblings:
                sibling.start(runs)
                started.append(sibling)
            start = time.perf_counter()
            per_process.append(_time_kernel(runs))
        finally:
            per_process += [sibling.result() for sibling in started]
            if enabled:
                gc.enable()
        if any(len(times) != runs for times in per_process):
            raise RuntimeError("a calibration sibling failed")
        for times in zip(*per_process):
            self.probes.append(statistics.mean(times))
            self.times.append(start)

    def scale_at(self, moment: float) -> float:
        """Reference-host seconds per host second at ``moment``."""
        lo = bisect.bisect_left(self.times, moment - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, moment + HALF_WINDOW_S)
        while hi - lo < min(MIN_PROBES, len(self.times)):
            if hi < len(self.times) and (
                    lo == 0 or self.times[hi] - moment
                    < moment - self.times[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return NOMINAL_KERNEL_S / statistics.median(self.probes[lo:hi])

    def reference(self, spans: Iterable[Tuple[float, float]]
                  ) -> List[float]:
        """Reference-host seconds of each ``(start, host seconds)``."""
        return [seconds * self.scale_at(start + seconds / 2.0)
                for start, seconds in spans]

    def median_ms(self) -> float:
        return statistics.median(self.probes) * 1000.0
