"""Launch ``repro serve-predict`` for serve_mixed, optionally traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/daemon.py [--trace-dir DIR] -- serve-predict ARGS...

Runs the repository's own CLI entry point in this process.  With
``--trace-dir`` it first installs the benchmark's span wrappers, and
writes the daemon's spans to ``DIR/spans-<pid>.jsonl`` when the server
stops.  SIGINT or SIGTERM stops the server; the launcher then prints one
JSON line with its peak resident memory and exits.  SIGUSR1 prints the
same line without stopping.  It also stops on its
own if the benchmark that started it disappears, so a killed run never
leaves a daemon behind.
"""

import argparse
import json
import os
import resource
import signal
import sys
import threading
import time


def _print_peak_rss(*_signal) -> None:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGINT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = None
    if args.trace_dir:
        from spans import Tracer, install
        tracer = Tracer(args.trace_dir)
        install(tracer)
    # serve-predict returns cleanly on KeyboardInterrupt; route SIGTERM there
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    signal.signal(signal.SIGUSR1, _print_peak_rss)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()

    from repro.__main__ import main as repro_main
    try:
        code = repro_main(cli)
    finally:
        if tracer is not None:
            tracer.flush()
    _print_peak_rss()
    return code


if __name__ == "__main__":
    sys.exit(main())
