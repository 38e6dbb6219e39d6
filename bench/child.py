"""One benchmark sample in a fresh interpreter.

    python3 bench/child.py SRC WORKLOAD SEED TRACE LAUNCHED SPANS

Imports the library from SRC (and `peribrauer.cli`, as a command-line
user would), builds the workload's inputs, times the workload's calls
and checks the outputs after timing.  LAUNCHED is the parent's
`time.monotonic()` just before it started this process, so set-up time
covers interpreter start-up too.  With TRACE=1 the wrappers of
`tracer.py` are installed around the timed calls only, and the spans
are written to SPANS.  Prints one JSON line.

The speed of the machine is sampled while the sample runs.  A timer
signal every PROBE_INTERVAL_S interrupts the library and runs a fixed
probe of about 0.4 ms, whose duration is recorded.  The speed of a phase
(set-up, timed calls) is the probe's reference time over its median
duration in that phase.  On a machine shared with other tenants the same
work can take 1.7 times as long from one second to the next; a time
measured in a phase, multiplied by that phase's speed, is largely free
of that.  The probe's own time is taken out of the set-up, wall and CPU
times.
"""

import signal
import time

# Interval of the probe's timer, and the probe's duration at the
# reference speed.
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0004

_ticks: list[float] = []


def _probe() -> int:
    """Fixed pure-Python work: small-tuple dict traffic and integer
    arithmetic, in the style of the library, over a working set that
    fits in the first-level cache, so that what the workload left in
    the caches changes its duration little."""
    seen: dict = {}
    s = 0
    for i in range(1200):
        key = (i & 7, (i >> 3) & 7)
        seen[key] = seen.get(key, 0) + 1
        s = (s * 31 + i) % 1000003
    return s + len(seen)


def _tick(signum, frame) -> None:
    t = time.perf_counter()
    _probe()
    _ticks.append(time.perf_counter() - t)


def start_probe() -> None:
    for _ in range(8):  # let the interpreter specialise the probe's code first
        _probe()
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)


def stop_probe() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main() -> None:
    start_probe()
    import json
    import os
    import resource
    import statistics
    import sys

    src, workload, seed, trace, launched, spans_path = sys.argv[1:]
    sys.path.insert(0, src)
    import peribrauer
    t1 = time.monotonic()
    import peribrauer.cli  # noqa: F401  (its import time is part of set-up)
    t2 = time.monotonic()
    if os.path.dirname(os.path.dirname(os.path.realpath(peribrauer.__file__))) != src:
        sys.exit(f"peribrauer was imported from {peribrauer.__file__}, not from {src}")

    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inputs = wl.inputs(int(seed))
    ready = time.monotonic()
    setup_ticks = list(_ticks)

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    del _ticks[:]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception as e:  # a failed run counts every item as failed
        error = repr(e)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    stop_probe()
    ticks = list(_ticks)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        tracer.write_spans(spans_path, f"{workload}-seed{seed}-pid{os.getpid()}")

    failed = wl.items
    if error is None:
        try:
            failed = wl.check(out)
        except Exception as e:
            error = repr(e)
    print(json.dumps({
        "setup_s": ready - float(launched) - sum(setup_ticks),
        "setup_speed": PROBE_REF_S / statistics.median(setup_ticks or ticks),
        "cli_import_s": t2 - t1,
        "wall_s": wall - sum(ticks),
        "cpu_s": cpu - sum(ticks),
        "speed": PROBE_REF_S / statistics.median(ticks or setup_ticks),
        "probes": [len(setup_ticks), len(ticks)],
        "rss_mb": rss_mb,
        "items": wl.items,
        "failed": failed,
        "error": error,
        "counters": tracer.counters() if tracer else {},
    }))


if __name__ == "__main__":
    main()
