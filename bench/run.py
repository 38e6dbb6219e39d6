"""Benchmark of the peribrauer library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  Each sample is one fresh Python process
(`child.py`), because the library keeps module-level caches that a
command-line invocation starts without.  Samples run one at a time, so
this process and one child are the only two running, on a machine with
two cores.  New samples start until the next one would end after S
seconds (at least one, and in a traced run at least two).

--trace 0 reports the end-to-end metrics: the median over the samples of
set-up time, wall time of the timed calls, items per second and peak
RSS.  --trace 1 alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (medians), and the tracing overhead
as the traced minus the untraced median wall time.  Every reported time
is a sample's measured time multiplied by the machine's speed in the
phase it was measured in (set-up or timed calls, see child.py), that
is, seconds at a reference machine speed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
holds every sample.  Span files of the latest traced run of each
workload are kept in `.bench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import layer_metrics

BENCH = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.realpath(os.path.join(ROOT, "src"))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("universe", "closure", "matrices", "relations")
MAX_SECONDS = 120.0
# Every run exits within this many seconds: no sample may run past it.
HARD_LIMIT_S = 170.0


class SampleError(RuntimeError):
    """A child process ended without reporting a sample."""


def run_sample(workload: str, seed: int, traced: bool, spans: str, timeout: float) -> dict:
    launched = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), SRC, workload, str(seed),
           "1" if traced else "0", repr(launched), spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SampleError(f"sample did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise SampleError(proc.stderr.strip() or f"exit code {proc.returncode}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["elapsed_s"] = time.monotonic() - launched
    sample["traced"] = traced
    sample["spans"] = spans
    return sample


def collect(args) -> list[dict]:
    spans_prefix = os.path.join(OUT, f"spans-{args.workload}-")
    if args.trace:
        for stale in glob.glob(spans_prefix + "*.bin"):
            os.remove(stale)
    samples: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    least = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        spans = f"{spans_prefix}{len(samples)}.bin" if traced else "-"
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        sample = run_sample(args.workload, args.seed, traced, spans, remaining)
        samples.append(sample)
        longest = max(longest, sample["elapsed_s"])
        print(
            f"sample {len(samples)}{' traced' if traced else ''}: "
            f"setup {sample['setup_s']:.3f} s, wall {sample['wall_s']:.3f} s, "
            f"cpu {sample['cpu_s']:.3f} s, "
            f"speed {sample['setup_speed']:.3f}/{sample['speed']:.3f}, "
            f"rss {sample['rss_mb']:.1f} MB, "
            f"items {sample['items']}, failed {sample['failed']}"
            + (f", error {sample['error']}" if sample["error"] else ""),
            flush=True,
        )
        elapsed = time.monotonic() - start
        if len(samples) >= least and elapsed + longest > args.seconds:
            return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(samples: list[dict]) -> dict[str, tuple[list[float], str]]:
    return {
        "setup_s": ([s["setup_s"] * s["setup_speed"] for s in samples], "s"),
        "wall_s": ([s["wall_s"] * s["speed"] for s in samples], "s"),
        "items_per_s": ([s["items"] / (s["wall_s"] * s["speed"]) for s in samples], "1/s"),
        "peak_rss_mb": ([s["rss_mb"] for s in samples], "MB"),
    }


def per_layer(samples: list[dict]) -> dict[str, tuple[list[float], str]]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    series: dict[str, tuple[list[float], str]] = {}
    for s in traced:
        for name, (value, unit) in layer_metrics(s["spans"], s["counters"]).items():
            series.setdefault(name, ([], unit))[0].append(
                value * s["speed"] if unit == "s" else value)
    series["cli.import_s"] = ([s["cli_import_s"] * s["setup_speed"] for s in samples], "s")
    traced_wall = statistics.median(s["wall_s"] * s["speed"] for s in traced)
    series["trace.wall_s"] = ([traced_wall], "s")
    series["trace.overhead_s"] = (
        [traced_wall - statistics.median(s["wall_s"] * s["speed"] for s in plain)], "s")
    return series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")
    if not os.path.isfile(os.path.join(SRC, "peribrauer", "__init__.py")):
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        samples = collect(args)
    except SampleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    series = per_layer(samples) if args.trace else end_to_end(samples)
    metrics = {}
    for name, (values, unit) in series.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name} = {med:.10g} {unit} (n={len(values)}, q1 {q1:.10g}, q3 {q3:.10g})")
    cpu = [s["cpu_s"] for s in samples if not s["traced"]]
    print(f"cpu_s = {statistics.median(cpu):.6g} s (untraced, n={len(cpu)})")
    attempted = sum(s["items"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} items)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
