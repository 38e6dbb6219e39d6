"""Run the benchmark repeatedly and report how steady each metric is.

    python3 bench/steady.py [--first-seed 1] [--trace] [--out FILE]

Reads `BENCHMARK.json` at the root of the checkout for the workloads, the
run length, the metric names and their bounds.  Each of ROUNDS rounds
runs every workload once, with seed `first-seed + round`, in an order
rotated by one per round, so that a drift in machine speed hits all
workloads alike.  For each end-to-end metric it prints the median over
the rounds, the quartiles (`statistics.quantiles(values, n=4)`), the
sample count and the spread (q3 - q1) / median next to the metric's
bound, and flags every spread at or above a third of its bound.  The
median CPU time of each run's timed calls is reported beside `wall_s`:
wall time above CPU time means the samples waited for a core.  Last, for
each workload, how much `setup_s` and `wall_s` still depend on the
machine's speed (see `speed_slope`).

With --trace, one traced run per workload follows the rounds and the
per-layer metrics are printed as one table.  --out writes everything as
JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(BENCH)
ROUNDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (per-sample detail, result line)."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def speed_slope(runs: list[dict], metric: str, speed: str) -> float:
    """Slope of log(metric) on log(speed) over the runs: 0 when the
    correction for machine speed is exact, above 0 when the reported
    times still rise with the speed (over-correction), below 0 when
    they fall (under-correction)."""
    return statistics.linear_regression(
        [math.log(r[speed]) for r in runs],
        [math.log(r["metrics"][metric]) for r in runs]).slope


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec["per_layer"]]

    values = {w: {m: [] for m in [*e2e, "cpu_s"]} for w in workloads}
    runs = []
    failures = 0
    for i in range(ROUNDS):
        seed = args.first_seed + i
        for w in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            detail, result = run(w, seed, spec["run_seconds"], 0)
            if set(result["metrics"]) != set(e2e):
                sys.exit(f"{w}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
            failures += result["failed"] + (not result["correct"])
            for m in e2e:
                values[w][m].append(result["metrics"][m]["value"])
            cpu = statistics.median(s["cpu_s"] for s in detail["samples"])
            values[w]["cpu_s"].append(cpu)
            runs.append({
                "workload": w, "seed": seed, "samples": len(detail["samples"]),
                "metrics": {m: result["metrics"][m]["value"] for m in e2e},
                "cpu_s": cpu,
                "setup_speed": statistics.median(s["setup_speed"] for s in detail["samples"]),
                "speed": statistics.median(s["speed"] for s in detail["samples"]),
            })
            line = "  ".join(f"{m} {result['metrics'][m]['value']:.4g}" for m in e2e)
            print(f"round {i + 1} {w} seed {seed}: {line}  "
                  f"samples {len(detail['samples'])}  failed {result['failed']}", flush=True)

    report = {"run_seconds": spec["run_seconds"], "rounds": ROUNDS,
              "first_seed": args.first_seed, "end_to_end": {}}
    print(f"\n{'workload':10} {'metric':12} {'n':>3} {'q1':>10} {'median':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    steady = True
    for w in workloads:
        report["end_to_end"][w] = {}
        for m, vals in values[w].items():
            s = summary(vals)
            s["unit"] = e2e[m]["unit"] if m in e2e else "s"
            bound = e2e[m]["bound"] if m in e2e else None
            s["bound"] = bound
            report["end_to_end"][w][m] = s
            flag = ""
            if bound is not None and s["spread"] >= bound / 3:
                flag = "  above bound/3"
                steady = False
            print(f"{w:10} {m:12} {s['n']:3} {s['q1']:10.4g} {s['median']:10.4g} "
                  f"{s['q3']:10.4g} {s['spread']:7.3f} {bound if bound else '':>6}{flag}")

    print("\nresidual dependence on machine speed: slope of log(metric) on "
          "log(speed) over the runs (0 = exact correction)")
    report["speed_slope"] = {}
    for w in workloads:
        own = [r for r in runs if r["workload"] == w]
        slopes = {"setup_s": speed_slope(own, "setup_s", "setup_speed"),
                  "wall_s": speed_slope(own, "wall_s", "speed")}
        report["speed_slope"][w] = slopes
        speeds = [r["speed"] for r in own]
        print(f"{w:10} setup_s {slopes['setup_s']:+.3f}  wall_s {slopes['wall_s']:+.3f}  "
              f"(speed {min(speeds):.3f}-{max(speeds):.3f})")

    if args.trace:
        report["per_layer"] = {}
        for w in workloads:
            _, result = run(w, args.first_seed, spec["run_seconds"], 1)
            if set(result["metrics"]) != set(layers):
                sys.exit(f"{w}: traced metrics differ from BENCHMARK.json per_layer")
            failures += result["failed"] + (not result["correct"])
            report["per_layer"][w] = {m: result["metrics"][m]["value"] for m in layers}
        print(f"\n{'per-layer metric':44}" + "".join(f"{w:>13}" for w in workloads))
        for m in layers:
            print(f"{m:44}" + "".join(
                f"{report['per_layer'][w][m]:13.6g}" for w in workloads))

    print(f"\nfailed items: {failures}; every spread below bound/3: {steady}")
    if args.out:
        report["runs"] = runs
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
