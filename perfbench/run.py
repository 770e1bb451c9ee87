#!/usr/bin/env python3
"""Builds and runs the dprof benchmark.

One workload, the form automated runs use (the last stdout line is the
result JSON):

    python3 perfbench/run.py --workload memcached_profile --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, over several seeds plus one traced
run each; prints every metric by name and unit, checks outputs, and with
--record writes the baseline to perfbench/baseline.json:

    python3 perfbench/run.py --all --seeds 1,2,3,4,5,6,7,8,9,10 [--record]

Run it from the root of a dprof source tree. The harness is built from source
in the repository's Release (LTO) configuration under .bench_build/perfbench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
TRACES = BUILD / "traces"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a dprof source tree (no CMakeLists.txt and src/)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_harness",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def commit():
    """The measured commit; "-dirty" when the tree has uncommitted changes."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def harness_command(workload, seed, seconds, trace):
    command = [str(HARNESS), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--commit", commit()]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(TRACES / f"{workload}-seed{seed}.json")]
    return command


def run_one(args):
    """Runs one workload in the harness, relaying its output."""
    build()
    sys.stdout.flush()
    return subprocess.run(
        harness_command(args.workload, args.seed, args.seconds, args.trace)).returncode


def run_captured(workload, seed, seconds, trace):
    """Runs the harness; returns its context, its result and the lines a
    reader needs (failures and the model's paper error)."""
    out = subprocess.run(harness_command(workload, seed, seconds, trace),
                         capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    context = next(json.loads(l[len("context "):]) for l in lines if l.startswith("context "))
    notes = [l for l in lines if l.startswith(("FAIL", "model error"))]
    return context, json.loads(lines[-1]), notes


def run_all(args):
    """Every workload over every seed, one process each, plus one traced run
    per workload; prints each metric with its quartiles and spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or spec["run_seconds"]
    build()
    baseline = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    failed_total = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in seeds:
            context, result, notes = run_captured(workload, seed, seconds, 0)
            results.append(result)
            for note in notes if seed == seeds[0] else [n for n in notes if n.startswith("FAIL")]:
                print(f"  {workload} seed {seed}: {note}")
        _, traced, notes = run_captured(workload, seeds[0], seconds, 1)
        for note in [n for n in notes if n.startswith("FAIL")]:
            print(f"  {workload} traced: {note}")
        attempted = sum(r["attempted"] for r in results + [traced])
        failed = sum(r["failed"] for r in results + [traced])
        failed_total += failed
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {},
                 "per_layer": traced["metrics"]}
        print(f"{workload}: {len(seeds)} seeds, {attempted} runs checked, {failed} failed")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"unit": metric["unit"], "median": median, "q1": q1,
                                         "q3": q3, "spread": spread, "values": values}
            print(f"  {name:<20} {median:12.5g} {metric['unit']:<7} q1 {q1:<10.5g} "
                  f"q3 {q3:<10.5g} spread {spread:6.2%} (bound {bound:.0%})")
        for name, metric in traced["metrics"].items():
            print(f"    {name:<36} {metric['value']:14.6g} {metric['unit']}")
        baseline["workloads"][workload] = entry
    baseline["context"] = context
    if args.record:
        path = HERE / "baseline.json"
        path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if failed_total == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload of BENCHMARK.json over --seeds")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--record", action="store_true",
                        help="with --all: write perfbench/baseline.json")
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload or not args.seconds:
        parser.error("--workload and --seconds, or --all, are required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
