#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fleet_chat --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the simulator from src/) in Release under
.bench_build/ at the repository root, runs one workload, and checks that the
result line carries exactly the metrics BENCHMARK.json declares: every
end-to-end metric with --trace 0, every per-layer metric with --trace 1.
The build log goes to stderr; the benchmark's report goes to stdout and ends
with one JSON line. Pass --all to run every workload in turn (one JSON line
each) for a quick look at a held-out seed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "engine.h")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "ledger.json")) as f:
        ledger = json.load(f)
    for key in ("per_layer", "end_to_end"):
        if {m["name"] for m in spec[key]} != set(ledger[key]):
            fail(f"perfbench/ledger.json {key} does not match BENCHMARK.json")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def run_one(workload, seed, seconds, trace):
    scratch = os.path.join(ROOT, ".bench_build", "run", workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"{workload} timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} printed no result line (exit {proc.returncode})")
    declared, _ = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in got if k in declared and got[k] != declared[k])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} extra={extra} "
             f"unit mismatch={units}")
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


def main():
    # Compilers (the build, and the JIT compile inside attn_kernel) write
    # their temporary files here instead of the system temp directory.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")
    build()
    _, workloads = declared_metrics(args.trace)
    targets = workloads if args.all else [args.workload]
    if any(w not in workloads for w in targets):
        fail(f"unknown workload {args.workload}; declared: {workloads}")
    rc = 0
    for w in targets:
        rc |= run_one(w, args.seed, args.seconds, args.trace == 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
