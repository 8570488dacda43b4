#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/, runs one workload and passes its output through. The
last line of standard output is the JSON result. Its metrics follow the
end_to_end (--trace 0) or per_layer (--trace 1) list of BENCHMARK.json;
a listed metric that the workload does not exercise reads 0. A traced run
also writes .bench_build/trace-<workload>.json (Chrome trace-event format,
opens in Perfetto); this script checks that the file parses as such and
counts a malformed trace as a failed check.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("train-dense-wire", "train-qsgd-compute", "serve-dlrm", "fl-churn")
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """Wall-time limit of one run: a traced run measures for about
    `seconds` after its set-up, and then runs its reference replays."""
    return 2 * seconds + 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the benchmark; returns the binary path or None."""
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {' '.join(cmd)}: {err}")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(cmake_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def trace_is_valid(path):
    """True when `path` is Chrome trace-event JSON with complete events."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return False
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        return False
    complete = [e for e in events if e.get("ph") == "X"]
    return bool(complete) and all(
        isinstance(e.get("name"), str) and isinstance(e.get("ts"), (int, float))
        and isinstance(e.get("dur"), (int, float)) and e["dur"] >= 0
        for e in complete)


def complete_metrics(measured, specs):
    """Orders `measured` as `specs` lists it, filling unexercised ones with 0.

    Returns None if the workload measured a metric the list does not name,
    or gave one a different unit.
    """
    out = {}
    for spec in specs:
        metric = measured.pop(spec["name"], {"value": 0, "unit": spec["unit"]})
        if metric.get("unit") != spec["unit"]:
            log(f"metric {spec['name']} has unit {metric.get('unit')}, "
                f"BENCHMARK.json says {spec['unit']}")
            return None
        out[spec["name"]] = metric
    if measured:
        log(f"metrics missing from BENCHMARK.json: {sorted(measured)}")
        return None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        parser.error("--seconds must be in [1, 600] and --seed non-negative")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            specs = json.load(f)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as err:
        log(f"cannot read the metric list from BENCHMARK.json: {err}")
        return 1
    build_dir = os.path.join(root, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(root, build_dir)
    if binary is None:
        return 1

    trace_file = os.path.join(build_dir, f"trace-{args.workload}.json")
    if os.path.exists(trace_file):
        os.remove(trace_file)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ, BAGUA_INTRA_OP_THREADS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {run_timeout_s(args.seconds)} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        log("benchmark printed no JSON result")
        return 1

    metrics = complete_metrics(result.get("metrics", {}), specs)
    if metrics is None:
        return 1
    result["metrics"] = metrics
    for line in lines[:-1]:
        print(line)
    if args.trace:
        ok = trace_is_valid(trace_file)
        print(f"check {'ok   ' if ok else 'FAILED'} {trace_file} is Chrome "
              "trace-event JSON")
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
