#!/usr/bin/env python3
"""Builds the GDMS benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload section2_map --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run of a checkout compiles. The last
line of standard output is the benchmark's JSON result; build output goes to
standard error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the GDMS sources (src/) are missing from this checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def run_workload(args):
    binary = build("gdms_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir(), "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def selftest():
    """The benchmark's own tests, plus BENCHMARK.json against the binary."""
    binary = build("perfbench_selftest")
    proc = subprocess.run([binary, os.path.join(build_dir(), "selftest")],
                          cwd=ROOT)
    if proc.returncode != 0:
        return proc.returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([build("gdms_perfbench"), "--list"],
                            stdout=subprocess.PIPE, text=True, check=True)
    emitted = {"end_to_end": [], "per_layer": [], "workloads": []}
    for line in listed.stdout.splitlines():
        kind, *rest = line.split()
        emitted[kind].append(tuple(rest))
    errors = []
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != emitted[kind]:
            errors.append(f"BENCHMARK.json {kind} differs from the metrics "
                          "the benchmark emits")
    if [w["name"] for w in spec["workloads"]] != [w[0] for w in emitted["workloads"]]:
        errors.append("BENCHMARK.json workloads differ from the benchmark's")
    for kind in ("end_to_end", "per_layer"):
        for name, unit in emitted[kind]:
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", name) or not unit:
                errors.append(f"bad metric name or unit: {name!r} {unit!r}")
    for e in errors:
        print(f"FAIL {e}")
    print("BENCHMARK.json check:", "FAIL" if errors else "ok")
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        fail(f"build step failed: {e}")
