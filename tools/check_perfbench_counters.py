#!/usr/bin/env python3
"""Gate perfbench's deterministic per-layer counters against a recorded file.

Usage:
    check_perfbench_counters.py COUNTERS.json RUN.txt [RUN.txt ...]
    check_perfbench_counters.py --record COUNTERS.json RUN.txt [RUN.txt ...]

Each RUN.txt is the standard output of one traced perfbench run:

    python3 perfbench/run.py --workload W --seed 1 --seconds 2 --trace 1 > RUN.txt

Its first line names the workload and seed, its last line is the JSON
result. Counters are per-query figures of a seeded input (task and
partition counts, operator output regions and bytes, bytes allocated and
peak bytes held by the query, intermediate datasets, stored bytes per
region), so they do not depend on the machine or the run length.

Check mode fails (exit 1) when a run did not report `correct`, when its
seed differs from the recorded one, when any recorded counter of its
workload is missing or differs from the recorded value at all, or when a
recorded workload has no run among the arguments. Wall times are never
compared.

Record mode writes COUNTERS.json from the runs: for each workload, the
candidate counters whose value is identical in every run given for it.
Pass at least two runs per workload plus one under `taskset -c 0`, so only
counters that repeat across runs and core counts are recorded; the
counters left out are printed.
"""

import argparse
import fnmatch
import json
import re
import sys

CANDIDATES = [
    "engine.tasks",
    "engine.partitions",
    "engine.*.out_regions",
    "engine.*.out_mb",
    "core.alloc_mb",
    "core.peak_mb",
    "core.intermediate_datasets",
    "io.stored_bytes_per_region",
]

HEADER = re.compile(r"^workload (\S+)\s+seed (\S+)")


def load_run(path):
    """(workload, seed, result dict) of one captured run."""
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        sys.exit(f"{path}: empty run output")
    m = HEADER.match(lines[0])
    if m is None:
        sys.exit(f"{path}: first line does not name a workload")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: last line is not the JSON result ({e})")
    return m.group(1), int(m.group(2)), result


def candidate_values(result):
    metrics = result.get("metrics", {})
    out = {}
    for name, entry in metrics.items():
        if any(fnmatch.fnmatchcase(name, pat) for pat in CANDIDATES):
            out[name] = entry["value"]
    return out


def record(out_path, runs):
    by_workload = {}
    seeds = set()
    for path in runs:
        workload, seed, result = load_run(path)
        if not result.get("correct"):
            sys.exit(f"{path}: run is not correct; refusing to record it")
        seeds.add(seed)
        by_workload.setdefault(workload, []).append(candidate_values(result))
    if len(seeds) != 1:
        sys.exit(f"runs mix seeds {sorted(seeds)}")
    recorded = {}
    for workload, values in sorted(by_workload.items()):
        if len(values) < 2:
            sys.exit(f"{workload}: record needs at least two runs")
        keep, dropped = {}, []
        for name in sorted(values[0]):
            seen = [v.get(name) for v in values]
            if all(s == seen[0] for s in seen):
                keep[name] = seen[0]
            else:
                dropped.append(name)
        recorded[workload] = keep
        for name in dropped:
            print(f"{workload}: {name} varies across runs "
                  f"({sorted(set(str(v.get(name)) for v in values))}); "
                  "not recorded")
    with open(out_path, "w") as f:
        json.dump({"seed": seeds.pop(), "workloads": recorded}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    print(f"recorded {sum(len(c) for c in recorded.values())} counters "
          f"for {len(recorded)} workloads to {out_path}")
    return 0


def check(counters_path, runs):
    with open(counters_path) as f:
        spec = json.load(f)
    failures = []
    checked = 0
    seen = set()
    for path in runs:
        workload, seed, result = load_run(path)
        seen.add(workload)
        if not result.get("correct") or result.get("failed", 0) != 0:
            failures.append(f"{workload}: run not correct "
                            f"(failed {result.get('failed')})")
        if seed != spec["seed"]:
            failures.append(f"{workload}: seed {seed}, counters recorded "
                            f"with seed {spec['seed']}")
            continue
        expected = spec["workloads"].get(workload)
        if expected is None:
            failures.append(f"{workload}: no recorded counters")
            continue
        got = result.get("metrics", {})
        for name, want in sorted(expected.items()):
            checked += 1
            if name not in got:
                failures.append(f"{workload}: {name} missing")
            elif got[name]["value"] != want:
                failures.append(f"{workload}: {name} = {got[name]['value']!r},"
                                f" recorded {want!r}")
    for workload in sorted(set(spec["workloads"]) - seen):
        failures.append(f"{workload}: recorded, but no run given")
    for line in failures:
        print("FAIL " + line)
    if failures:
        return 1
    print(f"ok: {checked} counters over {len(runs)} runs match {counters_path}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write COUNTERS.json from the runs instead")
    parser.add_argument("counters")
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()
    if args.record:
        return record(args.counters, args.runs)
    return check(args.counters, args.runs)


if __name__ == "__main__":
    sys.exit(main())
