#!/usr/bin/env python3
"""Compare a bench JSON report against the checked-in baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.15]

The report schema is auto-detected from the `experiment` field:

bench_e1 reports fail (exit 1) when:
  * a scale row's wall_seconds regressed by more than the tolerance,
  * the fusion speedup dropped below baseline * (1 - tolerance),
  * fusion stopped eliminating intermediate datasets or chains
    (these are exact counts, not timings — any increase is a bug),
  * a scale row's result shape (result_regions) changed.

bench_e6 reports fail when:
  * a (query, backend) row is missing, or its shuffle_bytes, tasks,
    stage_barriers or result_regions differ from the baseline at all —
    they are deterministic counters of a seeded corpus, so any drift means
    the engine's task graph or shuffle staging changed. Wall time is
    reported only.

bench_e7 reports fail when:
  * the .gdmz/.gdm size ratio falls below the 3x acceptance floor or the
    encoded size grew beyond tolerance (both figures are byte counts of a
    seeded corpus, so they are machine-independent),
  * bytes_resident is missing or grew beyond tolerance,
  * a thread-count row's wall_seconds regressed beyond the tolerance, or
    its task count changed (task counts are exact).

bench_e8 reports fail when:
  * any retryable-fault scenario (fault_free, flaky_fetch, straggler_*)
    drops below success rate 1.0 or stops being bit-identical to the
    fault-free result — the resilience layer must absorb retryable faults
    completely,
  * flaky_fetch retry amplification (requests vs fault_free) exceeds the
    3x floor, or its retries drop to zero (the scenario stopped injecting),
  * dead_site stops producing a partial result (completeness != 0.5) or
    its breaker never trips,
  * straggler_hedged stops hedging, or its simulated makespan is no longer
    faster than straggler_unhedged,
  * a scenario's simulated makespan drifts from baseline at all — virtual
    time is deterministic, so any change means behavior changed,
  * the query-shipping advantage falls below the 10x floor.

bench_e9_serve reports fail when:
  * any phase loses a response (admitted but never answered), duplicates
    one, or answers with an error — exact counts, never tolerated,
  * worker scaling at the max worker count falls below half the expected
    parallelism min(workers, hardware_threads) — on an 8-core host that is
    the 4x acceptance floor; on smaller hosts the floor shrinks with the
    hardware instead of demanding impossible speedups,
  * the warm plan-cache hit rate of the open-loop phase drops below 90%,
  * open-loop p99 latency regressed beyond the tolerance AND sits above an
    absolute grace floor (sub-5ms p99 never fails: on shared runners the
    worst sample of a few hundred is scheduler noise),
  * the overload burst stops being shed (zero rejections means admission
    control no longer applies backpressure) or a Submit call stalled long
    enough to look like it blocked on execution.

Timing improvements and faster rows are reported but never fail the gate.
"""

import argparse
import json
import sys

# Acceptance floor from the E7 columnar-storage work: .gdmz must stay >= 3x
# smaller than the text format. Absolute (not relative-to-baseline) so a
# bad baseline can never mask a real regression below the shipped figure.
E7_MIN_SIZE_RATIO = 3.0

# Acceptance floors from the E8 federation-resilience work. Retryable
# faults must be absorbed completely (success 1.0, bit-identical results)
# with bounded retry amplification; query shipping must stay far cheaper
# than data shipping. Absolute, so a bad baseline can never mask them.
E8_MAX_RETRY_AMPLIFICATION = 3.0
E8_MIN_SHIPPING_ADVANTAGE = 10.0
E8_RETRYABLE_SCENARIOS = ("fault_free", "flaky_fetch", "straggler_unhedged",
                          "straggler_hedged")

# Acceptance floors from the E9 serve work. The scaling floor is half the
# expected parallelism min(workers, hardware_threads): 4x at 8 workers on
# an 8-core host (the shipped acceptance figure), proportionally less on
# smaller machines where 8 workers cannot physically beat the core count.
E9_MIN_PLAN_HIT_RATE = 0.90
E9_SCALING_FRACTION = 0.5
E9_MAX_SUBMIT_STALL_MS = 1000.0
# p99 over a few hundred samples is the worst couple of requests — one OS
# scheduling hiccup moves it 10x on a shared runner. Below this grace floor
# the p99 always passes; above it, the relative tolerance applies (which is
# what catches a real serialization bug pushing tail latency to tens of ms).
E9_P99_GRACE_MS = 5.0


def load(path):
    with open(path) as f:
        return json.load(f)


def runs_by_samples(report):
    return {run["samples"]: run for run in report.get("runs", [])}


def check_e1(baseline, current, tol, failures, notes):
    base_runs = runs_by_samples(baseline)
    cur_runs = runs_by_samples(current)
    for samples, base in sorted(base_runs.items()):
        cur = cur_runs.get(samples)
        if cur is None:
            failures.append(f"scale row samples={samples} missing from current report")
            continue
        if base.get("result_regions") != cur.get("result_regions"):
            failures.append(
                f"samples={samples}: result_regions changed "
                f"{base.get('result_regions')} -> {cur.get('result_regions')}"
            )
        bw, cw = base["wall_seconds"], cur["wall_seconds"]
        ratio = cw / bw
        line = f"samples={samples}: wall {bw:.3f}s -> {cw:.3f}s ({ratio:.2f}x)"
        if ratio > 1 + tol:
            failures.append(line + f" exceeds +{tol:.0%} tolerance")
        else:
            notes.append(line)

    for key in ("fusion_off_seconds", "fusion_on_seconds"):
        if key in baseline and key in current:
            ratio = current[key] / baseline[key]
            line = f"{key}: {baseline[key]:.3f}s -> {current[key]:.3f}s ({ratio:.2f}x)"
            if ratio > 1 + tol:
                failures.append(line + f" exceeds +{tol:.0%} tolerance")
            else:
                notes.append(line)

    if "fusion_speedup" in baseline and "fusion_speedup" in current:
        bs, cs = baseline["fusion_speedup"], current["fusion_speedup"]
        line = f"fusion_speedup: {bs:.2f}x -> {cs:.2f}x"
        if cs < bs * (1 - tol):
            failures.append(line + f" dropped more than {tol:.0%}")
        else:
            notes.append(line)

    # Allocation counts are deterministic: any increase means fusion broke.
    for key in ("fusion_intermediates_on", "fusion_intermediates_off"):
        if key in baseline and key in current and current[key] > baseline[key]:
            failures.append(f"{key}: {baseline[key]} -> {current[key]} (increase)")
    if current.get("fusion_chains", 0) < baseline.get("fusion_chains", 0):
        failures.append(
            f"fusion_chains: {baseline['fusion_chains']} -> "
            f"{current['fusion_chains']} (fusion stopped firing)"
        )


E6_EXACT_COUNTERS = ("shuffle_bytes", "tasks", "stage_barriers",
                     "result_regions")


def check_e6(baseline, current, tol, failures, notes):
    cur_rows = {(run["query"], run["backend"]): run
                for run in current.get("runs", [])}
    for base in baseline.get("runs", []):
        key = (base["query"], base["backend"])
        label = f"{key[0]} {key[1]}"
        cur = cur_rows.get(key)
        if cur is None:
            failures.append(f"row {label} missing from current report")
            continue
        for counter in E6_EXACT_COUNTERS:
            if base.get(counter) != cur.get(counter):
                failures.append(
                    f"{label}: {counter} changed {base.get(counter)} -> "
                    f"{cur.get(counter)} (exact counter)"
                )
        notes.append(
            f"{label}: shuffle {cur.get('shuffle_bytes')} B, tasks "
            f"{cur.get('tasks')}, barriers {cur.get('stage_barriers')}, "
            f"regions {cur.get('result_regions')}; wall "
            f"{base['wall_seconds']:.3f}s -> {cur['wall_seconds']:.3f}s "
            "(reported only)"
        )


def e7_rows(report):
    return {run["threads"]: run for run in report.get("runs", [])}


def check_e7(baseline, current, tol, failures, notes):
    # The absolute acceptance floor first: it holds regardless of baseline.
    ratio = current.get("size_ratio")
    if ratio is None:
        failures.append("size_ratio missing from report")
    else:
        line = f"size_ratio (text/.gdmz): {ratio:.2f}x (floor {E7_MIN_SIZE_RATIO}x)"
        if ratio < E7_MIN_SIZE_RATIO:
            failures.append(line + " below acceptance floor")
        else:
            notes.append(line)

    # Byte figures are seeded-corpus counts — machine-independent, so drift
    # means the encoder (or corpus) actually changed.
    for key in ("gdmz_bytes", "bytes_resident"):
        if key not in current:
            failures.append(f"{key} missing from report")
            continue
        base = baseline.get(key)
        if base is None:
            notes.append(f"{key}: {current[key]} (no baseline figure)")
            continue
        growth = current[key] / base
        line = f"{key}: {base} -> {current[key]} ({growth:.2f}x)"
        if growth > 1 + tol:
            failures.append(line + f" exceeds +{tol:.0%} tolerance")
        else:
            notes.append(line)

    base_rows = e7_rows(baseline)
    cur_rows = e7_rows(current)
    for threads, base in sorted(base_rows.items()):
        cur = cur_rows.get(threads)
        label = f"threads={threads}"
        if cur is None:
            failures.append(f"row {label} missing from current report")
            continue
        if base.get("tasks") != cur.get("tasks"):
            failures.append(
                f"{label}: tasks changed {base.get('tasks')} -> {cur.get('tasks')}"
            )
        bw, cw = base["wall_seconds"], cur["wall_seconds"]
        wall = cw / bw
        line = f"{label}: wall {bw:.3f}s -> {cw:.3f}s ({wall:.2f}x)"
        if wall > 1 + tol:
            failures.append(line + f" exceeds +{tol:.0%} tolerance")
        else:
            notes.append(line)


def e8_rows(report):
    return {run["scenario"]: run for run in report.get("runs", [])}


def check_e8(baseline, current, tol, failures, notes):
    advantage = current.get("query_shipping_advantage_at_max_scale")
    if advantage is None:
        failures.append("query_shipping_advantage_at_max_scale missing")
    else:
        line = (
            f"query_shipping_advantage: {advantage:.1f}x "
            f"(floor {E8_MIN_SHIPPING_ADVANTAGE}x)"
        )
        if advantage < E8_MIN_SHIPPING_ADVANTAGE:
            failures.append(line + " below acceptance floor")
        else:
            notes.append(line)

    base_rows = e8_rows(baseline)
    cur_rows = e8_rows(current)
    for name in base_rows:
        if name not in cur_rows:
            failures.append(f"scenario {name} missing from current report")
    for name, cur in sorted(cur_rows.items()):
        rate = cur.get("success_rate", 0)
        if name in E8_RETRYABLE_SCENARIOS:
            if rate != 1.0:
                failures.append(
                    f"{name}: success_rate {rate} != 1.0 under retryable faults"
                )
            else:
                notes.append(f"{name}: success_rate 1.00")
            if cur.get("bit_identical") != 1:
                failures.append(
                    f"{name}: results no longer bit-identical to fault-free"
                )
        # Virtual-time makespans are exact: any drift is a behavior change.
        base = base_rows.get(name)
        if base is not None and base.get("makespan_us") != cur.get("makespan_us"):
            failures.append(
                f"{name}: simulated makespan changed "
                f"{base.get('makespan_us')}us -> {cur.get('makespan_us')}us "
                "(virtual time is deterministic; behavior changed)"
            )

    flaky = cur_rows.get("flaky_fetch")
    if flaky is not None:
        amp = flaky.get("retry_amplification", 0)
        line = (
            f"flaky_fetch: retry_amplification {amp:.2f}x "
            f"(ceiling {E8_MAX_RETRY_AMPLIFICATION}x)"
        )
        if amp > E8_MAX_RETRY_AMPLIFICATION:
            failures.append(line + " above ceiling")
        else:
            notes.append(line)
        if flaky.get("retries", 0) == 0:
            failures.append("flaky_fetch: zero retries (faults not injected?)")

    dead = cur_rows.get("dead_site")
    if dead is not None:
        if dead.get("completeness") != 0.5:
            failures.append(
                f"dead_site: completeness {dead.get('completeness')} != 0.5 "
                "(partial-result degradation broke)"
            )
        else:
            notes.append("dead_site: completeness 0.50 (graceful partial)")
        if dead.get("breaker_trips", 0) < 1:
            failures.append("dead_site: breaker never tripped")

    hedged = cur_rows.get("straggler_hedged")
    unhedged = cur_rows.get("straggler_unhedged")
    if hedged is not None and unhedged is not None:
        if hedged.get("hedges", 0) == 0:
            failures.append("straggler_hedged: zero hedges fired")
        hm, um = hedged.get("makespan_us", 0), unhedged.get("makespan_us", 0)
        line = f"straggler makespan: hedged {hm}us vs unhedged {um}us"
        if hm >= um:
            failures.append(line + " (hedging no longer wins)")
        else:
            notes.append(line + f" ({um / hm:.2f}x faster)")


def e9_rows(report):
    return {run["phase"]: run for run in report.get("runs", [])
            if run.get("phase") != "capacity"} | {
        f"capacity_w{run['workers']}": run
        for run in report.get("runs", []) if run.get("phase") == "capacity"
    }


def check_e9(baseline, current, tol, failures, notes):
    # Response accounting is exact in every phase: a served query is
    # answered exactly once or the session layer is broken.
    for run in current.get("runs", []):
        label = run.get("phase", "?")
        for key in ("lost", "duplicates", "errors"):
            if run.get(key, 0) != 0:
                failures.append(f"{label}: {key} = {run.get(key)} (must be 0)")
        notes.append(
            f"{label}: submitted {run.get('submitted')}, admitted "
            f"{run.get('admitted')}, rejected {run.get('rejected')}, "
            f"lost/dup 0/0"
        )

    # Worker scaling, floored by what the hardware can deliver.
    scaling = current.get("scaling_at_max_workers")
    workers = current.get("workers_max", 8)
    hw = current.get("hardware_threads", 1)
    if scaling is None:
        failures.append("scaling_at_max_workers missing from report")
    else:
        expected = min(workers, max(1, hw))
        floor = max(E9_SCALING_FRACTION, E9_SCALING_FRACTION * expected)
        line = (
            f"scaling_at_max_workers: {scaling:.2f}x with {workers} workers "
            f"on {hw} hardware threads (floor {floor:.1f}x)"
        )
        if scaling < floor:
            failures.append(line + " below acceptance floor")
        else:
            notes.append(line)

    cur_rows = e9_rows(current)
    base_rows = e9_rows(baseline)
    open_loop = cur_rows.get("open_loop")
    if open_loop is None:
        failures.append("open_loop phase missing from report")
    else:
        rate = open_loop.get("plan_hit_rate", 0)
        line = f"open_loop: plan_hit_rate {rate:.1%} (floor {E9_MIN_PLAN_HIT_RATE:.0%})"
        if rate < E9_MIN_PLAN_HIT_RATE:
            failures.append(line + " below acceptance floor")
        else:
            notes.append(line)
        base_open = base_rows.get("open_loop")
        if base_open and base_open.get("p99_ms"):
            bp, cp = base_open["p99_ms"], open_loop.get("p99_ms", 0)
            ratio = cp / bp
            line = f"open_loop: p99 {bp:.2f}ms -> {cp:.2f}ms ({ratio:.2f}x)"
            if ratio > 1 + tol and cp > E9_P99_GRACE_MS:
                failures.append(line + f" exceeds +{tol:.0%} tolerance")
            else:
                notes.append(line)

    overload = cur_rows.get("overload")
    if overload is None:
        failures.append("overload phase missing from report")
    else:
        if overload.get("rejected", 0) < 1:
            failures.append(
                "overload: zero rejections — admission control stopped "
                "shedding load"
            )
        else:
            notes.append(
                f"overload: shed {overload['rejected']} of "
                f"{overload.get('submitted')} (backpressure engaged)"
            )
        stall = overload.get("max_submit_ms", 0)
        line = f"overload: max Submit stall {stall:.2f}ms (cap {E9_MAX_SUBMIT_STALL_MS:.0f}ms)"
        if stall > E9_MAX_SUBMIT_STALL_MS:
            failures.append(line + " — Submit appears to block under load")
        else:
            notes.append(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional slowdown before failing (default 0.15)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    tol = args.tolerance
    failures = []
    notes = []

    experiment = current.get("experiment", "")
    if experiment != baseline.get("experiment", ""):
        failures.append(
            f"experiment mismatch: baseline {baseline.get('experiment')!r} "
            f"vs current {experiment!r}"
        )
    elif experiment.startswith("E6"):
        check_e6(baseline, current, tol, failures, notes)
    elif experiment.startswith("E7"):
        check_e7(baseline, current, tol, failures, notes)
    elif experiment.startswith("E8"):
        check_e8(baseline, current, tol, failures, notes)
    elif experiment.startswith("E9 serve"):
        check_e9(baseline, current, tol, failures, notes)
    else:
        check_e1(baseline, current, tol, failures, notes)

    for note in notes:
        print(f"ok   {note}")
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        print(f"\n{len(failures)} regression(s) beyond {tol:.0%} tolerance")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
