#!/usr/bin/env python3
"""Validates GDMS telemetry artifacts produced by `gdms_shell --serve`.

Checks two things CI cares about:

  1. The Prometheus-style exposition file (--expo): every sample parses,
     every metric declares a TYPE, counters follow the `_total` naming rule,
     unit-suffixed names carry a matching `# UNIT` comment, and — when an
     earlier scrape is supplied via --expo-early — counters and summary
     `_count`/`_sum` series are monotonically non-decreasing between the
     two scrapes.
  2. The JSONL query log (--query-log): every line is valid JSON with the
     full figure schema, `seq` increases strictly from 1, timestamps are
     non-decreasing, and (with --expect-slow / --expect-fed) at least one
     entry carries the embedded EXPLAIN ANALYZE escalation and at least one
     shows federation traffic.
  3. Distributed tracing (--expect-trace): the exposition carries the
     exemplar gauge and critical-path histograms, every registry metric
     matches the gdms_<layer>_<name>[_unit][_total] naming scheme, and the
     query log has traced entries whose critical-path segments sum to the
     traced total. A stitched-trace JSON (--trace-json, from
     `gdms_shell .trace <id> FILE`) is additionally checked structurally:
     remote spans present, every parent link resolves to a span in the
     same trace, and the critical path sums to within 5% of the root span.

Exit code 0 when every check passes, 1 otherwise (each failure printed).
"""

import argparse
import json
import re
import sys

UNIT_SUFFIXES = {
    "_ns": "ns",
    "_us": "us",
    "_ms": "ms",
    "_seconds": "s",
    "_bytes": "bytes",
}

REQUIRED_LOG_KEYS = [
    "ts_ms", "seq", "query", "ok", "wall_ms", "operators", "cache_hits",
    "intermediate_datasets", "fused_chains", "tasks", "partitions",
    "shuffle_bytes", "stage_barriers", "fed", "mem", "slow",
]

SAMPLE_RE = re.compile(r"^(\S+(?:\{[^}]*\})?)\s+(-?[0-9.eE+-]+|[+-]?(?:inf|nan))$")

# Every registry metric: gdms_<layer>_<name>[_unit][_total] -- lowercase
# alphanumeric words joined by single underscores, at least one word after
# the layer. Summary sub-series (_sum/_count) inherit the shape.
METRIC_NAME_RE = re.compile(r"^gdms_[a-z0-9]+(_[a-z0-9]+)+$")

errors = []


def fail(msg):
    errors.append(msg)


def base_name(sample_name):
    return sample_name.split("{", 1)[0]


def expected_unit(base):
    if base.endswith("_total"):
        base = base[: -len("_total")]
    for suffix, unit in UNIT_SUFFIXES.items():
        if base.endswith(suffix):
            return unit
    if "_bytes_" in base:
        return "bytes"
    return None


def parse_exposition(path):
    """Returns (samples: name->float, types: base->type, units: base->unit)."""
    samples, types, units = {}, {}, {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4:
                    fail(f"{path}:{lineno}: malformed TYPE comment: {line}")
                    continue
                types[parts[2]] = parts[3]
                continue
            if line.startswith("# UNIT "):
                parts = line.split()
                if len(parts) != 4:
                    fail(f"{path}:{lineno}: malformed UNIT comment: {line}")
                    continue
                units[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: unparseable sample line: {line!r}")
                continue
            try:
                samples[m.group(1)] = float(m.group(2))
            except ValueError:
                fail(f"{path}:{lineno}: bad value in: {line!r}")
    return samples, types, units


def summary_series_base(name):
    """gdms_x_us_sum / _count / {quantile=...} -> gdms_x_us, else None."""
    base = base_name(name)
    if "{quantile=" in name:
        return base
    for suffix in ("_sum", "_count"):
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return None


def check_exposition(
    path, early_path, expect_fed, expect_mem, expect_shed, expect_trace
):
    samples, types, units = parse_exposition(path)
    if not samples:
        fail(f"{path}: no samples scraped")
        return
    for base in sorted(set(types) | {base_name(n) for n in samples}):
        if not METRIC_NAME_RE.match(base):
            fail(
                f"{path}: metric {base} violates the "
                f"gdms_<layer>_<name>[_unit][_total] naming scheme"
            )
    for name, value in samples.items():
        base = base_name(name)
        # Summary sub-series (_sum/_count/quantile lines) inherit the TYPE
        # of their parent summary.
        owner = summary_series_base(name)
        declared = types.get(base) or (owner and types.get(owner))
        if not declared:
            fail(f"{path}: sample {name} has no # TYPE comment")
            continue
        if declared == "counter":
            if not base.endswith("_total"):
                fail(f"{path}: counter {base} does not end in _total")
            if value < 0:
                fail(f"{path}: counter {name} is negative ({value})")
    for base, declared in types.items():
        unit = expected_unit(base)
        if unit is not None and units.get(base) != unit:
            fail(
                f"{path}: {base} should declare '# UNIT {base} {unit}', "
                f"got {units.get(base)!r}"
            )
    if expect_fed:
        for required in (
            'gdms_fed_staged_bytes{node="site_a"}',
            'gdms_fed_staged_bytes{node="site_b"}',
            "gdms_fed_nodes",
            "gdms_fed_requests_total",
            "gdms_fed_bytes_shipped_total",
        ):
            if required not in samples:
                fail(f"{path}: expected federation sample {required} missing")
        if samples.get("gdms_fed_requests_total", 0) <= 0:
            fail(f"{path}: gdms_fed_requests_total shows no traffic")
    if expect_mem:
        for required in (
            "gdms_mem_rss_bytes",
            "gdms_mem_tracked_bytes",
            "gdms_mem_reclaimable_bytes",
            "gdms_mem_columnar_cache_bytes",
            "gdms_mem_budget_bytes",
            "gdms_mem_evictions_total",
        ):
            if required not in samples:
                fail(f"{path}: expected memory sample {required} missing")
        if samples.get("gdms_mem_rss_bytes", 0) <= 0:
            fail(f"{path}: gdms_mem_rss_bytes shows no resident memory")
        if not any(
            name.startswith("gdms_storage_dataset_resident_bytes{")
            for name in samples
        ):
            fail(f"{path}: no per-dataset resident-bytes gauge")
    if expect_shed:
        budget = samples.get("gdms_mem_budget_bytes", 0)
        if budget <= 0:
            fail(f"{path}: --expect-shed but no memory budget configured")
        if samples.get("gdms_mem_evictions_total", 0) <= 0:
            fail(f"{path}: budgeted run recorded no evictions")
        reclaimable = samples.get("gdms_mem_reclaimable_bytes", 0)
        if budget > 0 and reclaimable > budget:
            fail(
                f"{path}: reclaimable bytes {reclaimable} exceed the "
                f"budget {budget} after shedding"
            )
    if expect_trace:
        if samples.get("gdms_trace_exemplars_kept_total", 0) <= 0:
            fail(f"{path}: no trace exemplars were retained")
        if not any(
            name.startswith("gdms_trace_exemplar_us{") for name in samples
        ):
            fail(f"{path}: no gdms_trace_exemplar_us samples (exemplar ring)")
        if not any(base.startswith("gdms_trace_critical_") for base in types):
            fail(f"{path}: no gdms_trace_critical_* segment histograms")
    if early_path:
        early_samples, _, _ = parse_exposition(early_path)
        for name, early_value in early_samples.items():
            base = base_name(name)
            monotone = (
                types.get(base) == "counter"
                or base.endswith("_count")
                or base.endswith("_sum")
            )
            if not monotone:
                continue
            late_value = samples.get(name)
            if late_value is None:
                fail(f"{path}: {name} present earlier but missing later")
            elif late_value < early_value:
                fail(
                    f"{path}: {name} went backwards "
                    f"({early_value} -> {late_value})"
                )


def check_trace_json(path):
    """Structural checks on one stitched-trace JSON (RenderJson output)."""
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: unreadable trace JSON: {e}")
        return
    tid = trace.get("trace_id", "")
    if not re.fullmatch(r"[0-9a-f]{32}", tid):
        fail(f"{path}: bad trace_id {tid!r}")
    spans = trace.get("spans", [])
    if not spans:
        fail(f"{path}: trace has no spans")
        return
    ids = {(s.get("origin", ""), s.get("id")) for s in spans}
    if len(ids) != len(spans):
        fail(f"{path}: duplicate (origin, id) span identities")
    roots = [s for s in spans if s.get("parent", 0) == 0]
    if len(roots) != 1:
        fail(f"{path}: expected exactly one root span, found {len(roots)}")
    for s in spans:
        if s.get("parent", 0) == 0:
            continue
        link = (s.get("parent_origin", ""), s.get("parent"))
        if link not in ids:
            fail(
                f"{path}: span ({s.get('origin')!r}, {s.get('id')}) has an "
                f"unresolved parent link {link}"
            )
    if not any(s.get("origin") for s in spans):
        fail(f"{path}: no remote spans (every origin is the coordinator)")
    total = trace.get("total_us", 0)
    if roots and roots[0].get("duration_us") != total:
        fail(
            f"{path}: root duration {roots[0].get('duration_us')}us "
            f"disagrees with total_us {total}"
        )
    path_sum = sum(seg.get("us", 0) for seg in trace.get("critical_path", []))
    if total > 0 and abs(path_sum - total) > 0.05 * total:
        fail(
            f"{path}: critical-path segments sum to {path_sum}us, "
            f"more than 5% off the {total}us total"
        )


def check_query_log(path, expect_slow, expect_fed, expect_trace):
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
                continue
            for key in REQUIRED_LOG_KEYS:
                if key not in entry:
                    fail(f"{path}:{lineno}: missing key {key!r}")
            entries.append(entry)
    if not entries:
        fail(f"{path}: empty query log")
        return
    prev_ts = None
    for i, entry in enumerate(entries):
        if entry.get("seq") != i + 1:
            fail(f"{path}: entry {i}: seq {entry.get('seq')} != {i + 1}")
        ts = entry.get("ts_ms", 0)
        if prev_ts is not None and ts < prev_ts:
            fail(f"{path}: ts_ms went backwards ({prev_ts} -> {ts})")
        prev_ts = ts
        if entry.get("wall_ms", 0) < 0:
            fail(f"{path}: entry seq={entry.get('seq')}: negative wall_ms")
        fed = entry.get("fed", {})
        if not isinstance(fed, dict) or not {
            "requests", "bytes_shipped", "bytes_received"
        } <= set(fed):
            fail(f"{path}: entry seq={entry.get('seq')}: malformed fed block")
        mem = entry.get("mem", {})
        if not isinstance(mem, dict) or not {
            "alloc_bytes", "peak_bytes"
        } <= set(mem):
            fail(f"{path}: entry seq={entry.get('seq')}: malformed mem block")
        elif mem["peak_bytes"] > mem["alloc_bytes"]:
            fail(
                f"{path}: entry seq={entry.get('seq')}: peak_bytes "
                f"{mem['peak_bytes']} exceeds alloc_bytes {mem['alloc_bytes']}"
            )
        if not entry.get("ok", True) and not entry.get("error"):
            fail(f"{path}: entry seq={entry.get('seq')}: failed but no error")
    if expect_slow:
        slow = [e for e in entries if e.get("slow")]
        if not slow:
            fail(f"{path}: no slow entries (expected escalation)")
        elif not any("explain" in e for e in slow):
            fail(f"{path}: no slow entry embeds an EXPLAIN ANALYZE capture")
        else:
            explained = next(e for e in slow if "explain" in e)
            if "query" not in explained["explain"]:
                fail(f"{path}: embedded explain lacks the query span root")
    if expect_fed:
        if not any(e.get("fed", {}).get("requests", 0) > 0 for e in entries):
            fail(f"{path}: no entry shows federation requests")
    if expect_trace:
        traced = [e for e in entries if e.get("trace_id")]
        if not traced:
            fail(f"{path}: no entry carries a trace_id")
            return
        with_path = [e for e in traced if e.get("critical_path")]
        if not with_path:
            fail(f"{path}: no traced entry carries a critical_path block")
        for e in with_path:
            for seg in e["critical_path"]:
                if not {"segment", "us"} <= set(seg):
                    fail(
                        f"{path}: entry seq={e.get('seq')}: malformed "
                        f"critical_path segment {seg!r}"
                    )
            if e.get("query", "").startswith(".fed "):
                # Federation traces tick in SimClock virtual time; their
                # wall_ms is unrelated by design.
                continue
            total = sum(seg.get("us", 0) for seg in e["critical_path"])
            want = e.get("wall_ms", 0) * 1000.0
            if want > 1000 and abs(total - want) > 0.05 * want:
                fail(
                    f"{path}: entry seq={e.get('seq')}: critical path sums "
                    f"to {total}us but the query took {want:.0f}us"
                )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expo", help="exposition file (final scrape)")
    parser.add_argument(
        "--expo-early",
        help="earlier scrape of the same process, for monotonicity checks",
    )
    parser.add_argument("--query-log", help="JSONL query log")
    parser.add_argument(
        "--expect-slow",
        action="store_true",
        help="require at least one slow entry with embedded EXPLAIN ANALYZE",
    )
    parser.add_argument(
        "--expect-fed",
        action="store_true",
        help="require federation gauges/counters and per-query fed traffic",
    )
    parser.add_argument(
        "--expect-mem",
        action="store_true",
        help="require the gdms_mem_*/gdms_storage_* accounting families",
    )
    parser.add_argument(
        "--expect-shed",
        action="store_true",
        help="require a configured budget, evictions, and reclaimable bytes "
        "at or under the budget",
    )
    parser.add_argument(
        "--expect-trace",
        action="store_true",
        help="require trace exemplars + critical-path histograms in the "
        "exposition and traced query-log entries whose critical path sums "
        "to the query total",
    )
    parser.add_argument(
        "--trace-json",
        help="stitched-trace JSON (gdms_shell `.trace <id> FILE`) to check "
        "structurally: remote spans, resolved parent links, critical-path "
        "sum within 5%% of the root",
    )
    args = parser.parse_args()
    if not args.expo and not args.query_log and not args.trace_json:
        parser.error(
            "nothing to check: pass --expo, --query-log and/or --trace-json"
        )
    if args.expo:
        check_exposition(
            args.expo,
            args.expo_early,
            args.expect_fed,
            args.expect_mem,
            args.expect_shed,
            args.expect_trace,
        )
    if args.query_log:
        check_query_log(
            args.query_log, args.expect_slow, args.expect_fed,
            args.expect_trace,
        )
    if args.trace_json:
        check_trace_json(args.trace_json)
    if errors:
        for message in errors:
            print(f"FAIL: {message}", file=sys.stderr)
        print(f"check_telemetry: {len(errors)} failure(s)", file=sys.stderr)
        return 1
    print("check_telemetry: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
