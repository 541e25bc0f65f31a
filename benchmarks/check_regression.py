#!/usr/bin/env python3
"""Compare two ``run_all.py --json`` records for graph-size regressions.

Usage:  python benchmarks/check_regression.py BASELINE.json CURRENT.json

The collapsed-graph size is the pipeline's central scalability property
(Section 5.3: it tracks code coverage, not trace length), so it is the
one thing CI pins: for every benchmark present in both files, the
current collapsed node and edge counts must not exceed the baseline's.
Gauges checked: ``collapse.nodes_after`` and ``collapse.edges_after``
(post-hoc collapse), ``collapse.online.nodes_live`` and
``collapse.online.edges_live`` (online collapse); a gauge that is zero
in the baseline (the benchmark never collapsed that way) is skipped.
The shard store's on-disk size, ``store.bytes``, is held to the same
no-growth rule: a change that writes more bytes for the same distinct
shards (a fatter blob format, duplicated writes) fails the check.

Both collapse paths also pin their merge counters exactly:
``collapse.label_merge_hits`` and ``collapse.online.merge_hits`` count
the edges folded into an existing bucket, so a collapse rewrite that
merges one edge more or fewer than the baseline fails even when the
collapsed sizes happen to agree.

The batch benchmarks additionally pin their workload shape exactly:
``batch.jobs`` and ``batch.workers`` must match the baseline, so a
change that silently drops jobs or stops fanning out fails the check
even when graph sizes are unaffected.  The corpus-combine benchmark
pins ``combine.tree_levels`` and ``store.shards_written`` the same way:
a change that silently flattens the tree reduction or stops deduping
distinct shards fails even though the (bit-identical) results cannot
show it.

The native-backend benchmark pins its ``maxflow.native.*`` counters
*per benchmark and including zeros*: ``sec53_native_vs_fast`` must
execute exactly as many compiled solves as the baseline and zero
fallbacks, so a change that silently punts the native kernel back to
Python (the timings would still "pass" -- they'd just time the wrong
thing) fails the check.  These pins are skipped when either record
was produced without the compiled extension (the benchmark's
``extra.native_available`` flag).

Telemetry overhead is the one *relative-time* pin: a record carrying
``extra.overhead_fraction`` (``bench_telemetry_overhead.py``; the
committed ``BENCH_5.json``) promises that continuous export costs at
most :data:`TELEMETRY_OVERHEAD_LIMIT` of trace time.  Being a ratio of
two interleaved runs on the *same* machine, it is robust to the
machine-speed noise that rules out absolute wall-time gates.

Wall times are printed for context but never fail the check -- CI
machines are too noisy for absolute time gates; timing trajectories
live in the committed ``BENCH_*.json`` files instead.

Exit status: 0 when no gauge regressed, 1 otherwise.
"""

import json
import sys

#: Hard ceiling on ``extra.overhead_fraction`` of telemetry-overhead
#: records: continuous export may cost at most 5% of trace time.
TELEMETRY_OVERHEAD_LIMIT = 0.05

#: Gauges whose growth marks a collapsed-graph-size (or stored-size)
#: regression.
CHECKED_GAUGES = ("collapse.nodes_after", "collapse.edges_after",
                  "collapse.online.nodes_live", "collapse.online.edges_live",
                  "store.bytes")

#: Metrics that must match the baseline *exactly* (when nonzero there):
#: the batch benchmarks' workload shape, the corpus-combine
#: benchmark's reduction shape, and both collapse paths' merge counts.
CHECKED_EXACT = ("batch.jobs", "batch.workers", "combine.tree_levels",
                 "store.shards_written", "collapse.label_merge_hits",
                 "collapse.online.merge_hits")

#: Per-benchmark exact pins, checked *including zeros* -- but only when
#: both records ran with the compiled extension available
#: (``extra.native_available``), since a no-compiler host legitimately
#: reports zero native solves.
CHECKED_EXACT_PER_BENCHMARK = {
    "sec53_native_vs_fast": ("maxflow.native.solves",
                             "maxflow.native.fallbacks"),
}


def _native_available(record):
    return bool(record.get("extra", {}).get("native_available"))


def load(path):
    with open(path) as handle:
        payload = json.load(handle)
    return {record["name"]: record for record in payload["benchmarks"]}


def compare(baseline, current):
    """Return a list of human-readable regression descriptions."""
    regressions = []
    for name, base_record in baseline.items():
        record = current.get(name)
        if record is None:
            print("SKIP %-24s (not in current run)" % name)
            continue
        base_metrics = base_record["metrics"]
        metrics = record["metrics"]
        for gauge in CHECKED_GAUGES:
            base_value = base_metrics.get(gauge, 0)
            if not base_value:
                continue
            value = metrics.get(gauge, 0)
            status = "OK  "
            if value > base_value:
                status = "FAIL"
                regressions.append(
                    "%s: %s grew %d -> %d" % (name, gauge, base_value,
                                              value))
            print("%s %-24s %-28s %6d -> %6d   (%.2fs -> %.2fs)"
                  % (status, name, gauge, base_value, value,
                     base_record["wall_seconds"], record["wall_seconds"]))
        for metric in CHECKED_EXACT:
            base_value = base_metrics.get(metric, 0)
            if not base_value:
                continue
            value = metrics.get(metric, 0)
            status = "OK  "
            if value != base_value:
                status = "FAIL"
                regressions.append(
                    "%s: %s changed %d -> %d (must match the baseline "
                    "exactly)" % (name, metric, base_value, value))
            print("%s %-24s %-28s %6d -> %6d   (exact)"
                  % (status, name, metric, base_value, value))
        pinned = CHECKED_EXACT_PER_BENCHMARK.get(name, ())
        if pinned and not (_native_available(base_record)
                           and _native_available(record)):
            print("SKIP %-24s native pins (extension unavailable in "
                  "baseline or current run)" % name)
            pinned = ()
        for metric in pinned:
            base_value = base_metrics.get(metric, 0)
            value = metrics.get(metric, 0)
            status = "OK  "
            if value != base_value:
                status = "FAIL"
                regressions.append(
                    "%s: %s changed %d -> %d (the compiled solves must "
                    "neither vanish nor start punting to Python)"
                    % (name, metric, base_value, value))
            print("%s %-24s %-28s %6d -> %6d   (exact, incl. zero)"
                  % (status, name, metric, base_value, value))
        overhead = record.get("extra", {}).get("overhead_fraction")
        if overhead is not None:
            base_overhead = base_record.get("extra", {}).get(
                "overhead_fraction", 0.0)
            status = "OK  "
            if overhead > TELEMETRY_OVERHEAD_LIMIT:
                status = "FAIL"
                regressions.append(
                    "%s: telemetry overhead %.2f%% exceeds the %.0f%% "
                    "ceiling" % (name, 100 * overhead,
                                 100 * TELEMETRY_OVERHEAD_LIMIT))
            print("%s %-24s %-28s %5.2f%% -> %5.2f%%  (ceiling %.0f%%)"
                  % (status, name, "telemetry overhead",
                     100 * base_overhead, 100 * overhead,
                     100 * TELEMETRY_OVERHEAD_LIMIT))
    return regressions


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    regressions = compare(load(argv[0]), load(argv[1]))
    if regressions:
        print("\ncollapsed-graph size regressions:")
        for line in regressions:
            print("  " + line)
        return 1
    print("\nno collapsed-graph size regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
