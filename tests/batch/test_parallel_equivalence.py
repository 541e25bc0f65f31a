"""Randomized parallel ≡ serial equivalence for the batch engine.

The hard requirement of `repro.batch` is that ``jobs=N`` changes only
where the work runs, never what it computes: bounds, cuts, and combined
graphs must be bit-identical to the serial pipeline, and merged parent
counters must equal the sums the serial path records.  These suites
drive randomized workloads (seeded, so failures reproduce) through both
paths and compare everything observable.
"""

import io
import random

import pytest

from repro import obs
from repro.apps.countpunct import FLOWLANG_SOURCE as COUNTPUNCT
from repro.batch import combine_store_jobs, measure_program_runs
from repro.core.measure import measure_runs
from repro.core.multisecret import measure_by_category
from repro.core.policy import CutPolicy
from repro.core.tracker import TraceBuilder
from repro.graph.serialize import dump_graph
from repro.lang import compile_cached, execute
from repro.pytrace import Session
from repro.store import ShardStore

BRANCHY = """
fn main() {
    var buf: u8[64];
    var n: u32 = read_secret(buf, 64);
    var acc: u8 = 0;
    var i: u32 = 0;
    while (i < n) {
        if (buf[i] > 127) {
            acc = acc + 1;
        } else {
            acc = acc ^ buf[i];
        }
        var m: u32 = i & 3;
        if (m == 0) {
            output(acc);
        }
        i = i + 1;
    }
    output(acc);
}
"""

#: Counters that must match exactly between jobs=1 and jobs=N runs of
#: the same workload.  ``lang.compile_cache_hits`` is excluded on
#: purpose: forked workers inherit the parent's warm compile cache, so
#: hit counts depend on scheduling, not on the measured workload.
STABLE_COUNTERS = (
    "trace.operations", "trace.implicit_flows", "trace.outputs",
    "trace.secret_input_bits", "trace.tainted_output_bits",
    "collapse.runs", "collapse.online.builds",
    "collapse.online.merge_hits",
    "maxflow.solves", "maxflow.dinic.bfs_phases",
    "maxflow.dinic.augmenting_paths",
    "phase.trace.calls", "phase.measure.calls",
    "batch.jobs", "batch.graphs_bytes",
)


def graph_text(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def cut_fingerprint(cut):
    entries = []
    for ce in cut.edges:
        if ce.label is None:
            entries.append((None, None, ce.capacity))
        else:
            entries.append((ce.label.kind, str(ce.label.location),
                            ce.capacity))
    return sorted(entries, key=repr)


def assert_same_fold(report, reference):
    """Bit-identical bound, combined graph, and cut policy."""
    assert report.bits == reference.bits
    assert graph_text(report.graph) == graph_text(reference.graph)
    assert cut_fingerprint(report.mincut) == \
        cut_fingerprint(reference.mincut)
    assert CutPolicy.from_report(report).to_dict() == \
        CutPolicy.from_report(reference).to_dict()


def random_secrets(seed, count, alphabet=b".?ax \x00\xff", max_len=40):
    rng = random.Random(seed)
    return [bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, max_len)))
            for _ in range(count)]


def snapshot_for(fn):
    obs.enable()
    try:
        result = fn()
        return result, obs.get_metrics().snapshot()
    finally:
        obs.disable()


class TestMultiRunEquivalence:
    @pytest.mark.parametrize("seed,source,collapse", [
        (11, COUNTPUNCT, "context"),
        (23, COUNTPUNCT, "location"),
        (37, BRANCHY, "context"),
    ])
    def test_program_runs_bit_identical(self, tmp_path, seed, source,
                                        collapse):
        secrets = random_secrets(seed, 5)
        serial, serial_snap = snapshot_for(
            lambda: measure_program_runs(source, secrets,
                                         collapse=collapse, jobs=1))
        parallel, parallel_snap = snapshot_for(
            lambda: measure_program_runs(source, secrets,
                                         collapse=collapse, jobs=3))
        assert parallel.per_run_bits == serial.per_run_bits
        assert parallel.kraft_sum == serial.kraft_sum
        assert_same_fold(parallel.report, serial.report)
        for name in STABLE_COUNTERS:
            assert parallel_snap[name] == serial_snap[name], name
        # One fold, one solve: the per-run solves plus exactly one more.
        assert serial_snap["maxflow.solves"] == len(secrets) + 1
        context = collapse == "context"
        for jobs in (1, 2):
            root = tmp_path / ("store-%d" % jobs)
            stored, snap = snapshot_for(
                lambda: measure_program_runs(source, secrets,
                                             collapse=collapse, jobs=jobs,
                                             store=root))
            assert stored.per_run_bits == serial.per_run_bits
            assert_same_fold(stored.report, serial.report)
            assert snap["maxflow.solves"] == len(secrets) + 1
            store = ShardStore(root, create=False)
            # The shipped shards folded by measure_runs directly.
            assert_same_fold(
                measure_runs([store.get(d) for d in store.order()],
                             collapse=collapse), serial.report)
            for combine_jobs in (1, 2):
                combined = combine_store_jobs(
                    store, context_sensitive=context, jobs=combine_jobs,
                    fanin=2)
                assert_same_fold(combined.report, serial.report)

    def test_line_break_in_filename(self, tmp_path):
        """Locations embed the filename; a newline or carriage return in
        it must not split the records of a shipped or stored graph."""
        secrets = [b"\x01", b"\x02"]
        plain = measure_program_runs(BRANCHY, secrets)
        for index, filename in enumerate(("prog\nx.fl", "prog\rx.fl")):
            for store in (None, tmp_path / ("store-%d" % index)):
                result = measure_program_runs(BRANCHY, secrets,
                                              filename=filename, store=store)
                assert result.per_run_bits == plain.per_run_bits
                assert result.bits == plain.bits

    def test_parallel_counters_are_worker_sums(self):
        """Merged parent counters equal the sums of per-run counters."""
        secrets = random_secrets(5, 4)
        per_run_totals = {name: 0 for name in ("trace.outputs",
                                               "trace.secret_input_bits")}
        for secret in secrets:
            _, snap = snapshot_for(
                lambda s=secret: measure_program_runs(COUNTPUNCT, [s],
                                                      jobs=1))
            for name in per_run_totals:
                per_run_totals[name] += snap[name]
        _, merged = snapshot_for(
            lambda: measure_program_runs(COUNTPUNCT, secrets, jobs=2))
        for name, total in per_run_totals.items():
            assert merged[name] == total, name
        assert merged["batch.jobs"] == len(secrets)
        assert merged["batch.workers"] == 2
        assert merged["batch.worker_seconds"] > 0


class TestCombineEquivalence:
    def traced_graphs(self, seed, count):
        compiled = compile_cached(COUNTPUNCT)
        graphs, stats = [], []
        for secret in random_secrets(seed, count):
            tracker = TraceBuilder()
            _vm, graph = execute(compiled, secret, b"", tracker)
            graphs.append(graph)
            stats.append(tracker.stats)
        return graphs, stats

    @pytest.mark.parametrize("seed,collapse,jobs", [
        (3, "context", 3),
        (8, "location", 2),
        (13, "context", 5),
    ])
    def test_measure_runs_jobs_bit_identical(self, tmp_path, seed,
                                             collapse, jobs):
        # Raw traced graphs through the store's tree reduction (serial
        # root fold and ``jobs`` workers) ≡ one measure_runs fold.
        graphs, stats = self.traced_graphs(seed, 6)
        serial = measure_runs(graphs, collapse=collapse, stats_list=stats)
        store = ShardStore(tmp_path / "store")
        for graph in graphs:
            store.put(graph)
        for combine_jobs in (1, jobs):
            parallel = combine_store_jobs(
                store, context_sensitive=(collapse == "context"),
                jobs=combine_jobs, fanin=2, stats_list=stats).report
            assert_same_fold(parallel, serial)
            assert parallel.stats == serial.stats
            assert parallel.collapse_stats.original_edges == \
                serial.collapse_stats.original_edges
            assert parallel.collapse_stats.collapsed_nodes == \
                serial.collapse_stats.collapsed_nodes


#: Crashes (division by zero) exactly when the first secret byte is 0,
#: so which runs fail is a pure function of the seeded secrets: the
#: same seed must produce the same outcome set on every path.
FLAKY = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    var d: u8 = buf[0];
    var acc: u8 = 0;
    var i: u32 = 0;
    while (i < n) {
        acc = acc + (buf[i] / d);
        i = i + 1;
    }
    output(acc);
}
"""


class TestCollectModeEquivalence:
    """jobs=1 ≡ jobs=N extends to on_error="collect" with flaky jobs:
    the same seed yields the same failed-index set, the same surviving
    bounds, and the same combined graph."""

    @pytest.mark.parametrize("seed", [2, 9, 31])
    def test_same_seed_same_outcome_set(self, seed):
        secrets = random_secrets(seed, 6)  # alphabet includes \x00
        serial, serial_snap = snapshot_for(
            lambda: measure_program_runs(FLAKY, secrets, jobs=1,
                                         on_error="collect"))
        parallel, parallel_snap = snapshot_for(
            lambda: measure_program_runs(FLAKY, secrets, jobs=3,
                                         on_error="collect"))
        assert [f.index for f in parallel.failures] == \
            [f.index for f in serial.failures]
        assert [f.error_type for f in parallel.failures] == \
            [f.error_type for f in serial.failures]
        assert parallel.partial == serial.partial
        assert parallel.attempted == serial.attempted == len(secrets)
        assert parallel.bits == serial.bits
        assert parallel.per_run_bits == serial.per_run_bits
        assert graph_text(parallel.report.graph) == \
            graph_text(serial.report.graph)
        assert cut_fingerprint(parallel.report.mincut) == \
            cut_fingerprint(serial.report.mincut)
        assert parallel_snap["batch.failures"] == \
            serial_snap["batch.failures"] == len(serial.failures)

    def test_at_least_one_seed_actually_fails(self):
        """Guard: the fixture programs must exercise the failure path."""
        failing = [seed for seed in (2, 9, 31)
                   if any(secret[0] == 0
                          for secret in random_secrets(seed, 6))]
        assert failing, "no seed produces a crashing secret"


class TestCategorySweepEquivalence:
    def random_session(self, seed):
        rng = random.Random(seed)
        session = Session()
        categories = ["alice", "bob", "carol"][:rng.randrange(2, 4)]
        mixed = None
        for category in categories:
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(4, 16)))
            values = session.secret_bytes(data, category=category)
            total = values[0]
            for value in values[1:]:
                total = total ^ value if rng.random() < 0.7 \
                    else total & value
            session.output(total)
            mixed = total if mixed is None else mixed ^ total
        session.output(mixed)
        graph = session.finish()
        return graph, session.tracker.category_edges

    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_sweep_bit_identical(self, seed):
        graph, category_edges = self.random_session(seed)
        serial = measure_by_category(graph, category_edges)
        parallel = measure_by_category(graph, category_edges, jobs=2)
        assert parallel.per_category == serial.per_category
        assert parallel.joint == serial.joint
        assert parallel.crowding_out == serial.crowding_out
        for category in serial.per_category:
            serial_cut = serial.reports[category]
            parallel_cut = parallel.reports[category]
            assert [(ce.edge_index, ce.capacity)
                    for ce in parallel_cut.edges] == \
                [(ce.edge_index, ce.capacity) for ce in serial_cut.edges]
            assert cut_fingerprint(parallel_cut) == \
                cut_fingerprint(serial_cut)
