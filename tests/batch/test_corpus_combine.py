"""Randomized store/tree-reduce ≡ parent-fold equivalence.

The corpus-scale combine pipeline (content-addressed shard store →
dedup by multiplicity → tree reduction across the pool → collapse-only
root fold → one solve) must change only *where* the work happens, never
*what* is computed: combined graph, cut (down to the ``CutPolicy`` it
yields), capacity, and Kraft bound must be bit-identical to the plain
parent-side fold over the same manifest order.  On top of that, the incremental Kraft trail must be a sound
anytime bound — every prefix entry >= the final exact bound, monotone
nonincreasing, ending exactly at it.
"""

import io
import random

import pytest

from repro import obs
from repro.batch import combine_store_jobs
from repro.core.measure import measure_runs
from repro.core.policy import CutPolicy
from repro.errors import BatchError
from repro.graph.collapse import dedup_safe
from repro.graph.flowgraph import EdgeLabel, FlowGraph
from repro.graph.serialize import dump_graph
from repro.store import ShardStore


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


def shard(rng, sites=3):
    """A label-consistent collapsed-style shard.

    Labels appear only on inner (layer1 -> layer2) edges with the
    location fixed per site index, so any two shards from this
    generator collapse together without ever merging a source into a
    sink; every inner node touches a labelled edge, so the shard is
    dedup-safe.
    """
    graph = FlowGraph()
    layer1 = [graph.add_node() for _ in range(sites)]
    layer2 = [graph.add_node() for _ in range(sites)]
    for i in range(sites):
        graph.add_edge(graph.SOURCE, layer1[i], rng.randrange(1, 64))
        graph.add_edge(layer2[i], graph.SINK, rng.randrange(1, 64))
        graph.add_edge(layer1[i], layer2[i], rng.randrange(1, 32),
                       EdgeLabel("corpus.fl:%d" % i,
                                 rng.choice([None, 1, 2]), "op"))
        if rng.random() < 0.5:
            j = rng.randrange(sites)
            graph.add_edge(layer1[i], layer2[j], rng.randrange(1, 16),
                           EdgeLabel("corpus.fl:%d" % (sites + i),
                                     rng.choice([None, 1]), "op"))
    return graph


def unsafe_shard(rng):
    """A shard with an anonymous relay node: NOT dedup-safe."""
    graph = shard(rng, sites=2)
    relay = graph.add_node()
    graph.add_edge(graph.SOURCE, relay, rng.randrange(1, 8))
    graph.add_edge(relay, graph.SINK, rng.randrange(1, 8))
    assert not dedup_safe(graph)
    return graph


def corpus(rng, distinct_count, run_count, maker=shard):
    """(runs, distinct) where runs repeats the distinct shards."""
    distinct = [maker(rng) for _ in range(distinct_count)]
    runs = [distinct[rng.randrange(distinct_count)]
            for _ in range(run_count)]
    return runs, distinct


def fill_store(root, runs):
    store = ShardStore(root)
    for graph in runs:
        store.put(graph)
    return store


def assert_reports_identical(store_result, reference):
    assert store_result.bits == reference.bits
    assert graph_text(store_result.report.graph) == \
        graph_text(reference.graph)
    assert cut_fingerprint(store_result.report.mincut) == \
        cut_fingerprint(reference.mincut)
    assert CutPolicy.from_report(store_result.report).to_dict() == \
        CutPolicy.from_report(reference).to_dict()
    stats = store_result.report.collapse_stats
    ref_stats = reference.collapse_stats
    assert (stats.original_nodes, stats.original_edges,
            stats.collapsed_nodes, stats.collapsed_edges) == \
        (ref_stats.original_nodes, ref_stats.original_edges,
         ref_stats.collapsed_nodes, ref_stats.collapsed_edges)


def assert_trail_sound(store_result):
    trail = store_result.anytime
    assert trail, "sealing must record at least the initial bound"
    final = store_result.bits
    assert trail[-1] == final
    for entry in trail:
        assert entry >= final
    for first, second in zip(trail, trail[1:]):
        assert first >= second


class TestTreeReduction:
    """Any reduction topology ≡ one-shot ``measure_runs``."""

    def test_randomized_equivalence(self, tmp_path):
        rng = random.Random(101)
        for trial in range(8):
            graphs = [shard(rng) for _ in range(rng.randrange(3, 12))]
            reference = measure_runs(graphs)
            store = fill_store(tmp_path / ("tree-%d" % trial), graphs)
            for jobs, fanin in ((2, None), (3, 2), (2, 3), (4, 7)):
                result = combine_store_jobs(store, jobs=jobs, fanin=fanin)
                assert_reports_identical(result, reference)

    def test_bad_fanin_rejected(self, tmp_path):
        rng = random.Random(5)
        store = fill_store(tmp_path / "fanin",
                           [shard(rng) for _ in range(4)])
        with pytest.raises(ValueError):
            combine_store_jobs(store, jobs=2, fanin=1)

    def test_root_fold_solves_once(self, tmp_path):
        rng = random.Random(7)
        store = fill_store(tmp_path / "once",
                           [shard(rng) for _ in range(9)])
        for jobs in (1, 2):
            obs.enable()
            try:
                result = combine_store_jobs(store, jobs=jobs, fanin=2)
                snapshot = obs.get_metrics().snapshot()
            finally:
                obs.disable()
            assert result.levels > 1 or jobs == 1
            assert snapshot["maxflow.solves"] == 1


class TestStoreEquivalence:
    """``combine_store_jobs`` ≡ parent fold over the manifest order."""

    def test_dedup_heavy_randomized(self, tmp_path):
        rng = random.Random(211)
        for trial in range(6):
            runs, _ = corpus(rng, distinct_count=3,
                             run_count=rng.randrange(6, 20))
            reference = measure_runs(runs)
            store = fill_store(tmp_path / ("heavy-%d" % trial), runs)
            for jobs, fanin in ((1, None), (2, None), (4, None), (1, 2),
                                (2, 2)):
                result = combine_store_jobs(store, jobs=jobs, fanin=fanin)
                assert result.runs == len(runs)
                assert result.distinct == store.distinct
                assert not result.partial
                assert_reports_identical(result, reference)
                assert_trail_sound(result)

    def test_dedup_hostile_all_distinct(self, tmp_path):
        rng = random.Random(223)
        runs = [shard(rng) for _ in range(9)]
        reference = measure_runs(runs)
        store = fill_store(tmp_path / "hostile", runs)
        assert store.distinct == len(runs)
        for jobs, fanin in ((1, None), (2, None), (3, 2)):
            result = combine_store_jobs(store, jobs=jobs, fanin=fanin)
            assert_reports_identical(result, reference)
            assert_trail_sound(result)

    def test_dedup_unsafe_shards_fold_literally(self, tmp_path):
        rng = random.Random(227)
        runs, _ = corpus(rng, distinct_count=2, run_count=7,
                         maker=unsafe_shard)
        reference = measure_runs(runs)
        store = fill_store(tmp_path / "unsafe", runs)
        for jobs in (1, 2):
            result = combine_store_jobs(store, jobs=jobs, fanin=2)
            assert result.runs == len(runs)
            assert_reports_identical(result, reference)
            assert_trail_sound(result)

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            combine_store_jobs(ShardStore(tmp_path / "empty"))


class TestAnytimeTrail:
    def test_prefix_soundness_across_corpora(self, tmp_path):
        rng = random.Random(307)
        for trial in range(4):
            runs, _ = corpus(rng, distinct_count=4,
                             run_count=rng.randrange(8, 24))
            store = fill_store(tmp_path / ("trail-%d" % trial), runs)
            result = combine_store_jobs(store, jobs=3)
            assert_trail_sound(result)
            # The first trail entry is the sealed structural bound:
            # min over the two terminal sides, every group counted.
            assert result.anytime[0] >= result.bits


class TestPartialCollect:
    def test_lost_shard_dropped_from_graph_and_account(self, tmp_path):
        rng = random.Random(401)
        runs = [shard(rng) for _ in range(6)]
        root = tmp_path / "partial"
        store = fill_store(root, runs)
        victim = store.order()[2]
        (root / "objects" / (victim + ".fg")).unlink()
        with pytest.raises((Exception,)):
            combine_store_jobs(store, jobs=1)
        for jobs in (1, 2):
            result = combine_store_jobs(store, jobs=jobs,
                                        on_error="collect")
            assert result.partial
            assert result.failures
            assert result.report.partial
            assert result.covered < result.attempted
            assert result.attempted == len(runs)
            survivors = [g for g, d in zip(runs, store.order())
                         if d != victim]
            if jobs == 1:
                # Root-level streaming drops exactly the lost shard.
                reference = measure_runs(survivors)
                assert result.bits == reference.bits
                assert graph_text(result.report.graph) == \
                    graph_text(reference.graph)
            # The trail stays sound for what actually combined.
            assert_trail_sound(result)

    def test_all_shards_lost_raises(self, tmp_path):
        rng = random.Random(409)
        root = tmp_path / "void"
        store = fill_store(root, [shard(rng) for _ in range(3)])
        for digest in set(store.order()):
            (root / "objects" / (digest + ".fg")).unlink()
        with pytest.raises(BatchError):
            combine_store_jobs(store, jobs=1, on_error="collect")
