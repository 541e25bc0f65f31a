"""Online collapse (OnlineCollapser) vs. the post-hoc reference.

The online path must produce *the same* collapsed graph as
:func:`collapse_graphs` — not merely an equivalent bound — so these
tests assert structural identity (node/edge counts, per-label
capacities) as well as the measured quantities (max-flow value, min-cut
capacity) over randomized labelled graphs, in both context modes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.collapse import (OnlineCollapser, collapse_graph,
                                  collapse_graph_online)
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.generators import layered_dag, random_dag
from repro.graph.maxflow import dinic_max_flow
from repro.graph.mincut import min_cut_from_residual
from repro.graph.serialize import dumps_graph


def label_edges(g, seed, buckets, with_context):
    """Random role-consistent labels: inputs at the source, io at the
    sink, data in the middle; some edges stay unlabelled."""
    rng = random.Random(seed)
    for e in g.edges:
        if rng.random() < 0.15:
            continue  # unlabelled: never merged
        context = rng.choice([None, 1, 2]) if with_context else None
        if e.tail == g.source:
            e.label = EdgeLabel("in%d" % rng.randrange(buckets),
                                context=context, kind="input")
        elif e.head == g.sink:
            e.label = EdgeLabel("out%d" % rng.randrange(buckets),
                                context=context, kind="io")
        else:
            e.label = EdgeLabel("mid%d" % rng.randrange(buckets),
                                context=context, kind="data")


def assert_same_collapse(g, context_sensitive):
    reference, ref_stats = collapse_graph(
        g, context_sensitive=context_sensitive)
    online, on_stats = collapse_graph_online(
        g, context_sensitive=context_sensitive)
    assert online.num_nodes == reference.num_nodes
    assert online.num_edges == reference.num_edges
    assert (on_stats.original_nodes, on_stats.original_edges) == (
        ref_stats.original_nodes, ref_stats.original_edges)
    ref_flow, ref_residual = dinic_max_flow(reference)
    on_flow, on_residual = dinic_max_flow(online)
    assert on_flow == ref_flow
    ref_cut = min_cut_from_residual(reference, ref_residual)
    on_cut = min_cut_from_residual(online, on_residual)
    assert on_cut.capacity == ref_cut.capacity
    # Same multiset of labelled capacities (structural identity up to
    # node numbering).
    def shape(graph):
        return sorted((repr(e.label.key() if e.label else None), e.capacity)
                      for e in graph.edges)
    assert shape(online) == shape(reference)


def assert_same_dump(g, context_sensitive):
    try:
        reference, _ = collapse_graph(g, context_sensitive=context_sensitive)
    except GraphError:
        with pytest.raises(GraphError):
            collapse_graph_online(g, context_sensitive=context_sensitive)
        return
    online, _ = collapse_graph_online(g, context_sensitive=context_sensitive)
    assert dumps_graph(online) == dumps_graph(reference)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("context_sensitive", [True, False])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dag(self, seed, context_sensitive):
        g = random_dag(12, 30, seed=seed)
        label_edges(g, seed, buckets=1 + seed % 5, with_context=True)
        assert_same_collapse(g, context_sensitive)

    @pytest.mark.parametrize("context_sensitive", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_layered_dag(self, seed, context_sensitive):
        g = layered_dag(4, 5, seed=seed)
        label_edges(g, seed * 7 + 1, buckets=3, with_context=True)
        assert_same_collapse(g, context_sensitive)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), buckets=st.integers(1, 8),
           context_sensitive=st.booleans())
    def test_property(self, seed, buckets, context_sensitive):
        g = random_dag(10, 24, seed=seed)
        label_edges(g, seed ^ 0xBEEF, buckets=buckets, with_context=True)
        assert_same_collapse(g, context_sensitive)


class TestNearInfBoundary:
    """Post-hoc freezes a label's sum at its first overshoot past INF;
    online clamps to exactly INF.  Finite capacities agree and every
    value >= INF serializes as ``inf``, so the dumps are identical."""

    def test_overshoot_differs_in_memory_not_in_dump(self):
        for capacities, posthoc in (([INF - 1, 5, 3], INF + 4),
                                    ([3, INF - 1, 5], INF + 2)):
            g = FlowGraph()
            a, b = g.add_node(), g.add_node()
            g.add_edge(g.source, a, INF, EdgeLabel("in", kind="input"))
            for capacity in capacities:
                g.add_edge(a, b, capacity, EdgeLabel("site"))
            g.add_edge(b, g.sink, INF, EdgeLabel("out", kind="io"))
            reference, _ = collapse_graph(g)
            online, _ = collapse_graph_online(g)
            site = [e.capacity for e in reference.edges
                    if e.label.location == "site"]
            assert site == [posthoc]
            assert [e.capacity for e in online.edges
                    if e.label.location == "site"] == [INF]
            assert dumps_graph(online) == dumps_graph(reference)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), buckets=st.integers(1, 5),
           context_sensitive=st.booleans())
    def test_fully_labelled_dumps_match(self, seed, buckets,
                                        context_sensitive):
        g = random_dag(8, 20, seed=seed)
        rng = random.Random(seed)
        for e in g.edges:
            e.capacity = rng.choice([1, 7, INF // 3, INF - 2, INF - 1, INF])
        label_edges(g, seed, buckets=buckets, with_context=True)
        for index, e in enumerate(g.edges):
            if e.label is None:
                e.label = EdgeLabel("own%d" % index)
        assert_same_dump(g, context_sensitive)


class TestOnlineCollapserDirect:
    def test_capacities_sum_and_saturate_at_inf(self):
        c = OnlineCollapser()
        a, b = c.new_node(), c.new_node()
        label = EdgeLabel("site")
        c.add_edge(c.SOURCE, a, 3, EdgeLabel("in", kind="input"))
        c.add_edge(a, b, 5, label)
        c.add_edge(a, b, 4, label)
        c.add_edge(b, c.SINK, INF, EdgeLabel("out", kind="io"))
        g = c.materialize()
        caps = {e.label.location: e.capacity for e in g.edges}
        assert caps["site"] == 9
        c.add_edge(a, b, INF, label)
        assert {e.label.location: e.capacity
                for e in c.materialize().edges}["site"] == INF

    def test_merge_drops_self_loop(self):
        # Two same-label edges chained head-to-tail merge all three
        # nodes into one class; the bucket becomes a self-loop and is
        # dropped at materialize, exactly like the post-hoc collapse.
        c = OnlineCollapser()
        a, b, d = c.new_node(), c.new_node(), c.new_node()
        loop = EdgeLabel("loop")
        c.add_edge(c.SOURCE, a, 8, EdgeLabel("in", kind="input"))
        c.add_edge(a, b, 8, loop)
        c.add_edge(b, d, 8, loop)
        c.add_edge(d, c.SINK, 8, EdgeLabel("out", kind="io"))
        g = c.materialize()
        assert all(e.tail != e.head for e in g.edges)
        assert dinic_max_flow(g)[0] == 8

    def test_source_sink_merge_raises_like_posthoc(self):
        shared = EdgeLabel("x")
        c = OnlineCollapser()
        n = c.new_node()
        c.add_edge(c.SOURCE, n, 1, shared)
        c.add_edge(n, c.SINK, 1, shared)
        with pytest.raises(GraphError):
            c.materialize()
        # And the post-hoc path rejects the same graph.
        g = FlowGraph()
        m = g.add_node()
        g.add_edge(g.source, m, 1, shared)
        g.add_edge(m, g.sink, 1, shared)
        with pytest.raises(GraphError):
            collapse_graph(g)

    def test_head_for_and_capped_pair_reuse(self):
        c = OnlineCollapser()
        label = EdgeLabel("op")
        h1 = c.head_for(c.SOURCE, 4, label)
        before = c.live_nodes
        h2 = c.head_for(c.SOURCE, 4, label)
        assert c._find(h1) == c._find(h2)
        assert c.live_nodes == before  # reuse allocates nothing
        pair_label = EdgeLabel("val")
        p1 = c.capped_pair(8, pair_label)
        p2 = c.capped_pair(8, pair_label)
        assert p1 == p2
        assert c.merge_hits == 2

    def test_live_counts_track_merges(self):
        c = OnlineCollapser()
        label = EdgeLabel("l")
        nodes = [c.new_node() for _ in range(6)]
        assert c.peak_live_nodes == 8
        for tail, head in zip(nodes, nodes[1:]):
            c.add_edge(tail, head, 1, label)
        # 5 same-key edges: all six nodes end in one class.
        assert c.live_nodes == 3  # source, sink, the merged class
        assert c.peak_live_nodes == 8
        assert c.merge_hits == 4

    def test_context_insensitive_merges_contexts(self):
        c = OnlineCollapser(context_sensitive=False)
        a = c.new_node()
        b = c.new_node()
        c.add_edge(a, b, 2, EdgeLabel("site", context=1))
        c.add_edge(a, b, 3, EdgeLabel("site", context=2))
        assert c.live_edges == 1
        [edge] = [e for e in c._buckets.values()]
        assert edge.capacity == 5
        assert edge.label.context is None
