"""The int-indexed collapse against the tuple-keyed reference oracle.

``repro.graph.collapse`` interns label keys to ints and runs its
union-find over placeholder ints; ``collapse_oracle`` is the plain
dict-of-tuples construction.  Patching the oracle in under the public
:func:`collapse_graphs` (so multiplicity expansion and the span are
shared), both must give the same collapsed graph byte for byte, the
same exact capacities (including overshoot past ``INF``), the same
:class:`CollapseStats`, the same ``collapse.label_merge_hits``, and the
same :class:`GraphError` when labels merge the source with the sink.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import GraphError
from repro.graph import collapse as collapse_module
from repro.graph.collapse import collapse_graphs, dedup_safe
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.serialize import dumps_graph

from .collapse_oracle import collapse_graphs_impl

CAPACITIES = [0, 1, 3, 5, 8, INF // 2, INF - 5, INF - 1, INF]
LOCATIONS = [None, "a", "b", "c", "d"]


@st.composite
def labels(draw, pool):
    """``None``, a pooled label object, or a fresh equal-but-distinct
    copy of one -- the copies must still merge with the original."""
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return None
    label = pool[draw(st.integers(0, len(pool) - 1))]
    if choice == 1:
        return EdgeLabel(label.location, label.context, label.kind)
    return label


@st.composite
def graphs(draw, pool):
    graph = FlowGraph()
    # Extra nodes past the edges' range stay isolated.
    graph.add_nodes(draw(st.integers(0, 7)))
    fully_labelled = draw(st.booleans())
    node = st.integers(0, graph.num_nodes - 1)
    for _ in range(draw(st.integers(0, 12))):
        label = draw(labels(pool))
        if label is None and fully_labelled:
            label = pool[0]
        graph.add_edge(draw(node), draw(node),
                       draw(st.sampled_from(CAPACITIES)), label)
    return graph


@st.composite
def folds(draw):
    pool = [EdgeLabel(draw(st.sampled_from(LOCATIONS)),
                      draw(st.sampled_from([None, 1, 2])),
                      draw(st.sampled_from(["data", "io"])))
            for _ in range(draw(st.integers(1, 6)))]
    inputs = draw(st.lists(graphs(pool), min_size=1, max_size=3))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(inputs),
                           max_size=len(inputs)))
    return inputs, counts, draw(st.booleans())


def collapse_outcome(inputs, counts, context_sensitive):
    """Everything a collapse exposes, or the error it raised."""
    obs.enable()
    try:
        try:
            graph, stats = collapse_graphs(
                inputs, context_sensitive=context_sensitive,
                multiplicities=counts)
        except GraphError as error:
            return ("error", str(error))
        hits = obs.get_metrics().snapshot()["collapse.label_merge_hits"]
    finally:
        obs.disable()
    return (dumps_graph(graph),
            [(e.tail, e.head, e.capacity, e.label) for e in graph.edges],
            (stats.original_nodes, stats.original_edges,
             stats.collapsed_nodes, stats.collapsed_edges),
            hits)


@settings(max_examples=300, deadline=None)
@given(folds())
def test_matches_oracle(fold):
    inputs, counts, context_sensitive = fold
    actual = collapse_outcome(inputs, counts, context_sensitive)
    with mock.patch.object(collapse_module, "_collapse_graphs",
                           collapse_graphs_impl):
        expected = collapse_outcome(inputs, counts, context_sensitive)
    assert actual == expected


def test_dedup_safe_and_unsafe_repeats_match_oracle():
    # The multiplicity shortcut and the literal expansion both run.
    out = EdgeLabel("b", kind="io")
    safe, unsafe = FlowGraph(), FlowGraph()
    for g, first, middle in ((safe, EdgeLabel("a"), EdgeLabel("m")),
                             (unsafe, None, None)):
        n, m = g.add_node(), g.add_node()
        g.add_edge(g.source, n, INF - 1, first)
        g.add_edge(n, m, 3, middle)
        g.add_edge(m, g.sink, 5, out)
    assert dedup_safe(safe) and not dedup_safe(unsafe)
    for g in (safe, unsafe):
        actual = collapse_outcome([g], [3], True)
        with mock.patch.object(collapse_module, "_collapse_graphs",
                               collapse_graphs_impl):
            assert collapse_outcome([g], [3], True) == actual


def test_source_sink_merge_raises_like_oracle():
    shared = EdgeLabel("x")
    g = FlowGraph()
    n = g.add_node()
    g.add_edge(g.source, n, 1, shared)
    g.add_edge(n, g.sink, 1, shared)
    actual = collapse_outcome([g], [1], True)
    assert actual[0] == "error"
    with mock.patch.object(collapse_module, "_collapse_graphs",
                           collapse_graphs_impl):
        assert collapse_outcome([g], [1], True) == actual
