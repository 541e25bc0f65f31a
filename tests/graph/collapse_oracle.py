"""Reference oracle for the int-indexed collapse in ``repro.graph.collapse``.

A direct transcription of the Section 3.2/5.2 construction: a dict-based
:class:`UnionFind` over ``("n", graph_index, node)`` and
``("s"|"d", label_key)`` keys, then a rebuild over its classes.  It is
slow but plainly correct, so ``test_collapse_oracle.py`` holds the
production pass to it byte for byte.  :func:`collapse_graphs_impl` has
the signature of ``repro.graph.collapse._collapse_graphs`` and can be
patched in for it.
"""

from __future__ import annotations

from repro import obs
from repro.errors import GraphError
from repro.graph.collapse import CollapseStats, _add_repeated
from repro.graph.flowgraph import FlowGraph


class UnionFind:
    """Union-find with path compression and union by rank."""

    def __init__(self):
        self._parent = {}
        self._rank = {}
        self._count = 0

    def __len__(self):
        """Number of elements ever mentioned."""
        return len(self._parent)

    @property
    def set_count(self):
        """Number of disjoint sets among the mentioned elements."""
        return self._count

    def find(self, key):
        """Return the canonical representative of ``key``'s set.

        Mentions ``key`` (creating a singleton set) if it is new.
        """
        parent = self._parent
        if key not in parent:
            parent[key] = key
            self._rank[key] = 0
            self._count += 1
            return key
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a, b):
        """Merge the sets containing ``a`` and ``b``; return the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        rank = self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        self._count -= 1
        return ra

    def same(self, a, b):
        """Whether ``a`` and ``b`` are currently in the same set."""
        return self.find(a) == self.find(b)

    def groups(self):
        """Return a mapping from representative to the list of members."""
        out = {}
        for key in self._parent:
            out.setdefault(self.find(key), []).append(key)
        return out


def _edge_key(label, context_sensitive):
    if label is None:
        return None
    return label.key(context_sensitive)


def collapse_graphs_impl(graphs, counts, context_sensitive, span):
    uf = UnionFind()
    # Keys: ("n", graph_index, node_id) for concrete nodes and
    # ("s", label_key) / ("d", label_key) for per-label placeholders.
    for gi, g in enumerate(graphs):
        uf.union(("n", 0, g.source), ("n", gi, g.source))
        uf.union(("n", 0, g.sink), ("n", gi, g.sink))
        for e in g.edges:
            key = _edge_key(e.label, context_sensitive)
            if key is None:
                continue
            uf.union(("n", gi, e.tail), ("s", key))
            uf.union(("n", gi, e.head), ("d", key))

    source_root = uf.find(("n", 0, graphs[0].source))
    sink_root = uf.find(("n", 0, graphs[0].sink))
    if source_root == sink_root:
        raise GraphError(
            "collapsing merged the source with the sink: edge labels are "
            "inconsistent with the edges' structural roles")
    combined = FlowGraph()
    node_of_root = {source_root: combined.source, sink_root: combined.sink}

    def node_for(gi, node):
        root = uf.find(("n", gi, node))
        mapped = node_of_root.get(root)
        if mapped is None:
            mapped = combined.add_node()
            node_of_root[root] = mapped
        return mapped

    # Accumulate capacities: labelled edges merge by key; unlabelled edges
    # merge by (endpoints, None), which is always sound for max-flow.
    merged = {}
    label_of = {}
    merge_hits = 0
    original_nodes = sum(m * g.num_nodes for g, m in zip(graphs, counts))
    original_edges = sum(m * g.num_edges for g, m in zip(graphs, counts))
    for gi, g in enumerate(graphs):
        m = counts[gi]
        for e in g.edges:
            tail = node_for(gi, e.tail)
            head = node_for(gi, e.head)
            if tail == head:
                continue  # self-loops carry no s-t flow
            key = _edge_key(e.label, context_sensitive)
            if key is None:
                bucket = (tail, head, e.label.kind if e.label else None, None)
            else:
                bucket = key
            prev = merged.get(bucket)
            if prev is None:
                prev = 0
                merge_hits += m - 1
            else:
                merge_hits += m
            merged[bucket] = _add_repeated(prev, e.capacity, m)
            if bucket not in label_of:
                label = e.label
                if label is not None and not context_sensitive:
                    label = label.drop_context()
                label_of[bucket] = (tail, head, label)

    for bucket, capacity in merged.items():
        tail, head, label = label_of[bucket]
        combined.add_edge(tail, head, capacity, label)

    stats = CollapseStats(original_nodes, original_edges,
                          combined.num_nodes, combined.num_edges)
    span.set(nodes_before=stats.original_nodes,
             nodes_after=stats.collapsed_nodes,
             edges_before=stats.original_edges,
             edges_after=stats.collapsed_edges)
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.incr("collapse.runs")
        metrics.incr("collapse.label_merge_hits", merge_hits)
        metrics.gauge("collapse.nodes_before", stats.original_nodes)
        metrics.gauge("collapse.nodes_after", stats.collapsed_nodes)
        metrics.gauge("collapse.edges_before", stats.original_edges)
        metrics.gauge("collapse.edges_after", stats.collapsed_edges)
    return combined, stats
