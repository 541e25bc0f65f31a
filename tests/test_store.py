"""Unit tests for the content-addressed shard store (``repro.store``)."""

import hashlib
import os

import pytest

from repro import obs
from repro.errors import GraphError, StoreError
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.serialize import dumps_graph, graph_digest, save_graph
from repro.store import ShardStore


def make_graph(capacity=4, location="a.fl:1"):
    graph = FlowGraph()
    a = graph.add_node()
    graph.add_edge(graph.SOURCE, a, capacity,
                   EdgeLabel(location, None, "data"))
    graph.add_edge(a, graph.SINK, capacity)
    return graph


class TestPut:
    def test_put_is_content_addressed(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph()
        digest = store.put(g)
        assert digest == graph_digest(g)
        assert store.put(g) == digest
        assert len(store) == 2
        assert store.distinct == 1
        assert store.multiplicities() == [(digest, 2)]
        blobs = [n for n in os.listdir(tmp_path / "store" / "objects")
                 if n.endswith(".fg")]
        assert blobs == [digest + ".fg"]

    def test_put_text_matches_put(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph()
        assert store.put_text(dumps_graph(g)) == store.put(g)
        assert store.distinct == 1

    def test_put_object_text_skips_manifest(self, tmp_path):
        # The service checkpoint path: durable, content-addressed,
        # idempotent — and invisible to the corpus manifest.
        store = ShardStore(tmp_path / "store")
        g = make_graph()
        digest = store.put_object_text(dumps_graph(g))
        assert digest == graph_digest(g)
        assert store.put_object_text(dumps_graph(g)) == digest
        assert len(store) == 0
        assert store.multiplicities() == []
        assert dumps_graph(store.get(digest)) == dumps_graph(g)
        assert store.meta(digest)["source_cap"] == g.source_capacity()

    def test_put_text_rejects_corrupt_text(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        with pytest.raises(GraphError):
            store.put_text("flowgraph-v1\nnonsense record\n")
        # The failed put left no manifest entry behind.
        assert len(store) == 0

    def test_put_object_skips_manifest(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        digest = store.put_object(make_graph())
        assert store.has(digest)
        assert len(store) == 0
        assert store.distinct == 0

    def test_get_round_trips(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph(capacity=9)
        digest = store.put(g)
        assert dumps_graph(store.get(digest)) == dumps_graph(g)

    def test_blob_holds_the_digests_text(self, tmp_path):
        # Every writer stores exactly the canonical UTF-8 text its digest
        # hashes, line breaks in names included.
        root = tmp_path / "store"
        store = ShardStore(root)
        tagged = make_graph(capacity=5, location="b\nc.fl:2\r")
        tagged.category_edges = {"ali\tce": [0]}
        digests = [store.put(make_graph()),
                   store.put_text(dumps_graph(make_graph(2))),
                   store.put_object(tagged),
                   store.put_object_text(dumps_graph(make_graph(7, "é:1")))]
        for digest in digests:
            blob = (root / "objects" / (digest + ".fg")).read_bytes()
            assert blob == dumps_graph(store.get(digest)).encode("utf-8")
            assert hashlib.sha256(blob).hexdigest() == digest

    def test_order_preserved(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g1, g2 = make_graph(1), make_graph(2)
        d1, d2 = store.put(g1), store.put(g2)
        store.put(g1)
        assert store.order() == [d1, d2, d1]
        assert store.multiplicities() == [(d1, 2), (d2, 1)]


class TestPersistence:
    def test_reopen_restores_corpus(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(root)
        g1, g2 = make_graph(1), make_graph(2)
        store.put(g1), store.put(g2), store.put(g1)
        store.close()
        reopened = ShardStore(root, create=False)
        assert len(reopened) == 3
        assert reopened.distinct == 2
        assert reopened.order() == store.order()
        stats = reopened.stats()
        assert stats["runs"] == 3 and stats["distinct"] == 2
        assert stats["bytes"] > 0

    def test_metadata_contents(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph(capacity=6)
        meta = store.meta(store.put(g))
        assert meta["nodes"] == g.num_nodes
        assert meta["edges"] == g.num_edges
        assert meta["source_cap"] == 6
        assert meta["sink_cap"] == 6
        assert meta["dedup_safe_context"] is True

    def test_context_manager_closes(self, tmp_path):
        with ShardStore(tmp_path / "store") as store:
            store.put(make_graph())
        assert store._manifest_handle is None


class TestStoreErrors:
    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ShardStore(tmp_path / "nope", create=False)

    def test_missing_object_rejected(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.get("0" * 64)
        with pytest.raises(StoreError):
            store.meta("0" * 64)

    def test_malformed_manifest_line_dropped_on_recovery(self, tmp_path):
        # Recovery contract: a line that matches no blob is dropped (and
        # the manifest rewritten), not a hard open failure.
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.close()
        with open(root / "manifest", "a") as handle:
            handle.write("THIS IS NOT A DIGEST\n")
        store = ShardStore(root, create=False)
        assert store.recovered == {"repaired": 0, "dropped": 1}
        assert store.multiplicities() == [(digest, 1)]
        with open(root / "manifest") as handle:
            assert handle.read() == digest + "\n"
        # The rewritten manifest is clean: reopening sees no damage.
        assert ShardStore(root, create=False).recovered is None

    def test_torn_manifest_line_repaired_from_blobs(self, tmp_path):
        # A crash mid-append leaves a digest prefix; with the blob on
        # disk the unique-prefix repair restores the full entry.
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.put(make_graph())
        first.close()
        with open(root / "manifest", "w") as handle:
            handle.write(digest + "\n" + digest[:20])
        store = ShardStore(root, create=False)
        assert store.recovered == {"repaired": 1, "dropped": 0}
        assert store.multiplicities() == [(digest, 2)]
        assert len(store) == 2

    def test_torn_manifest_prefix_without_blob_dropped(self, tmp_path):
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.close()
        # A hex prefix that matches no blob cannot be repaired.
        with open(root / "manifest", "a") as handle:
            handle.write("beef")
        store = ShardStore(root, create=False)
        assert store.recovered == {"repaired": 0, "dropped": 1}
        assert store.multiplicities() == [(digest, 1)]

    def test_recovery_emits_event(self, tmp_path):
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.close()
        with open(root / "manifest", "a") as handle:
            handle.write(digest[:12])
        obs.enable_events()
        try:
            ShardStore(root, create=False)
            events = [e for e in obs.get_event_log().snapshot()
                      if e["event"] == "store.recovered"]
            assert len(events) == 1
            assert events[0]["repaired"] == 1
            assert events[0]["dropped"] == 0
        finally:
            obs.disable_events()

    def test_bitrot_detected_on_verify(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(root)
        digest = store.put(make_graph())
        # Swap in another valid graph's text: every get re-hashes.
        save_graph(root / "objects" / (digest + ".fg"),
                   make_graph(capacity=50))
        with pytest.raises(StoreError, match="hashes to"):
            store.get(digest)

    def test_corrupt_blob_payload_is_graph_error(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(root)
        digest = store.put(make_graph())
        with open(root / "objects" / (digest + ".fg"), "r+b") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises((GraphError, StoreError)):
            store.get(digest)

    def stored_blob(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(root)
        graph = make_graph(capacity=INF)
        graph.category_edges = {"alice": [0]}
        digest = store.put(graph)
        path = root / "objects" / (digest + ".fg")
        return store, digest, path, path.read_bytes()

    def test_every_blob_truncation_is_store_error(self, tmp_path):
        # Never a different graph, never a bare exception: each cut
        # copy of the blob fails the hash check.
        store, digest, path, blob = self.stored_blob(tmp_path)
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(StoreError):
                store.get(digest)

    def test_every_blob_bit_flip_is_store_error(self, tmp_path):
        store, digest, path, blob = self.stored_blob(tmp_path)
        for position in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[position] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(StoreError):
                    store.get(digest)


class TestMetrics:
    def test_store_metrics_catalogued_and_counted(self, tmp_path):
        obs.enable()
        try:
            store = ShardStore(tmp_path / "store")
            g1, g2 = make_graph(1), make_graph(2)
            store.put(g1), store.put(g2), store.put(g1)
            store.put_object(make_graph(3))
            snapshot = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert snapshot["store.shards_written"] == 3
        assert snapshot["store.dedup_hits"] == 1
        assert snapshot["store.bytes"] > 0
