"""Content-addressed shard store for corpus-scale combining.

The §3.2 multi-run combine turns per-run flow graphs into one
Kraft-sound corpus bound.  At millions of runs the interesting fact is
that most runs of the same program at the same coverage *collapse
identically* — so the corpus is tiny once content-addressed.  A
:class:`ShardStore` keeps each distinct collapsed ``flowgraph-v1``
shard exactly once on disk, keyed by its canonical digest
(:func:`~repro.graph.serialize.graph_digest`: SHA-256 over the
canonical text form), and records every put in an append-only manifest
so the corpus is just an ordered list of digests with multiplicities.

Layout under the store root::

    manifest                one digest per line, in put order
                            (append-only)
    objects/<digest>.fg     the shard: exactly the UTF-8 canonical text
                            its digest hashes
    objects/<digest>.json   shard metadata (sizes, structural cut
                            capacities, dedup safety) for the
                            incremental Kraft accounting

Because a blob holds the digest's own bytes, every read checks it with
one hash: :meth:`ShardStore.get` raises
:class:`~repro.errors.StoreError` on a blob that no longer hashes to
its name (bit rot, a torn copy, a swapped file).

Blob and metadata writes are atomic (unique temp file + ``os.replace``)
and idempotent, so pool workers may write intermediate merge results
into ``objects/`` concurrently; the *manifest* has a single writer —
the parent process that owns the corpus.  Manifest appends flush whole
lines, and manifest *rewrites* (recovery) go through a temp file +
``os.replace``, so a crash can tear at most the final line.

A torn or corrupt manifest line is **recovered**, not fatal: a
truncated line whose hex prefix matches exactly one shard blob under
``objects/`` is repaired to that digest; anything else is dropped
(the blob, if any, stays on disk — content addressing makes orphans
harmless).  The repaired manifest is rewritten atomically and the
store notes what happened on :attr:`ShardStore.recovered` (and as a
``store.recovered`` event), so a daemon restarting over a
kill-9-interrupted ingest reopens the corpus instead of raising.

Other corrupt store structure raises
:class:`~repro.errors.StoreError`; corrupt text handed to
:meth:`ShardStore.put_text` / :meth:`ShardStore.put_object_text` raises
:class:`~repro.errors.GraphError`, exactly as every other loader in the
package.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re

from . import obs
from .errors import StoreError
from .graph.collapse import dedup_safe
from .graph.serialize import dumps_graph, load_graph, text_digest

_DIGEST = re.compile(r"^[0-9a-f]{64}$")
_MANIFEST = "manifest"
_OBJECTS = "objects"
_BLOB = ".fg"


def _shard_meta(graph):
    """The per-shard metadata the combine layer needs without loading
    the blob: sizes for :class:`~repro.graph.collapse.CollapseStats`,
    structural cut capacities for
    :class:`~repro.core.combine.IncrementalKraft`, dedup safety for the
    multiplicity fold."""
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "source_cap": graph.source_capacity(),
        "sink_cap": graph.sink_capacity(),
        "dedup_safe_context": dedup_safe(graph, context_sensitive=True),
        "dedup_safe_location": dedup_safe(graph, context_sensitive=False),
    }


class ShardStore:
    """A content-addressed, dedup-ing, on-disk corpus of graph shards.

    ``put`` appends a run to the corpus (writing its blob only the
    first time its digest is seen); ``put_object`` writes a blob
    *without* a manifest entry, which the tree-reduction merge uses to
    pass intermediate combined graphs between workers by reference.
    All order-sensitive views (:meth:`order`, :meth:`multiplicities`)
    follow manifest order, so a store-backed combine can reproduce the
    plain fold's input order bit-for-bit.
    """

    def __init__(self, root, create=True):
        self._manifest_handle = None
        self.root = os.fspath(root)
        self._objects = os.path.join(self.root, _OBJECTS)
        self._manifest_path = os.path.join(self.root, _MANIFEST)
        if create:
            os.makedirs(self._objects, exist_ok=True)
        elif not os.path.isdir(self._objects):
            raise StoreError("not a shard store (no %s/ directory): %s"
                             % (_OBJECTS, self.root))
        self._order = []
        self._counts = {}
        #: ``{"repaired": n, "dropped": m}`` when opening this store had
        #: to recover from corrupt manifest lines, else ``None``.
        self.recovered = None
        if os.path.exists(self._manifest_path):
            self._load_manifest()

    # ------------------------------------------------------------------
    # Paths and manifest

    def _blob_path(self, digest):
        return os.path.join(self._objects, digest + _BLOB)

    def _meta_path(self, digest):
        return os.path.join(self._objects, digest + ".json")

    def _load_manifest(self):
        self._order = []
        self._counts = {}
        repaired = dropped = 0
        with open(self._manifest_path) as handle:
            for line in handle:
                digest = line.strip()
                if not digest:
                    continue
                if not _DIGEST.match(digest):
                    digest = self._recover_digest(digest)
                    if digest is None:
                        dropped += 1
                        continue
                    repaired += 1
                self._order.append(digest)
                self._counts[digest] = self._counts.get(digest, 0) + 1
        if repaired or dropped:
            # Rewrite the repaired manifest atomically so the damage is
            # healed on disk, not just in this process's view.
            tmp = "%s.tmp.%d" % (self._manifest_path, os.getpid())
            with open(tmp, "w") as handle:
                handle.write("".join(d + "\n" for d in self._order))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._manifest_path)
            self.recovered = {"repaired": repaired, "dropped": dropped}
            obs.get_event_log().event("store.recovered",
                                      repaired=repaired, dropped=dropped,
                                      store=self.root)

    def _recover_digest(self, fragment):
        """Repair one malformed manifest line, if the evidence allows.

        A torn append leaves a *prefix* of a real digest; when that
        prefix is valid hex and matches exactly one blob under
        ``objects/``, the full digest is recovered.  Ambiguous or
        non-hex damage returns ``None`` (the line is dropped)."""
        fragment = fragment.lower()
        if not fragment or len(fragment) >= 64 \
                or not re.fullmatch(r"[0-9a-f]+", fragment):
            return None
        matches = [name[:-len(_BLOB)] for name in os.listdir(self._objects)
                   if name.endswith(_BLOB)
                   and name.startswith(fragment)
                   and _DIGEST.match(name[:-len(_BLOB)])]
        if len(matches) == 1:
            return matches[0]
        return None

    def _append_manifest(self, digest):
        # One persistent append handle: a corpus ingest is put-per-run,
        # and reopening the manifest per put dominates the dedup-hit
        # fast path.  Flushed per line so concurrent *readers* (and a
        # crash) see only whole lines.
        if self._manifest_handle is None:
            self._manifest_handle = open(self._manifest_path, "a")
        self._manifest_handle.write(digest + "\n")
        self._manifest_handle.flush()
        self._order.append(digest)
        self._counts[digest] = self._counts.get(digest, 0) + 1

    def close(self):
        """Release the manifest append handle (reads stay valid)."""
        if self._manifest_handle is not None:
            self._manifest_handle.close()
            self._manifest_handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        self.close()

    # ------------------------------------------------------------------
    # Writing

    def _store(self, text, graph=None, manifest=True):
        """The write path of every ``put*`` method; returns the digest
        of canonical ``text``.

        A new digest writes its metadata, then its blob (``text`` as
        UTF-8), each atomically, so a visible blob always has metadata.
        ``graph`` is ``text`` parsed; without one the text is loaded
        here (hardened loader: corrupt text raises
        :class:`~repro.errors.GraphError` before anything is written).
        ``manifest`` appends the digest to the corpus.
        """
        digest = text_digest(text)
        blob_path = self._blob_path(digest)
        written = 0
        if not os.path.exists(blob_path):
            if graph is None:
                graph = load_graph(io.StringIO(text))
            meta_path = self._meta_path(digest)
            meta_tmp = "%s.tmp.%d" % (meta_path, os.getpid())
            with open(meta_tmp, "w") as handle:
                json.dump(_shard_meta(graph), handle, sort_keys=True)
            os.replace(meta_tmp, meta_path)
            data = text.encode("utf-8")
            tmp = "%s.tmp.%d" % (blob_path, os.getpid())
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, blob_path)
            written = len(data)
        metrics = obs.get_metrics()
        if metrics.enabled:
            if written:
                metrics.incr("store.shards_written")
                metrics.incr("store.bytes", written)
            else:
                metrics.incr("store.dedup_hits")
        if not written:
            obs.get_event_log().event("store.dedup", digest=digest)
        if manifest:
            self._append_manifest(digest)
        return digest

    def put(self, graph):
        """Append one run's shard to the corpus; returns its digest.

        Content-addressed: an already-seen graph writes nothing but its
        manifest line and bumps the multiplicity.  Category tags travel
        on the graph's ``category_edges`` attribute.
        """
        return self._store(dumps_graph(graph), graph)

    def put_text(self, text):
        """:meth:`put` for a shard already in canonical text form (as
        shipped home by batch workers).

        The graph is parsed (hardened loader: corrupt text raises
        :class:`~repro.errors.GraphError`) only when the digest is new;
        a dedup hit costs one hash and one manifest line.
        """
        return self._store(text)

    def put_object(self, graph):
        """Write a graph as a content-addressed object *without* adding
        it to the corpus; returns its digest.

        The tree-reduction merge stores each intermediate combined
        graph this way, so reduction levels exchange O(1) references
        instead of O(coverage) payloads — and identical subtree merges
        (common under heavy dedup) are written once.
        """
        return self._store(dumps_graph(graph), graph, manifest=False)

    def put_object_text(self, text):
        """:meth:`put_object` for a shard already in canonical text form.

        Idempotent and manifest-free: the measurement service
        checkpoints each completed run's shard this way, with its own
        progress journal as the commit point, so a crash between the
        blob write and the journal append merely re-writes the same
        digest on resume — nothing is double-counted.  The text is
        parsed (hardened loader) only when the digest is new.
        """
        return self._store(text, manifest=False)

    # ------------------------------------------------------------------
    # Reading

    def has(self, digest):
        return os.path.exists(self._blob_path(digest))

    def get(self, digest):
        """Load a stored shard.

        Every read re-hashes the blob's bytes and raises
        :class:`StoreError` when they do not hash to ``digest`` (bit-rot
        detection), before parsing them.
        """
        try:
            with open(self._blob_path(digest), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise StoreError("no object %s in store %s"
                             % (digest, self.root)) from None
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise StoreError("object %s in store %s hashes to %s: blob "
                             "corrupt" % (digest, self.root, actual))
        return load_graph(io.StringIO(data.decode("utf-8")))

    def meta(self, digest):
        """The shard's stored metadata dict (see module docstring)."""
        try:
            with open(self._meta_path(digest)) as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise StoreError("no metadata for object %s in store %s"
                             % (digest, self.root)) from None
        except ValueError as error:
            raise StoreError("corrupt metadata for object %s: %s"
                             % (digest, error)) from None

    # ------------------------------------------------------------------
    # Corpus views

    def __len__(self):
        """Total runs in the corpus (manifest entries, with repeats)."""
        return len(self._order)

    @property
    def distinct(self):
        """Number of distinct shards in the corpus."""
        return len(self._counts)

    def order(self):
        """Every run's digest, in put order."""
        return list(self._order)

    def multiplicities(self):
        """``(digest, count)`` pairs in first-occurrence order.

        The dedup view of the corpus: combining these with
        ``collapse_graphs(..., multiplicities=...)`` is bit-identical
        to folding :meth:`order` literally whenever every shard is
        dedup-safe.
        """
        seen = {}
        for digest in self._order:
            if digest not in seen:
                seen[digest] = 0
            seen[digest] += 1
        return list(seen.items())

    def stats(self):
        """Summary dict for reports and the CLI."""
        size = 0
        for digest in self._counts:
            try:
                size += os.path.getsize(self._blob_path(digest))
            except OSError:
                pass
        return {"runs": len(self), "distinct": self.distinct,
                "bytes": size}
