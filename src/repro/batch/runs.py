"""Batch frontends: multi-run, multi-secret, and corpus measurement.

Each frontend pairs a module-level *job function* (what a worker
process executes) with a parent-side merge.  Workers trace with online
collapse on, so what crosses the process boundary is a coverage-sized
collapsed graph in the ``flowgraph-v1`` text format plus plain-data
summaries — never VM state or label objects.  The parent re-combines
worker graphs with :func:`~repro.graph.collapse.collapse_graphs`, which
keeps the combined bound Kraft-sound across the whole batch exactly as
the serial Section 3.2 pipeline does.

``jobs=1`` runs the very same job functions in-process (including the
dump/load round trip), so the parallel and serial paths cannot drift
apart: the equivalence suite in ``tests/batch`` asserts bit-identical
bounds, cuts, and combined-graph serializations.

Fault tolerance: every frontend accepts ``timeout``/``retries``/
``on_error`` (or a prebuilt :class:`~repro.batch.engine.FaultPolicy`
via ``faults=``).  Under ``on_error="collect"`` a failed run no longer
aborts the batch — but the Section 3 Kraft-inequality merge makes
*silently* skipping a failed run unsound, so degradation is explicit:
failed runs are excluded from the combined graph, reported in a
``failures`` field, the Kraft sum is computed only over the succeeded
runs, and the report is marked ``partial`` so no caller can mistake it
for a complete bound.
"""

from __future__ import annotations

import io
import time

from .. import obs
from ..core.combine import IncrementalKraft, kraft_satisfied, kraft_sum
from ..core.measure import measure_folded, measure_graph, measure_runs
from ..core.multisecret import CategoryBounds, _restricted_copy
from ..core.tracker import CollapsingTraceBuilder
from ..errors import BatchError, GraphError, StoreError
from ..graph.collapse import CollapseStats, collapse_step
from ..graph.maxflow import dinic_max_flow
from ..graph.mincut import MinCut
from ..graph.serialize import dumps_graph, load_graph
from ..lang.runner import compile_cached, execute, measure
from ..shadow import resolve_backend
from ..store import ShardStore
from .engine import BatchEngine, FaultPolicy, JobFailure

#: Collapse modes a batch worker can trace under.  ``"none"`` is
#: excluded on purpose: workers must ship *collapsed* graphs, or the
#: transfer volume would be runtime-sized instead of coverage-sized.
BATCH_COLLAPSE_MODES = ("context", "location")


def _check_collapse(collapse):
    if collapse not in BATCH_COLLAPSE_MODES:
        raise ValueError("batch collapse must be one of %r, got %r"
                         % (BATCH_COLLAPSE_MODES, collapse))


def _fault_policy(faults, timeout, retries, on_error):
    """One :class:`FaultPolicy` from either form of configuration."""
    if faults is not None:
        if timeout is not None or retries or on_error != "raise":
            raise ValueError("pass either faults= or individual "
                             "timeout/retries/on_error kwargs, not both")
        return faults
    return FaultPolicy(timeout=timeout, retries=retries, on_error=on_error)


def _corrupt_graph_failure(index, error, metrics):
    """A worker shipped home an unloadable graph: that is *its* failure.

    Counted under ``batch.failures`` like any other job failure, so the
    parent's accounting stays consistent with what it actually merged.
    """
    if metrics.enabled:
        metrics.incr("batch.failures")
    return JobFailure(index, type(error).__name__,
                      "corrupt worker graph: %s" % error)


def _mark_partial(report, failed, attempted):
    report.partial = True
    report.warnings.append(
        "partial result: %d of %d runs failed and were excluded; the "
        "combined bound covers only the %d surviving runs (the §3 "
        "Kraft guarantee says nothing about the failed runs)"
        % (failed, attempted, attempted - failed))
    return report


def _chunks(count, parts):
    """Contiguous, order-preserving ``(lo, hi)`` slices of ``range(count)``.

    Sizes differ by at most one.  Contiguity matters for more than
    balance: chunked collapsing is bit-identical to whole-set collapsing
    only when every chunk preserves the original graph order.
    """
    parts = min(parts, count)
    base, extra = divmod(count, parts)
    bounds = []
    lo = 0
    for index in range(parts):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ----------------------------------------------------------------------
# Multi-run measurement of one program (Section 3.2 over a secret list)


class BatchResult:
    """A batch of runs measured together: combined report + per-run bounds.

    ``per_run_bits`` are each *succeeded* run's independent bounds
    (solved on its own collapsed graph); ``report`` is the Kraft-sound
    combined bound over those runs.  ``kraft_sum``/``per_run_sound``
    expose the Section 3.2 arithmetic for the independent bounds, so
    callers can see when the combined bound is doing real work.

    ``failures`` holds one :class:`~repro.batch.engine.JobFailure` per
    failed run (only under ``on_error="collect"``; the default policy
    raises instead).  When any run failed, ``partial`` is ``True``, the
    combined report is marked partial, and every derived quantity —
    ``bits``, ``kraft_sum``, ``per_run_sound`` — covers the surviving
    runs only.
    """

    def __init__(self, report, per_run_bits, jobs, failures=()):
        self.report = report
        self.per_run_bits = list(per_run_bits)
        self.jobs = jobs
        self.failures = list(failures)

    @property
    def bits(self):
        """The combined (Kraft-sound) bound in bits — partial when
        ``failures`` is non-empty."""
        return self.report.bits

    @property
    def runs(self):
        """Succeeded runs (the ones the combined bound covers)."""
        return len(self.per_run_bits)

    @property
    def attempted(self):
        """All runs the batch was asked for, failed ones included."""
        return len(self.per_run_bits) + len(self.failures)

    @property
    def partial(self):
        """Whether any run failed (and was excluded from the bound)."""
        return bool(self.failures)

    @property
    def kraft_sum(self):
        """Exact ``sum_i 2**-k(i)`` over the independent per-run bounds."""
        return kraft_sum(self.per_run_bits)

    @property
    def per_run_sound(self):
        """Whether the independent bounds alone satisfy Kraft (§3.2)."""
        return kraft_satisfied(self.per_run_bits)

    def __repr__(self):
        return "BatchResult(runs=%d, bits=%d, jobs=%d%s)" % (
            self.runs, self.bits, self.jobs,
            ", failures=%d" % len(self.failures) if self.failures else "")


def _trace_run_job(payload):
    """Trace one (secret, public) run; returns a picklable summary.

    Traces with online collapse so the shipped graph is coverage-sized,
    measures the run's independent bound on it, and serializes it for
    the parent-side combination.
    """
    (source, filename, secret, public, collapse, entry, max_steps,
     deadline_seconds, backend) = payload
    compiled = compile_cached(source, filename)
    tracker = CollapsingTraceBuilder(
        context_sensitive=(collapse == "context"), backend=backend)
    with obs.get_metrics().phase("trace"):
        vm, graph = execute(compiled, secret, public, tracker, entry=entry,
                            max_steps=max_steps,
                            deadline_seconds=deadline_seconds,
                            backend=backend)
    report = measure_graph(graph, collapse=collapse, stats=tracker.stats,
                           warnings=vm.warnings)
    return {
        "graph": dumps_graph(graph),
        "stats": dict(tracker.stats),
        "warnings": list(vm.warnings),
        "bits": report.bits,
    }


def measure_program_runs(source, secret_inputs, public_input=b"",
                         collapse="context", jobs=1, filename="<source>",
                         entry="main", max_steps=None, deadline_seconds=None,
                         timeout=None, retries=0, on_error="raise",
                         faults=None, backend=None, store=None):
    """Measure one program over many secrets, ``jobs`` runs at a time.

    The batch analogue of :func:`repro.lang.runner.measure_many`: each
    secret is traced (online-collapsed) in a worker, and the workers'
    serialized graphs are re-combined for the Section 3.2 Kraft-sound
    bound — one :func:`~repro.core.measure.measure_runs` fold (a
    single collapse, a single solve), or the tree-reduction merge
    across the pool when a shard ``store`` is given; both give the
    same bound, graph, and cut.  ``max_steps``/``deadline_seconds``
    bound each run inside its worker (a run past its deadline raises
    ``VMTimeout`` — a non-transient job failure);
    ``timeout``/``retries``/``on_error``
    configure the engine's :class:`~repro.batch.engine.FaultPolicy`.
    Returns a :class:`BatchResult` — partial, with a ``failures`` list,
    when runs failed under ``on_error="collect"``.

    ``store`` (a :class:`~repro.store.ShardStore` or a directory path,
    created if missing) switches the merge to the corpus pipeline: each
    run's shard is appended to the store content-addressed (identical
    collapsed runs dedup to a multiplicity), and the combined report is
    computed by :func:`combine_store_jobs` — a tree reduction across
    the worker pool in O(coverage) memory per process.  The report then
    covers the *whole* store corpus, including shards from earlier
    batches appended to the same store; ``per_run_bits`` still covers
    only this batch's runs.

    ``backend`` selects each worker's VM execution backend
    (``"reference"``/``"fast"``/``"auto"``; see ``docs/backends.md``).
    It is resolved once in the parent so every worker runs the same
    backend regardless of per-process environment.
    """
    _check_collapse(collapse)
    backend = resolve_backend(backend)
    secrets = [bytes(secret) for secret in secret_inputs]
    payloads = [(source, filename, secret, bytes(public_input), collapse,
                 entry, max_steps, deadline_seconds, backend)
                for secret in secrets]
    engine = BatchEngine(jobs, faults=_fault_policy(faults, timeout,
                                                    retries, on_error))
    outcomes = engine.map(_trace_run_job, payloads)
    metrics = obs.get_metrics()
    t0 = time.perf_counter()
    shard_store = None
    if store is not None:
        shard_store = store if isinstance(store, ShardStore) \
            else ShardStore(store)
    graphs = []
    stats_list = []
    warnings = []
    bits = []
    failures = []
    shipped_bytes = 0
    with obs.get_tracer().span("batch.merge", runs=len(outcomes)):
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, JobFailure):
                failures.append(outcome)
                continue
            shipped_bytes += len(outcome["graph"].encode("utf-8"))
            try:
                if shard_store is not None:
                    # The parent never materializes the graph: the text
                    # goes straight into the store (parsed only when its
                    # digest is new).
                    shard_store.put_text(outcome["graph"])
                else:
                    graphs.append(load_graph(io.StringIO(outcome["graph"])))
            except GraphError as error:
                if not engine.faults.collecting:
                    raise
                failures.append(_corrupt_graph_failure(index, error,
                                                       metrics))
                continue
            stats_list.append(outcome["stats"])
            warnings.extend(outcome["warnings"])
            bits.append(outcome["bits"])
        if not bits:
            raise BatchError(
                "all %d runs failed; no combined bound exists (first "
                "failure: %s)" % (len(outcomes), failures[0]))
        if shard_store is not None:
            report = combine_store_jobs(
                shard_store, context_sensitive=(collapse == "context"),
                jobs=jobs, faults=engine.faults, stats_list=stats_list,
                warnings=warnings).report
        else:
            report = measure_runs(graphs, collapse=collapse,
                                  stats_list=stats_list, warnings=warnings)
        if failures:
            _mark_partial(report, len(failures), len(outcomes))
    if metrics.enabled:
        metrics.incr("batch.graphs_bytes", shipped_bytes)
        metrics.add_seconds("batch.merge_seconds",
                            time.perf_counter() - t0)
    return BatchResult(report, bits, engine.jobs, failures)


# ----------------------------------------------------------------------
# Store-backed corpus combine (tree reduction over a ShardStore)


def _default_fanin(count, jobs):
    """Default reduction fan-in: one worker-sized chunk per level.

    Chosen so the first level matches the old one-level split into
    ``jobs`` contiguous chunks; further levels keep reducing until one
    chunk remains for the parent-side root fold.
    """
    return max(2, -(-count // max(jobs, 1)))


def _tree_parts(count, jobs, fanin):
    """Chunk count for one reduction level (1 means: root fold next)."""
    if count <= fanin:
        return 1
    return min(jobs, -(-count // fanin))


class StoreCombineResult:
    """A store-backed corpus combine: report plus anytime-bound trail.

    ``report`` is the usual Kraft-sound combined
    :class:`~repro.core.report.FlowReport` (bit-identical to folding
    the corpus without a store); ``anytime`` is the
    :class:`~repro.core.combine.IncrementalKraft` trail — a monotone
    nonincreasing sequence of sound upper bounds, starting when the
    corpus is sealed and ending at the exact combined bound; ``levels``
    counts reduction levels (parent root fold included).
    """

    def __init__(self, report, anytime, levels, attempted, distinct,
                 covered, failures=()):
        self.report = report
        self.anytime = list(anytime)
        self.levels = levels
        self.attempted = attempted
        self.distinct = distinct
        #: runs the combined bound covers (== ``attempted`` unless partial)
        self.covered = covered
        self.failures = list(failures)

    @property
    def bits(self):
        return self.report.bits

    @property
    def runs(self):
        """Alias of :attr:`covered`."""
        return self.covered

    @property
    def partial(self):
        return bool(self.failures)

    def __repr__(self):
        return ("StoreCombineResult(runs=%d/%d, distinct=%d, bits=%d, "
                "levels=%d%s)"
                % (self.covered, self.attempted, self.distinct, self.bits,
                   self.levels,
                   ", failures=%d" % len(self.failures)
                   if self.failures else ""))


def _store_combine_chunk_job(payload):
    """Left-fold one contiguous chunk of store shards in a worker.

    Streams the chunk one shard at a time (the worker holds the
    running combination plus a single shard — O(coverage) memory,
    whatever the chunk length) and writes the result back to the store
    as a content-addressed object, so only a digest crosses the
    process boundary.  Items are ``(digest, mult, nodes, edges,
    runs)`` with per-repeat original sizes.
    """
    root, items, context_sensitive = payload
    store = ShardStore(root, create=False)
    combined = None
    for digest, mult, _, _, _ in items:
        combined = collapse_step(combined, store.get(digest),
                                 context_sensitive, mult)
    return {
        "digest": store.put_object(combined),
        "source_cap": combined.source_capacity(),
        "sink_cap": combined.sink_capacity(),
        "original_nodes": sum(m * n for _, m, n, _, _ in items),
        "original_edges": sum(m * e for _, m, _, e, _ in items),
        "runs": sum(m * r for _, m, _, _, r in items),
    }


def combine_store_jobs(store, context_sensitive=True, jobs=1, fanin=None,
                       timeout=None, retries=0, on_error="raise",
                       faults=None, stats_list=None, warnings=None):
    """Combine a :class:`~repro.store.ShardStore` corpus by tree
    reduction; returns a :class:`StoreCombineResult`.

    The corpus is taken in its deduped first-occurrence view (digest +
    multiplicity) when every shard is dedup-safe, falling back to the
    literal manifest order otherwise — either way the combined graph,
    cut, and bound are bit-identical to
    :func:`~repro.core.measure.measure_runs` over the manifest's graphs.
    Reduction levels run across the worker pool exchanging only store
    references; the root level left-folds the surviving subtrees one
    :func:`~repro.graph.collapse.collapse_step` at a time (O(coverage)
    memory) and solves the result once.  Incremental Kraft accounting
    (:class:`~repro.core.combine.IncrementalKraft`) maintains a sound
    anytime upper bound throughout; the trail is returned as
    ``result.anytime``.

    Under ``on_error="collect"``, a failed subtree is dropped from both
    the combined graph and the anytime account; the report comes back
    partial.
    """
    if not isinstance(store, ShardStore):
        store = ShardStore(store, create=False)
    if not len(store):
        raise ValueError("combine_store_jobs needs a non-empty store "
                         "(no manifest entries in %s)" % store.root)
    engine = BatchEngine(jobs, faults=_fault_policy(faults, timeout,
                                                    retries, on_error))
    entries = store.multiplicities()
    metas = {digest: store.meta(digest) for digest, _ in entries}
    safe_key = ("dedup_safe_context" if context_sensitive
                else "dedup_safe_location")
    if all(metas[digest][safe_key] for digest, _ in entries):
        refs = entries
    else:
        # A shard with unmergeable-only nodes would contribute fresh
        # classes per repeat; keep the literal order so bit-identity
        # with the plain fold holds unconditionally.
        refs = [(digest, 1) for digest in store.order()]
    kraft = IncrementalKraft()
    items = []
    gids = []
    for digest, mult in refs:
        meta = metas[digest]
        gids.append(kraft.admit(meta["source_cap"], meta["sink_cap"], mult))
        items.append((digest, mult, meta["nodes"], meta["edges"], 1))
    if fanin is None:
        fanin = _default_fanin(len(items), engine.jobs)
    elif fanin < 2:
        raise ValueError("fanin must be >= 2, got %r" % (fanin,))
    kraft.seal()
    metrics = obs.get_metrics()
    t0 = time.perf_counter()
    failures = []
    levels = 0
    with obs.get_tracer().span("batch.merge", chunks=len(items)):
        while True:
            parts = _tree_parts(len(items), engine.jobs, fanin)
            if parts <= 1:
                break
            slices = _chunks(len(items), parts)
            payloads = [(store.root, items[lo:hi], context_sensitive)
                        for lo, hi in slices]
            outcomes = engine.map(_store_combine_chunk_job, payloads)
            levels += 1
            next_items = []
            next_gids = []
            for (lo, hi), outcome in zip(slices, outcomes):
                if isinstance(outcome, JobFailure):
                    failures.append(outcome)
                    for gid in gids[lo:hi]:
                        kraft.drop(gid)
                    continue
                next_gids.append(kraft.merge(gids[lo:hi],
                                             outcome["source_cap"],
                                             outcome["sink_cap"]))
                next_items.append((outcome["digest"], 1,
                                   outcome["original_nodes"],
                                   outcome["original_edges"],
                                   outcome["runs"]))
            if not next_items:
                raise BatchError(
                    "all %d combination chunks failed (first failure: %s)"
                    % (len(outcomes), failures[0]))
            items, gids = next_items, next_gids
        # Root level: a collapse-only left fold of the survivors.
        combined = acc_gid = None
        original_nodes = original_edges = covered = 0
        for index, ((digest, mult, nodes, edges, runs), gid) \
                in enumerate(zip(items, gids)):
            try:
                graph = store.get(digest)
            except (StoreError, GraphError) as error:
                if not engine.faults.collecting:
                    raise
                failures.append(_corrupt_graph_failure(index, error,
                                                       metrics))
                kraft.drop(gid)
                continue
            with metrics.phase("collapse"):
                combined = collapse_step(combined, graph,
                                         context_sensitive, mult)
            original_nodes += mult * nodes
            original_edges += mult * edges
            covered += mult * runs
            if acc_gid is None:
                acc_gid = gid
            else:
                acc_gid = kraft.merge([acc_gid, gid],
                                      combined.source_capacity(),
                                      combined.sink_capacity())
        if combined is None:
            raise BatchError(
                "all %d shards failed to combine (first failure: %s)"
                % (len(items), failures[0]))
        levels += 1
        report = measure_folded(
            combined, CollapseStats(original_nodes, original_edges,
                                    combined.num_nodes, combined.num_edges,
                                    failures=failures),
            stats_list=stats_list, warnings=list(warnings or []))
        kraft.finalize(report.bits)
    attempted = len(store)
    if failures:
        _mark_partial(report, attempted - covered, attempted)
    if metrics.enabled:
        metrics.gauge("combine.tree_levels", levels)
        metrics.add_seconds("batch.merge_seconds",
                            time.perf_counter() - t0)
    return StoreCombineResult(report, kraft.trail, levels, attempted,
                              store.distinct, covered, failures)


# ----------------------------------------------------------------------
# Multi-secret category sweep (Section 10.1)


def _category_solve_job(payload):
    """Solve one category's restricted graph; returns the cut mask.

    Ships back only ``(category, flow_value, source_side_mask)`` — the
    parent rebuilds the :class:`~repro.graph.mincut.MinCut` against its
    own in-memory graph, so the cut carries the caller's original label
    objects, exactly as the serial sweep's does.
    """
    text, category, category_edges = payload
    graph = load_graph(io.StringIO(text))
    restricted = _restricted_copy(graph, category_edges, [category])
    value, residual = dinic_max_flow(restricted)
    return category, value, residual.source_side()


def measure_by_category_jobs(graph, category_edges, collapse="none",
                             stats=None, jobs=1, timeout=None, retries=0,
                             on_error="raise", faults=None):
    """Parallel per-category sweep; see
    :func:`repro.core.multisecret.measure_by_category`.

    One job per category solves the restricted graph; the joint bound
    is measured in the parent.  The per-category solves depend only on
    graph structure and capacities, so the serialized copy a worker
    solves yields the same flow value and the same canonical cut mask
    as the in-memory graph would.

    Under ``on_error="collect"``, categories whose solve job failed are
    missing from ``per_category`` and reported in the returned
    :class:`~repro.core.multisecret.CategoryBounds`' ``failures``.
    """
    text = dumps_graph(graph)
    categories = sorted(category_edges)
    payloads = [(text, category, dict(category_edges))
                for category in categories]
    engine = BatchEngine(jobs, faults=_fault_policy(faults, timeout,
                                                    retries, on_error))
    outcomes = engine.map(_category_solve_job, payloads)
    metrics = obs.get_metrics()
    t0 = time.perf_counter()
    per_category = {}
    reports = {}
    failures = []
    with obs.get_tracer().span("batch.merge", categories=len(outcomes)):
        for outcome in outcomes:
            if isinstance(outcome, JobFailure):
                failures.append(outcome)
                continue
            category, value, mask = outcome
            restricted = _restricted_copy(graph, category_edges, [category])
            per_category[category] = value
            reports[category] = MinCut(restricted, mask)
        joint = measure_graph(graph, collapse=collapse, stats=stats)
    if metrics.enabled:
        metrics.incr("batch.graphs_bytes",
                     len(text.encode("utf-8")) * len(payloads))
        metrics.add_seconds("batch.merge_seconds",
                            time.perf_counter() - t0)
    return CategoryBounds(per_category, joint.bits,
                          {"joint": joint, **reports}, failures=failures)


# ----------------------------------------------------------------------
# Corpus measurement (one job per program)


class ProgramResult:
    """Picklable summary of one corpus program's measurement."""

    __slots__ = ("name", "bits", "output_bytes", "warnings", "cut",
                 "seconds")

    def __init__(self, name, bits, output_bytes, warnings, cut, seconds):
        self.name = name
        self.bits = bits
        self.output_bytes = output_bytes
        #: run warnings, verbatim
        self.warnings = warnings
        #: the min cut as ``(kind, location, capacity)`` triples
        self.cut = cut
        #: in-worker wall time for this program
        self.seconds = seconds

    def __repr__(self):
        return "ProgramResult(%r, bits=%d, cut=%d)" % (
            self.name, self.bits, len(self.cut))


def _measure_program_job(payload):
    """Measure one program of a corpus (online-collapsed trace)."""
    (name, source, secret, public, collapse, entry, max_steps,
     deadline_seconds) = payload
    t0 = time.perf_counter()
    result = measure(source, secret, public, collapse=collapse,
                     entry=entry, filename=name, online=True,
                     max_steps=max_steps,
                     deadline_seconds=deadline_seconds)
    report = result.report
    cut = []
    for cut_edge in report.mincut.edges:
        label = cut_edge.label
        if label is None:
            cut.append((None, None, cut_edge.capacity))
        else:
            cut.append((label.kind, str(label.location),
                        cut_edge.capacity))
    return ProgramResult(name, report.bits, result.output_bytes,
                         list(report.warnings or []), cut,
                         time.perf_counter() - t0)


def measure_programs(items, collapse="context", jobs=1, entry="main",
                     max_steps=None, deadline_seconds=None, timeout=None,
                     retries=0, on_error="raise", faults=None):
    """Measure a corpus of independent programs, ``jobs`` at a time.

    ``items`` yields ``(name, source, secret_input)`` or ``(name,
    source, secret_input, public_input)`` tuples.  Unlike the multi-run
    frontends nothing is combined — the programs are unrelated, so the
    jobs ship back :class:`ProgramResult` summaries, in input order.
    Under ``on_error="collect"``, a failed program's slot holds its
    :class:`~repro.batch.engine.JobFailure` instead (check with
    ``isinstance``); the other programs' results are unaffected.
    """
    _check_collapse(collapse)
    payloads = []
    for item in items:
        if len(item) == 3:
            name, source, secret = item
            public = b""
        else:
            name, source, secret, public = item
        payloads.append((name, source, bytes(secret), bytes(public),
                         collapse, entry, max_steps, deadline_seconds))
    engine = BatchEngine(jobs, faults=_fault_policy(faults, timeout,
                                                    retries, on_error))
    return engine.map(_measure_program_job, payloads)
