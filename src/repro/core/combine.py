"""Soundness across multiple runs (Section 3).

The paper defines a set of per-run flow bounds k(i) to be *sound* when a
uniquely decodable code exists whose i-th code word has length k(i) --
equivalently (Kraft's inequality) when sum_i 2**-k(i) <= 1.  Bounds
computed independently per run can violate this (the min(8, n+1) example
of Section 3.2: sum over n of 2**-min(8, n+1) = 503/256 > 1); combining
the runs' graphs before solving restores soundness.

This module provides the Kraft arithmetic (exactly, with
:class:`fractions.Fraction`) plus helpers that demonstrate/repair the
inconsistency.
"""

from __future__ import annotations

from fractions import Fraction

from .. import obs
from ..graph.collapse import CollapseStats, collapse_step
from ..graph.flowgraph import INF
from ..graph.maxflow import WarmStart, dinic_max_flow
from ..graph.mincut import min_cut_from_residual
from .measure import _report


def kraft_sum(bounds):
    """Exact value of sum_i 2**-k(i) for integer bit bounds ``bounds``."""
    total = Fraction(0)
    for k in bounds:
        if k < 0:
            raise ValueError("negative flow bound %r" % (k,))
        total += Fraction(1, 2 ** k)
    return total


def kraft_satisfied(bounds):
    """Whether a uniquely decodable code with these lengths exists."""
    return kraft_sum(bounds) <= 1


def code_lengths_for(num_messages):
    """Minimum uniform code length for ``num_messages`` distinct messages.

    Section 3.1: k bits distinguish 2**k possibilities, so N messages
    need ceil(log2 N) bits each.
    """
    if num_messages < 1:
        raise ValueError("need at least one message")
    return (num_messages - 1).bit_length()


def _natural(value, what):
    """``int(value)``, rejecting negatives: every count and capacity in
    a Kraft checkpoint is >= 0, so a negative one marks a corrupt
    document (which would otherwise read as a negative bound)."""
    value = int(value)
    if value < 0:
        raise ValueError("negative %s %d" % (what, value))
    return value


class StreamingCombiner:
    """Fold run graphs in one at a time, re-solving incrementally.

    The anytime counterpart of :func:`~repro.core.measure.measure_runs`:
    each :meth:`add` combines the new run's graph into the accumulated
    combined graph (:func:`~repro.graph.collapse.collapse_step` --
    contiguous-order associativity makes the final graph identical to
    combining the whole list at once) and re-solves.  Because the
    merged graph is the old graph plus summed capacities, the previous
    solve's residual is a feasible starting flow, so each re-solve
    warm-starts from it (:class:`~repro.graph.maxflow.WarmStart`) and
    only augments the increment -- near-free when a run adds little new
    coverage.

    After every ``add`` the current Kraft-sound bound over all runs so
    far is available as :attr:`bits` -- an exact per-run *anytime*
    bound that only this class provides; callers that need just the
    final bound fold once with ``measure_runs`` instead.  The bound is
    identical to the one-shot combination's (the max-flow value is
    unique); with warm starting the minimum *cut* may sit elsewhere
    when several cuts tie, which is sound -- any minimum cut of the
    combined graph yields a valid §3 policy (``docs/backends.md`` has
    the full argument).

    Args:
        context_sensitive: merge-key sensitivity, as for
            :func:`~repro.graph.collapse.collapse_graphs`.
    """

    def __init__(self, context_sensitive=True):
        self.context_sensitive = context_sensitive
        self.graph = None
        self.residual = None
        self.bits = None
        self.runs = 0
        self._warm = None
        self._original_nodes = 0
        self._original_edges = 0

    def add(self, graph, times=1):
        """Fold one run's graph in and re-solve; returns the new bound.

        ``times > 1`` folds that many repeats of the graph in one step
        (the shard-store dedup path), via the same
        ``multiplicities`` contract as
        :func:`~repro.graph.collapse.collapse_graphs`.
        """
        if times < 1:
            raise ValueError("times must be >= 1, got %r" % (times,))
        with obs.get_metrics().phase("collapse"):
            combined = collapse_step(self.graph, graph,
                                     self.context_sensitive, times)
        self._original_nodes += times * graph.num_nodes
        self._original_edges += times * graph.num_edges
        self.runs += times
        value, residual = dinic_max_flow(combined, warm_start=self._warm)
        self.graph = combined
        self.residual = residual
        self.bits = value
        self._warm = WarmStart(combined, residual)
        return value

    @property
    def stats(self):
        """Cumulative :class:`CollapseStats` over every added graph."""
        if self.graph is None:
            raise ValueError("no graphs added yet")
        return CollapseStats(self._original_nodes, self._original_edges,
                             self.graph.num_nodes, self.graph.num_edges)

    def report(self, stats_list=None, warnings=None):
        """Package the current state as a
        :class:`~repro.core.report.FlowReport` (the warm residual's
        cut, through the same report builder as ``measure_runs``)."""
        if self.graph is None:
            raise ValueError("no graphs added yet")
        with obs.get_metrics().phase("mincut"):
            cut = min_cut_from_residual(self.graph, self.residual)
        return _report(self.graph, self.bits, cut, self.stats,
                       stats_list or (), warnings)


class IncrementalKraft:
    """Sound anytime upper bound on a corpus combine, updated as
    shards merge.

    The tree-reduction merge only knows the exact Kraft-sound bound
    (the combined max-flow) at the root; this accountant gives a sound
    bound at *every* moment in between, from two globally consistent
    structural cuts.  For each live merge group ``g`` (initially one
    per shard, merged as reduction proceeds) it tracks the group
    graph's source-cut and sink-cut capacities; since every s-t flow in
    the final combined graph decomposes into flows crossing each
    group's source (and sink) cut,

        bound = min(sum_g source_cap(g), sum_g sink_cap(g))

    is an upper bound on the final combined max-flow at all times.
    Merging groups only lowers it (a merged graph's structural cuts
    are at most the sums of its parts' — label merges saturate and
    self-loops drop capacity), so once :meth:`seal` marks the corpus
    complete the recorded :attr:`trail` is monotone nonincreasing and
    every entry is ``>=`` the final exact bound, which
    :meth:`finalize` snaps to.  Note the *per-group min-cut* sum is
    not usable here: merging can unlock capacity across groups, so it
    is a lower trail, not an upper bound.
    """

    def __init__(self):
        self._groups = {}
        self._next_id = 0
        self._src_finite = 0
        self._src_inf = 0
        self._sink_finite = 0
        self._sink_inf = 0
        self._sealed = False
        self._final = None
        self.trail = []
        self.updates = 0

    @staticmethod
    def _scale(capacity, multiplicity):
        if capacity >= INF:
            return INF
        return min(capacity * multiplicity, INF)

    def _account(self, source_cap, sink_cap, sign):
        if source_cap >= INF:
            self._src_inf += sign
        else:
            self._src_finite += sign * source_cap
        if sink_cap >= INF:
            self._sink_inf += sign
        else:
            self._sink_finite += sign * sink_cap

    def admit(self, source_cap, sink_cap, multiplicity=1):
        """Register one shard (``multiplicity`` identical runs) as its
        own merge group; returns the group id."""
        if self._sealed:
            raise ValueError("cannot admit shards after seal()")
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        gid = self._next_id
        self._next_id += 1
        caps = (self._scale(source_cap, multiplicity),
                self._scale(sink_cap, multiplicity))
        self._groups[gid] = caps
        self._account(caps[0], caps[1], +1)
        return gid

    @property
    def sealed(self):
        """Whether :meth:`seal` has marked the corpus complete."""
        return self._sealed

    def seal(self):
        """Mark the corpus complete; starts the monotone trail.

        From here on the bound only moves down (merges, drops, the
        final exact solve), so :attr:`trail` is the sound anytime
        sequence the CLI reports.
        """
        self._sealed = True
        self._record()
        return self.bits

    def merge(self, group_ids, source_cap, sink_cap):
        """Replace ``group_ids`` by their merged group, whose combined
        graph has the given structural cut capacities; returns the new
        group id."""
        for gid in group_ids:
            src, sink = self._groups.pop(gid)
            self._account(src, sink, -1)
        gid = self._next_id
        self._next_id += 1
        caps = (min(source_cap, INF), min(sink_cap, INF))
        self._groups[gid] = caps
        self._account(caps[0], caps[1], +1)
        self._record()
        return gid

    def drop(self, group_id):
        """Remove a group whose subtree failed (``on_error="collect"``):
        the bound then covers only the surviving shards."""
        src, sink = self._groups.pop(group_id)
        self._account(src, sink, -1)
        self._record()

    def finalize(self, bits):
        """Snap to the exact combined bound from the root solve."""
        self._final = bits
        self._record()
        return self.bits

    def _record(self):
        if self._sealed:
            bits = self.bits
            self.trail.append(bits)
            self.updates += 1
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.incr("combine.kraft_updates")
            obs.get_event_log().event(
                "combine.kraft_update",
                bits=None if bits >= INF else bits,
                groups=len(self._groups))

    def to_dict(self):
        """The accountant's complete state as a JSON-able dict.

        The measurement service checkpoints this after every admitted
        shard so a crashed job resumes its anytime accounting instead
        of restarting it; :meth:`from_dict` round-trips exactly
        (groups, accumulators, seal state, trail, and update count).
        """
        return {
            "groups": [[gid, src, sink]
                       for gid, (src, sink) in sorted(self._groups.items())],
            "next_id": self._next_id,
            "sealed": self._sealed,
            "final": self._final,
            "trail": list(self.trail),
            "updates": self.updates,
        }

    @classmethod
    def from_dict(cls, doc):
        """Rebuild an accountant from :meth:`to_dict` output.

        The source/sink accumulators are re-derived from the group
        table, so a hand-edited or torn document cannot smuggle in an
        inconsistent sum.
        """
        kraft = cls()
        for gid, src, sink in doc["groups"]:
            gid = _natural(gid, "group id")
            if gid in kraft._groups:
                raise ValueError("duplicate group id %d" % gid)
            caps = (min(_natural(src, "source capacity"), INF),
                    min(_natural(sink, "sink capacity"), INF))
            kraft._groups[gid] = caps
            kraft._account(caps[0], caps[1], +1)
        kraft._next_id = _natural(doc["next_id"], "next_id")
        if kraft._groups and kraft._next_id <= max(kraft._groups):
            raise ValueError("next_id %d collides with live groups"
                             % kraft._next_id)
        if not isinstance(doc["sealed"], bool):
            raise ValueError("sealed must be a boolean, got %r"
                             % (doc["sealed"],))
        kraft._sealed = doc["sealed"]
        final = doc.get("final")
        kraft._final = None if final is None else _natural(final, "final")
        kraft.trail = [_natural(b, "trail entry")
                       for b in doc.get("trail", [])]
        kraft.updates = _natural(doc.get("updates", 0), "updates")
        return kraft

    @property
    def groups_live(self):
        return len(self._groups)

    @property
    def bits(self):
        """The current sound upper bound (:data:`~repro.graph.flowgraph.INF`
        when both structural cuts are unbounded)."""
        if self._final is not None:
            return self._final
        src = INF if self._src_inf else min(self._src_finite, INF)
        sink = INF if self._sink_inf else min(self._sink_finite, INF)
        return min(src, sink)


def demonstrate_inconsistency(per_run_bounds):
    """Summarize whether independently measured bounds are jointly sound.

    Returns a dict with the exact Kraft sum, a float rendering, and the
    verdict -- the shape of the Section 3.2 discussion, used by the
    consistency benchmark.
    """
    total = kraft_sum(per_run_bounds)
    return {
        "bounds": list(per_run_bounds),
        "kraft_sum": total,
        "kraft_sum_float": float(total),
        "sound": total <= 1,
    }
