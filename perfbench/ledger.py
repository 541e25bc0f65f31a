"""Closed-loop timing, latency statistics and the per-layer ledger."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class BenchError(RuntimeError):
    """The benchmark cannot run or its harness misbehaved."""


class GateError(RuntimeError):
    """A measured bound disagrees with the reference recomputation."""


#: Fewest latency samples a measured run takes, so that at least ten
#: of them lie above the p90 it reports.
MIN_OPS = 100


def latency_summary(latencies):
    """``(p50, p90)`` of a sample list, inclusive interpolation."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies), deciles[8]


def rss_peak_mib(pid="self"):
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


class Ledger:
    """Per-layer totals of one traced run.

    ``span(name)`` adds the wall time of its block to ``<name>`` and
    ``count(name, n)`` adds to a counter.  Spans are not nested: each
    one covers a single call into a layer, so their sum is the op time
    the layers account for.
    """

    def __init__(self):
        self.totals = {}
        self.spanned = 0.0

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.spanned += elapsed

    def count(self, name, amount):
        self.totals[name] = self.totals.get(name, 0) + amount
