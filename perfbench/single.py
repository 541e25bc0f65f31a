"""The single-run workloads: ``compress`` (paper Fig 3) and ``image`` (Fig 5).

Both run in the benchmark process as one sequential caller, so the
process's peak RSS is the work's.  An untraced run (``--trace 0``)
calls the apps' public measurement functions exactly as a user would.
A traced run (``--trace 1``) executes each op twice, alternating which
goes first: once that same way, and once as the same pipeline spelled
out call by call (trace, finish, collapse, residual, solve, min cut),
timing each call into a layer.  Every bound is checked afterwards
against the ``reference`` backend.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

from ledger import (MIN_OPS, GateError, Ledger, latency_summary,
                    rss_peak_mib)
from workloads import OpSource

HERE = os.path.dirname(os.path.abspath(__file__))
#: Processes recomputing the reference bounds after the timed window.
GATE_WORKERS = 2


@contextmanager
def _reference_backend():
    """Resolve the ``auto`` backend to ``reference`` inside the block."""
    from repro.shadow import resolve_backend
    from repro.shadow.fast import ENV_VAR
    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "reference"
    try:
        if resolve_backend(None) != "reference":
            raise GateError("could not select the reference backend")
        yield
    finally:
        if saved is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = saved


class _Pipeline:
    """The layer functions a traced op calls, imported once."""

    def __init__(self):
        from repro.graph.collapse import collapse_graphs
        from repro.graph.maxflow import ResidualNetwork, dinic_max_flow
        from repro.graph.mincut import min_cut_from_residual
        from repro.pytrace import Session
        self.Session = Session
        self.collapse_graphs = collapse_graphs
        self.ResidualNetwork = ResidualNetwork
        self.dinic_max_flow = dinic_max_flow
        self.min_cut_from_residual = min_cut_from_residual

    def solve(self, session, ledger, collapse):
        """Finish ``session`` and measure it layer by layer; returns
        ``(bits, solved_graph)``."""
        with ledger.span("core.tracker.finish_s"):
            graph = session.finish()
        ledger.count("pytrace.operations",
                     session.tracker.stats["operations"])
        ledger.count("core.tracker.raw_edges", graph.num_edges)
        solved = graph
        if collapse:
            with ledger.span("graph.collapse.collapse_s"):
                solved, stats = self.collapse_graphs(
                    [graph], context_sensitive=False)
            ledger.count("graph.collapse.edges_in", stats.original_edges)
            ledger.count("graph.collapse.edges_out",
                         stats.collapsed_edges)
        with ledger.span("graph.maxflow.residual_s"):
            net = self.ResidualNetwork(solved)
        ledger.count("graph.maxflow.arcs", len(net.head))
        with ledger.span("graph.maxflow.solve_s"):
            bits, residual = self.dinic_max_flow(solved)
        with ledger.span("graph.mincut.mincut_s"):
            cut = self.min_cut_from_residual(solved, residual)
        ledger.count("graph.mincut.cut_edges", len(cut.edges))
        return bits, solved


class Compress:
    """``measure_compression_flow`` over seeded 512-4096 B inputs."""

    def __init__(self, seed):
        from repro.apps.bzip2 import compress, measure_compression_flow
        from repro.graph.serialize import graph_digest
        self._measure = measure_compression_flow
        self._compress = compress
        self._digest = graph_digest
        self.pipeline = _Pipeline()
        self.ops = OpSource("compress", seed)

    def run(self, op):
        t0 = time.perf_counter()
        result = self._measure(op["data"])
        latency = time.perf_counter() - t0
        return latency, (result.flow_bits,
                         self._digest(result.report.graph))

    def run_traced(self, op, ledger):
        p = self.pipeline
        with ledger.span("pytrace.trace_s"):
            session = p.Session()
            secret = session.secret_bytes(op["data"])
            session.output_bytes(self._compress(secret, session=session))
        bits, _ = p.solve(session, ledger, collapse=True)
        return bits

    def reference(self, op):
        result = self._measure(op["data"], backend="reference")
        return result.flow_bits, self._digest(result.report.graph)


class Image:
    """``measure_transform`` over seeded 12-20 px random rasters."""

    def __init__(self, seed):
        from repro.apps.imagelib import (Raster, blur, load_secret,
                                         measure_transform, pixelate,
                                         swirl)
        self._Raster = Raster
        self._measure = measure_transform
        self._load_secret = load_secret
        self._transforms = {"pixelate": pixelate, "blur": blur,
                            "swirl": swirl}
        self.pipeline = _Pipeline()
        self.ops = OpSource("image", seed)

    def _raster(self, op):
        return self._Raster(op["size"], op["size"], op["pixels"])

    @staticmethod
    def _kwargs(op):
        if op["transform"] == "swirl":
            return {"degrees": op["degrees"]}
        return {"grid": op["grid"]}

    def run(self, op):
        raster = self._raster(op)
        t0 = time.perf_counter()
        bits = self._measure(op["transform"], image=raster,
                             **self._kwargs(op)).bits
        return time.perf_counter() - t0, (bits,)

    def run_traced(self, op, ledger):
        p = self.pipeline
        raster = self._raster(op)
        transform = self._transforms[op["transform"]]
        with ledger.span("pytrace.trace_s"):
            session = p.Session()
            secret = self._load_secret(session, raster)
            header, data = transform(secret, **self._kwargs(op)).to_ppm()
            session.output_bytes(list(header), name="ppm-header")
            session.output_bytes(data, name="ppm-data")
        bits, _ = p.solve(session, ledger, collapse=False)
        return bits

    def reference(self, op):
        with _reference_backend():
            return (self._measure(op["transform"], image=self._raster(op),
                                  **self._kwargs(op)).bits,)


RUNNERS = {"compress": Compress, "image": Image}


def prepare(workload, seed):
    """Import the layers and build the op source: the set-up a user
    pays before the first op can start."""
    runner = RUNNERS[workload](seed)
    runner.ops.op(0)
    return runner


def _report_failure(failures, limit=3):
    if failures <= limit:
        traceback.print_exc(file=sys.stderr)


def gate_worker(workload, seed, lines, out):
    """Write ``[index, reference outcome]`` JSON lines for the op
    indices read from ``lines``."""
    runner = RUNNERS[workload](seed)
    for line in lines:
        index = int(line)
        out.write(json.dumps([index, runner.reference(runner.ops.op(index))])
                  + "\n")


def _gate(runner, checks):
    """Recompute every op with the reference backend and compare;
    ``checks`` is a list of ``(op_index, outcome)``.

    The recomputation is as costly as the run, so once the timed window
    is over it is split across ``GATE_WORKERS`` fresh processes, which
    regenerate each op from the seed.
    """
    ops = runner.ops
    command = [sys.executable, os.path.join(HERE, "run.py"), "--gate",
               "--workload", ops.workload, "--seed", str(ops.seed)]
    workers = []
    try:
        for k in range(GATE_WORKERS):
            proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, text=True)
            workers.append(proc)
            proc.stdin.write("".join("%d\n" % index for index, _
                                     in checks[k::GATE_WORKERS]))
            proc.stdin.close()
        expected = {}
        for proc in workers:
            out = proc.stdout.read()
            if proc.wait(timeout=60) != 0:
                raise GateError("reference gate worker exited %d"
                                % proc.returncode)
            for line in out.splitlines():
                index, outcome = json.loads(line)
                expected[index] = tuple(outcome)
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    for index, outcome in checks:
        if expected.get(index) != outcome:
            raise GateError("%s op %d: measured %r, reference backend %r"
                            % (ops.workload, index, outcome,
                               expected.get(index)))


def run(workload, seed, seconds, trace):
    """One run; returns ``(metrics, attempted, failed, ops)``."""
    runner = prepare(workload, seed)
    runner.run(runner.ops.op(0))  # warm-up: fills caches, not timed
    if trace:
        return _run_traced(runner, seconds)
    checks, latencies, failed = [], [], 0
    index = 1
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(latencies) < MIN_OPS):
        op = runner.ops.op(index)
        try:
            latency, outcome = runner.run(op)
        except Exception:  # noqa: BLE001 - a failed op is counted
            failed += 1
            _report_failure(failed)
        else:
            latencies.append(latency)
            checks.append((index, outcome))
        index += 1
    window = time.perf_counter() - start
    peak = rss_peak_mib()
    _gate(runner, checks)
    attempted = len(latencies) + failed
    p50, p90 = latency_summary(latencies)
    metrics = {
        "ops_per_s": len(latencies) / window,
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "peak_rss_mib": peak,
        "success_rate": len(latencies) / attempted,
    }
    return metrics, attempted, failed, len(latencies)


def _run_traced(runner, seconds):
    ledger = Ledger()
    checks, failed = [], 0
    plain_wall = traced_wall = 0.0
    index = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = runner.ops.op(index)
        try:
            if index % 2:
                latency, outcome = runner.run(op)
            t0 = time.perf_counter()
            bits = runner.run_traced(op, ledger)
            wall = time.perf_counter() - t0
            if not index % 2:
                latency, outcome = runner.run(op)
        except Exception:  # noqa: BLE001 - a failed op is counted
            failed += 1
            _report_failure(failed)
        else:
            if bits != outcome[0]:
                raise GateError("%s op %d: traced pipeline measured %r "
                                "bits, the app call %r"
                                % (runner.ops.workload, index, bits,
                                   outcome[0]))
            plain_wall += latency
            traced_wall += wall
            checks.append((index, outcome))
        index += 1
    _gate(runner, checks)
    totals = ledger.totals
    metrics = dict(totals)
    for name, value in totals.items():
        if name.endswith("_s"):
            metrics[name[:-2] + "_share"] = value / traced_wall
    metrics["bench.op_wall_s"] = traced_wall
    metrics["bench.traced_ops"] = len(checks)
    metrics["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["bench.unattributed_frac"] = 1.0 - ledger.spanned / traced_wall
    attempted = len(checks) + failed
    return metrics, attempted, failed, len(checks)
