"""The ``serve`` workload: a closed loop against ``repro serve``.

The daemon runs under its normal flags (``--dir <tmp> --port 0``).
``CLIENTS`` threads each submit a job (``POST /v1/jobs``) and poll it
(``GET /v1/jobs/<id>``) until it is terminal before submitting the
next; a job is one op.  The daemon runs one job at a time, so a second
client would only add queue wait and polling that competes with the
dispatcher for the same two cores.  A traced run splits its window:
the first half runs untraced, the second half is bracketed by two
scrapes of the daemon's ``/metrics`` whose difference gives the
``daemon.*`` ledger.
After the window every job's bound is recomputed in this process with
the ``reference`` backend, and checked against the number of distinct
outputs its secrets produce.

Daemon hygiene: every daemon this module starts is stopped with
SIGTERM and must answer with exit 0 and ``drained cleanly``; on any
error it is killed instead.  Its state directory is deleted either
way, and a pool worker left alive after the drain fails the run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import urllib.error
import urllib.request

from ledger import (MIN_OPS, BenchError, GateError, latency_summary,
                    rss_peak_mib)
from workloads import OpSource, serve_programs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Temporary daemon state; inside the checkout, removed per run.
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")

#: Closed-loop client threads.  One keeps the daemon's single
#: dispatcher busy without stacking jobs behind it.
CLIENTS = 1
#: Pause between status polls of one job.
POLL_S = 0.01
#: Daemon starts timed per run; the last one serves the run.
SETUP_DAEMONS = 5
#: Untimed jobs before the window, one per program (compile cache warm).
WARMUP_JOBS = 3
TERMINAL = ("done", "partial", "failed", "cancelled")

#: Catalogue metrics read from the daemon's ``/metrics``; reported as
#: ``daemon.<name>`` deltas over the traced window.
DAEMON_METRICS = (
    "phase.trace.seconds", "phase.collapse.seconds", "phase.solve.seconds",
    "store.bytes", "store.shards_written", "store.dedup_hits",
    "lang.compile_cache_hits", "serve.admitted", "serve.rejected",
    "batch.jobs", "combine.kraft_updates",
)


def _request(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _children(pid):
    """Pids whose parent is ``pid``, from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                # The command name may hold spaces; fields resume after ')'.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class Daemon:
    """One ``repro serve`` process over a fresh state directory."""

    def __init__(self):
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT)
        self.state = os.path.join(self.dir, "state")
        self.log = os.path.join(self.dir, "daemon.log")
        self.proc = None
        self.base = None

    def start(self):
        """Spawn and wait for ``/healthz``; returns the seconds taken."""
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dir",
                 self.state, "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        endpoint = os.path.join(self.state, "endpoint.json")
        deadline = t0 + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited at start-up:\n"
                                 + self._log_text())
            if self.base is None:
                self.base = self._endpoint(endpoint)
            elif self._healthy():
                return time.perf_counter() - t0
            time.sleep(0.002)
        raise BenchError("daemon not healthy after 60 s")

    def _endpoint(self, path):
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            return None
        if doc.get("pid") != self.proc.pid:
            return None
        return "http://%s:%d" % (doc["host"], doc["port"])

    def _healthy(self):
        try:
            status, _ = _request(self.base, "GET", "/healthz")
        except OSError:
            return False
        return status == 200

    def _log_text(self):
        with open(self.log) as handle:
            return handle.read()

    def check_alive(self):
        if self.proc.poll() is not None:
            raise BenchError("daemon died (exit %s):\n%s"
                             % (self.proc.returncode, self._log_text()))

    def metrics(self):
        """The catalogue counters of ``DAEMON_METRICS``, by name."""
        status, body = _request(self.base, "GET", "/metrics")
        if status != 200:
            raise BenchError("/metrics answered %d" % status)
        samples = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        out = {}
        for name in DAEMON_METRICS:
            family = "repro_" + name.replace(".", "_")
            value = samples.get(family + "_total", samples.get(family))
            if value is None:
                raise BenchError("/metrics has no %s" % family)
            out[name] = value
        return out

    def stop(self):
        """SIGTERM, then require a clean drain and no leftover workers."""
        workers = _children(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=120)
        log = self._log_text()
        leftovers = [pid for pid in workers if _alive(pid)]
        for pid in leftovers:
            os.kill(pid, signal.SIGKILL)
        if leftovers:
            raise BenchError("daemon left processes behind: %s" % leftovers)
        if code != 0 or "drained cleanly" not in log:
            raise BenchError("daemon did not drain cleanly (exit %d):\n%s"
                             % (code, log))

    def close(self):
        """Kill the daemon if still running; delete its state."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


class _Loop:
    """The closed loop: shared op counter and the job records."""

    def __init__(self, daemon, ops, programs, first_index):
        self.daemon = daemon
        self.ops = ops
        self.programs = programs
        self.next_index = first_index
        self.records = []
        self.errors = []
        self.lock = threading.Lock()

    def _take(self):
        with self.lock:
            index = self.next_index
            self.next_index += 1
        return index

    def job(self, index):
        """Submit op ``index`` and poll it to a terminal state."""
        op = self.ops.op(index)
        base = self.daemon.base
        spec = {"program": self.programs[op["program"]],
                "secrets": op["secrets"]}
        record = {"index": index, "op": op, "ok": False}
        t0 = time.perf_counter()
        status, body = _request(base, "POST", "/v1/jobs", spec)
        acked = time.perf_counter()
        if status != 202:
            record.update(latency=acked - t0, error="HTTP %d" % status)
            return record
        job_id = json.loads(body)["id"]
        seen = None
        while True:
            status, body = _request(base, "GET", "/v1/jobs/" + job_id)
            now = time.perf_counter()
            if status != 200:
                record.update(latency=now - t0, error="HTTP %d" % status)
                return record
            doc = json.loads(body)
            if seen is None and doc["state"] != "queued":
                seen = (doc["state"], now)
            if doc["state"] in TERMINAL:
                break
            time.sleep(POLL_S)
        result = doc.get("result") or {}
        exec_s = result.get("seconds", 0.0)
        wait = seen[1] - acked
        if seen[0] != "running":
            # Queued at one poll, finished by the next: the run itself
            # fits in the gap, so only the rest of it was waiting.
            wait = max(0.0, wait - exec_s)
        record.update(latency=now - t0, state=doc["state"], result=result,
                      submit_s=acked - t0, queue_wait_s=wait,
                      exec_s=exec_s, runs=len(op["secrets"]),
                      ok=doc["state"] == "done"
                      and result.get("partial") is False)
        return record

    def _client(self, deadline, min_ops):
        while ((time.perf_counter() < deadline
                or len(self.records) < min_ops) and not self.errors):
            index = self._take()
            try:
                self.daemon.check_alive()
                record = self.job(index)
            except BenchError as error:
                self.errors.append(error)
                return
            except Exception as error:  # noqa: BLE001 - a failed op
                record = {"index": index, "ok": False, "latency": 0.0,
                          "error": repr(error)}
                if len(self.records) < 3:
                    traceback.print_exc(file=sys.stderr)
            with self.lock:
                self.records.append(record)

    def run(self, seconds, min_ops=0):
        """Drive ``CLIENTS`` threads for ``seconds`` and at least
        ``min_ops`` jobs; returns the window's records and length."""
        start = len(self.records)
        t0 = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(t0 + seconds, start + min_ops),
                                    daemon=True)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.errors:
            raise self.errors[0]
        return self.records[start:], time.perf_counter() - t0


class _Reference:
    """Memoized in-process recomputation with the reference backend."""

    def __init__(self, programs):
        from repro.batch.runs import measure_program_runs
        from repro.lang.runner import compile_source, execute
        self._runs = measure_program_runs
        self._execute = execute
        self._programs = programs
        self._compiled = {name: compile_source(source)
                          for name, source in programs.items()}
        self._bounds = {}
        self._outputs = {}

    def bound(self, program, secrets):
        key = (program, tuple(secrets))
        if key not in self._bounds:
            batch = self._runs(self._programs[program],
                               [s.encode() for s in secrets],
                               backend="reference")
            self._bounds[key] = (batch.bits, batch.per_run_bits)
        return self._bounds[key]

    def outputs(self, program, secret):
        key = (program, secret)
        if key not in self._outputs:
            vm, _ = self._execute(self._compiled[program], secret.encode(),
                                  backend="reference")
            self._outputs[key] = tuple(vm.outputs)
        return self._outputs[key]


def _gate(reference, records):
    for record in records:
        if not record["ok"]:
            continue
        op, result = record["op"], record["result"]
        bits, per_run = reference.bound(op["program"], op["secrets"])
        if (result["bits"], result["per_run_bits"]) != (bits, per_run):
            raise GateError(
                "serve op %d: daemon measured %r bits (per run %r), "
                "reference backend %r (per run %r)"
                % (record["index"], result["bits"], result["per_run_bits"],
                   bits, per_run))
        distinct = {reference.outputs(op["program"], secret)
                    for secret in op["secrets"]}
        if len(distinct) > 2 ** bits:
            raise GateError("serve op %d: %d distinct outputs exceed "
                            "2**%d" % (record["index"], len(distinct), bits))


def _end_to_end(records, window, peak):
    latencies = [r["latency"] for r in records if r["ok"]]
    p50, p90 = latency_summary(latencies)
    return {"ops_per_s": len(latencies) / window,
            "latency_p50_s": p50,
            "latency_p90_s": p90,
            "peak_rss_mib": peak,
            "success_rate": len(latencies) / len(records)}


def _per_layer(plain, traced, before, after):
    done = [r for r in traced if "submit_s" in r]
    wall = sum(r["latency"] for r in done)
    metrics = {"serve.runs": sum(r["runs"] for r in done),
               "bench.op_wall_s": wall,
               "bench.traced_ops": len(done)}
    spanned = 0.0
    for name in ("submit", "queue_wait", "exec"):
        total = sum(r[name + "_s"] for r in done)
        metrics["serve.%s_s" % name] = total
        metrics["serve.%s_share" % name] = total / wall
        spanned += total
    for name in DAEMON_METRICS:
        delta = after[name] - before[name]
        metrics["daemon." + name] = delta
        if name.endswith(".seconds"):
            metrics["daemon." + name[:-len("seconds")] + "share"] = \
                delta / wall
    puts = (metrics["daemon.store.dedup_hits"]
            + metrics["daemon.store.shards_written"])
    metrics["daemon.store.dedup_ratio"] = (
        metrics["daemon.store.dedup_hits"] / puts if puts else 0.0)
    plain_mean = statistics.mean(r["latency"] for r in plain
                                 if "submit_s" in r)
    metrics["bench.trace_overhead_frac"] = (wall / len(done)) / plain_mean \
        - 1.0
    metrics["bench.unattributed_frac"] = 1.0 - spanned / wall
    return metrics


def run(seed, seconds, trace):
    """One run; returns ``(metrics, attempted, failed, ops,
    setup_samples)``."""
    programs = serve_programs()
    ops = OpSource("serve", seed)
    reference = _Reference(programs)
    daemons, setup = [], []
    try:
        for _ in range(1 if trace else SETUP_DAEMONS):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon())
            setup.append(daemons[-1].start())
        daemon = daemons[-1]
        loop = _Loop(daemon, ops, programs, WARMUP_JOBS)
        for index in range(WARMUP_JOBS):
            if not loop.job(index)["ok"]:
                raise BenchError("warm-up job %d failed" % index)
        if trace:
            plain, _ = loop.run(seconds / 2.0)
            before = daemon.metrics()
            records, window = loop.run(seconds / 2.0)
            after = daemon.metrics()
        else:
            records, window = loop.run(seconds, MIN_OPS)
        peak = rss_peak_mib(daemon.proc.pid)
        daemon.stop()
    finally:
        for daemon in daemons:
            daemon.close()
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    _gate(reference, loop.records)
    if trace:
        metrics = _per_layer(plain, records, before, after)
        counted, setup = plain + records, []
    else:
        metrics = _end_to_end(records, window, peak)
        counted = records
    failed = sum(1 for r in counted if not r["ok"])
    return metrics, len(counted), failed, len(records), setup
