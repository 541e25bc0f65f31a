"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {compress,image,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports its per-layer
ledger instead.  The workload's ops are generated from ``--seed``
(``workloads.py``) and every result is checked against the
``reference`` backend after the timed window; a mismatch exits 1
without printing metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines above it give each metric with its unit and sample count,
and the run's context (backend, Python, nproc, seed, ops), so results
from different backends are never mistaken for each other.

The program under test is the checkout's own ``src/repro``; without it
the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from ledger import BenchError, GateError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh-process set-ups timed per ``compress``/``image`` run; the
#: reported ``setup_s`` is their median.
SETUP_PROBES = 5


def load_program():
    """Put the checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError("no program to measure: %s/repro is missing"
                         % os.path.relpath(SRC, ROOT))
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError("imported repro from %s, not from the checkout"
                         % repro.__file__)


def load_spec():
    try:
        with open(SPEC) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError("cannot read BENCHMARK.json: %s" % error)


def context(args, ops):
    from repro.shadow import resolve_backend
    from repro.shadow.fast import native_available
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "ops": ops,
            "backend": resolve_backend(None),
            "native_available": native_available(),
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def time_setup_probes(workload, seed):
    """Seconds from spawning a fresh benchmark process until it can
    start its first op, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError("set-up probe failed (exit %s, said %r)"
                             % (code, line))
    return samples


def measure(args):
    """Run the workload; returns ``(metrics, attempted, failed, ops,
    setup_samples)``."""
    if args.workload == "serve":
        import service
        return service.run(args.seed, args.seconds, args.trace)
    import single
    setup = [] if args.trace else time_setup_probes(args.workload,
                                                    args.seed)
    return single.run(args.workload, args.seed, args.seconds,
                      args.trace) + (setup,)


def render(spec, args, metrics, ops, setup):
    """Select and check the metrics of this mode; print the human
    lines; returns the JSON ``metrics`` object."""
    entries = spec["per_layer"] if args.trace else spec["end_to_end"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    declared = {entry["name"] for entry in entries}
    undeclared = set(metrics) - declared
    unmeasured = set() if args.trace else declared - set(metrics)
    if undeclared or unmeasured:
        raise BenchError("metrics not in BENCHMARK.json: %s; declared but "
                         "not measured: %s" % (sorted(undeclared),
                                               sorted(unmeasured)))
    out = {}
    print("%s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for entry in entries:
        name = entry["name"]
        # A layer the workload never calls reports zero work.
        value = metrics.get(name, 0)
        out[name] = {"value": value, "unit": entry["unit"]}
        samples = len(setup) if name == "setup_s" else ops
        print("  %-34s %14.6g %-8s n=%d"
              % (name, value, entry["unit"], samples))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compress", "image", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--gate", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        spec = load_spec()
        load_program()
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    if args.setup_probe:
        import single
        single.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.gate:
        import single
        single.gate_worker(args.workload, args.seed, sys.stdin, sys.stdout)
        return 0
    try:
        metrics, attempted, failed, ops, setup = measure(args)
        out = render(spec, args, metrics, ops, setup)
    except (BenchError, GateError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print("context: " + json.dumps(context(args, ops), sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
