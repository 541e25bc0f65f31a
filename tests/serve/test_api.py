"""In-process daemon + HTTP API tests (ephemeral port, no telemetry)."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.graph.flowgraph import EdgeLabel, FlowGraph
from repro.serve import MeasurementDaemon, ServeConfig
from repro.store import ShardStore

PROGRAM = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    output(buf[0] & 3);
}
"""

CRASHY = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    var x: u32 = 4 / (n - n);
    output(buf[0]);
}
"""


class Client:
    def __init__(self, host, port):
        self.base = "http://%s:%d" % (host, port)

    def request(self, method, path, body=None, headers=()):
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        request = urllib.request.Request(self.base + path, method=method,
                                         data=data)
        for name, value in headers:
            request.add_header(name, value)
        try:
            with urllib.request.urlopen(request) as response:
                return (response.status, json.loads(response.read()),
                        dict(response.headers))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def wait_terminal(self, job_id, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, doc, _ = self.request("GET", "/v1/jobs/" + job_id)
            if doc["state"] in ("done", "partial", "failed", "cancelled"):
                return doc
            time.sleep(0.05)
        raise AssertionError("job %s never reached a terminal state"
                             % job_id)


@pytest.fixture
def service(tmp_path):
    daemon = MeasurementDaemon(ServeConfig(
        tmp_path / "state", port=0, telemetry=False, queue_depth=4,
        tenant_inflight=2, shed_runs=8))
    host, port = daemon.start()
    try:
        yield daemon, Client(host, port)
    finally:
        daemon.stop()


class TestLifecycle:
    def test_submit_runs_to_done(self, service):
        daemon, client = service
        status, doc, _ = client.request(
            "POST", "/v1/jobs",
            {"program": PROGRAM, "secrets": ["abcdefgh", "12345678"]})
        assert status == 202
        final = client.wait_terminal(doc["id"])
        assert final["state"] == "done"
        assert final["summary"]["bits"] == 4
        assert final["result"]["per_run_bits"] == [2, 2]
        assert final["result"]["partial"] is False
        # The anytime trail ends at the exact combined bound.
        assert final["result"]["anytime"][-1] == 4

    def test_crashy_job_completes_failed(self, service):
        daemon, client = service
        status, doc, _ = client.request(
            "POST", "/v1/jobs", {"program": CRASHY, "secrets": ["aaaa"]})
        assert status == 202
        final = client.wait_terminal(doc["id"])
        assert final["state"] == "failed"
        assert final["result"]["covered"] == 0
        assert final["result"]["failures"]

    def test_mixed_job_completes_partial(self, service):
        daemon, client = service
        # One good secret, one that divides by zero (n - n == 0 only
        # when the program crashes regardless; use two programs via two
        # jobs instead: a partial needs per-run failure, so craft a
        # program that crashes only for a specific secret byte).
        program = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    if (buf[0] == 120) {
        var x: u32 = 4 / (n - n);
    }
    output(buf[0] & 1);
}
"""
        status, doc, _ = client.request(
            "POST", "/v1/jobs",
            {"program": program, "secrets": ["abcdefgh", "xyzzyxzz"]})
        assert status == 202
        final = client.wait_terminal(doc["id"])
        assert final["state"] == "partial"
        assert final["result"]["covered"] == 1
        assert final["result"]["partial"] is True
        assert len(final["result"]["failures"]) == 1

    def test_unknown_job_404(self, service):
        daemon, client = service
        status, doc, _ = client.request("GET", "/v1/jobs/job-nope")
        assert status == 404
        status, doc, _ = client.request("DELETE", "/v1/jobs/job-nope")
        assert status == 404

    def test_invalid_spec_400(self, service):
        daemon, client = service
        status, doc, _ = client.request("POST", "/v1/jobs",
                                        {"program": ""})
        assert status == 400
        assert doc["error"] == "invalid_spec"
        status, doc, _ = client.request("POST", "/v1/jobs",
                                        {"program": "fn main() {}"})
        assert status == 400  # no secrets

    def test_cancel_terminal_job_409(self, service):
        daemon, client = service
        _, doc, _ = client.request(
            "POST", "/v1/jobs", {"program": PROGRAM, "secrets": ["ab"]})
        client.wait_terminal(doc["id"])
        status, body, _ = client.request("DELETE",
                                         "/v1/jobs/" + doc["id"])
        assert status == 409
        assert body["error"] == "already_terminal"

    def test_healthz_and_queue(self, service):
        daemon, client = service
        status, doc, _ = client.request("GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        status, doc, _ = client.request("GET", "/v1/queue")
        assert status == 200
        assert doc["limits"]["queue_depth"] == 4
        assert doc["draining"] is False

    def test_metrics_endpoint_is_openmetrics(self, service):
        daemon, client = service
        with urllib.request.urlopen(client.base + "/metrics") as response:
            assert response.status == 200
            assert "openmetrics" in response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert body.rstrip().endswith("# EOF")
        from repro import obs
        assert not obs.lint_openmetrics(body)


@pytest.fixture
def stalled_service(tmp_path):
    """A daemon whose dispatcher never runs: submissions pile up, so
    admission decisions are deterministic."""
    daemon = MeasurementDaemon(ServeConfig(
        tmp_path / "state", port=0, telemetry=False, queue_depth=4,
        tenant_inflight=2, shed_runs=8))
    daemon._dispatch_loop = lambda: None
    host, port = daemon.start()
    try:
        yield daemon, Client(host, port)
    finally:
        daemon.stop()


class TestBackpressure:
    def test_queue_full_gets_429_retry_after(self, stalled_service):
        daemon, client = stalled_service
        spec = {"program": PROGRAM, "secrets": ["abcd"]}
        statuses = []
        for i in range(5):
            status, doc, headers = client.request(
                "POST", "/v1/jobs", dict(spec, tenant="t%d" % i))
            statuses.append(status)
        assert statuses == [202, 202, 202, 202, 429]
        assert doc["error"] == "queue_full"
        assert doc["retry_after"] >= 1
        assert int(headers["Retry-After"]) >= 1

    def test_tenant_cap_is_per_tenant(self, stalled_service):
        daemon, client = stalled_service
        spec = {"program": PROGRAM, "secrets": ["abcd"], "tenant": "hog"}
        statuses = [client.request("POST", "/v1/jobs", spec)[0]
                    for _ in range(3)]
        assert statuses == [202, 202, 429]
        _, doc, _ = client.request("POST", "/v1/jobs", spec)
        assert doc["error"] == "tenant_cap"
        # Another tenant still gets in.
        status, _, _ = client.request(
            "POST", "/v1/jobs",
            {"program": PROGRAM, "secrets": ["abcd"], "tenant": "meek"})
        assert status == 202

    def test_load_shed_refuses_only_big_jobs(self, stalled_service):
        daemon, client = stalled_service
        # Fill to the shed threshold (4 * 0.75 = 3 queued jobs).
        for i in range(3):
            status, _, _ = client.request(
                "POST", "/v1/jobs",
                {"program": PROGRAM, "secrets": ["ab"],
                 "tenant": "t%d" % i})
            assert status == 202
        big = {"program": PROGRAM,
               "secrets": ["s%d" % i for i in range(9)],
               "tenant": "big"}
        status, doc, _ = client.request("POST", "/v1/jobs", big)
        assert status == 429
        assert doc["error"] == "load_shed"
        # A small job from the same tenant still fits.
        status, _, _ = client.request(
            "POST", "/v1/jobs",
            {"program": PROGRAM, "secrets": ["ab"], "tenant": "big"})
        assert status == 202

    def test_draining_daemon_returns_503(self, service):
        daemon, client = service
        daemon.initiate_drain()
        status, doc, _ = client.request(
            "POST", "/v1/jobs", {"program": PROGRAM, "secrets": ["ab"]})
        assert status == 503
        assert doc["error"] == "draining"
        status, doc, _ = client.request("GET", "/healthz")
        assert status == 503
        assert doc["status"] == "draining"


class TestCancellation:
    def test_cancel_queued_job(self, service):
        daemon, client = service
        # Freeze the dispatcher by draining nothing — simpler: submit
        # and cancel immediately; even if the job started, the stop
        # callback retires it as cancelled.
        _, doc, _ = client.request(
            "POST", "/v1/jobs",
            {"program": PROGRAM,
             "secrets": ["s%d" % i for i in range(8)]})
        status, body, _ = client.request("DELETE",
                                         "/v1/jobs/" + doc["id"])
        assert status in (202, 409)
        final = client.wait_terminal(doc["id"])
        assert final["state"] in ("cancelled", "done")


class TestKraftCheckpoint:
    @pytest.mark.parametrize("corruption", [
        {"groups": [[0, -5, -7]]},
        {"final": -7},
        {"sealed": "no"},
    ])
    def test_corrupt_checkpoint_rebuilt_from_shards(self, tmp_path,
                                                    corruption):
        # A kraft.json that matches the progress journal but carries
        # impossible values must not be trusted: the accountant is
        # rebuilt from the stored shard metadata instead of serving a
        # negative anytime bound.
        daemon = MeasurementDaemon(ServeConfig(tmp_path / "state", port=0,
                                               telemetry=False))
        try:
            graph = FlowGraph()
            graph.add_edge(graph.SOURCE, graph.SINK, 6,
                           EdgeLabel("job.fl:1", None, "io"))
            with ShardStore(tmp_path / "store") as store:
                completed = {0: {"run": 0, "bits": 6,
                                 "digest": store.put_object(graph)}}
                kraft = {"groups": [[0, 6, 6]], "next_id": 1,
                         "sealed": False, "final": None, "trail": [],
                         "updates": 0}
                kraft.update(corruption)
                path = tmp_path / "kraft.json"
                path.write_text(json.dumps({"format": "kraft-v1",
                                            "kraft": kraft, "runs": [0]}))
                rebuilt, success = daemon._load_kraft(str(path), completed,
                                                      store)
            assert success == [0]
            assert rebuilt.bits == 6
            assert not rebuilt.sealed
        finally:
            daemon.queue.close()
