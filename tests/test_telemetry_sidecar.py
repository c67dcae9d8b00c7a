"""Tests for the HTTP telemetry sidecar: routes, probes, failure modes."""

import json
import urllib.error
import urllib.request

import pytest

from repro.engine.metrics import MetricsRegistry
from repro.obs.export import validate_jsonl_lines
from repro.obs.spans import TRACER
from repro.obs.telemetry.heartbeat import Heartbeat, HeartbeatRegistry
from repro.obs.telemetry.recorder import FlightRecorder
from repro.obs.telemetry.sidecar import PROMETHEUS_CONTENT_TYPE, TelemetrySidecar


def fetch(sidecar, path):
    """GET a sidecar route; (status, content-type, body) without raising."""
    try:
        with urllib.request.urlopen(sidecar.url + path, timeout=10.0) as reply:
            return reply.status, reply.headers.get("Content-Type"), reply.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read()


@pytest.fixture()
def full_sidecar():
    """A sidecar with every hook wired, on an ephemeral port."""
    metrics = MetricsRegistry()
    metrics.histogram("serve.latency_ms", (1, 5, 10)).observe(3.0)
    metrics.counter("serve.responses_ok").inc()
    recorder = FlightRecorder()
    TRACER.enable()
    tree = TRACER.record_tree("serve.request", start=0.0, end=0.01, children={})
    recorder.record(request_id=1, verb="classify", duration_s=0.01, spans=tree)
    TRACER.disable()
    TRACER.clear()
    state = {"draining": False}
    beats = HeartbeatRegistry()
    beats.register(Heartbeat("census", total=10))
    sidecar = TelemetrySidecar(
        port=0,
        metrics=metrics,
        recorder=recorder,
        stats_fn=lambda: {"health": {"status": "ok"}},
        healthy_fn=lambda: (not state["draining"], {"draining": state["draining"]}),
        ready_fn=lambda: (not state["draining"], {"store": "ok"}),
        heartbeats=beats,
    )
    with sidecar:
        yield sidecar, state


class TestRoutes:
    def test_ephemeral_port_is_published(self, full_sidecar):
        sidecar, _ = full_sidecar
        assert sidecar.port > 0
        assert str(sidecar.port) in sidecar.url

    def test_metrics_prometheus_text(self, full_sidecar):
        sidecar, _ = full_sidecar
        status, content_type, body = fetch(sidecar, "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        text = body.decode()
        assert "repro_serve_latency_ms_bucket" in text
        assert 'le="' in text
        assert "repro_serve_responses_ok" in text

    def test_healthz_flips_to_503_when_draining(self, full_sidecar):
        sidecar, state = full_sidecar
        status, _, body = fetch(sidecar, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        state["draining"] = True
        status, _, body = fetch(sidecar, "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "unavailable"

    def test_readyz(self, full_sidecar):
        sidecar, state = full_sidecar
        status, _, body = fetch(sidecar, "/readyz")
        assert status == 200
        assert json.loads(body)["store"] == "ok"
        state["draining"] = True
        assert fetch(sidecar, "/readyz")[0] == 503

    def test_spans_recent(self, full_sidecar):
        sidecar, _ = full_sidecar
        status, _, body = fetch(sidecar, "/spans/recent?n=5")
        assert status == 200
        payload = json.loads(body)
        assert len(payload["requests"]) == 1
        entry = payload["requests"][0]
        assert entry["verb"] == "classify"
        assert payload["recorder"]["recorded"] == 1

    def test_recorder_dump_is_schema_valid(self, full_sidecar):
        sidecar, _ = full_sidecar
        status, _, body = fetch(sidecar, "/recorder/dump")
        assert status == 200
        assert validate_jsonl_lines(body.decode().splitlines()) == []

    def test_progress_lists_heartbeats(self, full_sidecar):
        sidecar, _ = full_sidecar
        status, _, body = fetch(sidecar, "/progress")
        assert status == 200
        jobs = json.loads(body)["jobs"]
        assert jobs["census"]["total"] == 10

    def test_unknown_route_404(self, full_sidecar):
        sidecar, _ = full_sidecar
        assert fetch(sidecar, "/nope")[0] == 404

    def test_trailing_slash_is_tolerated(self, full_sidecar):
        sidecar, _ = full_sidecar
        assert fetch(sidecar, "/healthz/")[0] == 200


class TestDegradedWiring:
    def test_missing_hooks_answer_404_but_health_stays_up(self):
        with TelemetrySidecar(port=0) as sidecar:
            # Liveness needs no hook: a process that serves /metrics only is
            # still alive.
            status, _, body = fetch(sidecar, "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok"}
            assert fetch(sidecar, "/stats")[0] == 404
            assert fetch(sidecar, "/spans/recent")[0] == 404
            assert fetch(sidecar, "/recorder/dump")[0] == 404

    def test_metrics_empty_without_registry(self):
        with TelemetrySidecar(port=0) as sidecar:
            status, _, body = fetch(sidecar, "/metrics")
            assert status == 200
            assert body == b""

    def test_handler_exception_answers_500_and_keeps_serving(self):
        def broken():
            raise RuntimeError("stats backend gone")

        with TelemetrySidecar(port=0, stats_fn=broken) as sidecar:
            status, _, body = fetch(sidecar, "/stats")
            assert status == 500
            assert "stats backend gone" in json.loads(body)["error"]
            # The serving thread survived the exception.
            assert fetch(sidecar, "/healthz")[0] == 200

    def test_bad_n_parameter_falls_back_to_default(self):
        recorder = FlightRecorder()
        recorder.record(request_id=1, verb="classify", duration_s=0.01)
        with TelemetrySidecar(port=0, recorder=recorder) as sidecar:
            assert fetch(sidecar, "/spans/recent?n=frogs")[0] == 200
            # n is clamped to at least 1.
            status, _, body = fetch(sidecar, "/spans/recent?n=-3")
            assert status == 200
            assert len(json.loads(body)["requests"]) == 1

    def test_stop_is_idempotent(self):
        sidecar = TelemetrySidecar(port=0)
        sidecar.start()
        sidecar.stop()
        sidecar.stop()
