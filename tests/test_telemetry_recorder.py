"""Tests for the flight recorder and its rolling slow-threshold logic."""

import pytest

from repro.obs.export import validate_jsonl_lines
from repro.obs.spans import TRACER
from repro.obs.telemetry.recorder import RECALC_EVERY, FlightRecorder, quantile


@pytest.fixture()
def tracer():
    TRACER.enable()
    TRACER.clear()
    yield TRACER
    TRACER.disable()
    TRACER.clear()


class TestQuantile:
    def test_single_value(self):
        assert quantile([7.0], 0.99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_median_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_unsorted_input(self):
        assert quantile([9.0, 1.0, 5.0], 0.5) == 5.0


class TestRecording:
    def test_recent_is_a_ring(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record(request_id=i, verb="classify", duration_s=0.001)
        entries = recorder.recent()
        assert [e.request_id for e in entries] == [2, 3, 4]

    def test_errors_are_notable_even_while_warming_up(self):
        recorder = FlightRecorder(min_samples=32)
        recorder.record(request_id=1, verb="classify", duration_s=0.001, error=True)
        assert [e.request_id for e in recorder.notable()] == [1]
        assert recorder.notable()[0].notable == "error"

    def test_no_slow_threshold_before_min_samples(self):
        recorder = FlightRecorder(min_samples=10)
        for i in range(9):
            recorder.record(request_id=i, verb="classify", duration_s=0.001)
        assert recorder.slow_threshold() is None

    def test_slow_request_flagged_against_rolling_p99(self):
        recorder = FlightRecorder(min_samples=8)
        for i in range(50):
            recorder.record(request_id=i, verb="classify", duration_s=0.001)
        slow = recorder.record(request_id="slow", verb="classify", duration_s=0.5)
        assert slow.notable == "slow"
        assert recorder.notable()[-1].request_id == "slow"

    def test_threshold_refresh_is_amortized(self):
        recorder = FlightRecorder(min_samples=4)
        for i in range(8):
            recorder.record(request_id=i, verb="classify", duration_s=0.001)
        first = recorder.slow_threshold()
        assert first == pytest.approx(0.001)
        # A burst of much slower requests shorter than the recalc period
        # does not move the cached threshold yet…
        for i in range(RECALC_EVERY // 2):
            recorder.record(request_id=f"b{i}", verb="classify", duration_s=1.0)
        assert recorder.slow_threshold() == first
        # …but a full period later the rolling quantile has caught up.
        for i in range(2 * RECALC_EVERY):
            recorder.record(request_id=f"c{i}", verb="classify", duration_s=1.0)
        assert recorder.slow_threshold() > first

    def test_judgement_precedes_the_duration_joining_the_window(self):
        recorder = FlightRecorder(min_samples=4, quantile_window=8)
        for i in range(8):
            recorder.record(request_id=i, verb="classify", duration_s=0.001)
        # The very first slow request is judged against the old window.
        assert (
            recorder.record(request_id="s", verb="classify", duration_s=9.0).notable
            == "slow"
        )

    def test_stats_counts(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(4):
            recorder.record(
                request_id=i, verb="classify", duration_s=0.001, error=(i == 0)
            )
        stats = recorder.stats()
        assert stats["recorded"] == 4
        assert stats["buffered"] == 2
        assert stats["notable"] == 1


class TestDump:
    def test_dump_is_schema_valid(self, tracer, tmp_path):
        recorder = FlightRecorder()
        tree = tracer.record_tree(
            "serve.request",
            start=0.0,
            end=0.01,
            children={"serve.stage.decode": (0.0, 0.001)},
        )
        recorder.record(request_id=1, verb="classify", duration_s=0.01, spans=tree)
        assert validate_jsonl_lines(recorder.dump_lines()) == []
        path = tmp_path / "dump.jsonl"
        count = recorder.dump(path)
        assert count == 2
        assert validate_jsonl_lines(path.read_text().splitlines()) == []

    def test_dump_detaches_cross_boundary_parents(self, tracer):
        """A root parented on the *client's* wire span (absent from the
        recorder) must dump as a root, not as an orphaned child."""
        recorder = FlightRecorder()
        client_span = tracer.start_manual("serve.client.request")
        tree = tracer.record_tree(
            "serve.request", start=0.0, end=0.01, parent=client_span, children={}
        )
        root = tree.root
        recorder.record(request_id=1, verb="classify", duration_s=0.01, spans=tree)
        assert validate_jsonl_lines(recorder.dump_lines()) == []
        # The in-memory span is untouched: only the dumped copy detaches.
        assert root.parent_id == client_span.span_id

    def test_dump_dedupes_across_rings(self, tracer):
        recorder = FlightRecorder(min_samples=1)
        span = tracer.record_tree(
            "serve.request", start=0.0, end=0.01, children={}
        ).root
        # An errored request lands in both recent and notable.
        recorder.record(
            request_id=1, verb="classify", duration_s=0.01, spans=(span,), error=True
        )
        lines = recorder.dump_lines()
        assert len(lines) == 2  # meta line + exactly one span
