"""Unit tests for the span tracer (repro.obs.spans)."""

from __future__ import annotations

import pytest

from repro.obs.spans import (
    NOOP_SPAN,
    Span,
    SpanContext,
    SpanTracer,
    SpanTree,
    TRACER,
    annotate,
    current_span,
    span,
)


@pytest.fixture
def tracer():
    t = SpanTracer()
    t.enable()
    yield t
    t.disable()


def test_disabled_tracer_yields_noop_span():
    t = SpanTracer()
    with t.span("anything", key="value") as s:
        assert s is NOOP_SPAN
        s.set_attribute("ignored", 1)  # must not raise
    assert len(t) == 0


def test_span_records_name_attributes_and_duration(tracer):
    with tracer.span("work", size=3) as s:
        s.set_attribute("extra", "yes")
    [finished] = tracer.finished()
    assert finished.name == "work"
    assert finished.attributes == {"size": 3, "extra": "yes"}
    assert finished.duration >= 0.0
    assert finished.status == "ok"
    assert finished.error is None


def test_nested_spans_parent_correctly(tracer):
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
    outer_done, = [s for s in tracer.finished() if s.name == "outer"]
    assert outer_done.parent_id is None


def test_sibling_spans_share_parent_not_each_other(tracer):
    with tracer.span("parent") as parent:
        with tracer.span("first"):
            pass
        with tracer.span("second") as second:
            assert second.parent_id == parent.span_id
    names = {s.name: s for s in tracer.finished()}
    assert names["first"].parent_id == parent.span_id
    assert names["second"].parent_id == parent.span_id


def test_exception_marks_span_error_and_propagates(tracer):
    with pytest.raises(ValueError, match="boom"):
        with tracer.span("failing"):
            raise ValueError("boom")
    [finished] = tracer.finished()
    assert finished.status == "error"
    assert finished.error == "ValueError: boom"


def test_attributes_coerced_to_scalars(tracer):
    with tracer.span("typed", flag=True, count=2, ratio=0.5, text="x", none=None) as s:
        s.set_attribute("coerced", frozenset({"a"}))
    [finished] = tracer.finished()
    assert finished.attributes["flag"] is True
    assert finished.attributes["count"] == 2
    assert isinstance(finished.attributes["coerced"], str)


def test_payload_round_trip(tracer):
    with tracer.span("original", depth=4):
        pass
    [original] = tracer.finished()
    restored = Span.from_payload(original.as_payload())
    assert restored.name == original.name
    assert restored.span_id == original.span_id
    assert restored.parent_id == original.parent_id
    assert restored.attributes == original.attributes
    assert restored.duration == pytest.approx(original.duration)


def test_activate_parents_spans_under_foreign_context(tracer):
    context = SpanContext(trace_id="tX", span_id="remote-1")
    with tracer.activate(context):
        with tracer.span("child"):
            pass
    [child] = tracer.finished()
    assert child.parent_id == "remote-1"
    assert child.trace_id == "tX"


def test_activate_none_is_noop(tracer):
    with tracer.activate(None):
        with tracer.span("root"):
            pass
    [root] = tracer.finished()
    assert root.parent_id is None


def test_capture_returns_active_context(tracer):
    assert tracer.capture() is None
    with tracer.span("open") as s:
        context = tracer.capture()
        assert context == SpanContext(s.trace_id, s.span_id)


def test_adopt_restitches_worker_roots(tracer):
    worker = SpanTracer()
    worker.enable()
    with worker.span("worker-root"):
        with worker.span("worker-leaf"):
            pass
    payloads = worker.export_payloads()
    parent = SpanContext(trace_id="tMain", span_id="main-1")
    adopted = tracer.adopt(payloads, parent)
    by_name = {s.name: s for s in adopted}
    assert by_name["worker-root"].parent_id == "main-1"
    assert by_name["worker-leaf"].parent_id == by_name["worker-root"].span_id
    assert all(s.trace_id == "tMain" for s in adopted)
    assert len(tracer) == 2


def test_capacity_cap_counts_drops():
    t = SpanTracer(capacity=2)
    t.enable()
    for _ in range(4):
        with t.span("s"):
            pass
    assert len(t) == 2
    assert t.dropped == 2


def test_export_payloads_since_slices(tracer):
    with tracer.span("a"):
        pass
    mark = len(tracer)
    with tracer.span("b"):
        pass
    payloads = tracer.export_payloads(since=mark)
    assert [p["name"] for p in payloads] == ["b"]


def _stage_tree(tracer, parent=None):
    return tracer.record_tree(
        "request",
        start=1.0,
        end=4.0,
        parent=parent,
        children={"decode": (1.0, 2.0), "store": (2.0, 3.0), "encode": (4.0, 4.0)},
        attributes={"verb": "classify"},
    )


def test_record_tree_unpacks_into_root_and_children(tracer):
    tree = _stage_tree(tracer)
    assert isinstance(tree, SpanTree)
    assert len(tree) == len(tracer) == 4
    root, *children = tracer.finished()
    assert root is tree.root
    assert (root.name, root.parent_id, root.attributes) == (
        "request", None, {"verb": "classify"}
    )
    assert [c.name for c in children] == ["decode", "store", "encode"]
    assert {c.parent_id for c in children} == {root.span_id}
    assert {c.trace_id for c in children} == {root.trace_id}
    assert len({s.span_id for s in (root, *children)}) == 4
    assert [s.span_id for s in tree] == [s.span_id for s in (root, *children)]


def test_record_tree_child_closed_later_shows_in_later_reads(tracer):
    tree = _stage_tree(tracer)
    tree.children["encode"] = (5.0, 7.0)
    encode = tracer.finished()[-1]
    assert (encode.name, encode.start, encode.end) == ("encode", 5.0, 7.0)


def test_record_tree_disabled_and_over_capacity():
    t = SpanTracer(capacity=5)
    assert _stage_tree(t) is None
    t.enable()
    _stage_tree(t)
    _stage_tree(t)  # 4 + 4 > 5: dropped whole
    assert (len(t), t.dropped) == (4, 4)
    with t.span("plain"):
        pass
    assert len(t) == 5


def test_export_payloads_since_counts_tree_spans(tracer):
    with tracer.span("a"):
        pass
    _stage_tree(tracer)
    mark = len(tracer)
    with tracer.span("b"):
        pass
    assert [p["name"] for p in tracer.export_payloads(since=mark)] == ["b"]
    # A mark inside a tree starts at that span of the tree.
    names = [p["name"] for p in tracer.export_payloads(since=3)]
    assert names == ["store", "encode", "b"]
    assert len(tracer.export_payloads()) == 6


def test_adopt_skips_an_echoed_tree_recorded_here(tracer):
    client = tracer.start_manual("client")
    tree = _stage_tree(tracer, parent=client.context())
    adopted = tracer.adopt([s.as_payload() for s in tree], client.context())
    assert adopted == []
    assert len(tracer) == 4


def test_adopt_takes_a_tree_from_another_process(tracer):
    server = SpanTracer()
    server.enable()
    server._nonce = "remote"  # as if minted under another pid
    client = tracer.start_manual("client")
    tree = _stage_tree(server, parent=client.context())
    adopted = tracer.adopt([s.as_payload() for s in tree], client.context())
    assert [s.name for s in adopted] == ["request", "decode", "store", "encode"]
    assert adopted[0].parent_id == client.span_id


def test_traced_decorator(tracer):
    @tracer.traced("decorated", tag="yes")
    def add(a, b):
        return a + b

    assert add(1, 2) == 3
    [finished] = tracer.finished()
    assert finished.name == "decorated"
    assert finished.attributes == {"tag": "yes"}


def test_tracing_context_manager_restores_state():
    t = SpanTracer()
    assert not t.enabled
    with t.tracing():
        assert t.enabled
        with t.span("inside"):
            pass
    assert not t.enabled
    assert len(t) == 1


def test_module_helpers_use_global_tracer():
    TRACER.enable()
    try:
        with span("global-span") as s:
            assert current_span() is s
            annotate("note", "here")
        [finished] = TRACER.finished()
        assert finished.attributes["note"] == "here"
    finally:
        TRACER.disable()
        TRACER.clear()


def test_annotate_is_silent_when_disabled():
    TRACER.disable()
    annotate("nothing", "happens")  # must not raise
    assert current_span() is NOOP_SPAN
