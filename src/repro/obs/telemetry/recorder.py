"""The flight recorder: the last N request traces, and every bad one.

A running server records the span tree of each completed request here.
Two bounded buffers:

* **recent** — a plain ring of the last ``capacity`` requests, whatever
  their outcome.  This is what ``/spans/recent`` serves.
* **notable** — errored requests and slow ones (duration above the rolling
  p99 of recent requests) are *also* kept in their own ring, so a burst of
  healthy traffic cannot evict the one trace you need.

Both rings hold finished :class:`~repro.obs.spans.Span` objects (a
server request's as its packed :class:`~repro.obs.spans.SpanTree`, whose
spans are built only when read), so a dump reuses ``repro.obs.export``
verbatim: :meth:`FlightRecorder.dump` writes the same deterministic JSONL
(meta line, tree order, unique span ids) that ``validate_jsonl_lines``
checks in CI.  The server wires dumps to ``SIGUSR1`` and to the sidecar's
``/recorder/dump`` route.

The slow threshold is intentionally *rolling*: a fixed cutoff is wrong for
a service whose latency spans three orders of magnitude between a store
hit and a cold Safra run.  Until ``min_samples`` durations have been seen
the threshold is undefined and only errors count as notable.  The quantile
is refreshed every :data:`RECALC_EVERY` records rather than per record —
``record`` sits on the per-request hot path, and sorting a full 1024-entry
window there costs more than the rest of the capture combined.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

from repro.obs.spans import Span, SpanTree

#: How many records the cached slow threshold may serve before the rolling
#: quantile is recomputed (amortizes the window sort off the hot path).
RECALC_EVERY = 32


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation.

    Matches ``statistics.quantiles(..., method="inclusive")`` on interior
    points but works for any single ``q`` in ``[0, 1]`` and for ``len < 2``.
    """
    if not values:
        raise ValueError("quantile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(slots=True)
class RecordedRequest:
    """One completed request: its identity, outcome, and span tree."""

    request_id: Any
    verb: str
    duration_s: float
    status: str  #: "ok" or "error"
    wall_time: float  #: time.time() at completion (for humans; not in spans)
    notable: str | None = None  #: None, "error", or "slow"
    spans: list[Span] | SpanTree = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "verb": self.verb,
            "duration_ms": round(self.duration_s * 1e3, 3),
            "status": self.status,
            "wall_time": self.wall_time,
            "notable": self.notable,
            "spans": len(self.spans),
        }

    def as_dict(self) -> dict[str, Any]:
        payload = self.summary()
        payload["spans"] = [span.as_payload() for span in self.spans]
        return payload


class FlightRecorder:
    """Bounded capture of completed request traces (thread-safe)."""

    def __init__(
        self,
        *,
        capacity: int = 256,
        notable_capacity: int = 64,
        quantile_window: int = 1024,
        min_samples: int = 32,
        slow_quantile: float = 0.99,
    ) -> None:
        if capacity < 1 or notable_capacity < 1:
            raise ValueError("recorder capacities must be >= 1")
        self.min_samples = min_samples
        self.slow_quantile = slow_quantile
        self._lock = threading.Lock()
        self._recent: deque[RecordedRequest] = deque(maxlen=capacity)
        self._notable: deque[RecordedRequest] = deque(maxlen=notable_capacity)
        self._durations: deque[float] = deque(maxlen=quantile_window)
        self._recorded = 0
        self._notable_count = 0
        self._threshold: float | None = None
        self._since_recalc = RECALC_EVERY  # force a compute on first use

    # ------------------------------------------------------------- recording

    def _threshold_locked(self) -> float | None:
        """The cached slow cutoff, refreshed every ``RECALC_EVERY`` records.

        Caller holds ``self._lock``.
        """
        if len(self._durations) < self.min_samples:
            return None
        if self._threshold is None or self._since_recalc >= RECALC_EVERY:
            self._threshold = quantile(list(self._durations), self.slow_quantile)
            self._since_recalc = 0
        return self._threshold

    def slow_threshold(self) -> float | None:
        """The current "slow" cutoff in seconds, or ``None`` while warming up."""
        with self._lock:
            return self._threshold_locked()

    def record(
        self,
        *,
        request_id: Any,
        verb: str,
        duration_s: float,
        spans: Sequence[Span] | SpanTree = (),
        error: bool = False,
    ) -> RecordedRequest:
        """Capture one completed request; returns the recorded entry.

        The slow judgement uses the threshold *before* this request's
        duration joins the window, so a lone slow request in a quiet
        stretch is still flagged.
        """
        entry = RecordedRequest(
            request_id=request_id,
            verb=verb,
            duration_s=duration_s,
            status="error" if error else "ok",
            wall_time=time.time(),
            # A packed tree is kept packed: it builds its spans when read.
            spans=spans if isinstance(spans, SpanTree) else list(spans),
        )
        with self._lock:
            threshold = self._threshold_locked()
            if error:
                entry.notable = "error"
            elif threshold is not None and duration_s > threshold:
                entry.notable = "slow"
            self._recent.append(entry)
            self._durations.append(duration_s)
            self._since_recalc += 1
            self._recorded += 1
            if entry.notable is not None:
                self._notable.append(entry)
                self._notable_count += 1
        return entry

    # --------------------------------------------------------------- reading

    def recent(self, n: int | None = None) -> list[RecordedRequest]:
        """The last ``n`` requests (all buffered ones if ``None``), oldest first."""
        with self._lock:
            entries = list(self._recent)
        return entries if n is None else entries[-n:]

    def notable(self, n: int | None = None) -> list[RecordedRequest]:
        with self._lock:
            entries = list(self._notable)
        return entries if n is None else entries[-n:]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            buffered = len(self._recent)
            notable_buffered = len(self._notable)
            recorded = self._recorded
            notable_count = self._notable_count
        threshold = self.slow_threshold()
        return {
            "recorded": recorded,
            "buffered": buffered,
            "notable": notable_count,
            "notable_buffered": notable_buffered,
            "slow_threshold_ms": (
                round(threshold * 1e3, 3) if threshold is not None else None
            ),
        }

    # --------------------------------------------------------------- dumping

    def _dump_spans(self) -> list[Span]:
        """Every buffered span, deduplicated (an entry can sit in both rings).

        A request root's parent may live outside the recorder entirely — it
        is the *client's* wire-propagated span.  The dump detaches those
        cross-boundary parents so the document stays self-contained (the
        schema requires parents to be defined on an earlier line).
        """
        seen: set[str] = set()
        spans: list[Span] = []
        with self._lock:
            entries = list(self._recent) + list(self._notable)
        for entry in entries:
            for span in entry.spans:
                if span.span_id in seen:
                    continue
                seen.add(span.span_id)
                spans.append(span)
        return [
            replace(span, parent_id=None)
            if span.parent_id is not None and span.parent_id not in seen
            else span
            for span in spans
        ]

    def dump_lines(self) -> list[str]:
        """The buffered traces as a schema-valid JSONL document (see
        ``repro.obs.export.validate_jsonl_lines``)."""
        from repro.obs.export import jsonl_lines

        return jsonl_lines(self._dump_spans())

    def dump(self, path: str | Path) -> int:
        """Write the JSONL document to ``path``; returns the span count."""
        lines = self.dump_lines()
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return len(lines) - 1
