"""The persistent result store: classifications that survive restarts.

The in-memory :class:`~repro.engine.cache.CacheBank` dies with its process,
so every worker re-derives the same GPVW tableaux and Safra trees after
every restart.  This module is the durable tier under it: a single SQLite
file in WAL mode holding finished *wire payloads* (the JSON dicts the
protocol layer builds), keyed by a canonical structural hash of the request.

Design decisions, and why:

* **Payloads, not pickles.**  The store holds exactly what goes on the
  wire.  A store hit and a fresh computation are byte-identical to the
  client, the file is inspectable with the ``sqlite3`` CLI, and unpickling
  untrusted bytes never happens.
* **Canonical keys.**  Keys hash a *canonical text* rendering of the
  structural cache keys from :mod:`repro.engine.cache`: formula ``repr``
  round-trips structurally (PR 2), and frozenset symbols are rendered
  sorted, so the hash is stable across processes and hash-seed choices —
  ``PYTHONHASHSEED`` must not shard the store.
* **Version stamps checked on read.**  Every row carries the store schema
  version and ``repro.__version__``.  A row written by an incompatible
  release is *rejected and deleted* on read — counted in the
  ``serve.store.version_mismatch`` metric — and the caller recomputes.
  Stamping columns rather than baking versions into the hash is deliberate:
  a baked-in version would turn release skew into silent misses, while a
  checked column makes skew observable.
* **WAL for sharing.**  WAL mode allows concurrent readers (other worker
  processes attached to the same file) while one writer appends; a busy
  timeout rides out writer collisions.  Within a process a single lock
  serializes access.  The server looks a request up at admission, on its
  event loop, so :meth:`PersistentStore.get` is on the hot path of every
  request: one indexed WAL read.  It can wait on that in-process lock
  while a batch's write-through (:meth:`PersistentStore.put`) commits on
  the dispatch thread.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any

import repro
from repro.engine.metrics import METRICS, MetricsRegistry
from repro.obs.spans import span

#: Bump when the stored payload shape changes incompatibly.
STORE_SCHEMA = 1


def canonical_text(value: Any) -> str:
    """A deterministic text rendering of a structural cache key.

    ``repr`` order of sets/frozensets depends on the process hash seed, so
    unordered containers are rendered element-sorted; tuples/lists keep
    their order (alphabet symbol order is meaningful).  Everything else
    relies on ``repr`` being structural, which holds for formulas (PR 2's
    round-trip fix) and all scalar types.
    """
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(canonical_text(v) for v in value)) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical_text(v) for v in value) + ")"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    return repr(value)


def store_key(verb: str, *parts: Any) -> str:
    """The store's primary key: verb plus canonicalized structural parts."""
    text = "\x1f".join([verb, *(canonical_text(part) for part in parts)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class StoreStats:
    """A point-in-time view of one store's effectiveness (this process)."""

    path: str
    rows: int
    hits: int
    misses: int
    writes: int
    version_mismatches: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "rows": self.rows,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "version_mismatches": self.version_mismatches,
            "hit_rate": round(self.hit_rate, 4),
        }


class PersistentStore:
    """A durable ``key → payload`` map over SQLite (WAL).

    Safe for concurrent use from threads of one process (internal lock)
    and from multiple processes sharing the file (WAL + busy timeout).
    ``get``/``put`` never raise on storage trouble during serving — a
    broken disk degrades the store to always-miss, counted in
    ``serve.store.errors``, rather than failing requests.
    """

    def __init__(
        self,
        path: str,
        *,
        schema: int = STORE_SCHEMA,
        version: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.path = str(path)
        self.schema = schema
        self.version = version if version is not None else repro.__version__
        self.metrics = metrics or METRICS
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._version_mismatches = 0
        self._conn = sqlite3.connect(
            self.path, timeout=10.0, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=10000")
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS classifications (
                key     TEXT PRIMARY KEY,
                schema  INTEGER NOT NULL,
                version TEXT NOT NULL,
                verb    TEXT NOT NULL,
                payload TEXT NOT NULL,
                created REAL NOT NULL
            )
            """
        )
        self._conn.commit()

    # ------------------------------------------------------------------ core

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None`` (miss or stale).

        A row stamped by an incompatible schema or library version is
        deleted and reported as a miss, so the caller transparently
        recomputes and overwrites it with a current result.
        """
        # No span here: on the serve path the request tree's
        # ``serve.stage.store`` child times exactly this interval and the
        # root's ``source`` attribute carries hit/miss, so a span would
        # duplicate both — at several microseconds per warm request.
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT schema, version, payload FROM classifications"
                    " WHERE key = ?",
                    (key,),
                ).fetchone()
        except sqlite3.Error:
            self.metrics.counter("serve.store.errors").inc()
            row = None
        if row is None:
            with self._lock:
                self._misses += 1
            self.metrics.counter("serve.store.misses").inc()
            return None
        schema, version, payload = row
        if schema != self.schema or version != self.version:
            with self._lock:
                self._version_mismatches += 1
                self._misses += 1
                try:
                    self._conn.execute(
                        "DELETE FROM classifications WHERE key = ?", (key,)
                    )
                    self._conn.commit()
                except sqlite3.Error:
                    self.metrics.counter("serve.store.errors").inc()
            self.metrics.counter("serve.store.version_mismatch").inc()
            self.metrics.counter("serve.store.misses").inc()
            return None
        try:
            result = json.loads(payload)
        except json.JSONDecodeError:
            self.metrics.counter("serve.store.errors").inc()
            with self._lock:
                self._misses += 1
            self.metrics.counter("serve.store.misses").inc()
            return None
        with self._lock:
            self._hits += 1
        self.metrics.counter("serve.store.hits").inc()
        return result

    def put(self, key: str, verb: str, payload: dict[str, Any]) -> None:
        """Write-through one finished payload (stamped with this release)."""
        with span("serve.store.put"):
            text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
            try:
                with self._lock:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO classifications"
                        " (key, schema, version, verb, payload, created)"
                        " VALUES (?, ?, ?, ?, ?, ?)",
                        (key, self.schema, self.version, verb, text, time.time()),
                    )
                    self._conn.commit()
                    self._writes += 1
            except sqlite3.Error:
                self.metrics.counter("serve.store.errors").inc()
                return
            self.metrics.counter("serve.store.writes").inc()

    # ----------------------------------------------------------- maintenance

    def probe(self) -> bool:
        """Is the store answering queries right now?  (``/readyz`` hook.)

        One trivial read inside the lock; any :mod:`sqlite3` error —
        deleted file, corrupted page, poisoned connection — reports
        not-ready instead of raising.
        """
        with self._lock:
            try:
                self._conn.execute("SELECT 1").fetchone()
            except sqlite3.Error:
                return False
        return True

    def __len__(self) -> int:
        with self._lock:
            try:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM classifications"
                ).fetchone()
            except sqlite3.Error:
                return 0
        return int(count)

    def stats(self) -> StoreStats:
        rows = len(self)
        with self._lock:
            return StoreStats(
                path=self.path,
                rows=rows,
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                version_mismatches=self._version_mismatches,
            )

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM classifications")
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.commit()
                self._conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> PersistentStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"PersistentStore({self.path!r}, rows={s.rows}, hits={s.hits},"
            f" misses={s.misses})"
        )
