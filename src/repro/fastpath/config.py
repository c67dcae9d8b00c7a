"""Fastpath route selection: auto thresholds, forcing, and hit counters.

Three knobs, checked in this order:

1. :func:`forced` — a context manager used by benchmarks and differential
   tests to pin one route for the current process, overriding everything;
2. ``REPRO_FASTPATH`` — ``auto`` (default), ``on`` (always dense) or
   ``off`` (always reference);
3. ``REPRO_FASTPATH_THRESHOLD`` — the work-unit cutoff for ``auto`` mode
   (default :data:`DEFAULT_THRESHOLD`).  "Work units" are
   ``states × alphabet`` for single-automaton kernels and the product of
   the state counts times the alphabet for product kernels — a proxy for
   the table size the kernel will touch.

Every selection decision increments ``fastpath.<kernel>.hit`` or
``fastpath.<kernel>.fallback`` in the global metrics registry, so a
``METRICS.report()`` after any workload shows exactly which kernels ran
dense and which fell back.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.engine.metrics import METRICS
from repro.obs.spans import annotate

MODE_ENV = "REPRO_FASTPATH"
THRESHOLD_ENV = "REPRO_FASTPATH_THRESHOLD"
VECTOR_ENV = "REPRO_FASTPATH_VECTOR"

#: Default ``auto``-mode cutoff, in work units (``states × |Σ|``).  Small
#: enough that the paper-scale examples stay on the audited reference route
#: while anything benchmark-sized goes dense.
DEFAULT_THRESHOLD = 256

_MODES = ("auto", "on", "off")

#: Process-local override installed by :func:`forced`; beats the env var.
_forced_mode: str | None = None


def fastpath_mode() -> str:
    """The effective mode: ``auto``, ``on`` or ``off``."""
    if _forced_mode is not None:
        return _forced_mode
    raw = os.environ.get(MODE_ENV, "auto").strip().lower()
    return raw if raw in _MODES else "auto"


def fastpath_threshold() -> int:
    """The ``auto``-mode work-unit cutoff (≥ 1)."""
    raw = os.environ.get(THRESHOLD_ENV)
    if raw is None:
        return DEFAULT_THRESHOLD
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_THRESHOLD
    return max(1, value)


@contextmanager
def forced(mode: str) -> Iterator[None]:
    """Pin the fastpath mode for a block (``on``/``off``/``auto``).

    Used by the benchmark runner to time both routes and by the qa oracle
    to cross-check them; nests, restoring the previous override on exit.
    """
    if mode not in _MODES:
        raise ValueError(f"fastpath mode must be one of {_MODES}, got {mode!r}")
    global _forced_mode
    previous = _forced_mode
    _forced_mode = mode
    try:
        yield
    finally:
        _forced_mode = previous


def vector_enabled() -> bool:
    """Whether the numpy/scipy backends may be used (when importable).

    That is the SCC/BFS passes of :mod:`repro.fastpath.scc` and the pair
    product's numpy BFS.  ``REPRO_FASTPATH_VECTOR=off`` pins the dense route
    to the pure-Python kernels — the qa oracle uses this to cross-check both
    backends; any other value (or unset) leaves the choice to availability
    and size.
    """
    return os.environ.get(VECTOR_ENV, "auto").strip().lower() != "off"


def kernel_selected(kernel: str, work: int) -> bool:
    """Decide the route for one kernel invocation and count the decision."""
    mode = fastpath_mode()
    if mode == "on":
        chosen = True
    elif mode == "off":
        chosen = False
    else:
        chosen = work >= fastpath_threshold()
    METRICS.counter(f"fastpath.{kernel}.{'hit' if chosen else 'fallback'}").inc()
    annotate(f"fastpath.{kernel}.route", "dense" if chosen else "reference")
    return chosen
