"""Benchmark-owned span tracing: wraps each layer's public functions.

Nothing here touches the program's own instrumentation.  :func:`install`
replaces the named functions and methods of ``repro`` with wrappers that
record one span per call, in memory:

* spans nest per thread, so a span's *self time* is its duration minus the
  time its direct child spans cover;
* a span may carry integer attributes read off the call (the state count of
  the automaton a construction returned, the size of a serve batch);
* cache lookups are counted per cache name, hit or miss.

:func:`dump` writes the spans and counts of the current process as JSONL
(one file per process, written once, at the end).  :func:`install` also
patches the census pool so each forked worker starts with an empty span
list and dumps its own file when its task loop ends.

Used by ``launcher.py`` (the CLI under tracing) and ``fleet_worker.py``.
"""

from __future__ import annotations

import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (module, attribute path, span name, attribute extractor).  The span name
#: is the per-layer metric prefix; the extractor maps (args, result) to
#: integer span attributes.
_STATES = lambda key: lambda args, result: {key: result.num_states}  # noqa: E731

TARGETS = (
    ("repro.logic.parser", "parse_formula", "logic.parser.parse_formula", None),
    ("repro.logic.translate", "formula_to_nba", "logic.translate.formula_to_nba",
     _STATES("nba_states")),
    ("repro.omega.safra", "determinize", "omega.safra.determinize", _STATES("dra_states")),
    ("repro.omega.reduce", "quotient_reduce", "omega.reduce.quotient_reduce",
     _STATES("quotient_states")),
    ("repro.core.classifier", "formula_to_automaton",
     "core.classifier.formula_to_automaton", None),
    ("repro.core.classifier", "classify_formula", "core.classifier.classify_formula", None),
    ("repro.omega.classify", "classify", "omega.classify.classify", None),
    ("repro.omega.classify", "streett_index", "omega.classify.streett_index", None),
    ("repro.omega.classify", "obligation_degree", "omega.classify.obligation_degree", None),
    ("repro.omega.closure", "is_uniform_liveness", "omega.closure.is_uniform_liveness", None),
    ("repro.logic.classes", "analyze_syntax", "logic.classes.analyze_syntax", None),
    ("repro.census.run", "run_census", "census.run.run_census", None),
    ("repro.census.run", "classify_task", "census.run.classify_task", None),
    ("repro.serve.protocol", "decode_frame", "serve.protocol.decode", None),
    ("repro.serve.protocol", "encode_frame", "serve.protocol.encode", None),
    ("repro.serve.store", "PersistentStore.get", "serve.store.get",
     lambda args, result: {"hit": int(result is not None)}),
    ("repro.serve.store", "PersistentStore.put", "serve.store.put", None),
    ("repro.serve.server", "ClassificationServer._process_batch", "serve.server.batch",
     lambda args, result: {"size": len(args[1])}),
    ("repro.engine.batch", "EvaluationEngine.run", "engine.batch.run", None),
    ("repro.fleet.compile", "CompiledMonitor.for_formula", "fleet.compile.for_formula", None),
    ("repro.fleet.fleet", "MonitorFleet.step_aligned", "fleet.fleet.step",
     lambda args, result: {"events": len(args[1])}),
    ("repro.fleet.fleet", "MonitorFleet.step_events_columns", "fleet.fleet.step",
     lambda args, result: {"events": len(args[1])}),
)


class _Recorder:
    """This process's spans and cache counts, kept in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.cache: dict[str, list[int]] = {}
        self.local = threading.local()
        self.ids = itertools.count(1)

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack


RECORDER = _Recorder()


def _wrap(fn, name: str, extract):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder = RECORDER
        stack = recorder.stack()
        frame = [next(recorder.ids), 0.0]  # span id, time covered by direct children
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = time.perf_counter()
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if extract is not None:
                attrs = extract(args, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            recorder.spans.append(
                (name, frame[0], parent, threading.get_ident(), start, end,
                 duration - frame[1], attrs)
            )

    return traced


def _count_lookup(fn, hit_of):
    @functools.wraps(fn)
    def counted(self, key, *args, **kwargs):
        hit = hit_of(self, key)
        counts = RECORDER.cache.setdefault(self.name, [0, 0])
        counts[0 if hit else 1] += 1
        return fn(self, key, *args, **kwargs)

    return counted


def _rebind(original, replacement) -> None:
    """Point every loaded module's global that holds ``original`` at the
    replacement, so ``from x import f`` copies made before install see it."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _reset_after_fork() -> None:
    RECORDER.spans = []
    RECORDER.cache = {}
    RECORDER.local = threading.local()


def _patch(module, path: str, name: str, extract) -> None:
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(raw.__func__, name, extract)))
        else:
            setattr(owner, attr, _wrap(raw, name, extract))
    else:
        original = getattr(module, attr)
        _rebind(original, _wrap(original, name, extract))


class _PostImportHook(importlib.abc.MetaPathFinder):
    """Patches a target module right after its first import, so a traced
    process imports exactly what an untraced one does, at the same point."""

    def __init__(self, patches: dict[str, list]) -> None:
        self.patches = patches

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.patches:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        patches = self.patches.pop(fullname)

        def exec_and_patch(module):
            exec_module(module)
            for patch in patches:
                patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(out_dir: str | Path) -> None:
    """Wrap every target as its module loads; census workers dump to
    ``out_dir`` when their task loop ends."""
    out_dir = Path(out_dir)
    patches: dict[str, list] = {}
    for module_name, path, name, extract in TARGETS:
        patches.setdefault(module_name, []).append(
            functools.partial(_patch, path=path, name=name, extract=extract)
        )

    def patch_cache(module) -> None:
        cls = module.LRUCache
        cls.get = _count_lookup(cls.get, lambda cache, key: key in cache._data)
        cls.get_or_compute = _count_lookup(
            cls.get_or_compute, lambda cache, key: key in cache._data
        )

    def patch_pool(module) -> None:
        # Census workers fork from the supervisor: start each with no spans
        # of its own and dump when its task loop returns (the shutdown pill).
        worker_loop = module._worker_loop

        def traced_worker_loop(*args, **kwargs):
            _reset_after_fork()
            try:
                return worker_loop(*args, **kwargs)
            finally:
                dump(out_dir)

        module._worker_loop = traced_worker_loop

    patches.setdefault("repro.engine.cache", []).append(patch_cache)
    patches.setdefault("repro.census.pool", []).append(patch_pool)
    for module_name in list(patches):
        module = sys.modules.get(module_name)
        if module is not None:
            for patch in patches.pop(module_name):
                patch(module)
    sys.meta_path.insert(0, _PostImportHook(patches))


def dump(out_dir: str | Path) -> None:
    """Write this process's spans and cache counts as one JSONL file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    path = out_dir / f"spans-{pid}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for name, span_id, parent, tid, start, end, self_s, attrs in RECORDER.spans:
            record = {
                "name": name, "pid": pid, "id": span_id, "parent": parent,
                "tid": tid, "start": start, "end": end, "self": self_s,
            }
            if attrs:
                record["attrs"] = attrs
            handle.write(json.dumps(record) + "\n")
        for cache, (hits, misses) in sorted(RECORDER.cache.items()):
            handle.write(
                json.dumps({"cache": cache, "pid": pid, "hits": hits, "misses": misses})
                + "\n"
            )


def load(out_dir: str | Path) -> tuple[list[dict], dict[str, list[int]]]:
    """Every span and the summed cache counts from every process's file."""
    spans: list[dict] = []
    cache: dict[str, list[int]] = {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "cache" in record:
                    counts = cache.setdefault(record["cache"], [0, 0])
                    counts[0] += record["hits"]
                    counts[1] += record["misses"]
                else:
                    spans.append(record)
    return spans, cache
