"""Workload ``census``: ``python -m repro census formulas --jobs 2``.

The whole committed corpus through the crash-isolated pool, checked against
the committed baseline on every pass.  All of the work is the
parse -> GPVW -> Safra -> quotient -> Wagner pipeline plus the pool.
"""

from __future__ import annotations

import csv
import re
import statistics
from collections import defaultdict

from common import (
    BASELINE, CORPUS, Result, Trace, cold_sample, launcher, layer_metrics,
    probe_imports, put_cold, put_latency, repro, run_child,
)

JOBS = "2"
SECONDS_PER_PASS = 4.5  # passes per run = --seconds / this (a fixed count)
SETUPS = 3
COLD_ROWS = 100
PASS_DEADLINE_S = 60.0
TRACED_PAIRS = 2


def _census(*, out, corpus=CORPUS) -> list[str]:
    return ["census", str(corpus), "--jobs", JOBS, "--check", str(BASELINE), "--out", str(out)]


def _read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _checked_pass(ctx, result: Result, argv: list[str], out, expected: dict):
    """One census run: ``(rows, seconds)``, rows ``None`` when it produced
    none.  Every formula counts as one attempted operation."""
    result.attempted += len(expected)
    if out.exists():
        out.unlink()
    child = run_child(argv, PASS_DEADLINE_S)
    ctx.note_rss(child.maxrss_mb)
    if child.timed_out or not out.exists():
        result.failed += len(expected)
        result.failures.append(
            f"census exit {child.returncode}{' (timed out)' if child.timed_out else ''}:"
            f" {child.stderr.strip()[-200:]}"
        )
        return None, child.seconds
    rows = _read_rows(out)
    seen = {row["formula"] for row in rows}
    for formula in expected.keys() - seen:
        result.fail(f"census produced no row for {formula!r}")
    for row in rows:
        if row["status"] != "ok" or row["class"] != expected.get(row["formula"]):
            result.fail(f"census row {row['formula']!r}: {row['status']} {row['class']!r}")
    problems = re.search(r"\((\d+) problem\(s\)", child.stdout)
    if child.returncode != 0:
        # --check compares every semantic column, not only the class.
        result.fail(f"census --check failed: exit {child.returncode}"
                    f" ({problems.group(1) if problems else '?'} problems)")
    return rows, child.seconds


def setup(ctx, result: Result) -> None:
    """``census`` on a one-formula corpus: interpreter, imports, pool spawn
    and the first row's warm-up, but no real corpus."""
    row = ctx.rng.choice(ctx.rows)
    corpus = ctx.work / "one.ltl"
    corpus.write_text(row.formula + "\n", encoding="utf-8")
    out = ctx.work / "one.csv"
    times = []
    for _ in range(SETUPS):
        failed = result.failed
        _, seconds = _checked_pass(
            ctx, result, repro(*_census(out=out, corpus=corpus)), out, {row.formula: row.klass}
        )
        if result.failed == failed:
            times.append(seconds)
    result.put("setup_s", statistics.median(times), "s",
               f"median of {len(times)} one-formula censuses")


def run(ctx) -> Result:
    result = Result()
    expected = {row.formula: row.klass for row in ctx.rows}
    out = ctx.work / "census.csv"
    if ctx.trace:
        return _traced(ctx, result, expected, out)
    setup(ctx, result)
    cold = {row.formula for row in cold_sample(ctx.rows, COLD_ROWS, ctx.rng)}
    passes = max(2, round(ctx.seconds / SECONDS_PER_PASS))
    walls, row_ms, cold_ms = [], [], []
    for _ in range(passes):
        rows, seconds = _checked_pass(ctx, result, repro(*_census(out=out)), out, expected)
        if rows is None:
            continue
        walls.append(seconds)
        for row in rows:
            row_ms.append(float(row["wall_ms"]) / 1e3)
            if row["formula"] in cold:
                cold_ms.append(float(row["wall_ms"]) / 1e3)
    put_latency(result, row_ms, "census rows (the pool's per-formula wall_ms)")
    put_cold(result, cold_ms, "rows of cold-set formulas")
    result.put("wall_s", statistics.median(walls), "s",
               f"median of {len(walls)} whole-corpus censuses ({len(expected)} formulas)")
    result.put("events_per_s", len(expected) * len(walls) / sum(walls), "1/s",
               "formulas classified")
    return result


def _traced(ctx, result: Result, expected: dict, out) -> Result:
    """Untraced and traced passes, alternating; the layer figures are those
    of the first traced pass (one census's worth of calls and states)."""
    plain, traced = [], []
    for index in range(TRACED_PAIRS):
        trace_dir = ctx.work / f"trace{index}"
        _, seconds = _checked_pass(ctx, result, repro(*_census(out=out)), out, expected)
        plain.append(seconds)
        _, seconds = _checked_pass(
            ctx, result, launcher(trace_dir, *_census(out=out)), out, expected
        )
        traced.append(seconds)
    trace_dir = ctx.work / "trace0"
    trace = Trace(trace_dir)
    layer_metrics(result, trace)
    tasks = trace.by_name["census.run.classify_task"]
    by_worker = defaultdict(list)
    for span in tasks:
        by_worker[span["pid"]].append(span)
    first = [min(spans, key=lambda s: s["start"]) for spans in by_worker.values()]
    result.put("census.pool.first_task_ms",
               statistics.mean(s["end"] - s["start"] for s in first) * 1e3, "ms",
               f"mean over {len(first)} workers")
    busy = trace.total_ms("census.run.classify_task")
    result.put("census.pool.busy_ratio",
               busy / (len(by_worker) * trace.total_ms("census.run.run_census")), "ratio")
    result.put("trace.attributed_ratio",
               1.0 - trace.self_ms("census.run.classify_task") / busy, "ratio",
               "named layers' self time / worker task time")
    traced, plain = statistics.median(traced), statistics.median(plain)
    result.put("trace.overhead_ms", (traced - plain) * 1e3, "ms",
               f"median traced {traced:.3f}s - untraced {plain:.3f}s census")
    probe_imports(ctx, result, ctx.rows[0].formula)
    return result
