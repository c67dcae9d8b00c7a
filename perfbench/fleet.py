"""Workload ``fleet``: one compiled property stepping 10 000 streams.

The only workload that runs ``repro.fleet``; the classification pipeline
runs once, when the property compiles.  The property is a seeded corpus
formula over two propositions with a small automaton, so every seed
exercises the same kind of table.  Each pass builds a fresh
``MonitorFleet`` and feeds it the same seeded sequence of aligned rows and
sparse columnar batches (see ``fleet_worker.py``).
"""

from __future__ import annotations

import json
import statistics

from common import (
    HERE, PYTHON, Result, Trace, layer_metrics, probe_imports, put_cold,
    put_latency, run_child,
)

STREAMS = 10_000
PAIRS = 10  # aligned + sparse batch pairs per pass
PASSES_PER_SECOND = 25  # sized so a run lasts about --seconds on 2 vCPUs
SAMPLE = 64  # streams checked against the scalar loop after every pass
SETUPS = 3
DEADLINE_S = 120.0


def _worker(ctx, result: Result, formula: str, seed: int, passes: int, trace_dir=None):
    spec = {"formula": formula, "streams": STREAMS, "seed": seed, "passes": passes,
            "pairs": PAIRS, "sample": SAMPLE,
            "trace_dir": str(trace_dir) if trace_dir else None}
    result.attempted += 1
    child = run_child([PYTHON, str(HERE / "fleet_worker.py"), json.dumps(spec)], DEADLINE_S)
    ctx.note_rss(child.maxrss_mb)
    try:
        out = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = None
    if child.timed_out or child.returncode != 0 or out is None:
        result.fail(f"fleet worker exit {child.returncode}: {child.stderr.strip()[-300:]}")
        return None
    # Ready time on the shared monotonic clock, less the child's start.
    out["setup_s"] = out["ready"] - child.started
    result.attempted += out["checked"]
    for _ in range(out["mismatches"]):
        result.fail(f"fleet and scalar monitors disagree on {formula!r}")
    return out


def _property(ctx) -> str:
    candidates = [r for r in ctx.rows if len(r.props) == 2 and 3 <= r.automaton_states <= 8]
    return ctx.rng.choice(candidates).formula


def run(ctx) -> Result:
    result = Result()
    formula = _property(ctx)
    seed = ctx.rng.randrange(2**31)
    passes = max(2, ctx.seconds * PASSES_PER_SECOND)
    if ctx.trace:
        return _traced(ctx, result, formula, seed, passes)
    setups = [_worker(ctx, result, formula, seed, 0) for _ in range(SETUPS)]
    main = _worker(ctx, result, formula, seed, passes)
    setups = [s["setup_s"] for s in [*setups, main] if s is not None]
    result.put("setup_s", statistics.median(setups), "s",
               f"median of {len(setups)} processes: imports, compile, construct")
    # A pass (a fresh fleet through the whole batch sequence) is the
    # operation: single batch times are too short to carry a steady tail
    # past scheduler and collector pauses.
    put_latency(result, main["pass_s"], f"passes of {main['events']} events")
    put_cold(result, main["first_s"], "first batches of a fresh fleet")
    result.put("wall_s", sum(main["pass_s"]), "s", f"all {passes} passes")
    result.put("events_per_s", main["events"] * passes / sum(main["pass_s"]), "1/s",
               f"stream events stepped ({formula!r})")
    return result


def _traced(ctx, result: Result, formula: str, seed: int, passes: int) -> Result:
    """Half the passes in an untraced worker, half in a traced one."""
    half = max(1, passes // 2)
    plain = _worker(ctx, result, formula, seed, half)
    trace_dir = ctx.work / "trace"
    traced = _worker(ctx, result, formula, seed, half, trace_dir)
    trace = Trace(trace_dir)
    layer_metrics(result, trace)
    result.put("fleet.compile.for_formula_ms", trace.total_ms("fleet.compile.for_formula"), "ms")
    result.put("fleet.fleet.step_ms", trace.mean_ms("fleet.fleet.step"), "ms",
               f"mean of {trace.calls('fleet.fleet.step')} steps")
    steps = trace.calls("fleet.fleet.step")
    result.put("fleet.fleet.events_per_step",
               trace.attr_sum("fleet.fleet.step", "events") / steps, "count")
    stepping = trace.total_ms("fleet.fleet.step")
    result.put("trace.attributed_ratio", stepping / (sum(traced["pass_s"]) * 1e3), "ratio",
               "step spans / pass wall time")
    result.put("trace.overhead_ms",
               (statistics.median(traced["pass_s"]) - statistics.median(plain["pass_s"])) * 1e3,
               "ms", "median pass traced - untraced")
    probe_imports(ctx, result, formula)
    return result
