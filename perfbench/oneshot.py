"""Workload ``oneshot``: one fresh ``python -m repro classify`` per formula.

Sequential calls (a closed loop of one) over a seeded corpus sample; every
fifth call takes a formula from the cold set (the largest baseline
``dra_states``, see ``common.cold_sample``).  Process start and imports
dominate each call; the classification itself is milliseconds.
"""

from __future__ import annotations

import statistics
import time

from common import (
    Result, Trace, cold_sample, launcher, layer_metrics, probe_imports, put_cold,
    put_latency, repro, run_child,
)

#: Calls per second of --seconds: sized so a run lasts about that long on
#: a 2-vCPU machine.  The count is fixed by --seconds alone, so a faster
#: program does the same work in less time.
CALLS_PER_SECOND = 1.6
PASS = 5  # calls per pass: four sampled formulas, then one cold one
SETUPS = 5
CALL_DEADLINE_S = 30.0


def _class_of(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("class:"):
            return line.split()[1]
    return None


def _sequence(ctx) -> list:
    calls = max(2 * PASS, round(ctx.seconds * CALLS_PER_SECOND / PASS) * PASS)
    cold = cold_sample(ctx.rows, calls // PASS, ctx.rng)
    picked = {row.formula for row in cold}
    rest = [row for row in ctx.rows if row.formula not in picked]
    sample = ctx.rng.sample(rest, calls - len(cold))
    sequence = []
    for index in range(len(cold)):
        sequence += [(row, False) for row in sample[index * (PASS - 1):(index + 1) * (PASS - 1)]]
        sequence.append((cold[index], True))
    return sequence


def _call(ctx, result: Result, argv: list[str], row) -> float | None:
    result.attempted += 1
    child = run_child(argv, CALL_DEADLINE_S)
    ctx.note_rss(child.maxrss_mb)
    got = _class_of(child.stdout)
    if child.timed_out or child.returncode != 0 or got != row.klass:
        result.fail(
            f"classify {row.formula!r}: exit {child.returncode},"
            f" class {got!r} (baseline {row.klass!r}),"
            f" {'timed out' if child.timed_out else 'finished'}"
        )
        return None
    return child.seconds


def setup(ctx, result: Result) -> None:
    times = []
    for _ in range(SETUPS):
        result.attempted += 1
        child = run_child(repro("--version"), CALL_DEADLINE_S)
        if child.returncode != 0 or not child.stdout.startswith("repro "):
            result.fail(f"repro --version: exit {child.returncode}")
            continue
        times.append(child.seconds)
    result.put("setup_s", statistics.median(times), "s",
               f"median of {len(times)} `repro --version` processes")


def run(ctx) -> Result:
    result = Result()
    sequence = _sequence(ctx)
    if ctx.trace:
        return _traced(ctx, result, sequence)
    setup(ctx, result)
    latencies, cold, passes = [], [], []
    for start in range(0, len(sequence), PASS):
        pass_start = time.perf_counter()
        for row, is_cold in sequence[start:start + PASS]:
            seconds = _call(ctx, result, repro("classify", row.formula), row)
            if seconds is not None:
                (cold if is_cold else latencies).append(seconds)
        passes.append(time.perf_counter() - pass_start)
    put_latency(result, latencies + cold, "classify calls")
    put_cold(result, cold, "calls on cold-set formulas")
    result.put("wall_s", statistics.median(passes), "s",
               f"median of {len(passes)} passes of {PASS} sequential calls")
    result.put("events_per_s", len(sequence) / sum(passes), "1/s", "formulas classified")
    return result


def _traced(ctx, result: Result, sequence) -> Result:
    """Half the calls traced through the launcher, half not, alternating
    formula by formula; plus ``-X importtime`` probes."""
    trace_dir = ctx.work / "trace"
    plain, traced = [], []
    for index, (row, _) in enumerate(sequence[: len(sequence) // 2]):
        pair = [(plain, repro("classify", row.formula)),
                (traced, launcher(trace_dir, "classify", row.formula))]
        for bucket, argv in pair if index % 2 == 0 else reversed(pair):
            seconds = _call(ctx, result, argv, row)
            if seconds is not None:
                bucket.append(seconds)
    trace = Trace(trace_dir)
    layer_metrics(result, trace)
    probe_imports(ctx, result, sequence[0][0].formula)
    busy = sum(span["self"] for span in trace.spans)
    result.put("trace.attributed_ratio", busy / sum(traced), "ratio",
               "traced layers' self time / traced call wall time")
    result.put("trace.overhead_ms",
               (statistics.median(traced) - statistics.median(plain)) * 1e3, "ms",
               "median traced call - median untraced call")
    return result
