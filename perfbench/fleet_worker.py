"""The measured process of the ``fleet`` workload.

    python perfbench/fleet_worker.py SPEC_JSON

``SPEC_JSON`` holds ``formula``, ``streams``, ``seed``, ``passes``,
``pairs`` (batch pairs per pass), ``sample`` (streams checked) and
``trace_dir`` (or null).  The worker compiles the property, builds a fleet, prints a ready
timestamp (``time.perf_counter``, the monotonic clock its parent shares on
Linux), and with ``passes`` > 0 steps a fresh fleet through the same seeded
batch sequence once per pass, timing each pass and its first batch.  After each pass it
checks the verdicts and positions of a sample of streams against the
scalar ``PrefixMonitor`` loop.  The last line of output is a JSON result.
Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path


def _batches(alphabet, spec) -> list:
    """``pairs`` of an aligned row (one symbol per stream) and a sparse
    columnar batch (ids with repeats, symbols) for half as many events."""
    rng = random.Random(spec["seed"])
    symbols = list(alphabet)
    streams = spec["streams"]
    batches = []
    for _ in range(spec["pairs"]):
        batches.append(("aligned", [rng.choice(symbols) for _ in range(streams)]))
        ids = [rng.randrange(streams) for _ in range(streams // 2)]
        batches.append(("sparse", (ids, [rng.choice(symbols) for _ in ids])))
    return batches


def _reference(compiled, batches, sample: list[int]) -> list[tuple]:
    """Verdict and position of each sampled stream, by the scalar loop."""
    from repro.fleet.fleet import scalar_monitors

    monitors = dict(zip(sample, scalar_monitors(compiled, len(sample))))
    for kind, batch in batches:
        if kind == "aligned":
            for stream, monitor in monitors.items():
                monitor.step(batch[stream])
        else:
            for stream, symbol in zip(*batch):
                if stream in monitors:
                    monitors[stream].step(symbol)
    return [(monitors[s].verdict, monitors[s].position) for s in sample]


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["trace_dir"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        tracer.install(spec["trace_dir"])
    from repro.fleet import CompiledMonitor, MonitorFleet
    from repro.logic import parse_formula

    compiled = CompiledMonitor.for_formula(parse_formula(spec["formula"]), use_cache=False)
    fleet = MonitorFleet(compiled, spec["streams"])
    ready = time.perf_counter()
    out = {"ready": ready, "first_s": [], "pass_s": [], "events": 0,
           "checked": 0, "mismatches": 0}
    if spec["passes"]:
        batches = _batches(compiled.alphabet, spec)
        out["events"] = sum(len(b) if k == "aligned" else len(b[0]) for k, b in batches)
        sample = random.Random(spec["seed"] + 1).sample(range(spec["streams"]), spec["sample"])
        expected = _reference(compiled, batches, sample)
        for _ in range(spec["passes"]):
            start = time.perf_counter()
            fleet = MonitorFleet(compiled, spec["streams"])
            for index, (kind, batch) in enumerate(batches):
                if kind == "aligned":
                    fleet.step_aligned(batch)
                else:
                    fleet.step_events_columns(*batch)
                if index == 0:
                    out["first_s"].append(time.perf_counter() - start)
            out["pass_s"].append(time.perf_counter() - start)
            verdicts, positions = fleet.verdicts(), fleet.positions()
            got = [(verdicts[s], positions[s]) for s in sample]
            out["checked"] += len(sample)
            out["mismatches"] += sum(g != e for g, e in zip(got, expected))
    if spec["trace_dir"]:
        tracer.dump(spec["trace_dir"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
