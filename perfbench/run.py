"""End-to-end benchmark of the hierarchy classifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``README.md`` beside this
file): ``oneshot``, ``census``, ``serve_mixed``, ``fleet``; ``all`` runs the
four in turn and prints one table.  Every input is drawn with ``--seed``
from the committed ``formulas/`` corpus, and every answer is checked
against ``formulas/census_baseline.csv``.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs the workload with the
benchmark's own span wrappers (``tracer.py``) and reports the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status 0 when the run completed, 2 when the checkout cannot run it.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import census  # noqa: E402
import common  # noqa: E402
import fleet  # noqa: E402
import oneshot  # noqa: E402
import serve  # noqa: E402

WORKLOADS = {
    "oneshot": oneshot.run,
    "census": census.run,
    "serve_mixed": serve.run,
    "fleet": fleet.run,
}


@dataclass
class Context:
    """One run's settings and seeded inputs, shared by every workload."""

    seconds: int
    trace: bool
    work: Path
    rows: list
    rng: random.Random
    peak_rss_mb: float = 0.0

    def note_rss(self, megabytes: float) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, megabytes)


def _spec() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, args, spec: dict, work_root: Path) -> common.Result:
    work = work_root / name
    work.mkdir()
    ctx = Context(
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        rows=common.load_baseline(),
        rng=random.Random(f"{name}:{args.seed}"),
    )
    result = WORKLOADS[name](ctx)
    if args.trace:
        # A layer the workload never reaches did no work in it.
        for metric in spec["per_layer"]:
            result.metrics.setdefault(metric["name"], (0, metric["unit"]))
    else:
        result.put("peak_rss_mb", ctx.peak_rss_mb, "MB",
                   "largest peak RSS of any measured process")
    return result


def _report(name: str, result: common.Result, wanted: list[dict]) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        raise RuntimeError(f"workload {name} did not report {missing}")
    print(f"== {name}: attempted {result.attempted}, failed {result.failed}"
          f" (failed_ratio {result.failed / max(1, result.attempted):.4f})")
    for failure in result.failures:
        print(f"   FAILED {failure}")
    for metric in wanted:
        value, unit = result.metrics[metric["name"]]
        print(f"   {metric['name']:48s} {value:14.4f} {unit}")
    for note in result.notes:
        print(f"   - {note}")
    return {m["name"]: {"value": result.metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = _spec()
        work_root = common.prepare()
    except (OSError, ValueError, common.SetupError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return _run(args, spec, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run's work dir is still there


def _run(args, spec: dict, work_root: Path) -> int:
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        result = run_workload(name, args, spec, work_root)
        attempted += result.attempted
        failed += result.failed
        reported = _report(name, result, wanted)
        if len(names) == 1:
            metrics = reported
        else:
            metrics.update({f"{name}.{k}": v for k, v in reported.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
