"""Shared pieces of the benchmark: the corpus, seeded sampling, child
processes with deadlines and peak memory, statistics and trace aggregation.

The harness never imports ``repro``: every measured program runs in a child
process (the CLI, the server, or ``fleet_worker.py``), so the measured
process's memory and start-up are its own.
"""

from __future__ import annotations

import csv
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracer

#: The benchmark runs from the root of a checkout.
ROOT = Path.cwd()
SRC = ROOT / "src"
CORPUS = ROOT / "formulas"
BASELINE = CORPUS / "census_baseline.csv"
HERE = Path(__file__).resolve().parent
PYTHON = sys.executable

#: Every measured operation gets a deadline; no run may outlive this many
#: seconds from its start, whatever the program does.
RUN_BUDGET_S = 150.0
_T0 = time.monotonic()


def time_left() -> float:
    return RUN_BUDGET_S - (time.monotonic() - _T0)


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing sources or corpus)."""


def child_env() -> dict[str, str]:
    """The environment of every measured process: the checkout's sources
    on the path and none of the program's REPRO_* switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare() -> Path:
    """Check the checkout and compile its sources; returns a fresh work dir."""
    if not (SRC / "repro" / "__main__.py").is_file() or not BASELINE.is_file():
        raise SetupError(
            f"run from the repository root: needs {SRC}/repro and {BASELINE}"
        )
    # The build step of a pure-Python checkout: byte-compile once, so the
    # first timed process does not pay for it.
    subprocess.run(
        [PYTHON, "-m", "compileall", "-q", str(SRC)], check=True, env=child_env(),
        stdout=subprocess.DEVNULL,
    )
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


# ---------------------------------------------------------------------------
# Corpus and sampling
# ---------------------------------------------------------------------------

_KEYWORDS = {"true", "false"}


@dataclass(frozen=True)
class Row:
    """One baseline census row: the formula and the answers it must get."""

    formula: str
    klass: str
    dra_states: int
    automaton_states: int

    @property
    def props(self) -> frozenset[str]:
        return frozenset(re.findall(r"\b[a-z][a-z0-9_]*\b", self.formula)) - _KEYWORDS


def load_baseline() -> list[Row]:
    """The committed census baseline; every row must be ``ok``, because the
    workloads draw only formulas known to terminate."""
    with open(BASELINE, encoding="utf-8", newline="") as handle:
        raw = list(csv.DictReader(handle))
    bad = [r["formula"] for r in raw if r["status"] != "ok"]
    if bad or not raw:
        raise SetupError(f"baseline has {len(bad)} non-ok rows; first: {bad[:1]}")
    return [
        Row(r["formula"], r["class"], int(r["dra_states"]), int(r["automaton_states"]))
        for r in raw
    ]


def cold_sample(rows: list[Row], n: int, rng) -> list[Row]:
    """The ``n`` rows with the largest baseline ``dra_states`` (the seed
    breaks ties and sets the order): every seed gets the same heavy
    automata, so a seed changes where they fall, not how heavy they are."""
    pool = list(rows)
    rng.shuffle(pool)
    chosen = sorted(pool, key=lambda row: -row.dra_states)[:n]
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    """A finished child process: output, wall time and peak memory."""

    returncode: int
    stdout: str
    stderr: str
    started: float  #: perf_counter just before the spawn
    seconds: float
    maxrss_mb: float
    timed_out: bool


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env_extra: dict | None = None, **kwargs) -> subprocess.Popen:
    """Start a measured child in its own process group."""
    return subprocess.Popen(
        argv, env={**child_env(), **(env_extra or {})}, cwd=ROOT,
        start_new_session=True, **kwargs,
    )


def reap(proc: subprocess.Popen) -> float:
    """Wait for ``proc`` to exit; returns its peak RSS in MB (the largest of
    the process and the children it waited for, e.g. census workers)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def wait_group_gone(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Kill what is left of the child's process group and wait until none
    of it remains (pool workers can outlive a killed supervisor)."""
    _kill_group(proc)
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def run_child(argv: list[str], deadline_s: float) -> Child:
    """Run one child to completion under a deadline (the whole process
    group is killed when it passes)."""
    deadline_s = max(0.1, min(deadline_s, time_left()))
    fired = threading.Event()

    def expire() -> None:
        fired.set()
        _kill_group(proc)

    start = time.perf_counter()
    proc = spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(deadline_s, expire)
    timer.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        rss = reap(proc)
        seconds = time.perf_counter() - start
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
        wait_group_gone(proc)
    return Child(
        proc.returncode,
        out.decode("utf-8", "replace"),
        b"".join(errors).decode("utf-8", "replace"),
        start,
        seconds,
        rss,
        fired.is_set(),
    )


def repro(*args: str) -> list[str]:
    return [PYTHON, "-m", "repro", *args]


def launcher(trace_dir: Path, *args: str) -> list[str]:
    return [PYTHON, str(HERE / "launcher.py"), str(trace_dir), *args]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


#: The percentiles a tail may be reported at.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile of
    ``TAIL_LADDER`` with at least ten samples beyond it (nearest rank), or
    the median when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1], pct, n


@dataclass
class Result:
    """What a workload run reports."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        if note:
            self.notes.append(f"{name}: {note}")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def put_latency(result: Result, samples_s: list[float], what: str) -> None:
    """``p50_ms`` and ``tail_ms`` from latency samples in seconds."""
    ms = [s * 1e3 for s in samples_s]
    value, pct, n = tail(ms)
    result.put("p50_ms", statistics.median(ms), "ms", f"median of {n} {what}")
    result.put("tail_ms", value, "ms", f"p{pct:g} of {n} {what}")


def put_cold(result: Result, samples_s: list[float], what: str) -> None:
    """``cold_p50_ms`` from latency samples in seconds."""
    result.put("cold_p50_ms", statistics.median(samples_s) * 1e3, "ms",
               f"median of {len(samples_s)} {what}")


# ---------------------------------------------------------------------------
# Trace aggregation
# ---------------------------------------------------------------------------

#: Layers whose self time, calls and IR sizes are reported.
PIPELINE = (
    ("logic.parser.parse_formula", ()),
    ("logic.translate.formula_to_nba", ("nba_states",)),
    ("omega.safra.determinize", ("dra_states",)),
    ("omega.reduce.quotient_reduce", ("quotient_states",)),
)
#: Layers whose self time alone is reported.
CHECKS = (
    "core.classifier.formula_to_automaton",
    "omega.classify.classify",
    "omega.classify.streett_index",
    "omega.classify.obligation_degree",
    "omega.closure.is_uniform_liveness",
    "logic.classes.analyze_syntax",
)
CACHES = (
    "classification", "formula_nba", "formula_automaton", "nonempty",
    "dfa_minimal", "omega_expression", "monitor_compiled",
)


class Trace:
    """Per-name aggregates over every span the traced processes wrote."""

    def __init__(self, trace_dir: Path) -> None:
        self.spans, self.cache = tracer.load(trace_dir)
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span["name"]].append(span)

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def self_ms(self, name: str) -> float:
        return sum(s["self"] for s in self.by_name[name]) * 1e3

    def total_ms(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.by_name[name]) * 1e3

    def mean_ms(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ms(name) / calls if calls else 0.0

    def attr_sum(self, name: str, key: str) -> int:
        return sum((s.get("attrs") or {}).get(key, 0) for s in self.by_name[name])

    def hit_ratio(self, cache: str) -> float:
        hits, misses = self.cache.get(cache, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(result: Result, trace: Trace) -> None:
    """The pipeline and cache per-layer metrics every traced run reports
    (zero where the workload does not reach a layer)."""
    for name, sizes in PIPELINE:
        result.put(f"{name}.self_ms", trace.self_ms(name), "ms")
        result.put(f"{name}.calls", trace.calls(name), "count")
        for size in sizes:
            result.put(f"{name}.{size}", trace.attr_sum(name, size), "count")
    for name in CHECKS:
        result.put(f"{name}.self_ms", trace.self_ms(name), "ms")
    for cache in CACHES:
        result.put(f"engine.cache.{cache}.hit_ratio", trace.hit_ratio(cache), "ratio")


#: metric -> (module group, whether submodules belong to the group).  The
#: ``repro`` figure is the package import alone; the lazily imported
#: ``repro.fastpath`` (which pulls in numpy and scipy) is its own group.
_IMPORT_GROUPS = {
    "import.repro_ms": ("repro", False),
    "import.fastpath_ms": ("repro.fastpath", True),
    "import.numpy_ms": ("numpy", True),
    "import.scipy_ms": ("scipy", True),
}


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import time per group from ``-X importtime`` output.

    A group's time is the sum of the cumulative times of its outermost
    modules (``scipy.sparse`` imported outside ``scipy`` counts; modules
    nested inside another module of the same group do not count twice).
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), cumulative))

    def member(name: str, group: str, submodules: bool) -> bool:
        return name == group or (submodules and name.startswith(group + "."))

    totals = {metric: 0.0 for metric in _IMPORT_GROUPS}
    ancestors: list[str] = []
    depths: list[int] = []
    # importtime prints a module after its imports: reversed, parents come first.
    for depth, name, cumulative in reversed(entries):
        while depths and depths[-1] >= depth:
            depths.pop()
            ancestors.pop()
        for metric, (group, submodules) in _IMPORT_GROUPS.items():
            if member(name, group, submodules) and not any(
                member(a, group, submodules) for a in ancestors
            ):
                totals[metric] += cumulative / 1e3
        ancestors.append(name)
        depths.append(depth)
    return totals


def probe_imports(ctx, result: Result, formula: str) -> None:
    """``import.*_ms``: medians of three ``-X importtime`` classify calls."""
    probes = []
    for _ in range(3):
        child = run_child([PYTHON, "-X", "importtime", "-m", "repro", "classify", formula],
                          30.0)
        probes.append(import_times(child.stderr))
    for metric in probes[0]:
        result.put(metric, statistics.median(p[metric] for p in probes), "ms")
