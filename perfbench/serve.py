"""Workload ``serve_mixed``: an open loop against ``repro serve``.

Requests go out on a fixed schedule (``RATE`` per second, whether or not
earlier ones were answered) over two connections from one process.  In
every pass of ``PASS`` requests, ``COLD_PER_PASS`` are cold: a distinct
cold-set formula (the largest baseline ``dra_states``), sent once.  The
rest are warm: drawn from a seeded set that set-up
wrote into the server's store, so they exercise the protocol, the store
and the batching window while the cold ones run the engine on the same
dispatch thread.  Latency counts from when a request was due, so a stall
also charges the requests queued behind it.
"""

from __future__ import annotations

import json
import select
import signal
import socket
import statistics
import subprocess
import threading
import time

from common import (
    Result, Trace, cold_sample, launcher, layer_metrics, probe_imports, put_cold,
    put_latency, reap, repro, spawn, tail, time_left, wait_group_gone,
)

RATE = 40.0  # requests per second
PASS = 100  # requests per pass
COLD_PER_PASS = 5
WARM_SET = 64
SETUPS = 3
CONNECTIONS = 2
REQUEST_DEADLINE_S = 10.0
START_DEADLINE_S = 30.0


def _start_deadline() -> float:
    return max(0.1, min(START_DEADLINE_S, time_left()))


class Server:
    """One ``repro serve`` process on an ephemeral port with a fresh store."""

    def __init__(self, ctx, name: str, trace_dir=None) -> None:
        args = ("serve", "--port", "0", "--store", str(ctx.work / f"{name}.sqlite"))
        argv = launcher(trace_dir, *args) if trace_dir else repro(*args)
        self.ctx = ctx
        self.started = time.perf_counter()
        self.stderr = open(ctx.work / f"{name}.stderr", "wb")
        self.proc = spawn(argv, stdout=subprocess.PIPE, stderr=self.stderr,
                          env_extra={"PYTHONUNBUFFERED": "1"})
        self.port = None

    def wait_ready(self) -> int:
        """The port, from the server's ``serving on HOST:PORT`` line."""
        end = time.monotonic() + _start_deadline()
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, end - time.monotonic()))
            if not ready:
                raise RuntimeError("server did not report its port in time")
            chunk = self.proc.stdout.read1(4096)
            if not chunk:
                raise RuntimeError(f"server exited ({self.proc.poll()}) before serving")
            line += chunk
        address = line.split(b"serving on ", 1)[1].split()[0].decode()
        self.port = int(address.rpartition(":")[2])
        return self.port

    def stop(self) -> None:
        """SIGTERM (graceful drain), SIGKILL if it lingers; records peak RSS."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            killer = threading.Timer(10.0, self.proc.kill)
            killer.start()
            try:
                self.ctx.note_rss(reap(self.proc))
            finally:
                killer.cancel()
        finally:
            wait_group_gone(self.proc)
            self.proc.stdout.close()
            self.stderr.close()

    def __enter__(self) -> Server:
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Client:
    """Pipelined JSON-lines connections with a reader thread each."""

    def __init__(self, port: int) -> None:
        self.socks = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=START_DEADLINE_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.ids = 0
        self.sent: dict[int, float] = {}
        self.answers: dict[int, tuple[float, dict]] = {}
        self.done = threading.Condition()
        self.readers = [
            threading.Thread(target=self._read, args=(sock,), daemon=True)
            for sock in self.socks
        ]
        for reader in self.readers:
            reader.start()

    def _read(self, sock) -> None:
        stream = sock.makefile("rb")
        for line in stream:
            now = time.perf_counter()
            frame = json.loads(line)
            with self.done:
                self.answers[frame.get("id")] = (now, frame)
                self.done.notify_all()

    def send(self, formula: str) -> int:
        self.ids += 1
        frame = {"v": 1, "id": self.ids, "verb": "classify", "formula": formula}
        data = json.dumps(frame).encode() + b"\n"
        self.sent[self.ids] = time.perf_counter()
        self.socks[self.ids % CONNECTIONS].sendall(data)
        return self.ids

    def wait(self, ids, until: float) -> None:
        """Block until every id is answered or ``until`` (perf_counter)."""
        with self.done:
            while any(i not in self.answers for i in ids):
                left = until - time.perf_counter()
                if left <= 0:
                    return
                self.done.wait(left)

    def close(self) -> None:
        for sock in self.socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for reader in self.readers:
            reader.join(timeout=5)


def _check(result: Result, client: Client, request_id: int, row, due: float) -> float | None:
    """Latency from ``due`` of a correct, timely answer; else a failure."""
    result.attempted += 1
    answer = client.answers.get(request_id)
    if answer is None:
        result.fail(f"no answer within {REQUEST_DEADLINE_S}s for {row.formula!r}")
        return None
    received, frame = answer
    got = (frame.get("result") or {}).get("class")
    if not frame.get("ok") or got != row.klass:
        result.fail(f"{row.formula!r}: {frame.get('error') or got!r} (baseline {row.klass!r})")
        return None
    if received - due > REQUEST_DEADLINE_S:
        result.fail(f"{row.formula!r} answered after its deadline")
        return None
    return received - due


def _setup_once(ctx, result: Result, row, name: str) -> float | None:
    """Spawn to first answered request."""
    with Server(ctx, name) as server:
        client = Client(server.wait_ready())
        try:
            request = client.send(row.formula)
            client.wait([request], time.perf_counter() + _start_deadline())
            latency = _check(result, client, request, row, server.started)
        finally:
            client.close()
    return latency


def _inputs(ctx, passes: int):
    cold = cold_sample(ctx.rows, passes * COLD_PER_PASS, ctx.rng)
    picked = {row.formula for row in cold}
    warm_set = ctx.rng.sample([r for r in ctx.rows if r.formula not in picked], WARM_SET)
    # Cold requests sit at evenly spaced slots, so the warm requests queued
    # behind each one are the same from seed to seed; the seed picks the
    # warm set and the order of the cold formulas.
    spacing = PASS // COLD_PER_PASS
    schedule = []
    for index in range(passes * PASS):
        if index % spacing == spacing // 2:
            schedule.append((cold.pop(), True))
        else:
            schedule.append((ctx.rng.choice(warm_set), False))
    return warm_set, schedule


def _populate(result: Result, client: Client, warm_set) -> None:
    ids = [client.send(row.formula) for row in warm_set]
    client.wait(ids, time.perf_counter() + _start_deadline())
    for request_id, row in zip(ids, warm_set):
        _check(result, client, request_id, row, client.sent[request_id])


def _open_loop(client: Client, schedule) -> tuple[list, list[float]]:
    """Send on schedule; returns ``[(id, row, cold, due)]`` and lateness."""
    start = time.perf_counter() + 0.05
    sent, late = [], []
    for index, (row, cold) in enumerate(schedule):
        due = start + index / RATE
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        request_id = client.send(row.formula)
        late.append(client.sent[request_id] - due)
        sent.append((request_id, row, cold, due))
    client.wait([s[0] for s in sent], sent[-1][3] + REQUEST_DEADLINE_S)
    return sent, late


def _serve_run(ctx, result: Result, passes: int, trace_dir=None) -> dict:
    """One server: populate the warm set, then the open loop."""
    warm_set, schedule = _inputs(ctx, passes)
    with Server(ctx, "traced" if trace_dir else "main", trace_dir) as server:
        client = Client(server.wait_ready())
        try:
            _populate(result, client, warm_set)
            sent, late = _open_loop(client, schedule)
        finally:
            client.close()
    warm, cold, walls, from_send = [], [], [], []
    for first in range(0, len(sent), PASS):
        ends = []
        for request_id, row, is_cold, due in sent[first:first + PASS]:
            latency = _check(result, client, request_id, row, due)
            if latency is None:
                continue
            (cold if is_cold else warm).append(latency)
            ends.append(due + latency)
            from_send.append(client.answers[request_id][0] - client.sent[request_id])
        if ends:
            walls.append(max(ends) - sent[first][3])
    return {"warm": warm, "cold": cold, "walls": walls, "late": late,
            "from_send": from_send, "loop_start": sent[0][3]}


def run(ctx) -> Result:
    result = Result()
    passes = max(2, round(ctx.seconds * RATE / PASS))
    if ctx.trace:
        return _traced(ctx, result, passes)
    first = ctx.rng.choice(ctx.rows)
    setups = [_setup_once(ctx, result, first, f"setup{i}") for i in range(SETUPS)]
    setups = [s for s in setups if s is not None]
    result.put("setup_s", statistics.median(setups), "s",
               f"median of {len(setups)} spawns to first answered request")
    measured = _serve_run(ctx, result, passes)
    put_latency(result, measured["warm"], "warm requests, from due time")
    put_cold(result, measured["cold"], "cold requests, from due time")
    result.put("wall_s", statistics.median(measured["walls"]), "s",
               f"median of {len(measured['walls'])} passes of {PASS} requests at {RATE:g}/s")
    answered = len(measured["warm"]) + len(measured["cold"])
    result.put("events_per_s", answered / sum(measured["walls"]), "1/s", "requests answered")
    warm = sorted(measured["warm"])
    result.notes.append(
        f"warm p99 {warm[int(0.99 * len(warm)) - 1] * 1e3:.3f} ms, max {warm[-1] * 1e3:.3f} ms"
        " (waiting behind the largest cold formulas; printed, not gated)"
    )
    value, pct, n = tail([x * 1e3 for x in measured["late"]])
    result.notes.append(f"loadgen late p{pct:g} of {n} sends: {value:.3f} ms")
    return result


def _traced(ctx, result: Result, passes: int) -> Result:
    """Half the passes against an untraced server, half against a traced one."""
    half = max(1, passes // 2)
    plain = _serve_run(ctx, result, half)
    trace_dir = ctx.work / "trace"
    traced = _serve_run(ctx, result, half, trace_dir)
    trace = Trace(trace_dir)
    # Only the open loop: set-up and population traffic is left out.
    for name, spans in trace.by_name.items():
        trace.by_name[name] = [s for s in spans if s["start"] >= traced["loop_start"]]
    layer_metrics(result, trace)
    for metric, name in (
        ("serve.protocol.decode_ms", "serve.protocol.decode"),
        ("serve.protocol.encode_ms", "serve.protocol.encode"),
        ("serve.store.get_ms", "serve.store.get"),
        ("serve.store.put_ms", "serve.store.put"),
        ("engine.batch.run_ms", "engine.batch.run"),
    ):
        result.put(metric, trace.mean_ms(name), "ms", f"mean of {trace.calls(name)} calls")
    gets = trace.calls("serve.store.get")
    result.put("serve.store.hit_ratio",
               trace.attr_sum("serve.store.get", "hit") / gets if gets else 0.0, "ratio")
    batches = trace.by_name["serve.server.batch"]
    requests = sum(s["attrs"]["size"] for s in batches)
    result.put("serve.server.batch_size", requests / len(batches), "count")
    # A request is busy while it is decoded, while its batch runs, and while
    # its answer is encoded; the rest of its latency is waiting.
    busy_ms = (
        trace.mean_ms("serve.protocol.decode") + trace.mean_ms("serve.protocol.encode")
        + sum((s["end"] - s["start"]) * s["attrs"]["size"] for s in batches) * 1e3 / requests
    )
    latency_ms = statistics.mean(traced["from_send"]) * 1e3
    result.put("serve.server.wait_ms", latency_ms - busy_ms, "ms",
               f"mean latency from send {latency_ms:.3f} ms - busy {busy_ms:.3f} ms")
    result.put("trace.attributed_ratio", busy_ms / latency_ms, "ratio")
    value, pct, n = tail([x * 1e3 for x in traced["late"]])
    result.put("loadgen.late_ms", value, "ms", f"p{pct:g} of {n} sends")
    result.put("trace.overhead_ms",
               (statistics.median(traced["warm"]) - statistics.median(plain["warm"])) * 1e3,
               "ms", "warm p50 traced - untraced")
    probe_imports(ctx, result, ctx.rows[0].formula)
    return result
