"""The ``service-mixed`` workload: ``ifls serve MC`` under HTTP load.

The server is a subprocess with the shipped defaults (pool 2, flush
window 10 ms, max batch 64).  One asyncio load generator drives it with
at most two connections in flight, each request on its own connection
because the server closes it, in two kinds of phase:

* closed loop: a fixed seeded list of requests, each sent as soon as a
  connection frees up.  Every end-to-end metric comes from this phase:
  ``ops_per_s`` is its completed requests per second, the server's
  capacity, and the latencies run from send to response.
* open loop (traced runs only): a fixed seeded list of requests at
  Poisson arrivals at one fixed rate, ``load_share`` (one half) of the
  capacity the closed loop just measured.  The arrival times are that
  many uniform random points in the window, a Poisson process
  conditioned on its count, scaled to the rate.  A request's latency
  counts from the time it was due, so a stall also charges the
  requests queued behind it.  The per-layer metrics come from this
  phase; its latencies are printed, not gated (spec.json
  ``open_loop_note`` says why).

The server's log goes to a file: an unread pipe stalls the server
once it fills.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

import repro
from repro import QueryRequest
from repro.datasets import venue_by_name
from repro.datasets.workloads import random_facility_sets, uniform_clients

import harness
import spans
from harness import OUT, ROOT, SETUP_REPEATS, Outcome, emit, median

VENUE = "MC"
FACILITIES = (75, 150)
CONFIGS = 4
CLIENT_RANGE = (50, 500)
#: Objective mix, exact per phase.
OBJECTIVE_MIX = (("minmax", 0.5), ("mindist", 0.25), ("maxsum", 0.25))
MAX_IN_FLIGHT = 2
REQUEST_TIMEOUT_S = 30.0
#: How long in-flight and queued requests may finish after the last
#: is due, plus PER_REQUEST_S per request and connection: a closed
#: loop has every request due at once.
DRAIN_S = 30.0
PER_REQUEST_S = 0.5


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def facility_pool(venue) -> List:
    """The small fixed pool of Table-2 default facility sets requests
    draw from, so warm session caches get reused.  Like crowd-stream's
    set it comes from spec.json's ``facility_seed``, not ``--seed``."""
    rng = random.Random(harness.SPEC["facility_seed"])
    return [
        random_facility_sets(venue, *FACILITIES, rng)
        for _ in range(CONFIGS)
    ]


def make_requests(key: str, count: int, tiny: bool) -> List[QueryRequest]:
    """``count`` requests seeded by ``key`` over :func:`facility_pool`.

    The objective mix is exact; within each objective the sizes take
    one uniform draw from each of equal slices of the |C| range and the
    facility sets take turns, so a run's total work depends less on
    the seed than independent draws would make it.
    """
    venue = venue_by_name(VENUE)
    configs = facility_pool(venue)
    rng = random.Random(f"requests-{key}")
    low, high = (5, 50) if tiny else CLIENT_RANGE
    counts = [round(share * count) for _name, share in OBJECTIVE_MIX]
    counts[0] += count - sum(counts)
    shapes = []
    for (objective, _share), k in zip(OBJECTIVE_MIX, counts):
        for i in range(k):
            size = low + round((high - low) * (i + rng.random()) / k)
            shapes.append((objective, size, configs[i % CONFIGS]))
    rng.shuffle(shapes)
    return [
        QueryRequest(
            clients=tuple(uniform_clients(venue, size, rng)),
            facilities=facilities,
            objective=objective,
            label=f"op{index}",
        )
        for index, (objective, size, facilities) in enumerate(shapes)
    ]


def arrival_offsets(key: str, count: int, seconds: float) -> List[float]:
    """``count`` seeded arrival times in ``[0, seconds)``: a Poisson
    process conditioned on its count.  The same key and count give the
    same arrival pattern at every window length."""
    rng = random.Random(f"arrivals-{key}")
    return sorted(rng.random() * seconds for _ in range(count))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One server subprocess, logging to a file under ``.perfbench/``."""

    def __init__(self, argv: List[str], log_name: str) -> None:
        OUT.mkdir(exist_ok=True)
        self.log_path = OUT / log_name
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.host, self.port = self._address()

    def _address(self, deadline_s: float = 60.0) -> Tuple[str, int]:
        """Read the ``service.start`` log event for the bound address."""
        limit = time.monotonic() + deadline_s
        while time.monotonic() < limit:
            if self.proc.poll() is not None:
                break
            with open(self.log_path) as handle:
                for line in handle:
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    if event.get("event") == "service.start":
                        host, port = event["address"].rsplit(":", 1)
                        return host.split("//", 1)[1], int(port)
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(
            f"server did not announce its address; log {self.log_path}"
        )

    @property
    def base(self) -> str:
        return f"http://{self.host}:{self.port}"

    def get(self, path: str) -> Dict:
        with urllib.request.urlopen(self.base + path, timeout=10) as resp:
            return json.loads(resp.read())

    def wait_healthy(self, deadline_s: float = 60.0) -> None:
        limit = time.monotonic() + deadline_s
        while time.monotonic() < limit:
            try:
                if self.get("/health").get("status") == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"{self.base}/health never reported ok")

    def warm_up(self, tiny: bool) -> None:
        """One MinMax request per pooled facility set, one at a time,
        so the window starts with warm session caches."""
        venue = venue_by_name(VENUE)
        rng = random.Random("warm-up")
        size = CLIENT_RANGE[0 if tiny else 1]

        async def requests() -> None:
            for facilities in facility_pool(venue):
                body = json.dumps(
                    QueryRequest(
                        clients=tuple(uniform_clients(venue, size, rng)),
                        facilities=facilities,
                        label="warm-up",
                    ).to_payload()
                ).encode()
                status, _ = await _post(self.host, self.port, body)
                if status != 200:
                    raise RuntimeError(f"warm-up answered {status}")

        asyncio.run(requests())

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM, wait for the graceful drain, then close the log."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._log.close()
        return self.proc.returncode


def start_plain(name: str, tiny: bool) -> Server:
    """``ifls serve`` as shipped, healthy and warmed up."""
    server = Server(
        ["-m", "repro", "serve", VENUE, "--port", "0"], name
    )
    server.wait_healthy()
    server.warm_up(tiny)
    return server


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class Sent:
    """One request's fate: due, woke (generator), sent and done
    times (``perf_counter``), HTTP status and body."""

    __slots__ = ("due", "woke", "sent", "done", "status", "body")

    def __init__(self, due: float) -> None:
        self.due = due
        self.woke: Optional[float] = None
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.status: Optional[int] = None
        self.body: Optional[Dict] = None


async def _post(host: str, port: int, body: bytes) -> Tuple[int, Dict]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            b"POST /query HTTP/1.1\r\nHost: " + host.encode()
            + b"\r\nContent-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\nConnection: close\r\n\r\n"
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else {}


async def _load(
    host: str, port: int, bodies: List[bytes], offsets: List[float]
) -> Tuple[List[Sent], float]:
    semaphore = asyncio.Semaphore(MAX_IN_FLIGHT)
    start = time.perf_counter() + 0.05
    sent = [Sent(start + offset) for offset in offsets]

    async def fire(index: int) -> None:
        record = sent[index]
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record.woke = time.perf_counter()
        async with semaphore:
            record.sent = time.perf_counter()
            try:
                record.status, record.body = await asyncio.wait_for(
                    _post(host, port, bodies[index]), REQUEST_TIMEOUT_S
                )
            except (asyncio.TimeoutError, OSError, ValueError,
                    IndexError) as exc:
                record.body = {"error": repr(exc)}
            record.done = time.perf_counter()

    tasks = [asyncio.ensure_future(fire(i)) for i in range(len(bodies))]
    _done, pending = await asyncio.wait(
        tasks,
        timeout=offsets[-1] + 0.05 + DRAIN_S
        + PER_REQUEST_S * len(bodies) / MAX_IN_FLIGHT,
    )
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    return sent, start


def drive(
    server: Server, requests: List[QueryRequest], offsets: List[float]
) -> Tuple[List[Sent], float]:
    bodies = [
        json.dumps(request.to_payload()).encode() for request in requests
    ]
    return asyncio.run(_load(server.host, server.port, bodies, offsets))


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _triple(payload: Dict) -> Tuple:
    return (
        payload.get("answer"),
        payload.get("objective_value"),
        payload.get("status"),
    )


def _check(
    requests: List[QueryRequest], records: List[Sent], out: Outcome,
    oracle,
) -> List[bool]:
    """Compare every 200 response with a serial in-process answer
    (``Engine.run``: one warm session, answers identical to cold ones)."""
    ok = []
    answers = oracle.run(requests)
    for request, record, want in zip(requests, records, answers):
        if record.status != 200:
            ok.append(False)
            continue
        got = _triple(record.body)
        if got != (want.answer, want.objective_value, want.status):
            out.wrong += 1
            emit(
                f"MISMATCH {request.label}: service {got} vs in-process "
                f"{(want.answer, want.objective_value, want.status)}"
            )
            ok.append(False)
        else:
            ok.append(True)
    return ok


def _phase(
    server: Server, requests: List[QueryRequest], offsets: List[float],
    out: Outcome, oracle,
) -> Tuple[List[Sent], List[bool], float]:
    """Send ``requests`` at ``offsets`` and check every answer; returns
    the records, per-request correctness and the completed requests
    per second from the start of the phase to its last response."""
    records, start = drive(server, requests, offsets)
    ok = _check(requests, records, out, oracle)
    out.attempted += len(records)
    out.failed += ok.count(False)
    finished = [r.done for r, good in zip(records, ok) if good]
    span = (max(finished) - start) if finished else 0.0
    return records, ok, sum(ok) / span if span > 0 else 0.0


def closed_loop(
    server: Server, seed: int, count: int, tiny: bool, out: Outcome,
    oracle, phase: str = "closed",
) -> Tuple[List[Sent], List[bool], float]:
    """``count`` requests all due at once, so the generator keeps both
    connections busy until the list is done; returns the records,
    per-request correctness and the completed requests per second."""
    requests = make_requests(f"{seed}-{phase}", count, tiny)
    return _phase(server, requests, [0.0] * count, out, oracle)


def open_loop(
    server: Server, seed: int, seconds: float, tiny: bool, out: Outcome,
    oracle, capacity_rate: float,
) -> Tuple[List[QueryRequest], List[Sent], List[bool]]:
    """The open-loop phase: ``--seconds`` times spec.json's
    ``open_requests_per_run_second`` requests (at least ten) at
    ``load_share`` of ``capacity_rate``."""
    spec = harness.SPEC["workloads"]["service-mixed"]
    count = max(10, round(seconds * spec["open_requests_per_run_second"]))
    rate = spec["load_share"] * capacity_rate
    key = f"{seed}-open"
    offsets = arrival_offsets(key, count, count / rate)
    requests = make_requests(key, count, tiny)
    records, ok, _rate = _phase(server, requests, offsets, out, oracle)
    ms = [
        1000.0 * (r.done - r.due) for r, good in zip(records, ok) if good
    ]
    within = sum(1 for value in ms if value <= spec["slo_ms"])
    out.notes.append(
        f"open loop: {count} requests at {rate:.4g}/s, latency from due "
        f"time p50 {harness.percentile(ms, 50):.4g} ms, p90 "
        f"{harness.percentile(ms, 90):.4g} ms, {within} of {count} "
        f"within {spec['slo_ms']} ms; " + _summary(records, ok)
    )
    return requests, records, ok


def service_mixed(
    seed: int, seconds: float, trace: bool, tiny: bool
) -> Outcome:
    out = Outcome()
    oracle = repro.open_venue(VENUE)
    out.use_kernels = oracle.use_kernels
    count = harness.planned_ops("service-mixed", seconds)
    if not trace:
        setups: List[float] = []
        server: Optional[Server] = None
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = start_plain(f"serve-{attempt}.log", tiny)
            setups.append(time.perf_counter() - started)
        try:
            records, ok, ops_per_s = closed_loop(
                server, seed, count, tiny, out, oracle
            )
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        out.end_to_end(
            "service-mixed",
            setup_s=median(setups),
            latencies_s=[
                r.done - r.sent for r, good in zip(records, ok) if good
            ],
            ops_per_s=ops_per_s,
            attempted=len(records),
            rss_mb=rss,
        )
        out.notes.append(
            f"closed loop: {len(records)} requests; "
            + _summary(records, ok)
        )
        return out

    # Traced: a quarter of the closed loop on the plain server, then
    # on the traced server the same quarter again (for the tracing
    # overhead) and half a window of open-loop load, whose spans give
    # the per-layer metrics.
    quarter = max(1, count // 4)
    server = start_plain("serve-untraced.log", tiny)
    try:
        plain_records, plain_ok, plain_rate = closed_loop(
            server, seed, quarter, tiny, out, oracle
        )
    finally:
        server.stop()
    spans_path = OUT / "service-mixed.spans.json"
    if spans_path.exists():
        spans_path.unlink()
    server = Server(
        [str(harness.HERE / "serve_traced.py"), str(spans_path), VENUE],
        "serve-traced.log",
    )
    try:
        server.wait_healthy()
        server.warm_up(tiny)
        cap_records, cap_ok, traced_rate = closed_loop(
            server, seed, quarter, tiny, out, oracle
        )
        before = server.get("/metrics")
        since = time.perf_counter()
        requests, records, ok = open_loop(
            server, seed, seconds / 2.0, tiny, out, oracle, traced_rate
        )
        after = server.get("/metrics")
    finally:
        code = server.stop()
    if code != 0 or not spans_path.exists():
        raise RuntimeError(
            f"traced server exited {code}; log {server.log_path}"
        )
    recorder = spans.load(str(spans_path))
    recorder.assert_fired()
    out.metrics = _service_layers(
        recorder, requests, records, ok, before, after, since
    )
    out.metrics["trace.overhead_ratio"] = (
        traced_rate / plain_rate if plain_rate else 0.0
    )
    out.notes.append(
        "closed loop: " + _summary(plain_records + cap_records,
                                   plain_ok + cap_ok)
    )
    return out


def _summary(records: List[Sent], ok: List[bool]) -> str:
    statuses: Dict[str, int] = {}
    for record in records:
        key = str(record.status)
        statuses[key] = statuses.get(key, 0) + 1
    return (
        f"correctness: {sum(ok)} of {len(records)} responses match the "
        f"serial in-process answer; HTTP statuses {statuses}"
    )


def _service_layers(
    recorder, requests, records, ok, before, after, since
) -> Dict[str, float]:
    """Per-layer metrics of the traced window that began at ``since``
    (``perf_counter`` is the system-wide monotonic clock, so the
    server's span times compare with it); ``before``/``after`` are
    the server's ``/metrics`` around the window."""
    layers = harness.blank_layers()
    ops = sum(ok)
    layers.update(
        harness.core_layers(
            recorder, ops,
            harness.ledger_delta(before["ledger"], after["ledger"]),
        )
    )

    by_op: Dict[str, Dict[int, float]] = {"wait": {}, "flush": {}}
    waits, checkouts = [], []
    flushes = members = 0
    for name, start, end, _parent, op in recorder.records():
        if start < since:
            continue  # warm-up
        if name == "service.batcher.wait":
            by_op["wait"][op] = end - start
            waits.append(end - start)
        elif name == "service.batcher.flush":
            by_op["flush"][op] = end - start
            members += 1
        elif name == "service.batcher.runner":
            flushes += 1
        elif name == "service.pool.checkout":
            checkouts.append(end - start)
    edges = []
    for request, record, good in zip(requests, records, ok):
        op = harness.op_id(request.label)
        if good and op in by_op["wait"] and op in by_op["flush"]:
            edges.append(
                (record.done - record.sent)
                - by_op["wait"][op] - by_op["flush"][op]
            )
    ms = 1000.0
    layers["service.server.edge_ms_p50"] = ms * median(edges)
    layers["service.server.non200"] = sum(
        1 for record in records if record.status != 200
    )
    layers["service.batcher.wait_ms_p50"] = ms * median(waits)
    layers["service.batcher.wait_ms_p90"] = ms * harness.percentile(
        waits, 90
    )
    layers["service.batcher.flushes"] = flushes
    layers["service.batcher.batch_size_mean"] = (
        members / flushes if flushes else 0.0
    )
    layers["service.pool.checkout_wait_ms_p90"] = ms * harness.percentile(
        checkouts, 90
    )
    layers["service.pool.sessions_created"] = after["pool"]["created"]
    layers["service.pool.evictions"] = (
        after["pool"]["evictions"] - before["pool"]["evictions"]
    )
    layers[f"api.open_venue_s.{VENUE}"] = recorder.counts.get(
        f"api.open_venue_s.{VENUE}", 0.0
    )
    lates = [r.woke - r.due for r in records if r.woke is not None]
    layers["loadgen.late_ms_p99"] = ms * harness.percentile(lates, 99)
    return layers
