"""The in-process workloads: ``paper-default`` and ``crowd-stream``.

Both are closed loops with one caller over a fixed, seeded list of
ops (:func:`harness.planned_ops`).
Input generation happens before or between ops and is not timed;
``ops_per_s`` is ops divided by the time spent inside the program's
calls.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
import repro.core.queries
import repro.core.session
from repro import QueryRequest
from repro.core.stream import synthetic_events
from repro.datasets import venue_by_name
from repro.datasets.workloads import (
    normal_clients,
    random_facility_sets,
    uniform_clients,
)

import harness
from harness import SETUP_REPEATS, Outcome, emit, median
from spans import SpanRecorder

#: Table-2 venues and their default |Fe| / |Fn| (range midpoints).
FACILITIES = {
    "MC": (75, 150),
    "CH": (100, 300),
    "CPH": (20, 35),
    "MZB": (300, 500),
}
VENUES = tuple(FACILITIES)
CLIENTS = 10_000
SIGMA = 0.5


def _timed_setup(build: Callable[[], Tuple[object, Dict[str, float]]]):
    """Run ``build`` SETUP_REPEATS times; keep the last result.

    Returns ``(result, median total seconds, median per-part seconds)``.
    """
    totals: List[float] = []
    parts: Dict[str, List[float]] = {}
    result = None
    for _ in range(SETUP_REPEATS):
        result = None  # let the previous set-up be collected first
        started = time.perf_counter()
        result, part_seconds = build()
        totals.append(time.perf_counter() - started)
        for key, value in part_seconds.items():
            parts.setdefault(key, []).append(value)
    return result, median(totals), {
        key: median(values) for key, values in parts.items()
    }


def _open_venue(name: str) -> Tuple[object, float]:
    started = time.perf_counter()
    engine = repro.open_venue(name)
    return engine, time.perf_counter() - started


def _closed_loop(
    indices: Sequence[int],
    prepare: Callable[[int], object],
    execute: Callable[[object], object],
    recorder: Optional[SpanRecorder] = None,
) -> Tuple[List[float], List[object], float]:
    """Run the ops ``indices`` one after another.

    Returns per-op latencies and outputs (``None`` for an op that
    raised, whose latency is not kept) and total busy seconds.
    """
    latencies: List[float] = []
    outputs: List[object] = []
    busy = 0.0
    for index in indices:
        prepared = prepare(index)
        started = time.perf_counter()
        try:
            if recorder is None:
                output = execute(prepared)
            else:
                with recorder.span("op", index):
                    output = execute(prepared)
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc()
            output = None
        elapsed = time.perf_counter() - started
        busy += elapsed
        if output is not None:
            latencies.append(elapsed)
        outputs.append(output)
    return latencies, outputs, busy


def _triple(response) -> Tuple[object, float, str]:
    return (response.answer, response.objective_value, response.status)


# ----------------------------------------------------------------------
# paper-default
# ----------------------------------------------------------------------
def _paper_request(engine, seed: int, index: int, clients: int):
    """Op ``index``: a fresh Table-2 draw on venue ``index mod 4``;
    clients alternate uniform / normal(σ=0.5) per visit of a venue."""
    venue = VENUES[index % len(VENUES)]
    rng = random.Random(seed * 1_000_003 + index)
    existing, candidates = FACILITIES[venue]
    facilities = random_facility_sets(
        engine.venue, existing, candidates, rng
    )
    if (index // len(VENUES)) % 2 == 0:
        crowd = uniform_clients(engine.venue, clients, rng)
    else:
        crowd = normal_clients(engine.venue, clients, SIGMA, rng)
    return QueryRequest(
        clients=tuple(crowd), facilities=facilities, label=f"op{index}"
    )


def paper_default(
    seed: int, seconds: float, trace: bool, tiny: bool
) -> Outcome:
    out = Outcome()
    clients = 200 if tiny else CLIENTS
    ops = max(
        2 * len(VENUES),
        harness.planned_ops("paper-default", seconds, len(VENUES)),
    )

    def build():
        engines, parts = {}, {}
        for name in VENUES:
            engines[name], parts[name] = _open_venue(name)
        return engines, parts

    engines, setup_s, open_s = _timed_setup(build)
    out.use_kernels = engines["MC"].use_kernels

    def prepare(index: int):
        venue = VENUES[index % len(VENUES)]
        return venue, _paper_request(engines[venue], seed, index, clients)

    def execute(prepared):
        venue, request = prepared
        return engines[venue].query(request)

    def ledger() -> Dict[str, int]:
        return harness.ledger_sum(
            engine.core.distances.stats.snapshot()
            for engine in engines.values()
        )

    # A traced run measures the first half of the rounds untraced and
    # the rest traced, so both halves hold whole rounds of the venues.
    rounds = ops // len(VENUES)
    plain = range(len(VENUES) * (rounds // 2) if trace else ops)
    latencies, responses, busy = _closed_loop(plain, prepare, execute)
    if trace:
        recorder = SpanRecorder()
        harness.wrap_solvers(
            recorder, repro.core.queries, ["efficient_minmax"]
        )
        harness.wrap_core(
            recorder,
            kernels=out.use_kernels,
            session=False,
            group_arrays=True,
            scalar_idist=False,
        )
        before = ledger()
        try:
            t_lat, t_resp, t_busy = _closed_loop(
                range(len(plain), ops), prepare, execute, recorder
            )
        finally:
            recorder.unwrap_all()
        recorder.assert_fired()
        layers = harness.blank_layers()
        layers.update(
            harness.core_layers(
                recorder, len(t_resp),
                harness.ledger_delta(before, ledger()),
            )
        )
        for name in VENUES:
            layers[f"api.open_venue_s.{name}"] = open_s[name]
        layers["trace.overhead_ratio"] = (
            (len(t_lat) / t_busy) / (len(latencies) / busy)
        )
        out.metrics = layers
        harness.write_spans(recorder, "paper-default")
        responses += t_resp
        latencies += t_lat
    else:
        out.end_to_end(
            "paper-default",
            setup_s=setup_s,
            latencies_s=latencies,
            ops_per_s=len(latencies) / busy,
            attempted=len(responses),
            rss_mb=harness.peak_rss_mb(),
        )
    out.attempted = len(responses)
    answered = [i for i, r in enumerate(responses) if r is not None]
    out.failed = len(responses) - len(answered)

    # Correctness, outside the timed window: re-answer a seeded sample
    # of ops by brute force; (answer, objective, status) must match.
    checks = min(len(VENUES), len(answered)) if tiny else 1
    sample = random.Random(f"check-{seed}").sample(answered, checks)
    for index in sorted(sample):
        venue, request = prepare(index)
        oracle = engines[venue].query(
            replace(request, algorithm="bruteforce")
        )
        if _triple(oracle) != _triple(responses[index]):
            out.wrong += 1
            emit(
                f"MISMATCH op {index} ({venue}): efficient "
                f"{_triple(responses[index])} vs brute force "
                f"{_triple(oracle)}"
            )
    out.notes.append(
        f"correctness: {checks} sampled op(s) re-answered by brute "
        f"force, {out.wrong} mismatch(es)"
    )
    out.failed += out.wrong
    return out


# ----------------------------------------------------------------------
# crowd-stream
# ----------------------------------------------------------------------
def crowd_facilities(venue):
    """The workload's one Table-2 default facility set on MC, drawn
    from spec.json's ``facility_seed`` like the event stream."""
    existing, candidates = FACILITIES["MC"]
    return random_facility_sets(
        venue, existing, candidates,
        random.Random(harness.SPEC["facility_seed"]),
    )


def crowd_stream(
    seed: int, seconds: float, trace: bool, tiny: bool
) -> Outcome:
    out = Outcome()
    initial = 300 if tiny else CLIENTS
    check_every = 40 if tiny else 2_000
    block = harness.SPEC["workloads"]["crowd-stream"]["events_per_op"]
    ops = harness.planned_ops("crowd-stream", seconds, 2 * block)
    venue = venue_by_name("MC")
    facilities = crowd_facilities(venue)
    # One fixed stream for every seed, drawn from facility_seed: full
    # recomputes take about 97% of the time, and how many a stream
    # needs is a property of its events (29 to 52 per 8,000 events
    # across ten seeds), so per-seed streams would make ops_per_s a
    # reading of the seed.  --seed picks where answers are checked.
    # One op is a block of consecutive events (spec.json says why).
    stream_events = synthetic_events(
        venue, initial=initial, events=ops,
        seed=harness.SPEC["facility_seed"], arrive=0.2, depart=0.1,
    )
    base, events = stream_events[:initial], stream_events[initial:]

    def build():
        engine, open_s = _open_venue("MC")
        stream = engine.stream(facilities, warm_session=True)
        for event in base:
            stream.apply(event)
        return (engine, stream), {"MC": open_s}

    (engine, stream), setup_s, open_s = _timed_setup(build)
    out.use_kernels = engine.use_kernels
    checker = random.Random(f"check-{seed}")
    next_check = checker.randrange(1, check_every)

    def verify(index: int) -> None:
        """Compare the stream's answer with a fresh query over its
        current crowd (untimed)."""
        got = stream.answer()
        fresh = engine.query(
            QueryRequest(clients=tuple(stream.clients),
                         facilities=facilities)
        )
        if (got.answer, got.objective, got.status) != _triple(fresh):
            out.wrong += 1
            emit(
                f"MISMATCH event {index}: stream "
                f"{(got.answer, got.objective, got.status)} vs fresh "
                f"{_triple(fresh)}"
            )

    checks = 0

    def run_window(first: int, last: int, recorder=None):
        nonlocal next_check, checks
        latencies: List[float] = []
        modes: List[str] = []
        for index in range(first, last):
            event = events[index]
            started = time.perf_counter()
            if recorder is None:
                answer = stream.apply(event)
            else:
                with recorder.span("op", index // block):
                    answer = stream.apply(event)
            latencies.append(time.perf_counter() - started)
            modes.append(answer.mode)
            # Checks run fresh queries through the wrapped layers, so
            # the traced window leaves them to the final check.
            if recorder is None and index + 1 >= next_check:
                verify(index + 1)
                checks += 1
                next_check += check_every
        return latencies, modes

    plain = ops // 2 if trace else ops
    stats_before = _stream_counts(stream)
    latencies, modes = run_window(0, plain)
    if trace:
        # The stream's own counters and the latency split by answer
        # mode need no wrappers: take them from the untraced half, so
        # the mode latencies carry no tracing cost.
        delta = {
            key: value - stats_before[key]
            for key, value in _stream_counts(stream).items()
        }
        layers = harness.blank_layers()
        events_n = delta["events"] or 1
        layers["core.stream.skip_ratio"] = delta["skips"] / events_n
        layers["core.stream.partial_solves"] = delta["partial_solves"]
        layers["core.stream.full_recomputes"] = delta["full_recomputes"]
        layers["core.stream.reevaluation_ratio"] = (
            delta["groups_reevaluated"] / events_n
        )
        for mode in ("skip", "full"):
            layers[f"core.stream.{mode}_ms_p50"] = 1000.0 * median(
                lat for lat, m in zip(latencies, modes) if m == mode
            )

        recorder = SpanRecorder()
        harness.wrap_solvers(
            recorder, repro.core.session._SOLVERS, ["minmax"]
        )
        harness.wrap_core(
            recorder,
            kernels=out.use_kernels,
            session=True,
            group_arrays=False,
            scalar_idist=True,
        )
        ledger = stream.session.distances.stats
        before = ledger.snapshot()
        try:
            t_lat, t_modes = run_window(plain, ops, recorder)
        finally:
            recorder.unwrap_all()
        recorder.assert_fired()
        layers.update(
            harness.core_layers(
                recorder, len(t_lat) // block,
                harness.ledger_delta(before, ledger.snapshot()),
            )
        )
        layers["api.open_venue_s.MC"] = open_s["MC"]
        layers["trace.overhead_ratio"] = _same_mix_ratio(
            latencies, modes, t_lat, t_modes
        )
        out.metrics = layers
        harness.write_spans(recorder, "crowd-stream")
        latencies += t_lat
        modes += t_modes
    else:
        blocks = [
            sum(latencies[start:start + block])
            for start in range(0, len(latencies), block)
        ]
        out.end_to_end(
            "crowd-stream",
            setup_s=setup_s,
            latencies_s=blocks,
            ops_per_s=len(blocks) / sum(blocks),
            attempted=len(blocks),
            rss_mb=harness.peak_rss_mb(),
        )
        out.notes.append(
            f"{len(latencies)} events in {len(blocks)} ops of {block}: "
            f"{len(latencies) / sum(latencies):.6g} events/s"
        )
    verify(len(latencies))
    checks += 1
    out.attempted = len(latencies) // block
    out.failed = out.wrong
    counts = {mode: modes.count(mode) for mode in sorted(set(modes))}
    out.notes.append(f"event modes: {counts}")
    out.notes.append(
        f"correctness: {checks} answers compared with a fresh query "
        f"over the current crowd, {out.wrong} mismatch(es)"
    )
    return out


def _same_mix_ratio(
    latencies: List[float], modes: List[str],
    t_latencies: List[float], t_modes: List[str],
) -> float:
    """Traced / untraced throughput on the traced half's mix of answer
    modes: the untraced half's mean latency per mode, weighted by the
    traced half's mode counts, over the traced half's busy time.  The
    two halves need different numbers of full recomputes, which would
    otherwise pass for tracing cost."""
    by_mode: Dict[str, List[float]] = {}
    for lat, mode in zip(latencies, modes):
        by_mode.setdefault(mode, []).append(lat)
    means = {mode: sum(v) / len(v) for mode, v in by_mode.items()}
    expected = sum(means.get(mode, 0.0) for mode in t_modes)
    traced = sum(t_latencies)
    return expected / traced if traced else 0.0


def _stream_counts(stream) -> Dict[str, int]:
    stats = stream.stats
    return {
        "events": stats.events,
        "skips": stats.skips,
        "partial_solves": stats.partial_solves,
        "full_recomputes": stats.full_recomputes,
        "groups_reevaluated": stats.groups_reevaluated,
    }
