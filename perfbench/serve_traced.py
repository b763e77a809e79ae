"""Serve a venue like ``ifls serve VENUE --port 0``, with the
benchmark's layer wrappers installed in the server process.

Usage, from the root of a checkout::

    python3 perfbench/serve_traced.py SPANS_PATH VENUE

The service runs with the shipped :class:`ServiceConfig` defaults on an
OS-assigned port and logs exactly as ``ifls serve`` does (the first
line is the ``service.start`` event naming the address).  On SIGTERM it
drains, then writes the spans and counters it recorded to SPANS_PATH.
The plain ``ifls serve`` stays the untraced path.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402
import repro.core.session  # noqa: E402
from repro.service.batcher import Coalescer  # noqa: E402
from repro.service.pool import SessionPool  # noqa: E402
from repro.service.server import (  # noqa: E402
    IFLSService,
    ServiceConfig,
    run_service,
)

import harness  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def install(recorder: SpanRecorder, use_kernels: bool) -> None:
    """Wrap the service, pool, session, solver and distance layers."""
    harness.wrap_solvers(
        recorder, repro.core.session._SOLVERS,
        ["minmax", "mindist", "maxsum"],
    )
    harness.wrap_core(
        recorder,
        kernels=use_kernels,
        session=True,
        group_arrays=False,
        scalar_idist=False,
    )
    recorder.wrap(SessionPool, "checkout", "service.pool.checkout")

    # Batcher wait is submit -> runner start.  The coalescer's runner
    # is IFLSService._run_batch, bound when the service is built, so
    # the class attribute is wrapped before run_service builds it.
    submitted = {}

    def on_submit(rec, args, _kwargs) -> None:
        request = args[1]
        submitted[id(request)] = (
            time.perf_counter(), harness.op_id(request.label)
        )

    def on_runner_call(rec, args, _kwargs) -> None:
        now = time.perf_counter()
        for request in args[1]:
            due, op = submitted.pop(id(request), (now, -1))
            rec.add("service.batcher.wait", due, now, op)

    def on_runner_result(rec, args, _kwargs, _result, index) -> None:
        for request in args[1]:
            rec.add(
                "service.batcher.flush",
                rec.start[index],
                rec.end[index],
                harness.op_id(request.label),
            )

    recorder.wrap(Coalescer, "submit", None, on_call=on_submit)
    recorder.wrap(
        IFLSService, "_run_batch", "service.batcher.runner",
        on_call=on_runner_call, on_result=on_runner_result,
    )


def main() -> int:
    spans_path, venue = sys.argv[1], sys.argv[2]
    recorder = SpanRecorder()
    started = time.perf_counter()
    engine = repro.open_venue(venue)
    recorder.count(
        f"api.open_venue_s.{venue}", time.perf_counter() - started
    )
    install(recorder, engine.use_kernels)
    try:
        run_service(engine, config=ServiceConfig(port=0))
    finally:
        recorder.unwrap_all()
        partial = spans_path + ".partial"
        recorder.dump(partial)
        os.replace(partial, spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
