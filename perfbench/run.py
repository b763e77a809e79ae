"""The repository benchmark: one command per workload run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-default --seed 7 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing
installed.  ``--trace 1`` measures half the window untraced and half
with spans recorded around calls into each layer (see ``spans.py``),
and prints the per-layer metrics.  Every run checks the program's
answers outside the timed window; a wrong answer is a failed op and
makes the command exit 1.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

BENCHMARK.json names the workloads and the metrics with their units;
``perfbench/spec.json`` holds each workload's settings, the layer table
and the seeds.  The program under test is imported from the checkout's
``src/`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("paper-default", "service-mixed", "crowd-stream")


def _import_program() -> bool:
    """Import ``repro`` from this checkout's ``src/`` only."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return False
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        print(f"perfbench: repro was imported from {location}, not from "
              f"{SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every input (self-tests only; numbers are not "
             "comparable with full-size runs)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _import_program():
        return 2

    import harness

    if args.workload == "service-mixed":
        import service

        run = service.service_mixed
    else:
        import inprocess

        run = (
            inprocess.paper_default
            if args.workload == "paper-default"
            else inprocess.crowd_stream
        )
    spec = harness.SPEC["workloads"][args.workload]
    harness.emit(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
        + (" tiny" if args.tiny else "")
    )
    outcome = run(args.seed, args.seconds, bool(args.trace), args.tiny)
    harness.emit(
        "fingerprint: "
        + json.dumps(harness.fingerprint(outcome.use_kernels))
    )
    for note in outcome.notes:
        harness.emit(note)

    if args.trace:
        units = harness.PER_LAYER_UNITS
        for name in units:
            on_path = any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in spec["exercises"]
            )
            mark = "" if on_path else "  (not on this workload's path)"
            harness.emit(
                f"{name} = {outcome.metrics[name]:.6g} {units[name]}{mark}"
            )
    else:
        units = harness.END_TO_END_UNITS
        for name in units:
            harness.emit(
                f"{name} = {outcome.metrics[name]:.6g} {units[name]}"
            )
        harness.emit(
            f"op_tail_ms is p{spec['tail_percentile']:g} of "
            f"{outcome.samples} samples ({outcome.beyond} beyond it)"
        )
    attempted = max(outcome.attempted, 1)
    harness.emit(
        f"failed_frac = {outcome.failed / attempted:.6g} "
        f"({outcome.failed} of {outcome.attempted} ops)"
    )
    result = {
        "correct": outcome.wrong == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
