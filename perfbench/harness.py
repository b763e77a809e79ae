"""Shared pieces of the benchmark: the spec, statistics, the run
fingerprint, distance ledgers, layer wrappers and per-layer metrics.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from spans import SpanRecorder, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
#: Run outputs (span files, server logs); ignored by git.
OUT = ROOT / ".perfbench"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: The metrics BENCHMARK.json declares, name -> unit: every end-to-end
#: metric an untraced run prints and every per-layer metric a traced
#: run prints.  A layer a workload does not exercise reports 0
#: (spec.json lists the metric prefixes each workload ``exercises``).
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}

#: Span name -> layer group, for busy/self time per layer.
SPAN_GROUPS = {
    "core.efficient.minmax": "minmax",
    "core.mindist": "mindist",
    "core.maxsum": "maxsum",
    "core.efficient.advance": "advance",
    "core.session.query": "session",
    "index.distance.idist": "idist",
    "index.distance.idist_values": "idist",
    "index.distance.idist_single_door": "idist",
    "index.distance.imind_partitions": "imind",
    "index.distance.imind_node": "imind",
    "index.kernels.group_arrays": "group_arrays",
}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[_rank(pct, len(ordered)) - 1]


def beyond(values: Sequence[float], pct: float) -> int:
    """How many samples lie above the nearest-rank ``pct`` percentile."""
    if not values:
        return 0
    return len(values) - _rank(pct, len(values))


def _rank(pct: float, count: int) -> int:
    # Rounded first: 0.999 * 10000 is 9990.000000000002 in floating
    # point, which would put p99.9 one sample too high.
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def planned_ops(workload: str, seconds: float, multiple: int = 1) -> int:
    """A run's fixed op count: ``seconds`` times the workload's
    ``ops_per_run_second`` in spec.json, rounded to a whole
    ``multiple``, so which ops a run makes depends only on the seed and
    ``--seconds``, never on how fast the host is."""
    rate = SPEC["workloads"][workload]["ops_per_run_second"]
    return multiple * max(1, round(seconds * rate / multiple))


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(use_kernels: bool) -> Dict[str, object]:
    """The run fingerprint printed with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernels": use_kernels,
        "IFLS_USE_KERNELS": os.environ.get("IFLS_USE_KERNELS"),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples = 0
        self.beyond = 0
        self.notes: List[str] = []
        self.use_kernels = False

    def end_to_end(
        self,
        workload: str,
        *,
        setup_s: float,
        latencies_s: Sequence[float],
        ops_per_s: float,
        attempted: int,
        rss_mb: float,
    ) -> None:
        """Set the end-to-end metrics of one untraced measurement.

        ``latencies_s`` holds the ops that completed correctly;
        ``attempted`` counts every op, failed or never sent included.
        """
        spec = SPEC["workloads"][workload]
        pct = spec["tail_percentile"]
        limit = spec["slo_ms"] / 1000.0
        ms = [value * 1000.0 for value in latencies_s]
        self.samples = len(ms)
        self.beyond = beyond(ms, pct)
        self.notes.append(
            "latency percentiles (ms): "
            + ", ".join(
                f"p{q:g}={percentile(ms, q):.4g}"
                for q in (50, 75, 90, 99, 99.9)
            )
        )
        self.metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_ms": median(ms),
            "op_tail_ms": percentile(ms, pct),
            "peak_rss_mb": rss_mb,
            "slo_frac": (
                sum(1 for value in latencies_s if value <= limit)
                / attempted if attempted else 0.0
            ),
        }


# ----------------------------------------------------------------------
# Distance ledgers
# ----------------------------------------------------------------------
def ledger_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def ledger_sum(snapshots: Iterable[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            total[key] = total.get(key, 0) + value
    return total


def hit_ratio(ledger: Dict[str, int]) -> float:
    """``DistanceStats.cache_hits`` / (hits + distance computations)."""
    hits = (
        ledger.get("d2d_cache_hits", 0)
        + ledger.get("imind_cache_hits", 0)
        + ledger.get("imind_node_cache_hits", 0)
    )
    calls = hits + ledger.get("distance_computations", 0)
    return hits / calls if calls else 0.0


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _count_solver(prefix: str):
    def on_result(recorder: SpanRecorder, _args, _kwargs, result, _span):
        if recorder.current_op < 0:
            return  # warm-up or checks, not an op
        stats = result.stats
        recorder.count(f"{prefix}.clients_total", stats.clients_total)
        recorder.count(f"{prefix}.clients_pruned", stats.clients_pruned)
        recorder.count("solver.queue_pops", stats.queue_pops)
        recorder.count(
            "solver.facilities_retrieved", stats.facilities_retrieved
        )

    return on_result


def wrap_solvers(
    recorder: SpanRecorder, owner, keys: Sequence[str]
) -> None:
    """Wrap the solvers where ``owner`` (a module or a solver table)
    looks them up: ``keys`` are attribute names (``efficient_minmax``)
    or table keys (``minmax``)."""
    names = {
        "minmax": "core.efficient.minmax",
        "mindist": "core.mindist",
        "maxsum": "core.maxsum",
    }
    for key in keys:
        name = names[key.rsplit("_", 1)[-1]]
        recorder.wrap(
            owner, key, name, on_result=_count_solver(name)
        )


def wrap_core(
    recorder: SpanRecorder,
    *,
    kernels: bool,
    session: bool,
    group_arrays: bool,
    scalar_idist: bool,
) -> None:
    """Wrap the facility stream, distance engine and (optionally)
    session entry points.

    Which distance entry points fire depends on the kernel mode and
    the venue: with kernels on, retrieval goes through
    ``idist_values`` / ``idist_single_door`` (venues whose client
    partitions all have one exit door never call ``idist_values`` or
    ``group_arrays``); with kernels off, through ``idist``.
    """
    from repro.core.efficient import FacilityStream
    from repro.core.session import QuerySession
    from repro.index.distance import VIPDistanceEngine

    recorder.wrap(FacilityStream, "advance", "core.efficient.advance")
    if session:
        recorder.wrap(
            QuerySession, "query", "core.session.query",
            op_of=_op_of_label,
        )
    methods = ["imind_partitions", "imind_node"]
    if kernels:
        methods.append("idist_single_door")
        if group_arrays:
            methods += ["idist_values", "group_arrays"]
    if scalar_idist or not kernels:
        methods.append("idist")
    for method in methods:
        layer = "kernels" if method == "group_arrays" else "distance"
        recorder.wrap(
            VIPDistanceEngine, method, f"index.{layer}.{method}"
        )


def _op_of_label(args, kwargs) -> Optional[int]:
    """Op id from a ``label`` of the form ``op<N>`` (service requests
    carry it through the pool into ``QuerySession.query``)."""
    label = kwargs.get("label", "")
    if isinstance(label, str) and label.startswith("op"):
        try:
            return int(label[2:])
        except ValueError:
            return None
    return None


def op_id(label: str) -> int:
    value = _op_of_label((), {"label": label})
    return -1 if value is None else value


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def blank_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def core_layers(
    recorder: SpanRecorder, ops: int, ledger: Dict[str, int]
) -> Dict[str, float]:
    """Per-op solver, session, distance and kernel metrics of a traced
    window of ``ops`` operations with distance ledger delta ``ledger``."""
    totals = layer_totals(recorder, SPAN_GROUPS)
    counts = recorder.counts
    per_op = 1.0 / ops if ops else 0.0

    def busy_ms(group: str) -> float:
        entry = totals.get(group)
        return 1000.0 * entry["busy"] * per_op if entry else 0.0

    out: Dict[str, float] = {}
    minmax = totals.get("minmax")
    if minmax:
        out["core.efficient.state_self_ms_mean"] = (
            1000.0 * minmax["self"] * per_op
        )
        out["core.efficient.state_share"] = (
            minmax["self"] / minmax["busy"] if minmax["busy"] else 0.0
        )
    clients = counts.get("core.efficient.minmax.clients_total", 0)
    if clients:
        out["core.efficient.clients_pruned_ratio"] = (
            counts.get("core.efficient.minmax.clients_pruned", 0)
            / clients
        )
    all_clients = sum(
        counts.get(f"{name}.clients_total", 0)
        for name in ("core.efficient.minmax", "core.mindist",
                     "core.maxsum")
    )
    if all_clients:
        out["core.efficient.retrieved_per_client"] = (
            counts.get("solver.facilities_retrieved", 0) / all_clients
        )
    out["core.efficient.facility_stream_ms_mean"] = busy_ms("advance")
    out["core.efficient.queue_pops_mean"] = (
        counts.get("solver.queue_pops", 0) * per_op
    )
    out["core.efficient.facilities_retrieved_mean"] = (
        counts.get("solver.facilities_retrieved", 0) * per_op
    )
    out["core.mindist.busy_ms_mean"] = busy_ms("mindist")
    out["core.maxsum.busy_ms_mean"] = busy_ms("maxsum")
    if "session" in totals:
        out["core.session.busy_ms_mean"] = busy_ms("session")
        out["core.session.cache_hit_ratio"] = hit_ratio(ledger)
    out["index.distance.computations_mean"] = (
        ledger.get("distance_computations", 0) * per_op
    )
    out["index.distance.cache_hit_ratio"] = hit_ratio(ledger)
    out["index.distance.d2d_lookups_mean"] = (
        ledger.get("d2d_lookups", 0) * per_op
    )
    out["index.distance.idist_ms_mean"] = busy_ms("idist")
    out["index.distance.imind_ms_mean"] = busy_ms("imind")
    out["index.kernels.batches_mean"] = (
        ledger.get("kernel_batches", 0) * per_op
    )
    out["index.kernels.group_arrays_ms_mean"] = busy_ms("group_arrays")
    return out


def write_spans(recorder: SpanRecorder, workload: str) -> None:
    """Write a traced run's spans under ``.perfbench/`` in the
    checkout (one file per workload, replaced by the next run)."""
    OUT.mkdir(exist_ok=True)
    recorder.dump(str(OUT / f"{workload}.spans.json"))


def emit(line: str) -> None:
    """A human-readable progress or result line (stdout)."""
    print(line, flush=True)
