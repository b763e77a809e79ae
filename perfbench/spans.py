"""In-memory spans around calls into the program's layers.

The traced run of the benchmark wraps public entry points of the
layers it measures (solver functions, ``FacilityStream.advance``,
``QuerySession.query``, distance-engine methods, the service's pool,
coalescer and batch runner) with :meth:`SpanRecorder.wrap`.  Nothing
inside ``src/`` is changed: a wrapper replaces the attribute *where the
caller looks it up*, so a solver table bound at import time (for
example ``repro.core.session._SOLVERS``) is wrapped in the table, not
in the defining module.

Each span has a name, start, end, parent (the enclosing span on the
same thread, or -1) and op id (the benchmark operation it served, or
-1).  Spans stay in memory in flat arrays and are written out as one
columnar JSON document when the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import array
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["SpanRecorder", "self_times", "layer_totals", "load"]


class SpanRecorder:
    """Spans and counters recorded at layer boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("q")
        self.counts: Dict[str, float] = defaultdict(float)
        self.fired: Dict[str, int] = {}
        self._installed: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_op(self) -> int:
        """The op id spans opened on this thread are attributed to."""
        return getattr(self._local, "op", -1)

    @current_op.setter
    def current_op(self, value: int) -> None:
        self._local.op = value

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: int = -1,
        parent: int = -1,
    ) -> int:
        """Record one closed span; returns its index."""
        with self._lock:
            ident = self._name_id(name)
            index = len(self.start)
            self.name.append(ident)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent)
            self.op.append(op)
        return index

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[int]:
        """Open a span on this thread for the ``with`` body.

        ``op`` (when given) becomes the thread's current op id for the
        body, so spans opened by wrapped calls inside inherit it.
        """
        stack = self._stack()
        previous = self.current_op
        if op is not None:
            self.current_op = op
        parent = stack[-1] if stack else -1
        index = self.add(name, time.perf_counter(), 0.0,
                         self.current_op, parent)
        stack.append(index)
        try:
            yield index
        finally:
            self.end[index] = time.perf_counter()
            stack.pop()
            self.current_op = previous

    def count(self, key: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``key``."""
        with self._lock:
            self.counts[key] += value

    # -- wrappers ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: Optional[str],
        *,
        op_of: Optional[Callable] = None,
        on_call: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with
        a wrapper recording a span named ``name`` around each call.

        ``op_of(args, kwargs)`` may name the op the call serves.
        ``on_call(recorder, args, kwargs)`` runs before the call and
        ``on_result(recorder, args, kwargs, result, span_index)``
        after it returns, to record what the arguments or the result
        carry.  ``name=None`` records no span (``span_index`` is -1).
        Each wrapped site must fire at least once before
        :meth:`assert_fired`.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        site = f"{getattr(owner, '__name__', 'dict')}.{attr}"
        self.fired[site] = 0
        recorder = self

        def wrapper(*args, **kwargs):
            recorder.fired[site] += 1
            if on_call is not None:
                on_call(recorder, args, kwargs)
            if name is None:
                index = -1
                result = original(*args, **kwargs)
            else:
                op = op_of(args, kwargs) if op_of is not None else None
                with recorder.span(name, op) as index:
                    result = original(*args, **kwargs)
            if on_result is not None:
                on_result(recorder, args, kwargs, result, index)
            return result

        wrapper.__wrapped__ = original
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (latest first)."""
        for owner, attr, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def assert_fired(self) -> None:
        """Fail loudly when an installed wrapper never fired: a renamed
        or re-bound entry point would otherwise report zero."""
        silent = sorted(site for site, n in self.fired.items() if not n)
        if silent:
            raise RuntimeError(
                "traced entry points never called: " + ", ".join(silent)
            )

    # -- export --------------------------------------------------------
    def records(self) -> List[Tuple[str, float, float, int, int]]:
        """All spans as ``(name, start, end, parent, op)`` tuples."""
        names = self.names
        return [
            (names[n], s, e, p, o)
            for n, s, e, p, o in zip(
                self.name, self.start, self.end, self.parent, self.op
            )
        ]

    def to_dict(self) -> Dict[str, object]:
        """Columnar JSON-ready image of spans, counters and firings."""
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "counts": dict(self.counts),
            "fired": dict(self.fired),
        }

    def dump(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)


def load(path: str) -> SpanRecorder:
    """Read a recorder written by :meth:`SpanRecorder.dump`."""
    with open(path) as handle:
        data = json.load(handle)
    recorder = SpanRecorder()
    for name in data["names"]:
        recorder._name_id(name)
    recorder.name.extend(data["name"])
    recorder.start.extend(data["start"])
    recorder.end.extend(data["end"])
    recorder.parent.extend(data["parent"])
    recorder.op.extend(data["op"])
    recorder.counts.update(data["counts"])
    recorder.fired.update(data["fired"])
    return recorder


def self_times(
    spans: Sequence[Tuple[float, float, int]]
) -> List[float]:
    """Self time of each ``(start, end, parent)`` span.

    A span's self time is its duration minus the length of the union
    of its children's intervals, each clipped to the span.  Children
    may overlap one another (other threads, or clock skew between
    recorders) and are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(
    recorder: SpanRecorder, groups: Dict[str, str]
) -> Dict[str, Dict[str, object]]:
    """Per-group busy time, self time and call count.

    ``groups`` maps span names to a layer group.  Only spans that
    served an op (op id >= 0) count.  A group's busy time counts only
    its outermost spans (a span whose parent is in the same group is
    already inside it); self time sums every span's
    :func:`self_times` value.
    """
    names = recorder.names
    spans = list(zip(recorder.start, recorder.end, recorder.parent))
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, object]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0}
    )
    for index, (start, end, parent) in enumerate(spans):
        group = groups.get(names[recorder.name[index]])
        if group is None or recorder.op[index] < 0:
            continue
        entry = totals[group]
        entry["self"] += selfs[index]
        if parent >= 0 and groups.get(
            names[recorder.name[parent]]
        ) == group:
            continue
        entry["busy"] += end - start
        entry["calls"] += 1
    return totals
