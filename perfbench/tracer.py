"""Outside-in span tracing for the traced benchmark run.

The tracer wraps the public entry points of each ``repro`` layer by
replacing class attributes after import; the package's sources are never
edited.  Spans are kept in memory (name, start, end, parent, request id)
and written out at the end of the run as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` load.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  Spans nest strictly (one thread, no async), so the
children's durations never overlap and their sum is the covered time.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Optional

#: spans beyond this many are aggregated but not kept for the trace file
MAX_STORED_SPANS = 50_000
#: span names whose every duration is kept, for the medians the run reports
KEEP_DURATIONS = frozenset({"system.build", "analysis.lint"})


class Tracer:
    """Span recorder with per-name aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_stored: int = MAX_STORED_SPANS):
        self.clock = clock
        self.max_stored = max_stored
        #: stored spans as (id, name, start, end, parent_id, req)
        self.spans: list[tuple] = []
        self.dropped = 0
        #: name → [count, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: name → every duration, for the names in ``KEEP_DURATIONS``
        self.durations: dict[str, list[float]] = {}
        #: open frames: [id, name, start, child seconds, req]
        self._stack: list[list] = []
        self._next_id = 0

    def begin(self, name: str, req: Optional[int] = None) -> None:
        stack = self._stack
        if req is None and stack:
            req = stack[-1][4]
        self._next_id += 1
        stack.append([self._next_id, name, self.clock(), 0.0, req])

    def end(self) -> None:
        end = self.clock()
        span_id, name, start, child, req = self._stack.pop()
        duration = end - start
        stack = self._stack
        parent = -1
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if name in KEEP_DURATIONS:
            self.durations.setdefault(name, []).append(duration)
        if len(self.spans) < self.max_stored:
            self.spans.append((span_id, name, start, end, parent, req))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """The stored spans as a Chrome trace-event document."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = []
        for span_id, name, start, end, parent, req in self.spans:
            args = {"id": span_id, "parent": parent}
            if req is not None:
                args["req"] = req
            events.append({
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        meta = dict(metadata or {})
        meta["dropped_spans"] = self.dropped
        return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta}

    def write_chrome_trace(self, path, metadata: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh, separators=(",", ":"))


class Patches:
    """Class attributes replaced by tracing wrappers, restorable."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def wrap(self, tracer: Tracer, owner: type, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_targets() -> list[tuple[type, str, str]]:
    """(class, method, span name) for every layer entry point the run wraps."""
    from repro.analysis.lint import Linter
    from repro.hdl import Simulator
    from repro.hdl.compile.engine import CompiledSimulator
    from repro.host.engine import HostEngine
    from repro.system.builder import SystemBuilder
    from repro.xisort import XiSortAccelerator

    return [
        (Simulator, "step", "hdl.step"),
        (Simulator, "settle", "hdl.settle"),
        (CompiledSimulator, "settle", "hdl.settle"),
        (Simulator, "fast_forward_limit", "hdl.ff_scan"),
        (SystemBuilder, "build", "system.build"),
        (Linter, "lint", "analysis.lint"),
        (HostEngine, "pump", "host.engine.pump"),
        (HostEngine, "wait", "host.engine.wait"),
        (HostEngine, "flush", "host.engine.flush"),
        (HostEngine, "drain_words", "host.engine.drain"),
        (XiSortAccelerator, "load", "xisort.load"),
        (XiSortAccelerator, "find_pivot", "xisort.pivot"),
        (XiSortAccelerator, "split", "xisort.split"),
        (XiSortAccelerator, "read_at", "xisort.readout"),
    ]


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point; returns the handle that undoes it."""
    patches = Patches()
    for owner, attr, name in layer_targets():
        patches.wrap(tracer, owner, attr, name)
    return patches


class UnitOpCycles:
    """Busy cycles per operation of a smart-memory unit, by variety.

    A simulator observer that watches the core's ``running`` strobe: each
    run of busy cycles is charged to the variety last dispatched.  It
    digests time-wheel jumps (an idle unit is never jumped over while
    busy), so attaching it does not veto fast-forward.
    """

    def __init__(self, core):
        self.core = core
        self.cycles: dict[int, int] = {}
        self.ops: dict[int, int] = {}
        self._busy = False

    def attach(self, sim) -> None:
        sim.add_observer(self.observe, on_skip=lambda now, skipped: None)

    def observe(self, now: int) -> None:
        running = bool(self.core.running.value)
        if running:
            variety = int(self.core.variety.value)
            if not self._busy:
                self.ops[variety] = self.ops.get(variety, 0) + 1
            self.cycles[variety] = self.cycles.get(variety, 0) + 1
        self._busy = running

    def cycles_per_op(self, variety: int) -> float:
        ops = self.ops.get(variety, 0)
        return self.cycles.get(variety, 0) / ops if ops else 0.0
