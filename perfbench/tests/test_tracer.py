"""Span bookkeeping: self time, parents, request ids, patching."""

import json

from tracer import Patches, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    t = Tracer(clock=clock)
    t.begin("outer", req=7)
    clock.now += 1.0
    t.begin("child")
    clock.now += 2.0
    t.begin("grandchild")
    clock.now += 4.0
    t.end()
    t.end()
    clock.now += 0.5
    t.begin("child")
    clock.now += 3.0
    t.end()
    clock.now += 0.25
    t.end()
    count, total, own = t.totals["outer"]
    assert (count, total, own) == (1, 10.75, 10.75 - (6.0 + 3.0))
    assert t.totals["child"] == [2, 9.0, 9.0 - 4.0]
    assert t.totals["grandchild"] == [1, 4.0, 4.0]


def test_spans_record_parent_and_inherited_request():
    clock = FakeClock()
    t = Tracer(clock=clock)
    t.begin("unit", req=3)
    t.begin("inner")
    t.end()
    t.end()
    t.begin("loose")
    t.end()
    spans = {s[1]: s for s in t.spans}
    assert spans["inner"][4] == spans["unit"][0]
    assert spans["inner"][5] == 3
    assert spans["unit"][4] == -1
    assert spans["loose"][5] is None


def test_span_storage_is_capped_but_aggregates_are_not():
    t = Tracer(clock=FakeClock(), max_stored=2)
    for _ in range(5):
        t.begin("x")
        t.end()
    assert len(t.spans) == 2 and t.dropped == 3
    assert t.totals["x"][0] == 5


def test_chrome_trace_is_complete_events(tmp_path):
    clock = FakeClock()
    t = Tracer(clock=clock)
    clock.now = 5.0
    t.begin("hdl.step", req=1)
    clock.now = 5.002
    t.end()
    path = tmp_path / "trace.json"
    t.write_chrome_trace(path, {"workload": "w"})
    doc = json.loads(path.read_text())
    event, = doc["traceEvents"]
    assert event["ph"] == "X" and event["name"] == "hdl.step"
    assert event["cat"] == "hdl"
    assert event["ts"] == 0.0 and event["dur"] == 2000.0
    assert event["args"]["req"] == 1
    assert doc["metadata"]["workload"] == "w"


def test_patches_wrap_and_restore():
    class Target:
        def work(self, x):
            return x + 1

    original = Target.__dict__["work"]
    t = Tracer(clock=FakeClock())
    patches = Patches()
    patches.wrap(t, Target, "work", "layer.work")
    assert Target().work(1) == 2
    assert t.totals["layer.work"][0] == 1
    patches.restore()
    assert Target.__dict__["work"] is original


def test_wrapped_exception_still_closes_span():
    t = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    wrapped = t.wrap(boom, "boom")
    try:
        wrapped()
    except KeyError:
        pass
    assert t.totals["boom"][0] == 1
    assert t._stack == []
