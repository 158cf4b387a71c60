#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scalar-sync --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics untraced, with
host times in reference-host units (see ``hostspeed``);
``--trace 1`` measures the per-layer metrics with every layer's entry
points wrapped in spans, and writes a Chrome trace-event file.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the host fingerprint, goes to ``perfbench/out/records/``.

Simulated quantities (cycles, counts) are taken over a fixed window of
requests at the start of the timed loop, so they repeat exactly for a seed;
``perfbench/out/repeat.json`` remembers them per package source, benchmark
source and seed, and a run that disagrees with an earlier run of the same
code reports ``"correct": false``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: the seed runs default to, and the one kept back for re-checking claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: fresh-interpreter set-up measurements per run (median reported)
SETUP_PROBES = {0: 4, 1: 3}
#: warm rebuilds per run (median reported)
REBUILDS = {0: 12, 1: 5}
PROBE_TIMEOUT_S = 120
#: loop seconds between host-speed reference timings
REF_EVERY_S = 0.5

#: units of host times; a per-layer metric in any other unit is a simulated
#: count and must repeat exactly for a seed
HOST_TIME_UNITS = frozenset({"ms", "s", "1/s"})


def declared_units(section: str) -> dict:
    """Metric name → unit for one metric list of ``BENCHMARK.json``."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[section]}


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- set-up probes -----------------------------------------------------------------

def run_probe(workload: str, seed: int) -> dict:
    """One fresh-interpreter set-up; adds ``setup_s`` to the probe's report."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(SRC)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned - report["reference_pause_s"]
    return report


# -- the timed loop ----------------------------------------------------------------

class Segment:
    """A stretch of the loop between two reference-loop timings."""

    def __init__(self, ref_start: float):
        self.ref_start = ref_start
        self.ref_end = ref_start
        self.seconds = 0.0
        self.good = 0
        self.latencies: list[float] = []

    @property
    def scale(self) -> float:
        """Raw host seconds → reference seconds, for this stretch."""
        return hostspeed.scale((self.ref_start + self.ref_end) / 2)


def timed_loop(workload, seconds: float, tracer=None, on_window=None,
               interleave=()) -> dict:
    """Closed loop until ``seconds`` have passed and the window is complete.

    The first ``workload.window`` requests form the simulated-metric
    window; ``on_window`` is called once when it completes.  Every
    ``REF_EVERY_S`` of loop time the host-speed reference is timed, which
    closes a :class:`Segment`.  The ``(kind, fn)`` pairs in ``interleave``
    run between segments at evenly spaced points of the loop, with the
    loop's clock paused, so measurements taken apart from the loop sample
    the same stretch of host time.  Each ``fn`` returns raw seconds and
    its own reference time, or None to be scaled by the reference timings
    on either side of it.
    """
    from workloads import Tally

    if workload.window % workload.unit_size:
        raise ValueError("the window must hold whole units")
    total, window = Tally(), Tally()
    window_cycles = cycles = 0
    counters = None
    tasks = list(interleave)
    due = [seconds * (k + 1) / (len(tasks) + 1) for k in range(len(tasks))]
    results: dict[str, list] = {}
    clock = time.perf_counter
    segments = [Segment(hostspeed.reference_seconds())]
    workload.mark()
    paused = seg_start = 0.0
    start = clock()
    while True:
        unit = workload.make_unit()
        tally = Tally()
        if tracer is not None:
            tracer.begin("bench.unit", req=total.attempted)
        unit_cycles = workload.run_unit(unit, tally)
        if tracer is not None:
            tracer.end()
        now = clock() - start - paused
        seg = segments[-1]
        seg.good += tally.attempted - tally.failed
        seg.latencies.extend(tally.latencies)
        in_window = total.attempted < workload.window
        total.merge(tally)
        cycles += unit_cycles
        if in_window:
            window.merge(tally)
            window_cycles += unit_cycles
            if total.attempted >= workload.window:
                counters = workload.window_counters()
                if on_window is not None:
                    on_window()
        task_due = bool(tasks) and now >= due[0]
        finished = counters is not None and not tasks and now >= seconds
        if not (task_due or finished or now - seg_start >= REF_EVERY_S):
            continue
        t0 = clock()
        seg.seconds = now - seg_start
        seg.ref_end = hostspeed.reference_seconds()
        if finished:
            break
        ref = seg.ref_end
        if task_due:
            due.pop(0)
            kind, fn = tasks.pop(0)
            raw, own_ref = fn()
            ref_after = hostspeed.reference_seconds()
            task_ref = own_ref if own_ref is not None else (ref + ref_after) / 2
            results.setdefault(kind, []).append((raw, raw * hostspeed.scale(task_ref)))
            ref = ref_after
        segments.append(Segment(ref))
        paused += clock() - t0
        seg_start = now
    return {
        "total": total,
        "elapsed": now,
        "segments": segments,
        "tasks": results,
        "cycles": cycles,
        "window": window,
        "window_cycles": window_cycles,
        "counters": counters,
    }


def warm_up(workload):
    """One unit before timing starts (counted, checked, not timed)."""
    from workloads import Tally

    tally = Tally()
    workload.run_unit(workload.make_unit(), tally)
    return tally


def host_times(loop: dict) -> dict:
    """Throughput and latencies of a loop, raw and in reference seconds.

    Throughput is the median over segments, so one stall moves it little.
    """
    segments = [seg for seg in loop["segments"] if seg.seconds > 0]
    return {
        "req_per_s": statistics.median([seg.good / seg.seconds for seg in segments]),
        "req_per_ref_s": statistics.median([seg.good / (seg.seconds * seg.scale)
                                 for seg in segments]),
        "latencies": [lat for seg in segments for lat in seg.latencies],
        "ref_latencies": [lat * seg.scale for seg in segments for lat in seg.latencies],
        "reference_ms": 1e3 * statistics.median([seg.ref_start for seg in segments]),
    }


def sim_summary(loop: dict) -> dict:
    window = loop["window"]
    return {
        "sim_cycles_per_req": loop["window_cycles"] / window.attempted,
        "failed_frac": window.failed / window.attempted,
    }


# -- untraced run: end-to-end metrics ----------------------------------------------

def measure(name: str, seed: int, seconds: float) -> dict:
    from stats import percentile, rule_percentile
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.open()
    warm = warm_up(workload)
    probes: list[dict] = []

    def probe() -> tuple:
        probes.append(run_probe(name, seed))
        return probes[-1]["setup_s"], probes[-1]["reference_s"]

    def rebuild() -> tuple:
        gc.collect()  # time the build, not the previous systems' collection
        t0 = time.perf_counter()
        workload.build()
        return time.perf_counter() - t0, None

    per_probe = REBUILDS[0] // SETUP_PROBES[0]
    tasks = ([("setup", probe)] + [("rebuild", rebuild)] * per_probe) * SETUP_PROBES[0]
    loop = timed_loop(workload, seconds, interleave=tasks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    total = loop["total"]
    host = host_times(loop)
    tail_pct = workload.tail_percentile
    n_lat = len(host["ref_latencies"])
    rule_pct = rule_percentile(n_lat)
    if rule_pct < tail_pct:
        print(f"perfbench: only {n_lat} latency samples; p{tail_pct:g} has fewer "
              f"than 10 beyond it (the rule gives p{rule_pct:g})", file=sys.stderr)
    setup = loop["tasks"]["setup"]
    rebuilds = loop["tasks"]["rebuild"]
    sim = sim_summary(loop)
    metrics = {
        "req_per_s": host["req_per_ref_s"],
        "req_p50_ms": 1e3 * statistics.median(host["ref_latencies"]),
        "req_tail_ms": 1e3 * percentile(host["ref_latencies"], tail_pct),
        "sim_cycles_per_req": sim["sim_cycles_per_req"],
        "setup_s": statistics.median([ref for _, ref in setup]),
        "rebuild_ms": 1e3 * statistics.median([ref for _, ref in rebuilds]),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - sim["failed_frac"],
    }
    return {
        "metrics": metrics,
        "attempted": warm.attempted + total.attempted,
        "failed": warm.failed + total.failed,
        "wrong": warm.wrong + total.wrong + sum(p["wrong"] for p in probes),
        "repeat": dict(sim),
        "detail": {
            "raw_wall": {
                "req_per_s": host["req_per_s"],
                "req_p50_ms": 1e3 * statistics.median(host["latencies"]),
                "req_tail_ms": 1e3 * percentile(host["latencies"], tail_pct),
                "setup_s": statistics.median([raw for raw, _ in setup]),
                "rebuild_ms": 1e3 * statistics.median([raw for raw, _ in rebuilds]),
            },
            "reference_ms": host["reference_ms"],
            "failed_frac": sim["failed_frac"],
            "tail_percentile": tail_pct,
            "tail_rule_percentile": rule_pct,
            "latency_samples": n_lat,
            "window_requests": loop["window"].attempted,
            "window_failed": loop["window"].failed,
            "run_failed_frac": total.failed / total.attempted,
            "requests": total.attempted,
            "loop_s": loop["elapsed"],
            "segments": len(loop["segments"]),
            "sim_cycles_total": loop["cycles"],
            "sessions": workload.sessions,
            "setup_probes": probes,
        },
    }


# -- traced run: per-layer metrics -------------------------------------------------

def per_layer(loop: dict, spans: dict, durations: dict, probes: list, op_cycles) -> dict:
    """Per-layer metrics of a traced loop.

    ``spans`` maps span names to ``[count, total s, self s]`` over the loop;
    ``durations`` holds every build and lint span of the run.  Counts come
    from the loop's window counters.
    """
    n = loop["total"].attempted
    w = loop["window"].attempted
    c = loop["counters"]
    cycles = c["cycles"]

    def ms_per_req(*names):
        return 1e3 * sum(spans.get(nm, (0, 0.0, 0.0))[2] for nm in names) / n

    def per_cycle(x):
        return x / cycles if cycles else 0.0

    step_s = spans.get("hdl.step", (0, 0.0, 0.0))[1]
    edges = c["edge_calls"]
    skipped = c["skipped_cycles"]
    words = c["words_sent"]
    build = durations.get("system.build", [])
    lint = durations.get("analysis.lint", [])
    if op_cycles is not None:
        from repro.xisort.microcode import XI_FIND_PIVOT, XI_SPLIT

        pivots = op_cycles.ops.get(XI_FIND_PIVOT, 0) / w
        per_pivot = op_cycles.cycles_per_op(XI_FIND_PIVOT)
        per_split = op_cycles.cycles_per_op(XI_SPLIT)
    else:
        pivots = per_pivot = per_split = 0.0
    return {
        "hdl.step_ms_per_req": ms_per_req("hdl.step"),
        "hdl.settle_ms_per_req": ms_per_req("hdl.settle"),
        "hdl.edges_per_req": edges / w,
        "hdl.activations_per_cycle": per_cycle(c["activations"] + c["always_runs"]),
        "hdl.seq_runs_per_cycle": per_cycle(c["seq_runs"]),
        "hdl.sim_cycles_per_s": loop["cycles"] / step_s if step_s else 0.0,
        "hdl.ff_scan_ms_per_req": ms_per_req("hdl.ff_scan"),
        "hdl.skip_frac": skipped / (skipped + edges) if skipped + edges else 0.0,
        "hdl.wheel_jumps_per_req": c["wheel_jumps"] / w,
        "hdl.compile.import_s": statistics.median([p["compile_import_s"] for p in probes]),
        "hdl.compile.compile_ms": c["compile_ms"],
        "hdl.compile.compiled_procs": c["compiled_procs"],
        "hdl.compile.fallback_procs": c["fallback_procs"],
        "hdl.compile.vectorized_cells": c["vectorized_cells"],
        "hdl.compile.masks_elided": c["masks_elided"],
        "system.import_s": statistics.median([p["import_s"] for p in probes]),
        "system.build_ms": 1e3 * statistics.median(build) if build else 0.0,
        "analysis.lint_ms": 1e3 * statistics.median(lint) if lint else 0.0,
        "host.engine.pump_self_ms_per_req": ms_per_req("host.engine.pump",
                                                       "host.engine.wait"),
        "host.engine.flush_ms_per_req": ms_per_req("host.engine.flush"),
        "host.engine.drain_ms_per_req": ms_per_req("host.engine.drain"),
        "host.engine.words_per_req": words / w,
        "host.engine.batches_per_req": c["batches"] / w,
        "host.engine.window_stalls_per_req": c["window_stalls"] / w,
        "host.engine.in_flight_highwater": c["in_flight_highwater"],
        "host.engine.retransmits_per_req": c["retransmits"] / w,
        "host.engine.nacks_per_req": c["nacks"] / w,
        "host.engine.deadline_expiries": c["deadline_expiries"],
        "host.engine.response_gaps": c["response_gaps"],
        "host.engine.link_down_failures": c["link_down_failures"],
        "host.engine.degrade_entries": c["degrade_entries"],
        "host.session.reconnects": c["reconnects"],
        "messages.goodput_frac": 1.0 - c["retransmitted_words"] / words if words else 0.0,
        "messages.rx.crc_failures": c["crc_failures"],
        "messages.rx.resyncs": c["resyncs"],
        "messages.rx.duplicates": c["duplicates"],
        "messages.down.dropped": c["down_dropped"],
        "messages.down.flipped": c["down_flipped"],
        "messages.up.dropped": c["up_dropped"],
        "rtm.ipc": per_cycle(c["issued_total"]),
        "rtm.stall_frac": per_cycle(c["stall_cycles"]),
        "rtm.stall_raw": c["stall_raw"],
        "rtm.stall_waw": c["stall_waw"],
        "rtm.stall_structural": c["stall_structural"],
        "rtm.stall_rename": c["stall_rename"],
        "rtm.window_occupancy_max": c["window_occupancy_max"],
        "rtm.dispatches_per_req": c["dispatches"] / w,
        "rtm.writes_per_req": c["writes"] / w,
        "rtm.msgs_to_host_per_req": c["messages_sent"] / w,
        "xisort.load_ms_per_req": ms_per_req("xisort.load"),
        "xisort.pivot_ms_per_req": ms_per_req("xisort.pivot"),
        "xisort.split_ms_per_req": ms_per_req("xisort.split"),
        "xisort.readout_ms_per_req": ms_per_req("xisort.readout"),
        "xisort.pivots_per_req": pivots,
        "xisort.cycles_per_pivot": per_pivot,
        "xisort.cycles_per_split": per_split,
    }


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    import tracer as tracing
    from workloads import WORKLOADS

    probes = [run_probe(name, seed) for _ in range(SETUP_PROBES[1])]

    # the untraced half: the baseline the tracing overhead is taken against
    plain = WORKLOADS[name](seed)
    plain.open()
    warm = warm_up(plain)
    plain_loop = timed_loop(plain, seconds / 2)

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        workload = WORKLOADS[name](seed)
        workload.open()
        op_cycles = None
        if name == "xisort-compiled":
            op_cycles = tracing.UnitOpCycles(workload.core)
            op_cycles.attach(workload.system.sim)
        warm.merge(warm_up(workload))
        window_ops = {}

        def freeze_ops():
            if op_cycles is not None:
                window_ops["ops"] = dict(op_cycles.ops)
                window_ops["cycles"] = dict(op_cycles.cycles)

        tracer.totals.clear()
        if op_cycles is not None:
            op_cycles.ops.clear()
            op_cycles.cycles.clear()
        loop = timed_loop(workload, seconds / 2, tracer, on_window=freeze_ops)
        spans = {k: list(v) for k, v in tracer.totals.items()}
        for _ in range(REBUILDS[1]):
            workload.build()
    finally:
        patches.restore()
    if op_cycles is not None:
        op_cycles.ops, op_cycles.cycles = window_ops["ops"], window_ops["cycles"]

    metrics = per_layer(loop, spans, tracer.durations, probes, op_cycles)
    traced_rate = host_times(loop)["req_per_ref_s"]
    plain_rate = host_times(plain_loop)["req_per_ref_s"]
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}.json"
    tracer.write_chrome_trace(trace_path, {"workload": name, "seed": seed})

    total = plain_loop["total"]
    total.merge(loop["total"])
    return {
        "metrics": metrics,
        "attempted": warm.attempted + total.attempted,
        "failed": warm.failed + total.failed,
        "wrong": warm.wrong + total.wrong + sum(p["wrong"] for p in probes),
        "repeat": sim_summary(loop),
        "untraced_repeat": sim_summary(plain_loop),
        "detail": {
            "trace_file": str(trace_path.relative_to(ROOT)),
            "spans_stored": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "span_totals": {k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in sorted(spans.items())},
            "window_counters": loop["counters"],
            "traced_req_per_ref_s": traced_rate,
            "untraced_req_per_ref_s": plain_rate,
            "setup_probes": probes,
        },
    }


# -- records and the exact-repeat check --------------------------------------------

def digest(root: Path, pattern: str) -> str:
    """Content hash of the files under ``root`` matching ``pattern``."""
    h = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_digest": digest(SRC, "**/*.py"),
        "bench_digest": digest(HERE, "*.py"),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def repeat_check(key: str, values: dict) -> list[str]:
    """Compare simulated quantities with earlier runs of the same code and seed.

    Returns the names that differ; records any not seen before.
    """
    path = OUT / "repeat.json"
    try:
        store = json.loads(path.read_text())
    except FileNotFoundError:
        store = {}
    seen = store.setdefault(key, {})
    mismatched = [m for m, v in values.items() if m in seen and seen[m] != v]
    for m, v in values.items():
        seen.setdefault(m, v)
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatched


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC}/repro; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    if set(result["metrics"]) != set(units):
        raise RuntimeError("the metrics measured are not the ones BENCHMARK.json lists")
    if args.trace:
        # every simulated count of the traced window must repeat exactly too
        result["repeat"].update({m: v for m, v in result["metrics"].items()
                                 if units[m] not in HOST_TIME_UNITS
                                 and m != "trace.overhead_frac"})
    host = fingerprint()

    mismatched = []
    checks = [result["repeat"]] + ([result["untraced_repeat"]]
                                   if "untraced_repeat" in result else [])
    for values in checks:
        key = f"{host['src_digest']}:{host['bench_digest']}:{args.workload}:{args.seed}"
        mismatched += repeat_check(key, values)
    for m in mismatched:
        print(f"perfbench: {m} differs from an earlier run of the same code "
              f"and seed", file=sys.stderr)
    correct = result["wrong"] == 0 and not mismatched

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wrong": result["wrong"],
        "repeat_mismatches": mismatched,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in result["metrics"].items()},
        "detail": result["detail"],
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = host["date"].replace(":", "").replace("+0000", "Z")
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1))

    for m, entry in record["metrics"].items():
        print(f"{m:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
