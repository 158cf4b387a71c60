"""One set-up measurement in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/probe.py <workload> <seed> <src>``:
imports the package, builds the workload's system, completes its first
request and prints one JSON line.  ``ready`` is ``time.monotonic()`` at
that moment; the system-wide monotonic clock lets the parent, which noted
the clock just before starting this interpreter, take the difference as
the set-up time a user pays.

Every build imports the codegen package (the linter's compile rules need
it), so importing it right after ``import repro`` only moves that cost
ahead of the build and lets it be timed on its own.

The host-speed reference is timed in this process, before the import and
after the first request, because a child can land on a slower or busier
CPU than its parent.  ``reference_pause_s`` is the first timing's share of
the interval, which the parent leaves out of the set-up time.
"""

import json
import sys
import time

import hostspeed


def main() -> None:
    name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    pause0 = time.monotonic()
    ref_before = hostspeed.reference_seconds()
    pause = time.monotonic() - pause0
    sys.path.insert(0, src)
    from workloads import WORKLOADS, Tally

    t0 = time.monotonic()
    import repro  # noqa: F401
    t1 = time.monotonic()
    import repro.hdl.compile  # noqa: F401
    t2 = time.monotonic()
    workload = WORKLOADS[name](seed)
    workload.open()
    t3 = time.monotonic()
    tally = Tally()
    workload.run_unit(workload.make_unit(), tally)
    ready = time.monotonic()
    ref_after = hostspeed.reference_seconds()
    print(json.dumps({
        "ready": ready,
        "reference_pause_s": pause,
        "reference_s": (ref_before + ref_after) / 2,
        "import_s": t1 - t0,
        "compile_import_s": t2 - t1,
        "build_s": t3 - t2,
        "first_request_s": ready - t3,
        "wrong": tally.wrong,
    }))


if __name__ == "__main__":
    main()
