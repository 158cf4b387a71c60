"""BENCHMARK.json names the runner's workloads; the runner reads its metrics."""

import json
from pathlib import Path

import run
from workloads import WORKLOADS

MANIFEST = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_match_the_runner():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


def test_windows_hold_whole_units():
    for cls in WORKLOADS.values():
        assert cls.window % cls.unit_size == 0
