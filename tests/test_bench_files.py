"""Committed benchmark records: every ``BENCH_*.json`` at the repository root
covers each workload and each end-to-end metric that ``BENCHMARK.json``
declares, and records a correct run.  No wall-clock figure is asserted."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_covers_the_benchmark(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    record = json.loads(path.read_text())
    assert {"python", "cpus"} <= set(record)
    assert sorted(record["workloads"]) == sorted(workloads)
    for name in workloads:
        result = record["workloads"][name]
        assert result["correct"] is True, name
        missing = [m for m in metrics if m not in result["metrics"]]
        assert not missing, (name, missing)
