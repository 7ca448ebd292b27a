"""The committed benchmark results (``BENCH_<n>.json``) are complete and correct.

Each is the last line that ``perfbench/run.py --workload all`` printed for
a change that claimed a speedup. A record that is missing a metric, counts
a failed operation or reports wrong outputs cannot back that claim.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name))


def test_benchmark_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_is_correct_and_complete(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] > 0
    for workload in declared["workloads"]:
        for metric in declared["end_to_end"]:
            name = f"{workload['name']}.{metric['name']}"
            assert name in record["metrics"], name
            entry = record["metrics"][name]
            assert entry["unit"] == metric["unit"], name
            assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
