"""The benchmark's gated workloads still produce their recorded outputs.

One set-up and one round of each workload at its default seed must hash to
the digest recorded on its class in ``bench/workloads.py``, so a change that
moves any per-unit row fails here and not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["suite_small", "long_memory", "growing_memory"])
def test_default_seed_round_matches_recorded_digest(name, tmp_path):
    workload_cls = workloads.WORKLOADS[name]
    workload = workload_cls(workload_cls.default_seed, tmp_path)
    workload.setup()
    result = workload.round()
    assert result.failed == 0
    assert run.digest(result.rows) == workload_cls.digest
