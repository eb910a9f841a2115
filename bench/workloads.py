"""The three benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` and then runs
identical rounds; a round is one evaluation batch of (scenario, condition)
units and returns the canonical rows it produced. ``round(timed)`` runs the
batch, and nothing else, inside the context manager ``timed()``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from foresight import cli, harness
from foresight.config import RunConfig
from foresight.memory import LogicalClock, MemoryState
from foresight.scenarios import serialize_scenario


@dataclass
class Round:
    rows: list[dict]
    wall_s: float

    @property
    def failed(self) -> int:
        return sum(1 for row in self.rows if row["status"] == "failed")


class CliWorkload:
    """Scenario files run through ``foresight run`` in-process."""

    # Subclasses set name, digest (SHA-256 of the canonical rows for the
    # default seed), count and needs_range.
    default_seed = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.argv: list[str] = []

    def setup(self) -> None:
        scenarios = gen.scenario_set(random.Random(self.seed), self.name, self.count, self.needs_range)
        scenario_dir = self.workdir / "scenarios"
        scenario_dir.mkdir(parents=True, exist_ok=True)  # repeated set-ups overwrite the same files
        for scenario in scenarios:
            (scenario_dir / f"{scenario.scenario_id}.json").write_text(
                serialize_scenario(scenario), encoding="utf-8"
            )
        horizon = max(len(s.needs) for s in scenarios)
        self.argv = [
            "run", "--scenarios", str(scenario_dir), "--out", str(self.workdir / "out"),
            "--seed", str(self.seed), "--parallel", "1",
            "--horizon", str(max(horizon, RunConfig().horizon)),
        ]

    def round(self, timed=contextlib.nullcontext) -> Round:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)  # an existing result file would resume, not rerun
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), timed():
            start = time.perf_counter()
            code = cli.main(self.argv)
            wall = time.perf_counter() - start
        rows = json.loads((out / "detailed_results.json").read_text(encoding="utf-8"))
        if code != cli.EXIT_OK and not any(row["status"] == "failed" for row in rows):
            raise RuntimeError(f"foresight run exited {code}: {sink.getvalue().strip()}")
        return Round(rows, wall)


class SuiteSmall(CliWorkload):
    name = "suite_small"
    digest = "02b784c295980c6e335c15e3cf1f7373b90a93928555d257a7992b5600b2cb1f"
    count = 300
    # Directed turns fall in two clusters: windows with nothing to predict
    # (~0.1 ms) and windows that acquire (~0.3 ms). The first make up 24% of
    # turns at 4 needs and 65% at 8; across 4-8 they sit at 50%, where the
    # median flips between clusters from seed to seed. At 4-6 they are 40%.
    needs_range = (4, 6)


class GrowingMemory(CliWorkload):
    name = "growing_memory"
    digest = "be9a30e53f69d320a14ea0d3aa3fc468c2f48eee81fe023a191746577c0084e5"
    count = 2
    needs_range = (220, 220)


class LongMemory:
    """``directed_idle`` units started through the library from one seeded
    1,000-record memory.

    Only ``directed_idle`` predicts and runs the gap scan, so the other
    conditions would add run time without adding memory-read paths.
    """

    name = "long_memory"
    default_seed = 1
    digest = "4b23290d2fbea3ff17afead09cf109966d39e9f0b78f1056035c3b3796056cbb"
    count = 45
    # Directed turns here fall in three clusters: plain windows, windows that
    # acquire a predicted need, and each unit's first window, which also
    # writes a breadcrumb per stale record. At 4-8 needs the plain windows
    # are 48% of turns, so the median sat on a cluster edge; at 4-6 they are
    # 35%, acquiring windows 28% and first windows 37%.
    needs_range = (4, 6)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.cfg = RunConfig(parallel=1)
        self.scenarios = []
        self.snapshot: dict = {}
        self.clock_start = None

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.scenarios = gen.scenario_set(rng, self.name, self.count, self.needs_range)
        self.snapshot, self.clock_start = gen.seeded_memory(
            rng, self.scenarios[0], self.cfg.gap_staleness_seconds
        )

    def round(self, timed=contextlib.nullcontext) -> Round:
        cfg = self.cfg
        rows = []
        with timed():
            start = time.perf_counter()
            for scenario in self.scenarios:
                memory = MemoryState.from_snapshot(
                    self.snapshot,
                    near_dup_threshold=cfg.near_dup_threshold,
                    coverage_threshold=cfg.coverage_threshold,
                    clock=LogicalClock(start=self.clock_start),
                )
                outcome = harness.run_scenario(scenario, "directed_idle", cfg, memory=memory)
                rows.append(outcome.to_dict())
            wall = time.perf_counter() - start
        return Round(rows, wall)


WORKLOADS = {w.name: w for w in (SuiteSmall, LongMemory, GrowingMemory)}
