"""Benchmark entry point.

    python3 bench/run.py --workload suite_small --seed 1 --seconds 55 --trace 0

Builds the workload's inputs from the seed, runs identical rounds of it for
at most ``--seconds`` (at least two rounds, traced ones included), checks the
outputs, and prints one JSON object as the last line of stdout: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. End-to-end timings are scaled to a fixed CPU speed with the
reference kernel in ``speed.py``. Exits 1 when an output check fails and 2
when the foresight sources are missing next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_MIN_REPS = 3  # set-up is repeated until both minimums are met
SETUP_MIN_S = 2.0
MIN_ROUNDS = 2
MIN_DIRECTED_TURNS = 100


def digest(rows: list[dict]) -> str:
    """SHA-256 of the canonical per-unit rows, timing fields excluded."""
    canonical = [{k: v for k, v in row.items() if k != "timings"} for row in rows]
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RoundSummary:
    units: int
    failed: int
    wall_s: float
    digest: str


def _summary(result) -> RoundSummary:
    """Keeps only what the checks need from a round, so its rows are freed at once."""
    return RoundSummary(len(result.rows), result.failed, result.wall_s, digest(result.rows))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; infinite samples (failed units) sort last."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _import_program() -> bool:
    """Puts ``src`` first on the import path; False when the sources are missing."""
    if not (SRC / "foresight" / "__init__.py").is_file():
        print(f"error: no foresight sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import foresight

    if Path(foresight.__file__).resolve().parent != SRC / "foresight":
        print(f"error: imported foresight from {foresight.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def _time_left(start: float, seconds: float, last_s: float) -> bool:
    """Whether another pass as long as the last one would end by the deadline.

    Runs never overshoot, so their total length stays within ``--seconds``
    plus set-up whatever the round length.
    """
    return time.perf_counter() - start + last_s <= seconds


@dataclass(frozen=True)
class RoundTiming:
    """What ``UnitClock`` recorded over one untraced round (see ``layers.UnitClock``)."""

    seg_s: list[float]
    ref_s: list[float]
    turn_s: list[float]
    turn_seg: list[int]


def _scaled(timing: RoundTiming) -> tuple[float, list[float]]:
    """The round's batch time and its directed turns, scaled to the kernel's nominal speed.

    Each segment of the round, and each turn that ends in it, is scaled by
    the kernel time taken right after the segment.
    """
    scale = [speed.NOMINAL_S / ref for ref in timing.ref_s]
    batch_s = sum(seg * k for seg, k in zip(timing.seg_s, scale))
    turns = [t if seg < 0 else t * scale[seg] for t, seg in zip(timing.turn_s, timing.turn_seg)]
    return batch_s, turns


def _timed_setup(workload) -> float:
    """Median scaled set-up time over at least ``SETUP_MIN_REPS`` set-ups and ``SETUP_MIN_S``."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        times.append(speed.scaled_call(workload.setup))
    return statistics.median(times)


def _timed_round(workload, clock) -> tuple[RoundSummary, RoundTiming]:
    """One untraced round, with the segment, kernel and turn times it produced."""
    gc.collect()
    clock.install()
    try:
        result = workload.round(clock.running)
    finally:
        clock.uninstall()
    return _summary(result), RoundTiming(*clock.take())


def _traced_round(workload, tracer) -> tuple:
    tracer.reset()
    tracer.install()
    try:
        gc.collect()
        result = workload.round()
    finally:
        tracer.uninstall()
    summary = _summary(result)
    return summary, dict(tracer.round_stats(), units_per_s=summary.units / summary.wall_s)


def main(argv=None) -> int:
    if not _import_program():
        return 2
    import layers
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="defaults to the workload's recorded seed")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = cls(seed, workdir)
    if args.trace:
        workload.setup()  # set-up time is reported by untraced runs only
    else:
        setup_s = _timed_setup(workload)

    clock = layers.UnitClock()
    tracer = layers.Tracer() if args.trace else None
    rounds, timings, traced = [], [], []
    start, last_s = time.perf_counter(), 0.0
    while len(rounds) + len(traced) < MIN_ROUNDS or _time_left(start, args.seconds, last_s):
        last_start = time.perf_counter()
        summary, timing = _timed_round(workload, clock)
        rounds.append(summary)
        timings.append(timing)
        if tracer is not None:
            traced.append(_traced_round(workload, tracer))
        last_s = time.perf_counter() - last_start

    every_round = rounds + [traced_summary for traced_summary, _ in traced]
    digests = {r.digest for r in every_round}
    attempted = sum(r.units for r in every_round)
    failed = sum(r.failed for r in every_round)
    turns_per_round = len(timings[0].turn_s)
    problems = []
    if failed:
        problems.append(f"{failed} failed units")
    if len(digests) != 1:
        problems.append(f"rounds disagree: {len(digests)} distinct result digests")
    elif seed == cls.default_seed and cls.digest not in digests:
        problems.append(f"digest {min(digests)} differs from the recorded {cls.digest}")
    if any(len(t.turn_s) != turns_per_round for t in timings):
        problems.append("rounds disagree on the number of directed turns")
    if turns_per_round < MIN_DIRECTED_TURNS:
        problems.append(f"only {turns_per_round} directed turns per round")

    # Every round repeats the same batch: the batch time is the median
    # round, and each distinct turn's latency its median repetition, before
    # the percentiles are taken over distinct turns.
    scaled = [_scaled(timing) for timing in timings]
    batch_s = statistics.median(b for b, _ in scaled)
    turns = [statistics.median(repeats) for repeats in zip(*(t for _, t in scaled))]
    if tracer is None:
        metrics = {
            "units_per_s": (rounds[0].units / batch_s, "units/s"),
            "directed_turn_ms_p50": (percentile(turns, 0.5) * 1e3, "ms"),
            "directed_turn_ms_p90": (percentile(turns, 0.9) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        stats = [stats for _, stats in traced]
        untraced_ups = max(r.units / sum(t.seg_s) for r, t in zip(rounds, timings))
        traced_ups = max(s["units_per_s"] for s in stats)
        metrics = {
            **layers.layer_metrics(stats),
            "harness.directed_turns": (turns_per_round, "count"),
            "trace.units_per_s": (traced_ups, "units/s"),
            "trace.slowdown": (untraced_ups / traced_ups, "x"),
        }
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{seed}.npz")
    shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(
        f"# {args.workload} seed={seed} rounds={len(rounds)} traced_rounds={len(traced)} "
        f"units/round={rounds[0].units} directed_turns={turns_per_round} "
        f"digest={min(digests)}"
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
