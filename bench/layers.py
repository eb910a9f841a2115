"""Outside-in instrumentation: every probe wraps a public function at the
binding its caller actually looks up, so no program file changes.

``UnitClock`` is installed for untraced rounds only; it costs a clock read
per unit and turn and one run of the reference kernel per 10 ms of the round.
``Tracer`` is installed only for traced rounds: it keeps one span (name,
start, end, parent) per wrapped call in flat arrays and counts outcomes at
the same boundaries.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import numpy as np

import speed

from foresight import cli, harness, memory, prediction
from foresight.harness import Condition
from foresight.memory import MemoryState
from foresight.oracles import OracleBackends


def _patch(owner, attr: str, make: Callable) -> tuple:
    """Replace ``owner.attr`` by ``make(original)``; returns an undo record."""
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(make(original.__func__)))
    else:
        setattr(owner, attr, make(original))
    return owner, attr, original


def _unpatch(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


# Shortest stretch of a round between two speed samples: long enough that the
# kernel adds about a fifth to a round, short enough to follow speed changes.
SEGMENT_S = 0.010


class UnitClock:
    """Scaled time of one round, and the wall time of every ``directed_idle`` turn.

    The clock cuts a round into segments and times the reference kernel
    (``speed.kernel``) after each one, outside every segment, so each
    segment can be scaled by the CPU speed of its moment (``ref_s[i]`` goes
    with ``seg_s[i]``). A segment ends at the first boundary at least
    ``SEGMENT_S`` after it began; boundaries are ``OracleBackends.simulate``
    calls and the ends of ``run_scenario`` and ``MemoryState.save`` calls;
    ``running`` opens the first segment and closes the last. A turn runs
    from one simulate call of a ``directed_idle`` unit to the next; the
    last turn of a unit ends when ``run_scenario`` returns. ``turn_seg[j]``
    is the segment turn ``j`` ends in. A failed unit counts every turn it
    reached, plus one, as a miss (infinite latency, segment -1).
    """

    def __init__(self) -> None:
        self.seg_s: list[float] = []
        self.ref_s: list[float] = []
        self.turn_s: list[float] = []
        self.turn_seg: list[int] = []
        self._seg_start = 0.0
        self._unit_turns: Optional[list[tuple[float, int]]] = None  # open directed unit
        self._turn_start: Optional[float] = None
        self._undo: list = []

    @contextlib.contextmanager
    def running(self):
        """Times the round's batch: the code run inside this block."""
        self._seg_start = time.perf_counter()
        try:
            yield
        finally:
            self._boundary(force=True)

    def take(self) -> tuple[list[float], list[float], list[float], list[int]]:
        """The recorded segments, kernel times, turns and turn segments; starts afresh."""
        taken = self.seg_s, self.ref_s, self.turn_s, self.turn_seg
        self.seg_s, self.ref_s, self.turn_s, self.turn_seg = [], [], [], []
        return taken

    def _boundary(self, force: bool = False) -> tuple[float, int, float]:
        """Ends the open segment here if it is long enough.

        Returns the time the program paused, the segment it paused in, and
        the time it resumes (later by the kernel's run when one ran).
        """
        now = time.perf_counter()
        seg = len(self.seg_s)
        if force or now - self._seg_start >= SEGMENT_S:
            self.seg_s.append(now - self._seg_start)
            self.ref_s.append(speed.kernel())
            self._seg_start = time.perf_counter()
            return now, seg, self._seg_start
        return now, seg, now

    def _end_turn(self, end: float, seg: int) -> None:
        if self._unit_turns is not None and self._turn_start is not None:
            self._unit_turns.append((end - self._turn_start, seg))
        self._turn_start = None

    def install(self) -> None:
        def make_run(run_scenario):
            def timed_run_scenario(scenario, condition, *args, **kwargs):
                directed = Condition(condition) is Condition.DIRECTED_IDLE
                self._unit_turns, self._turn_start = ([] if directed else None), None
                try:
                    outcome = run_scenario(scenario, condition, *args, **kwargs)
                    end, seg, _ = self._boundary()
                    self._end_turn(end, seg)
                    turns = self._unit_turns
                finally:
                    self._unit_turns = self._turn_start = None
                if directed and outcome.result.status == "failed":
                    self.turn_s.extend([math.inf] * (len(turns) + 1))
                    self.turn_seg.extend([-1] * (len(turns) + 1))
                elif directed:
                    self.turn_s.extend(t for t, _ in turns)
                    self.turn_seg.extend(seg for _, seg in turns)
                return outcome

            return timed_run_scenario

        def make_simulate(simulate):
            def timed_simulate(backends, covered):
                end, seg, resume = self._boundary()
                self._end_turn(end, seg)
                step = simulate(backends, covered)
                if step is not None:
                    self._turn_start = resume
                return step

            return timed_simulate

        def make_save(save):
            def timed_save(state, path):
                save(state, path)
                self._boundary()

            return timed_save

        self._undo.append(_patch(harness, "run_scenario", make_run))
        self._undo.append(_patch(OracleBackends, "simulate", make_simulate))
        self._undo.append(_patch(MemoryState, "save", make_save))

    def uninstall(self) -> None:
        _unpatch(self._undo)


# -- per-layer probes ------------------------------------------------------
# Each observer gets (counts, positional args, result) after a call returns.


def _obs_embed(counts, args, result):
    counts["embedding.embed.chars"] += len(args[0])


def _obs_add(counts, args, result):
    counts[f"memory.add_knowledge.{result.outcome.value}"] += 1


def _obs_coverage(counts, args, result):
    counts[f"memory.coverage_check.{result.level}"] += 1


def _obs_gaps(counts, args, result):
    counts["memory.detect_gaps.gaps"] += len(result)


def _obs_filter(counts, args, result):
    counts["prediction.filter_candidates.in"] += len(args[0])
    counts["prediction.filter_candidates.out"] += len(result)


def _obs_gate(counts, args, result):
    counts[f"acquisition.gate.{result.value}"] += 1


def _obs_acquire(counts, args, result):
    counts["acquisition.acquire.artifacts"] += result.artifact is not None


def _obs_delivery(counts, args, result):
    for action in result.values():
        counts[f"delivery.{action.value}"] += 1


def _obs_search(counts, args, result):
    counts["oracles.search.hits"] += bool(result)


# (owner, attribute, layer.function, observer). Owners are the modules whose
# globals the caller resolves at call time, or classes for methods.
PROBES = [
    (memory, "embed", "embedding.embed", _obs_embed),
    (prediction, "embed", "embedding.embed", _obs_embed),
    (memory, "cosine", "embedding.cosine", None),
    (prediction, "cosine", "embedding.cosine", None),
    (MemoryState, "add_knowledge", "memory.add_knowledge", _obs_add),
    (MemoryState, "vector_search", "memory.vector_search", None),
    (MemoryState, "coverage_check", "memory.coverage_check", _obs_coverage),
    (MemoryState, "detect_gaps", "memory.detect_gaps", _obs_gaps),
    (MemoryState, "from_snapshot", "memory.from_snapshot", None),
    (MemoryState, "save", "memory.save", None),
    (harness, "generate_candidates", "prediction.generate_candidates", None),
    (harness, "filter_candidates", "prediction.filter_candidates", _obs_filter),
    (harness, "gate", "acquisition.gate", _obs_gate),
    (harness, "acquire_candidate", "acquisition.acquire", _obs_acquire),
    (harness, "decide_delivery", "delivery.decide_delivery", _obs_delivery),
    (harness, "commit_window", "delivery.commit_window", None),
    (harness, "compute_metrics", "metrics.compute_metrics", None),
    (harness, "run_scenario", "harness.run_scenario", None),
    (cli, "run_many", "harness.run_many", None),
    (cli, "aggregate", "metrics.aggregate", None),
    (cli, "parse_scenario", "scenarios.parse_scenario", None),
    (cli, "validate_scenario", "scenarios.validate_scenario", None),
    (cli, "cmd_run", "cli.cmd_run", None),
] + [
    (OracleBackends, role, f"oracles.{role}", _obs_search if role == "search" else None)
    for role in (
        "simulate", "respond", "judge", "push_reply", "predict", "unguided",
        "assess_value", "search", "synthesize", "assess_push", "arbitrate",
    )
]

FUNCTIONS = sorted({name for _, _, name, _ in PROBES})

COUNTS = (
    "embedding.embed.chars",
    *(f"memory.add_knowledge.{o}" for o in ("added", "duplicate", "skipped", "replaced", "merged")),
    *(f"memory.coverage_check.{level}" for level in ("high", "partial", "low")),
    "memory.detect_gaps.gaps",
    "prediction.filter_candidates.in",
    "prediction.filter_candidates.out",
    *(f"acquisition.gate.{d}" for d in ("search_now", "queue", "store_only", "drop")),
    *(f"delivery.{a}" for a in ("push", "queue", "store")),
)


class Tracer:
    """Spans and outcome counts for one traced round at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.unit_active: list[int] = []
        self.unit_chars: list[int] = []
        self._stack = [-1]
        self._undo: list = []

    def reset(self) -> None:
        for column in (self.name_ids, self.starts, self.ends, self.parents):
            del column[:]
        self.counts.clear()
        self.unit_active.clear()
        self.unit_chars.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, observe) -> Callable:
        nid = self._name_id(name)
        name_ids, starts, ends, parents, stack = self.name_ids, self.starts, self.ends, self.parents, self._stack
        counts = self.counts
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(name_ids)
                name_ids.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if observe is not None:
                    observe(counts, args, result)
                return result

            return traced

        return make

    def install(self) -> None:
        for owner, attr, name, observe in PROBES:
            self._undo.append(_patch(owner, attr, self._span(name, observe)))

        # Working set at unit end, read outside the run_scenario span.
        def make_unit_probe(run_scenario):
            def probed(*args, **kwargs):
                outcome = run_scenario(*args, **kwargs)
                if outcome.memory is not None:
                    active = outcome.memory.active_records()
                    self.unit_active.append(len(active))
                    self.unit_chars.append(max((len(r.content) for r in active), default=0))
                return outcome

            return probed

        self._undo.append(_patch(harness, "run_scenario", make_unit_probe))

    def uninstall(self) -> None:
        _unpatch(self._undo)

    def round_stats(self) -> dict[str, float]:
        """Calls, self milliseconds and counts of the recorded round, by metric name."""
        stats: dict[str, float] = dict(self.counts)
        for name, (calls, own_s) in self.self_times().items():
            stats[f"{name}.calls"] = calls
            stats[f"{name}.self_ms"] = own_s * 1e3
        stats["memory.active_records.p50"] = statistics.median(self.unit_active) if self.unit_active else 0
        stats["memory.active_records.max"] = max(self.unit_active, default=0)
        stats["memory.content_chars.max"] = max(self.unit_chars, default=0)
        return stats

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the recorded spans."""
        ids = np.frombuffer(self.name_ids, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        children = np.zeros(len(duration))
        np.add.at(children, parents[nested], duration[nested])
        own = duration - children
        calls = np.bincount(ids, minlength=len(self.names))
        own_total = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(own_total[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as compressed integer columns, one row per span in start order.

        Cumulative sums of ``start_gap_ns`` give each span's start relative
        to the first; ``parent`` is the row index of the enclosing span or -1;
        ``names[name_id]`` is the probe name.
        """
        start = np.frombuffer(self.starts)
        start_ns = np.round((start - (start[0] if len(start) else 0.0)) * 1e9).astype(np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int64).astype(np.uint8),
            parent=np.frombuffer(self.parents, dtype=np.int64).astype(np.int32),
            start_gap_ns=np.diff(start_ns, prepend=0),
            duration_ns=np.round((np.frombuffer(self.ends) - start) * 1e9).astype(np.int64),
        )


RATIOS = {  # name -> (useful outcomes, attempts)
    "prediction.filter_candidates.keep_ratio": ("prediction.filter_candidates.out", "prediction.filter_candidates.in"),
    "acquisition.acquire.artifact_ratio": ("acquisition.acquire.artifacts", "acquisition.acquire.calls"),
    "oracles.search.hit_ratio": ("oracles.search.hits", "oracles.search.calls"),
}


def layer_metrics(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the ``round_stats`` of each traced round.

    Counts repeat exactly from round to round and come from the last one;
    self times come from the fastest traced round.
    """
    last = rounds[-1]
    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (last[f"{name}.calls"], "count")
        metrics[f"{name}.self_ms"] = (min(r[f"{name}.self_ms"] for r in rounds), "ms")
    for name in COUNTS:
        metrics[name] = (last.get(name, 0), "count")
    for name, (useful, attempts) in RATIOS.items():
        metrics[name] = (last.get(useful, 0) / last[attempts] if last.get(attempts) else 0.0, "ratio")
    for name in ("memory.active_records.p50", "memory.active_records.max", "memory.content_chars.max"):
        metrics[name] = (last[name], "count")
    return metrics
