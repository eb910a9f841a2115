"""A fixed reference computation that measures how fast the CPU runs right now.

The benchmark runs on shared machines whose speed for pure-Python code
drifts by up to 1.7x in phases of seconds to minutes (other tenants,
frequency changes), and that drift moves every wall time the program shows.
So the benchmark runs ``kernel`` right after each timed piece of the
program and scales the piece by ``NOMINAL_S / t_ref``, where ``t_ref`` is
the kernel time measured right after it: a timing then reads as it would
at the speed at which the kernel takes ``NOMINAL_S``. The kernel calls no
``foresight`` code, so a change to the program moves the scaled timings
and leaves the kernel alone.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# The kernel's typical time on the 2-vCPU shared machine the benchmark was
# built on, when it runs fast, so that scaled figures read close to wall
# time there.
NOMINAL_S = 1.0e-3
# Runs of the work per kernel time; the fastest counts, so that a single
# preemption does not pass for a slow machine.
REPEATS = 2

_WORDS = [f"w{(i * 7919) % 613}" for i in range(400)]
_XS = [math.sin(i) for i in range(256)]
_YS = [math.cos(i) for i in range(256)]
# Vectors shaped like the program's embeddings (256 float64 each); the scan
# reads a quarter of them, about 0.5 MB, so the kernel also feels contention
# for the caches, which slows the program's scans over a large memory.
_POOL = [np.random.default_rng(i).random(256) for i in range(1000)]
_PROBE = np.random.default_rng(1000).random(256)


class _Record:
    __slots__ = ("key", "text", "score")

    def __init__(self, key: str, text: str, score: float) -> None:
        self.key, self.text, self.score = key, text, score


def _work() -> float:
    """Dict counting, string splitting, float sums, small objects, a sort
    and a scan of cosine-like scores: the work the program is made of, on
    fixed data. The scan takes about half the time."""
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    tokens = [t.upper() for t in " ".join(_WORDS).split() if len(t) > 2]
    dot = sum(x * y for x, y in zip(_XS, _YS))
    norm = math.sqrt(sum(x * x for x in _XS))
    records = [_Record(k, f"{k}:{v}", v / norm) for k, v in counts.items()]
    records.sort(key=lambda r: (-r.score, r.key))
    best = max(float(np.dot(_PROBE, v) / np.linalg.norm(v)) for v in _POOL[::4])
    return len(tokens) + len(records) + dot + best


def kernel() -> float:
    """Seconds the reference work takes now, garbage collection held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled_call(fn) -> float:
    """Runs ``fn()`` once and returns its time scaled by the median of ten
    kernel times taken just before it and ten just after."""
    before = [kernel() for _ in range(10)]
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    after = [kernel() for _ in range(10)]
    return elapsed * NOMINAL_S / statistics.median(before + after)
