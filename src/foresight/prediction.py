"""Future-need prediction: candidate generation, filtering, and queueing.

A predictor backend proposes candidate needs from the conversation so far;
detected memory gaps contribute additional candidates. Candidates below the
confidence threshold are dropped, candidates already answered by a stored
artifact are dropped, and near-identical topics are collapsed to their
highest-confidence representative before entering the priority queue.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Callable, Optional, Sequence

from foresight.config import RunConfig
from foresight.embedding import cosine, embed
from foresight.memory import MemoryState

logger = logging.getLogger(__name__)

CANDIDATE_SOURCES = ("scenario", "related", "memory_gap")

_SOURCE_RANK = {"scenario": 0, "related": 1, "memory_gap": 2}


@dataclass(frozen=True)
class CandidateNeed:
    topic: str
    need: str
    reason: str
    confidence: float
    retrieval_query: str
    subtopics: tuple[str, ...] = ()
    source: str = "scenario"

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range: {self.confidence}")
        if self.source not in CANDIDATE_SOURCES:
            raise ValueError(f"unknown candidate source {self.source!r}")
        if not self.need or not self.retrieval_query:
            raise ValueError("need and retrieval_query must be non-empty")


# Predictor backends receive (history, memory) and return raw candidates.
Predictor = Callable[[Sequence[dict], MemoryState], list[CandidateNeed]]


def generate_candidates(
    history: Sequence[dict],
    memory: MemoryState,
    predictor: Predictor,
    cfg: Optional[RunConfig] = None,
) -> list[CandidateNeed]:
    """Raw candidate set for one idle window.

    Requires at least one completed exchange; idle work never runs ahead of
    the first turn. Predictor candidates are capped at
    ``max_predictor_candidates`` by descending confidence; memory-gap
    candidates are appended afterwards and do not count against the cap.
    A predictor fault yields an empty list: idle work must never take down
    the foreground conversation.
    """
    if not history:
        raise ValueError("prediction requires at least one completed exchange")
    cfg = cfg or RunConfig()

    try:
        raw = list(predictor(history, memory))
    except Exception as exc:
        logger.warning("predictor backend failed, skipping idle prediction: %s", exc)
        return []

    raw.sort(key=lambda c: (-c.confidence, c.topic, c.need))
    candidates = raw[: cfg.max_predictor_candidates]

    gaps = memory.detect_gaps(now=memory.clock.now(), staleness=timedelta(seconds=cfg.gap_staleness_seconds))
    for gap in gaps:
        topic = gap.topic[:80]
        candidates.append(
            CandidateNeed(
                topic=topic,
                need=f"refresh knowledge: {topic}",
                reason=f"memory gap ({gap.reason})",
                confidence=cfg.memory_gap_confidence,
                retrieval_query=topic,
                subtopics=(),
                source="memory_gap",
            )
        )
    return candidates


def filter_candidates(
    raw: Sequence[CandidateNeed], memory: MemoryState, cfg: Optional[RunConfig] = None
) -> list[CandidateNeed]:
    """Confidence gate, stored-artifact dedup, then per-topic collapse.

    A candidate is dropped as already answered when, for some active
    artifact, ``cosine(embed(candidate.topic), embed(artifact_topic(record)))``
    reaches ``topic_dedup_threshold``.
    """
    cfg = cfg or RunConfig()
    survivors = [c for c in raw if c.confidence >= cfg.confidence_threshold]
    threshold = cfg.topic_dedup_threshold

    topics = memory.artifact_topics()
    if len(topics):
        survivors = [c for c in survivors if not topics.search(embed(c.topic), threshold, k=1)]

    # Collapse near-identical topics, keeping the max-confidence
    # representative; each topic's squared norm is computed once, not per pair.
    survivors.sort(key=lambda c: (-c.confidence, c.topic, c.need))
    result: list[CandidateNeed] = []
    kept: list[tuple] = []  # (vector, squared norm) of each kept topic
    for candidate in survivors:
        cvec = embed(candidate.topic)
        cc = float(cvec.dot(cvec))
        if any(cosine(cvec, kv, cc, kk) >= threshold for kv, kk in kept):
            continue
        result.append(candidate)
        kept.append((cvec, cc))
    return result


@dataclass
class CandidateQueue:
    """Priority queue ordered by confidence desc, source rank, topic, need."""

    _heap: list = field(default_factory=list)
    _tick: int = 0

    @staticmethod
    def _key(candidate: CandidateNeed) -> tuple:
        return (-candidate.confidence, _SOURCE_RANK[candidate.source], candidate.topic, candidate.need)

    def push(self, candidate: CandidateNeed) -> None:
        self._tick += 1
        heapq.heappush(self._heap, (self._key(candidate), self._tick, candidate))

    def extend(self, candidates: Sequence[CandidateNeed]) -> None:
        for candidate in candidates:
            self.push(candidate)

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self) -> CandidateNeed:
        return heapq.heappop(self._heap)[2]


__all__ = [
    "CANDIDATE_SOURCES",
    "CandidateNeed",
    "CandidateQueue",
    "Predictor",
    "filter_candidates",
    "generate_candidates",
]
