"""Future-need prediction: candidate generation, filtering, and ordering.

A predictor backend proposes candidate needs from the conversation so far;
detected memory gaps contribute additional candidates. Candidates below the
confidence threshold are dropped, candidates already answered by a stored
artifact are dropped, and near-identical topics are collapsed to their
highest-confidence representative. The idle window takes the survivors in
``candidate_order``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import timedelta
from typing import Callable, Sequence

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

    try:
        raw = list(predictor(history, memory))
    except Exception as exc:
        logger.warning("predictor backend failed, skipping idle prediction: %s", exc)
        return []

    raw.sort(key=lambda c: (-c.confidence, c.topic, c.need))
    candidates = raw[: RunConfig.max_predictor_candidates]

    staleness = timedelta(seconds=RunConfig.gap_staleness_seconds)
    gaps = memory.detect_gaps(now=memory.clock.now(), staleness=staleness)
    for gap in gaps:
        topic = gap.topic[:80]
        candidates.append(
            CandidateNeed(
                topic=topic,
                need=f"refresh knowledge: {topic}",
                reason=f"memory gap ({gap.reason})",
                confidence=RunConfig.memory_gap_confidence,
                retrieval_query=topic,
                subtopics=(),
                source="memory_gap",
            )
        )
    return candidates


def filter_candidates(raw: Sequence[CandidateNeed], memory: MemoryState) -> list[CandidateNeed]:
    """Confidence gate, stored-artifact dedup, then per-topic collapse.

    A candidate is dropped as already answered when, for some active
    artifact, ``cosine(embed(candidate.topic), embed(artifact_topic(record)))``
    reaches ``topic_dedup_threshold``.
    """
    survivors = [c for c in raw if c.confidence >= RunConfig.confidence_threshold]
    threshold = RunConfig.topic_dedup_threshold

    topics = memory.artifact_topics()
    if len(topics):
        survivors = [c for c in survivors if not topics.search(c.topic, threshold, k=1)]

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


def candidate_order(candidate: CandidateNeed) -> tuple:
    """Sort key of the idle window: confidence desc, source rank, topic, need."""
    return (-candidate.confidence, _SOURCE_RANK[candidate.source], candidate.topic, candidate.need)


__all__ = [
    "CANDIDATE_SOURCES",
    "CandidateNeed",
    "Predictor",
    "candidate_order",
    "filter_candidates",
    "generate_candidates",
]
