"""Idle-time acquisition: value gating, budgeted search, artifact synthesis.

Each queued candidate is scored on four 0-100 components (relevance,
knowledge gap, incremental value, timeliness) whose weighted sum decides
whether to search immediately, defer, store a note, or drop. Acquisition
itself is tiered by how much existing memory already covers the retrieval
plan, and every acquisition spends one unit of the per-idle-window budget.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Callable, Optional, Sequence

from foresight.backends import ConfigurationError
from foresight.config import RunConfig, Weights
from foresight.memory import Arbiter, MemoryState
from foresight.prediction import CandidateNeed

logger = logging.getLogger(__name__)


class AcquisitionDecision(str, Enum):
    SEARCH_NOW = "search_now"
    QUEUE = "queue"
    STORE_ONLY = "store_only"
    DROP = "drop"


@dataclass(frozen=True)
class ValueScores:
    relevance: float
    knowledge_gap: float
    incremental_value: float
    timeliness: float

    def __post_init__(self) -> None:
        for name in ("relevance", "knowledge_gap", "incremental_value", "timeliness"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} out of [0, 100]: {value}")


def value_score(scores: ValueScores, weights: Optional[Weights] = None) -> float:
    """Weighted composite on the 0-100 scale. Gating uses this exact value."""
    w = weights or Weights()
    return (
        w.relevance * scores.relevance
        + w.knowledge_gap * scores.knowledge_gap
        + w.incremental_value * scores.incremental_value
        + w.timeliness * scores.timeliness
    )


def display_score(score: float) -> int:
    """Half-up integer rounding for logs and reports only (82.5 -> 83)."""
    return int(math.floor(score + 0.5))


def gate(
    scores: ValueScores, composite: float, threshold: float = RunConfig.value_threshold
) -> AcquisitionDecision:
    """Threshold rule plus the sub-threshold triage on components."""
    if composite >= threshold:
        return AcquisitionDecision.SEARCH_NOW
    if scores.relevance >= threshold and scores.timeliness >= threshold:
        return AcquisitionDecision.QUEUE
    if scores.knowledge_gap >= threshold:
        return AcquisitionDecision.STORE_ONLY
    return AcquisitionDecision.DROP


@dataclass
class BudgetState:
    k: int  # max acquisitions per idle window
    k_remaining: int = -1

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ConfigurationError(f"invalid budget: k={self.k}")
        if self.k_remaining < 0:
            self.k_remaining = self.k


@dataclass(frozen=True)
class Evidence:
    source: str  # memory | search
    ref: str  # record id or search query
    excerpt: str

    def __post_init__(self) -> None:
        if self.source not in ("memory", "search"):
            raise ValueError(f"unknown evidence source {self.source!r}")


@dataclass(frozen=True)
class KnowledgeArtifact:
    id: str
    candidate: CandidateNeed
    preparation_note: str
    provenance: tuple[Evidence, ...]
    value_scores: ValueScores
    created_at: datetime

    def __post_init__(self) -> None:
        if not self.provenance:
            raise ValueError("artifact provenance must be non-empty")


@dataclass(frozen=True)
class AcquisitionOutcome:
    artifact: Optional[KnowledgeArtifact]
    demoted_to_store: bool = False


# Search backends take a query string and return evidence items.
Searcher = Callable[[str], list[Evidence]]
# Synthesizer backends compose the preparation note from candidate + evidence.
Synthesizer = Callable[[CandidateNeed, Sequence[Evidence]], str]


def _artifact_id(candidate: CandidateNeed, note: str) -> str:
    digest = hashlib.sha256(f"{candidate.topic}\n{note}".encode("utf-8")).hexdigest()
    return f"art-{digest[:12]}"


def synthesize_artifact(
    candidate: CandidateNeed,
    evidence: Sequence[Evidence],
    synthesizer: Synthesizer,
    memory: MemoryState,
    arbiter: Arbiter,
    value_scores: ValueScores,
) -> KnowledgeArtifact:
    """Compose the preparation note and persist the artifact to memory.

    A synthesizer fault propagates and nothing is written. Re-synthesizing an
    identical candidate/evidence pair lands on the exact-hash dedup path, so
    the stored artifact count stays stable.
    """
    if not evidence:
        raise ValueError("synthesis requires at least one evidence item")
    for item in evidence:
        if item.source == "memory" and item.ref not in memory.records:
            raise ValueError(f"provenance references unknown memory record {item.ref}")
    note = synthesizer(candidate, evidence)
    artifact = KnowledgeArtifact(
        id=_artifact_id(candidate, note),
        candidate=candidate,
        preparation_note=note,
        provenance=tuple(evidence),
        value_scores=value_scores,
        created_at=memory.clock.now(),
    )
    # First content line is the topic; the prediction filter keys on it.
    memory.add_knowledge("artifact", f"{candidate.topic}\n{note}", arbiter)
    return artifact


def acquire(
    candidate: CandidateNeed,
    memory: MemoryState,
    searcher: Searcher,
    synthesizer: Synthesizer,
    arbiter: Arbiter,
    budget: BudgetState,
    value_scores: ValueScores,
    search_round_cap: int = RunConfig.search_round_cap,
) -> AcquisitionOutcome:
    """Tiered acquisition for one gated candidate.

    high coverage: reuse memory evidence, no searches.
    partial coverage: one search per missing subtopic.
    low coverage: iterate search rounds over unresolved subtopics up to the cap.

    A searcher fault mid-way degrades gracefully: the artifact is built from
    evidence gathered so far, or the candidate is demoted to store_only when
    nothing was gathered.
    """
    if budget.k_remaining < 1:
        raise ConfigurationError("acquisition requires k_remaining >= 1")
    budget.k_remaining -= 1

    report = memory.coverage_check(candidate.retrieval_query, candidate.subtopics)
    evidence: list[Evidence] = []
    for record_id in report.supporting_record_ids:
        record = memory.records[record_id]
        evidence.append(Evidence(source="memory", ref=record_id, excerpt=record.content))

    failed = False
    if report.level in ("partial", "low"):
        unresolved = list(report.missing_subtopics)
        rounds = 1 if report.level == "partial" else search_round_cap
        for _ in range(rounds):
            if not unresolved or failed:
                break
            still_missing = []
            for subtopic in unresolved:
                try:
                    found = searcher(subtopic)
                except Exception as exc:
                    logger.warning("searcher failed on %r: %s", subtopic, exc)
                    failed = True
                    break
                if found:
                    evidence.extend(found)
                else:
                    still_missing.append(subtopic)
            unresolved = still_missing

    if not evidence:
        return AcquisitionOutcome(artifact=None, demoted_to_store=True)

    artifact = synthesize_artifact(candidate, evidence, synthesizer, memory, arbiter, value_scores)
    # Extracted search evidence is kept as standalone research facts so later
    # coverage checks can reuse it without re-searching.
    for item in evidence:
        if item.source == "search":
            memory.add_knowledge("research_fact", item.excerpt, arbiter)
    return AcquisitionOutcome(artifact=artifact, demoted_to_store=False)


__all__ = [
    "AcquisitionDecision",
    "AcquisitionOutcome",
    "BudgetState",
    "ConfigurationError",
    "Evidence",
    "KnowledgeArtifact",
    "Searcher",
    "Synthesizer",
    "ValueScores",
    "acquire",
    "display_score",
    "gate",
    "synthesize_artifact",
    "value_score",
]
