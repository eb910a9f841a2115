"""Delivery decisions for prepared artifacts.

An artifact that survived acquisition is already stored in memory. Delivery
decides whether to push it to the user right away, queue it for the next
natural conversation turn, or leave it silently stored, and writes no memory.
Interruption is rationed: at most one push per idle window, and only when
the push score clears the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Optional, Sequence

from foresight.acquisition import KnowledgeArtifact

PUSH_FLOOR = 40.0
HIGH_PRIORITY = 70.0


class DeliveryAction(str, Enum):
    PUSH = "push"
    QUEUE = "queue"
    STORE = "store"


@dataclass(frozen=True)
class PushAssessment:
    artifact_id: str
    value: float  # how much the user gains from seeing it now
    cost: float  # interruption burden right now
    created_at: datetime

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 100.0:
            raise ValueError(f"value out of [0, 100]: {self.value}")
        if not 0.0 <= self.cost <= 100.0:
            raise ValueError(f"cost out of [0, 100]: {self.cost}")


def push_score(value: float, cost: float) -> float:
    """value - cost shifted to a 0-100 scale and clipped."""
    if not 0.0 <= value <= 100.0:
        raise ValueError(f"value out of [0, 100]: {value}")
    if not 0.0 <= cost <= 100.0:
        raise ValueError(f"cost out of [0, 100]: {cost}")
    raw = value - cost + 50.0
    return max(0.0, min(100.0, raw))


def is_high_priority(score: float) -> bool:
    return score >= HIGH_PRIORITY


def decide_delivery(assessments: Sequence[PushAssessment]) -> dict[str, DeliveryAction]:
    """Assign one action per assessed artifact.

    Scores at or below the floor always store. Above the floor, only the
    single best-scoring artifact pushes; ties break toward the earliest
    created_at, then the lexicographically smallest artifact id. Everything
    else above the floor queues for the next turn.
    """
    actions: dict[str, DeliveryAction] = {}
    scored = [(a, push_score(a.value, a.cost)) for a in assessments]

    winner: Optional[str] = None
    best_key = None
    for assessment, score in scored:
        if score <= PUSH_FLOOR:
            continue
        key = (-score, assessment.created_at, assessment.artifact_id)
        if best_key is None or key < best_key:
            best_key = key
            winner = assessment.artifact_id

    for assessment, score in scored:
        if assessment.artifact_id == winner:
            actions[assessment.artifact_id] = DeliveryAction.PUSH
        elif score <= PUSH_FLOOR:
            actions[assessment.artifact_id] = DeliveryAction.STORE
        else:
            actions[assessment.artifact_id] = DeliveryAction.QUEUE
    return actions


@dataclass(frozen=True)
class Notification:
    artifact_id: str
    topic: str
    body: str
    high_priority: bool


def commit_window(
    actions: dict[str, DeliveryAction],
    artifacts: Sequence[KnowledgeArtifact],
    assessments: Sequence[PushAssessment],
    pending: list[KnowledgeArtifact],
) -> Optional[Notification]:
    """Route one window's delivery decisions; memory is not touched.

    Every artifact was stored in memory when it was synthesized, so a
    stored one needs nothing more. Queued artifacts land in the caller's
    pending list for the next turn. Returns the notification for the
    pushed artifact, if any.
    """
    by_id = {a.id: a for a in artifacts}
    scores = {a.artifact_id: push_score(a.value, a.cost) for a in assessments}
    notification: Optional[Notification] = None
    for artifact_id, action in sorted(actions.items()):
        artifact = by_id.get(artifact_id)
        if artifact is None:
            raise KeyError(f"decision references unknown artifact {artifact_id}")
        if action is DeliveryAction.QUEUE:
            pending.append(artifact)
        elif action is DeliveryAction.PUSH:
            notification = Notification(
                artifact_id=artifact_id,
                topic=artifact.candidate.topic,
                body=artifact.preparation_note,
                high_priority=is_high_priority(scores.get(artifact_id, 0.0)),
            )
    return notification


__all__ = [
    "DeliveryAction",
    "HIGH_PRIORITY",
    "Notification",
    "PUSH_FLOOR",
    "PushAssessment",
    "commit_window",
    "decide_delivery",
    "is_high_priority",
    "push_score",
]
