"""Run configuration and the evaluation conditions, shared by the harness and the CLI.

``RunConfig`` is the only run configuration: memory, prediction and
acquisition read their settings from it, and their defaults are its field
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from foresight.backends import ConfigurationError


class Condition(str, Enum):
    REACTIVE = "reactive"
    UNDIRECTED_IDLE = "undirected_idle"
    DIRECTED_IDLE = "directed_idle"


VALID_CONDITIONS = tuple(condition.value for condition in Condition)
VALID_BACKENDS = ("oracle", "http")
WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Weights:
    relevance: float = 0.25
    knowledge_gap: float = 0.25
    incremental_value: float = 0.25
    timeliness: float = 0.25

    def __post_init__(self) -> None:
        parts = (self.relevance, self.knowledge_gap, self.incremental_value, self.timeliness)
        if any(w < 0.0 for w in parts):
            raise ConfigurationError(f"weights must be non-negative: {parts}")
        if abs(sum(parts) - 1.0) > WEIGHT_TOLERANCE:
            raise ConfigurationError(f"weights must sum to 1.0, got {sum(parts)!r}")


@dataclass(frozen=True)
class RunConfig:
    conditions: tuple[str, ...] = VALID_CONDITIONS
    seed: int = 42
    horizon: int = 12
    budget_k: int = 3
    confidence_threshold: float = 0.6
    value_threshold: float = 60.0
    weights: Weights = field(default_factory=Weights)
    max_predictor_candidates: int = 3
    topic_dedup_threshold: float = 0.85
    near_dup_threshold: float = 0.88
    coverage_threshold: float = 0.80
    memory_gap_confidence: float = 0.70
    gap_staleness_seconds: float = 3600.0
    search_round_cap: int = 4  # per-candidate cap on iterative search rounds
    backend: str = "oracle"
    endpoint: Optional[str] = None
    parallel: int = 1

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ConfigurationError("at least one condition required")
        for condition in self.conditions:
            if condition not in VALID_CONDITIONS:
                raise ConfigurationError(f"unknown condition {condition!r}")
        if self.backend not in VALID_BACKENDS:
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if self.budget_k < 0:
            raise ConfigurationError(f"budget_k must be >= 0, got {self.budget_k}")
        if self.parallel < 1:
            raise ConfigurationError(f"parallel must be >= 1, got {self.parallel}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigurationError(f"confidence_threshold out of [0, 1]")
        if not 0.0 <= self.value_threshold <= 100.0:
            raise ConfigurationError(f"value_threshold out of [0, 100]")
        for name in ("topic_dedup_threshold", "near_dup_threshold", "coverage_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} out of [0, 1]: {value}")


__all__ = ["Condition", "RunConfig", "VALID_BACKENDS", "VALID_CONDITIONS", "Weights"]
