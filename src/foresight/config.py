"""Run configuration and the evaluation conditions, shared by the harness and the CLI.

``RunConfig``'s fields are what a run sets: the conditions, seed, horizon,
idle-search budget, backend and parallelism that ``foresight run`` and
``foresight sweep`` take. Its class constants are the paper's fixed
hyperparameters, which memory, prediction and acquisition read as
``RunConfig.X``; no run changes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional

from foresight.backends import ConfigurationError


class Condition(str, Enum):
    REACTIVE = "reactive"
    UNDIRECTED_IDLE = "undirected_idle"
    DIRECTED_IDLE = "directed_idle"


VALID_CONDITIONS = tuple(condition.value for condition in Condition)
VALID_BACKENDS = ("oracle", "http")


@dataclass(frozen=True)
class RunConfig:
    conditions: tuple[str, ...] = VALID_CONDITIONS
    seed: int = 42
    horizon: int = 12
    budget_k: int = 3
    backend: str = "oracle"
    endpoint: Optional[str] = None
    parallel: int = 1

    confidence_threshold: ClassVar[float] = 0.6
    value_threshold: ClassVar[float] = 60.0
    max_predictor_candidates: ClassVar[int] = 3
    topic_dedup_threshold: ClassVar[float] = 0.85
    near_dup_threshold: ClassVar[float] = 0.88
    coverage_threshold: ClassVar[float] = 0.80
    memory_gap_confidence: ClassVar[float] = 0.70
    gap_staleness_seconds: ClassVar[float] = 3600.0
    search_round_cap: ClassVar[int] = 4  # per-candidate cap on iterative search rounds

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ConfigurationError("at least one condition required")
        for condition in self.conditions:
            if condition not in VALID_CONDITIONS:
                raise ConfigurationError(f"unknown condition {condition!r}")
        if len(set(self.conditions)) != len(self.conditions):
            raise ConfigurationError(f"repeated condition in {list(self.conditions)}")
        if self.backend not in VALID_BACKENDS:
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.backend == "http" and not self.endpoint:
            raise ConfigurationError("http backend requires --endpoint")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if self.budget_k < 0:
            raise ConfigurationError(f"budget_k must be >= 0, got {self.budget_k}")
        if self.parallel < 1:
            raise ConfigurationError(f"parallel must be >= 1, got {self.parallel}")


__all__ = ["Condition", "RunConfig", "VALID_BACKENDS", "VALID_CONDITIONS"]
