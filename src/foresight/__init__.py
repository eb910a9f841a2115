"""Proactive-agent runtime and closed-loop evaluation harness.

The package has two halves. The runtime half maintains a memory layer,
predicts likely future user needs, prepares knowledge artifacts for them
during idle windows under a search budget, and decides per artifact whether
to push, queue, or silently store it. The harness half replays scripted
scenarios against that runtime under three conditions (reactive,
undirected_idle, directed_idle) and scores the resulting conversations.
"""

from foresight.acquisition import (
    AcquisitionDecision,
    BudgetState,
    KnowledgeArtifact,
    ValueScores,
    display_score,
    gate,
    value_score,
)
from foresight.config import Condition, Weights
from foresight.delivery import DeliveryAction, PushAssessment, decide_delivery, push_score
from foresight.harness import run_scenario
from foresight.memory import AddOutcome, MemoryState
from foresight.metrics import MetricSet, compute_metrics, paired_bootstrap, t_alpha
from foresight.prediction import CandidateNeed, filter_candidates, generate_candidates
from foresight.scenarios import (
    Scenario,
    composition_stats,
    parse_scenario,
    runtime_view,
    serialize_scenario,
    stratify,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionDecision",
    "AddOutcome",
    "BudgetState",
    "CandidateNeed",
    "Condition",
    "DeliveryAction",
    "KnowledgeArtifact",
    "MemoryState",
    "MetricSet",
    "PushAssessment",
    "Scenario",
    "ValueScores",
    "Weights",
    "compute_metrics",
    "composition_stats",
    "decide_delivery",
    "display_score",
    "filter_candidates",
    "gate",
    "generate_candidates",
    "paired_bootstrap",
    "parse_scenario",
    "push_score",
    "run_scenario",
    "runtime_view",
    "serialize_scenario",
    "stratify",
    "t_alpha",
    "validate_scenario",
    "value_score",
    "__version__",
]
