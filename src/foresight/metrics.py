"""Judge-verdict bookkeeping and metric computation for scenario runs.

Holds the structured turn records produced by the harness, the per-scenario
metric formulas, condition-level aggregation with signed deltas, and the
paired bootstrap used for confidence intervals.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from foresight.backends import ConfigurationError

logger = logging.getLogger(__name__)

MODES = ("reactive", "proactive")

# Metrics whose condition deltas are reported as absolute differences rather
# than signed percentages.
ABSOLUTE_DELTA_METRICS = ("anticipation_recall", "judge_anticipation_recall", "active_tokens")

METRIC_FIELDS = (
    "t80",
    "t100",
    "user_effort",
    "fact_accuracy",
    "hallucination_rate",
    "total_coverage",
    "must_have_coverage",
    "anticipation_recall",
    "judge_anticipation_recall",
    "active_tokens",
)


class PairingError(ValueError):
    """Scenario sets do not match across the conditions being compared."""


@dataclass(frozen=True)
class AssistantReply:
    text: str
    delivered_fact_ids: tuple[str, ...] = ()
    distorted_fact_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class NeedMark:
    need_id: str
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class JudgeVerdict:
    facts_conveyed: tuple[str, ...] = ()
    facts_distorted: tuple[str, ...] = ()
    hallucinated_claims: tuple[str, ...] = ()
    needs_addressed: tuple[NeedMark, ...] = ()

    def __post_init__(self) -> None:
        overlap = set(self.facts_conveyed) & set(self.facts_distorted)
        if overlap:
            raise ValueError(f"facts both conveyed and distorted: {sorted(overlap)}")

    def to_dict(self) -> dict:
        return {
            "facts_conveyed": list(self.facts_conveyed),
            "facts_distorted": list(self.facts_distorted),
            "hallucinated_claims": list(self.hallucinated_claims),
            "needs_addressed": [{"need_id": m.need_id, "mode": m.mode} for m in self.needs_addressed],
        }



def merge_verdicts(base: JudgeVerdict, extra: JudgeVerdict) -> JudgeVerdict:
    """Fold a push verdict into the turn's main verdict.

    Facts union (stable order, base first); for needs the base entry wins,
    since the response chronologically precedes the notification.
    """
    seen_needs = {m.need_id for m in base.needs_addressed}
    needs = list(base.needs_addressed) + [m for m in extra.needs_addressed if m.need_id not in seen_needs]

    def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
        out = list(a)
        for item in b:
            if item not in out:
                out.append(item)
        return tuple(out)

    return JudgeVerdict(
        facts_conveyed=_union(base.facts_conveyed, extra.facts_conveyed),
        facts_distorted=_union(base.facts_distorted, extra.facts_distorted),
        hallucinated_claims=_union(base.hallucinated_claims, extra.hallucinated_claims),
        needs_addressed=tuple(needs),
    )


@dataclass(frozen=True)
class TurnRecord:
    index: int  # 1-based
    user_message: Optional[str]
    explicit_ask: bool
    target_need_id: Optional[str]
    assistant_reply: AssistantReply
    verdict: JudgeVerdict
    pushes: tuple[dict, ...] = ()
    idle_token_spend: int = 0

    def __post_init__(self) -> None:
        if self.explicit_ask and self.target_need_id is None:
            raise ValueError("explicit_ask requires a target_need_id")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "user_message": self.user_message,
            "explicit_ask": self.explicit_ask,
            "target_need_id": self.target_need_id,
            "assistant_reply": {
                "text": self.assistant_reply.text,
                "delivered_fact_ids": list(self.assistant_reply.delivered_fact_ids),
                "distorted_fact_ids": list(self.assistant_reply.distorted_fact_ids),
            },
            "verdict": self.verdict.to_dict(),
            "pushes": list(self.pushes),
            "idle_token_spend": self.idle_token_spend,
        }



@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    condition: str
    turns: tuple[TurnRecord, ...]
    status: str  # completed | horizon | failed
    error: Optional[str] = None
    role_tokens: dict = field(default_factory=dict)

    def covered_by_turn(self) -> list[set[str]]:
        """Cumulative covered-need sets, one entry per completed turn."""
        covered: set[str] = set()
        timeline = []
        for turn in self.turns:
            covered |= {m.need_id for m in turn.verdict.needs_addressed}
            timeline.append(set(covered))
        return timeline

    def to_dict(self) -> dict:
        out = {
            "scenario_id": self.scenario_id,
            "condition": self.condition,
            "turns": [t.to_dict() for t in self.turns],
            "status": self.status,
            "role_tokens": self.role_tokens,
        }
        if self.error is not None:
            out["error"] = self.error
        return out



@dataclass(frozen=True)
class MetricSet:
    t80: float
    t100: float
    user_effort: int
    fact_accuracy: float
    hallucination_rate: float
    total_coverage: float
    must_have_coverage: float
    anticipation_recall: float
    judge_anticipation_recall: float
    active_tokens: int
    predictable_count: int = 0
    anticipated_count: int = 0

    def __post_init__(self) -> None:
        if self.t80 > self.t100:
            raise ValueError(f"t80 ({self.t80}) exceeds t100 ({self.t100})")
        for name in (
            "fact_accuracy",
            "hallucination_rate",
            "total_coverage",
            "must_have_coverage",
            "anticipation_recall",
            "judge_anticipation_recall",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")

    def to_dict(self) -> dict:
        return {
            "t80": self.t80,
            "t100": self.t100,
            "user_effort": self.user_effort,
            "fact_accuracy": self.fact_accuracy,
            "hallucination_rate": self.hallucination_rate,
            "total_coverage": self.total_coverage,
            "must_have_coverage": self.must_have_coverage,
            "anticipation_recall": self.anticipation_recall,
            "judge_anticipation_recall": self.judge_anticipation_recall,
            "active_tokens": self.active_tokens,
            "predictable_count": self.predictable_count,
            "anticipated_count": self.anticipated_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricSet":
        return cls(**{key: data[key] for key in data if key in cls.__dataclass_fields__})


def t_alpha(
    coverage_timeline: Sequence[int], alpha: float, must_have_count: int, horizon: int
) -> int:
    """First 1-based turn whose count of covered must-haves reaches
    ceil(alpha * must_have_count); horizon + 1 when never reached within
    the timeline."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha out of (0, 1]: {alpha}")
    if must_have_count < 0:
        raise ValueError(f"negative must_have_count: {must_have_count}")
    if must_have_count == 0:
        logger.info("t_alpha with no must-have needs; vacuously satisfied at turn 1")
        return 1
    threshold = math.ceil(alpha * must_have_count)
    for turn_index, count in enumerate(coverage_timeline, start=1):
        if count >= threshold:
            return turn_index
    return horizon + 1


def compute_metrics(result: ScenarioResult, scenario, horizon: int) -> MetricSet:
    """All per-scenario metrics from the judged turn records.

    `scenario` supplies need importance and predictability; the structural
    anticipation variant uses turn targets, the judge-labeled variant uses
    verdict modes. Under oracle backends the two coincide.
    """
    must_ids = {n.id for n in scenario.needs if n.importance == "must_have"}
    all_ids = {n.id for n in scenario.needs}
    predictable = {n.id for n in scenario.needs if n.predictable_after is not None}

    first_turn: dict[str, TurnRecord] = {}
    first_mark: dict[str, NeedMark] = {}
    must_timeline: list[int] = []
    covered: set[str] = set()
    n_conv = n_dist = n_hall = 0
    for turn in result.turns:
        for mark in turn.verdict.needs_addressed:
            if mark.need_id not in first_turn:
                first_turn[mark.need_id] = turn
                first_mark[mark.need_id] = mark
            covered.add(mark.need_id)
        must_timeline.append(len(covered & must_ids))
        n_conv += len(turn.verdict.facts_conveyed)
        n_dist += len(turn.verdict.facts_distorted)
        n_hall += len(turn.verdict.hallucinated_claims)

    fact_accuracy = n_conv / (n_conv + n_dist) if (n_conv + n_dist) else 1.0
    hallucination_rate = n_hall / (n_conv + n_dist + n_hall) if (n_conv + n_dist + n_hall) else 0.0

    total_coverage = len(covered & all_ids) / len(all_ids) if all_ids else 1.0
    must_have_coverage = len(covered & must_ids) / len(must_ids) if must_ids else 1.0

    anticipated = {
        need_id
        for need_id in predictable & set(first_turn)
        if first_turn[need_id].target_need_id != need_id
    }
    judge_anticipated = {
        need_id
        for need_id in predictable & set(first_mark)
        if first_mark[need_id].mode == "proactive"
    }
    recall = len(anticipated) / len(predictable) if predictable else 0.0
    judge_recall = len(judge_anticipated) / len(predictable) if predictable else 0.0

    return MetricSet(
        t80=float(t_alpha(must_timeline, 0.8, len(must_ids), horizon)),
        t100=float(t_alpha(must_timeline, 1.0, len(must_ids), horizon)),
        user_effort=sum(1 for t in result.turns if t.explicit_ask),
        fact_accuracy=fact_accuracy,
        hallucination_rate=hallucination_rate,
        total_coverage=total_coverage,
        must_have_coverage=must_have_coverage,
        anticipation_recall=recall,
        judge_anticipation_recall=judge_recall,
        active_tokens=sum(t.idle_token_spend for t in result.turns),
        predictable_count=len(predictable),
        anticipated_count=len(anticipated),
    )


@dataclass(frozen=True)
class AggregateRow:
    scenario_id: str
    condition: str
    metrics: MetricSet
    domain: str = ""
    archetype: str = ""
    opportunity: str = ""
    fragmentation: str = ""


def _means(rows: list[AggregateRow]) -> dict[str, float]:
    out = {}
    for name in METRIC_FIELDS:
        out[name] = float(np.mean([getattr(r.metrics, name) for r in rows]))
    return out


def aggregate(rows: Sequence[AggregateRow]) -> dict:
    """Condition-level macro means, micro anticipation counts, signed deltas
    against the reactive condition, and per-facet breakdowns.

    Percentage deltas for turn/ratio metrics; absolute deltas for
    anticipation recall and active tokens. Raises PairingError when the
    scenario sets differ between a condition and reactive.
    """
    baseline = "reactive"
    by_condition: dict[str, list[AggregateRow]] = {}
    for row in rows:
        by_condition.setdefault(row.condition, []).append(row)

    conditions = {}
    micro = {}
    for condition in sorted(by_condition):
        group = by_condition[condition]
        conditions[condition] = {"n": len(group), "means": _means(group)}
        numerator = sum(r.metrics.anticipated_count for r in group)
        denominator = sum(r.metrics.predictable_count for r in group)
        micro[condition] = {
            "numerator": numerator,
            "denominator": denominator,
            "recall": numerator / denominator if denominator else 0.0,
        }

    deltas: dict[str, dict] = {}
    if baseline in by_condition:
        base_ids = {r.scenario_id for r in by_condition[baseline]}
        base_means = conditions[baseline]["means"]
        for condition in sorted(by_condition):
            if condition == baseline:
                continue
            ids = {r.scenario_id for r in by_condition[condition]}
            if ids != base_ids:
                raise PairingError(
                    f"scenario sets differ between {condition!r} and {baseline!r}: "
                    f"{sorted(ids ^ base_ids)[:5]}"
                )
            entry = {}
            for name in METRIC_FIELDS:
                a = base_means[name]
                b = conditions[condition]["means"][name]
                if name in ABSOLUTE_DELTA_METRICS:
                    entry[name] = {"kind": "absolute", "delta": b - a}
                else:
                    entry[name] = {
                        "kind": "percent",
                        "delta": ((b - a) / a * 100.0) if a != 0 else None,
                    }
            deltas[f"{condition}_vs_{baseline}"] = entry

    def _facet(attr: str) -> dict:
        table: dict[str, dict[str, dict]] = {}
        for row in rows:
            key = getattr(row, attr)
            if not key:
                continue
            table.setdefault(key, {}).setdefault(row.condition, []).append(row)
        return {
            key: {cond: {"n": len(group), "means": _means(group)} for cond, group in sorted(conds.items())}
            for key, conds in sorted(table.items())
        }

    return {
        "conditions": conditions,
        "micro_anticipation": micro,
        "deltas": deltas,
        "by_domain": _facet("domain"),
        "by_archetype": _facet("archetype"),
        "by_opportunity": _facet("opportunity"),
        "by_fragmentation": _facet("fragmentation"),
    }


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 10000
    seed: int = 2026
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.resamples < 1:
            raise ConfigurationError(f"resamples must be >= 1, got {self.resamples}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(f"confidence out of (0, 1): {self.confidence}")


@dataclass(frozen=True)
class BootstrapResult:
    point_delta: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {"point_delta": self.point_delta, "ci_low": self.ci_low, "ci_high": self.ci_high}


def paired_bootstrap(
    a: Sequence[float], b: Sequence[float], cfg: Optional[BootstrapConfig] = None
) -> BootstrapResult:
    """Percentile CI for mean(a - b) over paired per-scenario values.

    Each resample draws n pairs with replacement and recomputes the mean
    paired difference; the interval is the empirical (1-conf)/2 and
    1-(1-conf)/2 percentiles. Deterministic for a fixed seed.
    """
    cfg = cfg or BootstrapConfig()
    if len(a) != len(b):
        raise PairingError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise PairingError("empty samples")
    diffs = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    n = diffs.shape[0]
    rng = np.random.default_rng(cfg.seed)
    idx = rng.integers(0, n, size=(cfg.resamples, n))
    means = diffs[idx].mean(axis=1)
    tail = (1.0 - cfg.confidence) / 2.0 * 100.0
    low, high = np.percentile(means, [tail, 100.0 - tail])
    return BootstrapResult(float(diffs.mean()), float(low), float(high))


__all__ = [
    "ABSOLUTE_DELTA_METRICS",
    "AggregateRow",
    "AssistantReply",
    "BootstrapConfig",
    "BootstrapResult",
    "JudgeVerdict",
    "METRIC_FIELDS",
    "MetricSet",
    "NeedMark",
    "PairingError",
    "ScenarioResult",
    "TurnRecord",
    "aggregate",
    "compute_metrics",
    "merge_verdicts",
    "paired_bootstrap",
    "t_alpha",
]
