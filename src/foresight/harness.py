"""Closed-loop scenario execution for the three evaluation conditions.

One run drives a simulated user, the assistant under test, and the coverage
judge around the proactive pipeline: after each judged turn (outside the
reactive condition) an idle window predicts future needs, gates them by
value, acquires evidence under budget, and decides delivery. A pushed
artifact is judged immediately and folded into the current turn; queued
artifacts integrate into the next turn's response.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

from foresight.acquisition import (
    AcquisitionDecision,
    BudgetState,
    KnowledgeArtifact,
    gate,
    value_score,
)
from foresight.acquisition import acquire as acquire_candidate
from foresight.config import Condition, RunConfig
from foresight.delivery import commit_window, decide_delivery
from foresight.memory import LogicalClock, MemoryState
from foresight.metrics import (
    JudgeVerdict,
    MetricSet,
    ScenarioResult,
    TurnRecord,
    compute_metrics,
    merge_verdicts,
)
from foresight.oracles import OracleBackends
from foresight.prediction import CandidateQueue, filter_candidates, generate_candidates
from foresight.scenarios import Scenario

logger = logging.getLogger(__name__)


class RunOutcome:
    """A finished (scenario, condition) unit: judged turns plus metrics."""

    def __init__(self, result: ScenarioResult, metrics: MetricSet, memory: Optional[MemoryState] = None):
        self.result = result
        self.metrics = metrics
        self.memory = memory

    def to_dict(self) -> dict:
        row = self.result.to_dict()
        row["metrics"] = self.metrics.to_dict()
        return row


def _store_breadcrumb(memory: MemoryState, candidate, arbiter) -> None:
    # store_only keeps a searchable trace of the deferred intent without
    # spending acquisition budget.
    memory.add_knowledge("research_fact", f"{candidate.topic} | {candidate.need}", arbiter)


def _run_idle_window(
    condition: Condition,
    memory: MemoryState,
    backends,
    cfg: RunConfig,
    history: list[dict],
):
    """One idle window: predict, gate, acquire, decide delivery.

    Returns (notification, push_verdict, queued_for_next_turn).
    """
    pcfg = cfg.prediction_config()
    if condition is Condition.DIRECTED_IDLE:
        candidates = generate_candidates(history, memory, backends.predict, pcfg)
    else:
        candidates = backends.unguided(history, memory)
    candidates = filter_candidates(candidates, memory, pcfg)
    queue = CandidateQueue()
    queue.extend(candidates)

    budget = BudgetState(k=cfg.budget_k)
    artifacts: list[KnowledgeArtifact] = []
    assessments = []
    while len(queue) and budget.k_remaining > 0:
        candidate = queue.pop()
        scores = backends.assess_value(candidate)
        composite = value_score(scores, cfg.weights)
        decision = gate(scores, composite, cfg.value_threshold)
        if decision is AcquisitionDecision.SEARCH_NOW:
            outcome = acquire_candidate(
                candidate,
                memory,
                backends.search,
                backends.synthesize,
                backends.arbitrate,
                budget,
                scores,
                cfg.search_round_cap,
            )
            if outcome.artifact is not None:
                artifacts.append(outcome.artifact)
                assessments.append(backends.assess_push(outcome.artifact))
            elif outcome.demoted_to_store:
                _store_breadcrumb(memory, candidate, backends.arbitrate)
        elif decision is AcquisitionDecision.STORE_ONLY:
            _store_breadcrumb(memory, candidate, backends.arbitrate)
        # QUEUE defers with no persistent state: the candidate regenerates on
        # the next window while the trigger stays covered. DROP discards.

    actions = decide_delivery(assessments)
    queued_next: list[KnowledgeArtifact] = []
    notification = commit_window(memory, actions, artifacts, assessments, queued_next, backends.arbitrate)
    push_verdict: Optional[JudgeVerdict] = None
    if notification is not None:
        artifact = next(a for a in artifacts if a.id == notification.artifact_id)
        push_verdict = backends.judge(backends.push_reply(artifact), None)
    return notification, push_verdict, queued_next


def run_scenario(
    scenario: Scenario,
    condition: Condition,
    cfg: Optional[RunConfig] = None,
    backends=None,
    memory: Optional[MemoryState] = None,
) -> RunOutcome:
    """Execute one scenario under one condition and compute its metrics.

    Loops until the simulator runs out of unmet needs or the horizon is hit.
    Backend faults mark the result failed instead of propagating.
    """
    cfg = cfg or RunConfig()
    condition = Condition(condition)
    if backends is None:
        backends = OracleBackends(scenario, prediction_cfg=cfg.prediction_config())
    if memory is None:
        memory = MemoryState(
            near_dup_threshold=cfg.near_dup_threshold,
            coverage_threshold=cfg.coverage_threshold,
            clock=LogicalClock(),
        )
    profile = scenario.user_profile
    memory.profile.update(
        {
            "persona": profile.persona,
            "context": profile.context,
            "communication_style": profile.communication_style,
        }
    )

    turns: list[TurnRecord] = []
    history: list[dict] = []
    covered: set[str] = set()
    pending: list[KnowledgeArtifact] = []
    status = "horizon"
    error: Optional[str] = None

    try:
        for index in range(1, cfg.horizon + 1):
            step = backends.simulate(covered)
            if step is None:
                status = "completed"
                break
            target_id, user_message = step
            queued = pending if condition is not Condition.REACTIVE else []
            pending = []
            reply = backends.respond(target_id, condition.value, queued, user_message)
            verdict = backends.judge(reply, target_id)
            covered |= {m.need_id for m in verdict.needs_addressed}
            history.append({"user": user_message, "assistant": reply.text})

            pushes: tuple[dict, ...] = ()
            idle_spend = 0
            if condition is not Condition.REACTIVE:
                backends.covered = set(covered)
                before = backends.ledger.active_total()
                notification, push_verdict, pending = _run_idle_window(
                    condition, memory, backends, cfg, history
                )
                idle_spend = backends.ledger.active_total() - before
                if notification is not None and push_verdict is not None:
                    verdict = merge_verdicts(verdict, push_verdict)
                    covered |= {m.need_id for m in verdict.needs_addressed}
                    backends.covered = set(covered)
                    pushes = (
                        {
                            "artifact_id": notification.artifact_id,
                            "topic": notification.topic,
                            "body": notification.body,
                            "high_priority": notification.high_priority,
                        },
                    )

            turns.append(
                TurnRecord(
                    index=index,
                    user_message=user_message,
                    explicit_ask=True,
                    target_need_id=target_id,
                    assistant_reply=reply,
                    verdict=verdict,
                    pushes=pushes,
                    idle_token_spend=idle_spend,
                )
            )
    except Exception as exc:
        logger.warning("scenario %s/%s failed: %s", scenario.scenario_id, condition.value, exc)
        status = "failed"
        error = f"{type(exc).__name__}: {exc}"

    result = ScenarioResult(
        scenario_id=scenario.scenario_id,
        condition=condition.value,
        turns=tuple(turns),
        status=status,
        error=error,
        role_tokens=backends.ledger.to_dict(),
    )
    return RunOutcome(result, compute_metrics(result, scenario, cfg.horizon), memory)


BackendsFactory = Callable[[Scenario], object]


def run_many(
    scenarios: Sequence[Scenario],
    conditions: Sequence[Condition],
    cfg: Optional[RunConfig] = None,
    backends_factory: Optional[BackendsFactory] = None,
    skip: Optional[set] = None,
    on_outcome: Optional[Callable[[RunOutcome], None]] = None,
) -> Optional[list[RunOutcome]]:
    """All (scenario, condition) units, optionally in parallel.

    Each unit gets a fresh memory state and backend session. Units run in
    (scenario_id, condition) order; failures are recorded per unit and do
    not stop the batch. With ``on_outcome``, each outcome is handed to it on
    the calling thread as soon as it and every unit before it have finished,
    and nothing is kept: the return value is None. Without it, the outcomes
    come back as a list in unit order.
    """
    cfg = cfg or RunConfig()
    units = sorted(
        (
            (scenario, Condition(condition))
            for scenario in scenarios
            for condition in conditions
            if skip is None or (scenario.scenario_id, Condition(condition).value) not in skip
        ),
        key=lambda unit: (unit[0].scenario_id, unit[1].value),
    )

    def _one(unit) -> RunOutcome:
        scenario, condition = unit
        backends = backends_factory(scenario) if backends_factory else None
        return run_scenario(scenario, condition, cfg, backends=backends)

    outcomes: Optional[list[RunOutcome]] = None
    if on_outcome is None:
        outcomes = []
        on_outcome = outcomes.append
    if cfg.parallel > 1 and len(units) > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallel) as pool:
            # map yields lazily and in submission order.
            for outcome in pool.map(_one, units):
                on_outcome(outcome)
    else:
        for unit in units:
            on_outcome(_one(unit))
    return outcomes


__all__ = ["Condition", "RunOutcome", "run_many", "run_scenario"]
