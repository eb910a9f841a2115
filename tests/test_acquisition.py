import random

import pytest

from foresight.acquisition import (
    AcquisitionDecision,
    BudgetState,
    ConfigurationError,
    Evidence,
    ValueScores,
    acquire,
    display_score,
    gate,
    synthesize_artifact,
    value_score,
)
from foresight.config import RunConfig, Weights
from foresight.memory import ArbiterVerdict, MemoryState
from foresight.prediction import CandidateNeed


def skip_arbiter(content, record):
    return ArbiterVerdict("skip")


def simple_synth(candidate, evidence):
    return " / ".join(e.excerpt for e in evidence)


def make_candidate(query="branch office hours", subtopics=()):
    return CandidateNeed(
        topic="office hours",
        need="find the branch office hours",
        reason="test",
        confidence=0.9,
        retrieval_query=query,
        subtopics=tuple(subtopics),
    )


def test_value_scores_validation():
    with pytest.raises(ValueError):
        ValueScores(101, 0, 0, 0)
    with pytest.raises(ValueError):
        ValueScores(0, -1, 0, 0)
    ValueScores(0, 0, 0, 0)
    ValueScores(100, 100, 100, 100)


def test_weights_validation():
    with pytest.raises(ConfigurationError):
        Weights(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ConfigurationError):
        Weights(-0.25, 0.5, 0.5, 0.25)
    assert Weights(0.4, 0.3, 0.2, 0.1)
    assert Weights()


@pytest.mark.parametrize(
    "components,expected,decision",
    [
        ((95, 80, 90, 95), 90.0, AcquisitionDecision.SEARCH_NOW),
        ((90, 75, 80, 85), 82.5, AcquisitionDecision.SEARCH_NOW),
        ((70, 35, 40, 70), 53.75, AcquisitionDecision.QUEUE),
        ((55, 70, 45, 50), 55.0, AcquisitionDecision.STORE_ONLY),
    ],
)
def test_worked_scoring_rows(components, expected, decision):
    scores = ValueScores(*components)
    composite = value_score(scores)
    assert composite == expected
    assert gate(scores, composite) is decision


def test_display_score_rounds_half_up():
    assert display_score(82.5) == 83
    assert display_score(82.49) == 82
    assert display_score(53.75) == 54
    assert display_score(90.0) == 90
    assert display_score(0.5) == 1


def test_gate_thresholds_are_inclusive():
    at = ValueScores(60, 60, 60, 60)
    assert gate(at, value_score(at)) is AcquisitionDecision.SEARCH_NOW
    # composite below threshold, relevance and timeliness exactly at it
    queued = ValueScores(60, 0, 0, 60)
    assert gate(queued, value_score(queued)) is AcquisitionDecision.QUEUE
    stored = ValueScores(59, 60, 0, 59)
    assert gate(stored, value_score(stored)) is AcquisitionDecision.STORE_ONLY
    dropped = ValueScores(59, 59, 59, 59)
    assert gate(dropped, value_score(dropped)) is AcquisitionDecision.DROP


def test_gate_uses_exact_composite_not_display():
    # 59.75 displays as 60 but must not pass the >= 60 gate.
    scores = ValueScores(59, 60, 60, 60)
    composite = value_score(scores)
    assert composite == 59.75
    assert display_score(composite) == 60
    assert gate(scores, composite) is not AcquisitionDecision.SEARCH_NOW


def test_gate_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        parts = tuple(rng.choice([0, 25, 40, 55, 59, 60, 61, 75, 90, 100]) for _ in range(4))
        scores = ValueScores(*parts)
        composite = value_score(scores)
        assert composite == pytest.approx(sum(parts) / 4)
        if composite >= 60:
            want = AcquisitionDecision.SEARCH_NOW
        elif parts[0] >= 60 and parts[3] >= 60:
            want = AcquisitionDecision.QUEUE
        elif parts[1] >= 60:
            want = AcquisitionDecision.STORE_ONLY
        else:
            want = AcquisitionDecision.DROP
        assert gate(scores, composite) is want


def test_custom_weights_shift_composite():
    scores = ValueScores(100, 0, 0, 0)
    assert value_score(scores, Weights(0.7, 0.1, 0.1, 0.1)) == 70.0
    assert value_score(scores) == 25.0


def test_budget_state_validation():
    with pytest.raises(ConfigurationError):
        BudgetState(k=-1)
    budget = BudgetState(k=3)
    assert budget.k_remaining == 3
    resumed = BudgetState(k=3, k_remaining=1)
    assert resumed.k_remaining == 1


def test_evidence_source_vocabulary():
    with pytest.raises(ValueError):
        Evidence(source="wiki", ref="x", excerpt="y")
    Evidence(source="memory", ref="m1", excerpt="y")
    Evidence(source="search", ref="query", excerpt="y")


def test_acquire_decrements_budget_and_refuses_when_exhausted():
    memory = MemoryState()
    budget = BudgetState(k=1)
    acquire(
        make_candidate(),
        memory,
        searcher=lambda q: [Evidence("search", q, "found text")],
        synthesizer=simple_synth,
        arbiter=skip_arbiter,
        budget=budget,
        value_scores=ValueScores(95, 80, 90, 95),
    )
    assert budget.k_remaining == 0
    with pytest.raises(ConfigurationError):
        acquire(
            make_candidate(),
            memory,
            searcher=lambda q: [],
            synthesizer=simple_synth,
            arbiter=skip_arbiter,
            budget=budget,
            value_scores=ValueScores(95, 80, 90, 95),
        )


def test_acquire_high_coverage_uses_memory_only():
    memory = MemoryState()
    rid = memory.add_knowledge("research_fact", "branch office hours", skip_arbiter).record_id

    def searcher(query):
        raise AssertionError("high coverage must not search")

    outcome = acquire(
        make_candidate(),
        memory,
        searcher,
        simple_synth,
        skip_arbiter,
        BudgetState(k=3),
        ValueScores(95, 80, 90, 95),
    )
    artifact = outcome.artifact
    assert artifact is not None
    assert not outcome.demoted_to_store
    assert [e.source for e in artifact.provenance] == ["memory"]
    assert artifact.provenance[0].ref == rid
    assert artifact.preparation_note == "branch office hours"
    assert artifact.id.startswith("art-")


def test_acquire_partial_coverage_searches_missing_subtopics_once():
    memory = MemoryState()
    memory.add_knowledge("research_fact", "lobby opens at nine", skip_arbiter)
    calls = []

    def searcher(query):
        calls.append(query)
        return [Evidence("search", query, f"answer to {query}")]

    candidate = make_candidate(subtopics=("lobby opens at nine", "weekend drive through window"))
    outcome = acquire(
        candidate, memory, searcher, simple_synth, skip_arbiter, BudgetState(k=3), ValueScores(95, 80, 90, 95)
    )
    assert calls == ["weekend drive through window"]
    sources = [e.source for e in outcome.artifact.provenance]
    assert sources == ["memory", "search"]


def test_acquire_low_coverage_iterates_until_cap():
    memory = MemoryState()
    calls = []

    def flaky_searcher(query):
        calls.append(query)
        if len(calls) < 3:
            return []
        return [Evidence("search", query, "late answer")]

    candidate = make_candidate(query="nothing stored about this", subtopics=("sub one",))
    outcome = acquire(
        candidate, memory, flaky_searcher, simple_synth, skip_arbiter, BudgetState(k=3),
        ValueScores(95, 80, 90, 95),
    )
    assert calls == ["sub one"] * 3
    assert outcome.artifact is not None


def test_acquire_low_coverage_respects_round_cap():
    memory = MemoryState()
    calls = []

    def empty_searcher(query):
        calls.append(query)
        return []

    candidate = make_candidate(query="nothing stored about this", subtopics=("sub one", "sub two"))
    outcome = acquire(
        candidate, memory, empty_searcher, simple_synth, skip_arbiter, BudgetState(k=3),
        ValueScores(95, 80, 90, 95),
    )
    assert len(calls) == RunConfig.search_round_cap * 2
    assert outcome.artifact is None
    assert outcome.demoted_to_store


def test_acquire_searcher_fault_degrades_to_partial_artifact():
    memory = MemoryState()
    memory.add_knowledge("research_fact", "lobby opens at nine", skip_arbiter)

    def broken_searcher(query):
        raise RuntimeError("search backend offline")

    candidate = make_candidate(subtopics=("lobby opens at nine", "weekend drive through window"))
    outcome = acquire(
        candidate, memory, broken_searcher, simple_synth, skip_arbiter, BudgetState(k=3),
        ValueScores(95, 80, 90, 95),
    )
    assert outcome.artifact is not None
    assert [e.source for e in outcome.artifact.provenance] == ["memory"]


def test_acquire_searcher_fault_with_no_evidence_demotes():
    memory = MemoryState()

    def broken_searcher(query):
        raise RuntimeError("search backend offline")

    outcome = acquire(
        make_candidate(query="totally uncovered"), memory, broken_searcher, simple_synth, skip_arbiter,
        BudgetState(k=3), ValueScores(95, 80, 90, 95),
    )
    assert outcome.artifact is None
    assert outcome.demoted_to_store
    assert [r for r in memory.active_records() if r.kind == "artifact"] == []


def test_acquire_persists_artifact_then_search_facts():
    memory = MemoryState()

    def searcher(query):
        return [Evidence("search", query, "the lobby opens at nine sharp")]

    outcome = acquire(
        make_candidate(query="uncovered topic"), memory, searcher, simple_synth, skip_arbiter,
        BudgetState(k=3), ValueScores(95, 80, 90, 95),
    )
    actives = sorted(memory.active_records(), key=lambda r: r.id)
    assert [r.kind for r in actives] == ["artifact", "research_fact"]
    assert actives[0].content.split("\n", 1)[0] == outcome.artifact.candidate.topic
    assert actives[1].content == "the lobby opens at nine sharp"


def test_synthesize_validates_provenance():
    memory = MemoryState()
    with pytest.raises(ValueError):
        synthesize_artifact(
            make_candidate(), [], simple_synth, memory, skip_arbiter, ValueScores(95, 80, 90, 95)
        )
    with pytest.raises(ValueError):
        synthesize_artifact(
            make_candidate(),
            [Evidence("memory", "m999999", "ghost excerpt")],
            simple_synth,
            memory,
            skip_arbiter,
            ValueScores(95, 80, 90, 95),
        )
    assert memory.active_records() == []


def test_synthesize_is_idempotent_on_store():
    memory = MemoryState()
    evidence = [Evidence("search", "q", "stable excerpt")]
    first = synthesize_artifact(
        make_candidate(), evidence, simple_synth, memory, skip_arbiter, ValueScores(95, 80, 90, 95)
    )
    second = synthesize_artifact(
        make_candidate(), evidence, simple_synth, memory, skip_arbiter, ValueScores(95, 80, 90, 95)
    )
    assert first.id == second.id
    assert len([r for r in memory.active_records() if r.kind == "artifact"]) == 1


def test_synthesizer_fault_propagates_without_store():
    memory = MemoryState()

    def bad_synth(candidate, evidence):
        raise RuntimeError("synth backend offline")

    with pytest.raises(RuntimeError):
        synthesize_artifact(
            make_candidate(), [Evidence("search", "q", "x")], bad_synth, memory, skip_arbiter,
            ValueScores(95, 80, 90, 95),
        )
    assert memory.active_records() == []


def test_configuration_error_is_one_value_error_class():
    from foresight import acquisition, backends, config

    assert acquisition.ConfigurationError is backends.ConfigurationError is config.ConfigurationError
    assert issubclass(ConfigurationError, ValueError)
    assert not issubclass(ConfigurationError, backends.BackendError)
    with pytest.raises(backends.ConfigurationError):
        BudgetState(k=-1)
    with pytest.raises(ConfigurationError):
        backends.HttpChatClient(endpoint="e", api_key="k", max_attempts=0)
