from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foresight.acquisition import Evidence, KnowledgeArtifact, ValueScores
from foresight.backends import Role, TokenLedger
from foresight.memory import MemoryRecord, MemoryState, content_hash
from foresight.embedding import embed, tokenize
from foresight.metrics import AssistantReply
from foresight.oracles import (
    MEMORY_GAP_VALUE_ROW,
    OTHER_PUSH_ROW,
    PUSH_ROWS,
    RELATED_VALUE_ROW,
    VALUE_ROWS,
    OracleBackends,
    extract_fact_ids,
    undirected_candidates,
)
from foresight.prediction import CandidateNeed

T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)


@pytest.fixture()
def oracle(finance_scenario):
    return OracleBackends(finance_scenario)


def make_artifact(candidate, note="F20: match fact"):
    return KnowledgeArtifact(
        id="art-test",
        candidate=candidate,
        preparation_note=note,
        provenance=(Evidence("search", "q", note),),
        value_scores=ValueScores(95, 80, 90, 95),
        created_at=T0,
    )


def free_candidate(topic="anything else", need="no scenario need matches this"):
    return CandidateNeed(
        topic=topic, need=need, reason="r", confidence=0.9, retrieval_query=topic
    )


def test_extract_fact_ids_order_and_filtering():
    valid = frozenset({"F06", "F07", "F14"})
    text = "First F07, then F06, F07 again, bogus F99, and the G500 fund name."
    assert extract_fact_ids(text, valid) == ("F07", "F06")
    assert extract_fact_ids("no ids here", valid) == ()
    # G500 matches the token shape but is not a fact id, so it never leaks in
    assert extract_fact_ids("G500 G500", frozenset({"G500"})) == ("G500",)


def test_simulate_asks_lowest_uncovered_turn_order(oracle, finance_scenario):
    needs = finance_scenario.need_by_id()
    target_id, message = oracle.simulate(set())
    assert target_id == "N1"
    assert message == needs["N1"].description
    target_id, _ = oracle.simulate({"N1", "N6", "N9"})
    assert target_id == "N2"
    assert oracle.simulate({n.id for n in finance_scenario.needs}) is None
    assert oracle.ledger.calls[Role.SIMULATOR] == 3


def test_judge_marks_reactive_target_and_proactive_extras(oracle):
    reply = AssistantReply(
        text="F20 F21 and an invented claim",
        delivered_fact_ids=("F20", "F21", "ZZZ9"),
    )
    verdict = oracle.judge(reply, target_need_id="N1")
    assert verdict.facts_conveyed == ("F20", "F21")
    assert verdict.hallucinated_claims == ("ZZZ9",)
    marks = {m.need_id: m.mode for m in verdict.needs_addressed}
    # F20 satisfies N1 (asked) and N12 (not asked); F21 satisfies N9.
    assert marks == {"N1": "reactive", "N9": "proactive", "N12": "proactive"}
    order = [m.need_id for m in verdict.needs_addressed]
    assert order == ["N1", "N9", "N12"]  # turn order
    assert oracle.ledger.calls[Role.JUDGE] == 1


def test_judge_distorted_facts_do_not_address_needs(oracle):
    reply = AssistantReply(
        text="garbled match info",
        delivered_fact_ids=("F20",),
        distorted_fact_ids=("F20",),
    )
    verdict = oracle.judge(reply, target_need_id="N1")
    assert verdict.facts_conveyed == ()
    assert verdict.facts_distorted == ("F20",)
    assert verdict.needs_addressed == ()


def test_judge_push_reply_has_no_reactive_marks(oracle):
    verdict = oracle.judge(AssistantReply(text="x", delivered_fact_ids=("F06",)), target_need_id=None)
    assert all(m.mode == "proactive" for m in verdict.needs_addressed)


def test_respond_reactive_delivers_target_keys_only(oracle, finance_scenario):
    needs = finance_scenario.need_by_id()
    queued = [make_artifact(free_candidate(), note="F07: no fees\nF08: no minimum")]
    reply = oracle.respond("N2", "reactive", queued_artifacts=queued)
    assert reply.delivered_fact_ids == tuple(needs["N2"].key_fact_ids)
    assert reply.text.startswith("F06: ")


def test_respond_idle_integrates_queued_artifacts(oracle):
    queued = [make_artifact(free_candidate(), note="F07: no fees\nF08: no minimum\nF06: duplicate")]
    reply = oracle.respond("N2", "directed_idle", queued_artifacts=queued)
    assert reply.delivered_fact_ids == ("F06", "F07", "F08")
    assert "F07" in reply.text


def test_respond_without_target(oracle):
    reply = oracle.respond(None, "directed_idle", queued_artifacts=[make_artifact(free_candidate())])
    assert reply.delivered_fact_ids == ("F20",)


def test_push_reply_renders_topic_and_note(oracle):
    artifact = make_artifact(free_candidate(topic="match summary"), note="F20: the match fact")
    reply = oracle.push_reply(artifact)
    assert reply.text == "match summary\nF20: the match fact"
    assert reply.delivered_fact_ids == ("F20",)


def test_predict_unlocks_needs_whose_trigger_is_covered(oracle, finance_scenario):
    needs = finance_scenario.need_by_id()
    memory = MemoryState()
    assert oracle.predict([], memory) == []

    oracle.covered = {"N1"}
    out = oracle.predict([], memory)
    assert [c.topic for c in out] == [needs["N6"].description, needs["N9"].description]
    first = out[0]
    assert first.confidence == 0.9
    assert first.source == "scenario"
    assert first.retrieval_query == " ".join(needs["N6"].key_fact_ids)
    assert first.subtopics == tuple(needs["N6"].key_fact_ids)
    assert needs["N1"].description in first.reason

    oracle.covered = {"N2"}
    assert [c.topic for c in oracle.predict([], memory)] == [needs["N3"].description]


def test_judge_marks_reach_the_predictor_with_no_covered_assignment(oracle, finance_scenario):
    needs = finance_scenario.need_by_id()
    memory = MemoryState()
    assert oracle.predict([], memory) == []
    verdict = oracle.judge(oracle.respond("N1", "reactive"), "N1")
    assert [m.need_id for m in verdict.needs_addressed] == ["N1", "N12"]  # N12 shares F20
    follow_ups = [needs["N6"].description, needs["N9"].description]
    assert [c.topic for c in oracle.predict([], memory)] == follow_ups
    # A push verdict's marks count too: N6 stops being proposed once pushed.
    push = make_artifact(free_candidate(topic="N6 note"), note=" ".join(needs["N6"].key_fact_ids))
    oracle.judge(oracle.push_reply(push), None)
    assert oracle.covered == {"N1", "N6", "N12"}
    assert [c.topic for c in oracle.predict([], memory)] == [needs["N9"].description]


def test_predict_caps_by_turn_order(oracle, finance_scenario):
    needs = finance_scenario.need_by_id()
    memory = MemoryState()
    oracle.covered = {"N1", "N2", "N10"}
    out = oracle.predict([], memory)
    assert [c.topic for c in out] == [
        needs["N3"].description,
        needs["N6"].description,
        needs["N9"].description,
    ]


def test_predict_skips_already_covered_needs(oracle):
    memory = MemoryState()
    oracle.covered = {"N1", "N6"}
    out = oracle.predict([], memory)
    assert [c.need for c in out] == [oracle.scenario.need_by_id()["N9"].description]


def test_unguided_pool(oracle):
    memory = MemoryState()
    out = oracle.unguided([], memory)
    assert len(out) == 3
    assert all(c.confidence == 0.65 for c in out)
    assert all(c.source == "related" for c in out)
    assert all("financial_planning" in c.topic for c in out)
    pool = undirected_candidates("some_domain")
    assert len(pool) == 3
    assert all("some_domain" in c.topic for c in pool)


def test_assess_value_rows_by_importance(oracle, finance_scenario):
    needs = finance_scenario.need_by_id()
    memory = MemoryState()
    oracle.covered = {"N1"}
    must_cand, nice_cand = oracle.predict([], memory)  # N6 must_have, N9 nice_to_have
    assert needs["N6"].importance == "must_have"
    assert needs["N9"].importance == "nice_to_have"

    must_scores = oracle.assess_value(must_cand)
    assert (must_scores.relevance, must_scores.knowledge_gap,
            must_scores.incremental_value, must_scores.timeliness) == VALUE_ROWS["must_have"]
    nice_scores = oracle.assess_value(nice_cand)
    assert (nice_scores.relevance, nice_scores.knowledge_gap,
            nice_scores.incremental_value, nice_scores.timeliness) == VALUE_ROWS["nice_to_have"]

    gap = CandidateNeed(topic="g", need="refresh knowledge: g", reason="r",
                        confidence=0.7, retrieval_query="g", source="memory_gap")
    gap_scores = oracle.assess_value(gap)
    assert (gap_scores.relevance, gap_scores.knowledge_gap,
            gap_scores.incremental_value, gap_scores.timeliness) == MEMORY_GAP_VALUE_ROW

    related = oracle.assess_value(free_candidate())
    assert (related.relevance, related.knowledge_gap,
            related.incremental_value, related.timeliness) == RELATED_VALUE_ROW


def test_search_resolves_fact_tokens(oracle, finance_scenario):
    facts = {f.id: f for f in finance_scenario.facts}
    out = oracle.search("F26 F27")
    assert [e.ref for e in out] == ["F26", "F27"]
    assert out[0].excerpt == f"F26: {facts['F26'].content}"
    assert all(e.source == "search" for e in out)
    assert oracle.search("nothing resolvable") == []
    assert [e.ref for e in oracle.search("F99 F06")] == ["F06"]


def test_synthesize_joins_excerpts(oracle):
    items = [Evidence("search", "F06", "F06: line one"), Evidence("memory", "m1", "F07: line two")]
    # memory-sourced evidence needs no record here; synthesize only reads excerpts
    note = oracle.synthesize(free_candidate(), items)
    assert note == "F06: line one\nF07: line two"


def test_assess_push_rows(oracle, finance_scenario):
    needs = finance_scenario.need_by_id()
    memory = MemoryState()
    oracle.covered = {"N1"}
    must_cand, nice_cand = oracle.predict([], memory)

    must = oracle.assess_push(make_artifact(must_cand))
    assert (must.value, must.cost) == PUSH_ROWS["must_have"]
    assert must.artifact_id == "art-test"
    assert must.created_at == T0

    nice = oracle.assess_push(make_artifact(nice_cand))
    assert (nice.value, nice.cost) == PUSH_ROWS["nice_to_have"]

    other = oracle.assess_push(make_artifact(free_candidate()))
    assert (other.value, other.cost) == OTHER_PUSH_ROW


def _record(content):
    return MemoryRecord(
        id="m000001",
        kind="entity_fact",
        content=content,
        content_hash=content_hash(content),
        embedding=embed(content),
    )


def test_arbitrate_token_containment_rule(oracle):
    # new tokens subset of old: nothing to add
    assert oracle.arbitrate("alpha beta", _record("alpha beta gamma")).action == "skip"
    # identical multisets count as subset
    assert oracle.arbitrate("beta alpha", _record("alpha beta")).action == "skip"
    # old strictly inside new: new supersedes
    assert oracle.arbitrate("alpha beta gamma", _record("alpha beta")).action == "replace"
    # token multiplicity matters: "alpha alpha" adds a second alpha
    assert oracle.arbitrate("alpha alpha", _record("alpha")).action == "replace"
    # partial overlap merges with concatenated content
    verdict = oracle.arbitrate("beta gamma", _record("alpha beta"))
    assert verdict.action == "merge"
    assert verdict.merged_content == "alpha beta\nbeta gamma"
    assert oracle.ledger.calls[Role.ARBITER] == 5


def reference_arbitrate(new_content, old_content):
    """The containment rule as ``Counter`` subtraction: (action, merged text)."""
    new_tokens, old_tokens = Counter(tokenize(new_content)), Counter(tokenize(old_content))
    if not new_tokens - old_tokens:
        return "skip", None
    if not old_tokens - new_tokens:
        return "replace", None
    return "merge", f"{old_content}\n{new_content}"


# Few words in two cases, so texts share tokens and repeat them; "!!!" and
# "--" have no tokens at all.
ARBITER_WORDS = ["alpha", "Alpha", "BETA", "beta", "g1", "F20", "4.50%", "!!!", "--"]
ARBITER_TEXTS = st.one_of(
    st.lists(st.sampled_from(ARBITER_WORDS), max_size=8).map(" ".join),
    st.sampled_from(("!!!", "alpha alpha", "ALPHA beta alpha")),
)


@given(new_content=ARBITER_TEXTS, old_content=ARBITER_TEXTS)
def test_arbitrate_matches_counter_subtraction(finance_scenario, new_content, old_content):
    oracle = OracleBackends(finance_scenario)
    verdict = oracle.arbitrate(new_content, _record(old_content))
    assert (verdict.action, verdict.merged_content) == reference_arbitrate(new_content, old_content)
    want = TokenLedger()
    want.charge_text(Role.ARBITER, new_content + old_content, verdict.action)
    assert oracle.ledger.to_dict() == want.to_dict()


def test_ledger_separates_active_roles(oracle):
    memory = MemoryState()
    oracle.covered = {"N1"}
    candidates = oracle.predict([], memory)
    oracle.assess_value(candidates[0])
    oracle.search("F26")
    oracle.synthesize(candidates[0], [Evidence("search", "F26", "x")])
    oracle.assess_push(make_artifact(candidates[0]))
    active_after_runtime = oracle.ledger.active_total()
    assert active_after_runtime > 0

    oracle.simulate(set())
    oracle.judge(AssistantReply(text="t", delivered_fact_ids=("F20",)), "N1")
    oracle.arbitrate("a b", _record("a b c"))
    assert oracle.ledger.active_total() == active_after_runtime
    assert oracle.ledger.grand_total() > active_after_runtime


def test_oracle_accepts_shared_ledger(finance_scenario):
    ledger = TokenLedger()
    oracle = OracleBackends(finance_scenario, ledger=ledger)
    oracle.simulate(set())
    assert ledger.calls[Role.SIMULATOR] == 1
