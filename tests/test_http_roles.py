"""The whole closed loop through HttpRoleBackends -> HttpChatClient, with an
in-process scripted transport standing in for the model server."""

import random
from collections import Counter

import pytest

from conftest import SCENARIO_DIR, make_scenario
from foresight.backends import Role, build_predictor_prompt
from foresight.config import RunConfig
from foresight.harness import Condition, run_scenario
from foresight.memory import ArbiterVerdict, MemoryState
from foresight.scenarios import parse_scenario
from scripted_transport import ASSISTANT, chat_body, scripted_backends

_BUNDLED = [parse_scenario(p.read_text(encoding="utf-8")) for p in sorted(SCENARIO_DIR.glob("*.json"))]
_GENERATED = [make_scenario(random.Random(i), f"http_{i:02d}") for i in range(40)]


def _turns(outcome):
    return [
        (t.target_need_id, t.verdict.to_dict(), [p["topic"] for p in t.pushes]) for t in outcome.result.turns
    ]


def _metrics(outcome):
    metrics = outcome.metrics.to_dict()
    del metrics["active_tokens"]  # the two backends charge tokens differently
    return metrics


@pytest.mark.parametrize("budget_k", [1, 3])
@pytest.mark.parametrize("condition", [c.value for c in Condition])
def test_http_over_scripted_transport_matches_the_oracle(condition, budget_k):
    assert len(_BUNDLED) == 2
    cfg = RunConfig(budget_k=budget_k)
    for scenario in _BUNDLED + _GENERATED:
        oracle = run_scenario(scenario, condition, cfg)
        backends, _ = scripted_backends(scenario, cfg)
        http = run_scenario(scenario, condition, cfg, backends=backends)
        assert http.result.status == oracle.result.status == "completed", scenario.scenario_id
        assert _metrics(http) == _metrics(oracle), scenario.scenario_id
        assert _turns(http) == _turns(oracle), scenario.scenario_id


@pytest.mark.parametrize("condition", [c.value for c in Condition])
def test_ledger_counts_every_prompt_sent_and_nothing_else(finance_scenario, condition):
    backends, transport = scripted_backends(finance_scenario)
    outcome = run_scenario(finance_scenario, condition, backends=backends)
    assert outcome.result.status == "completed"
    sent = Counter(transport.roles())  # the assistant is not a ledger role
    calls = {role: tokens["calls"] for role, tokens in outcome.result.role_tokens.items()}
    assert calls == {role.value: sent[role.value] for role in Role}


def test_seed_reaches_every_role_including_the_assistant(finance_scenario):
    backends, transport = scripted_backends(finance_scenario, seed=7)
    run_scenario(finance_scenario, "directed_idle", backends=backends)
    assert ASSISTANT in transport.roles()
    assert [p.get("seed") for p in transport.payloads] == [7] * len(transport.payloads)


def test_non_json_judge_reply_fails_the_unit(finance_scenario):
    backends, _ = scripted_backends(finance_scenario, replies={"judge": (200, chat_body("not json"))})
    outcome = run_scenario(finance_scenario, "reactive", backends=backends)
    assert outcome.result.status == "failed"
    assert outcome.result.error.startswith("MalformedResponseError:")


def test_non_json_predictor_reply_skips_prediction(finance_scenario):
    backends, transport = scripted_backends(finance_scenario, replies={"predictor": (200, chat_body("[oops"))})
    outcome = run_scenario(finance_scenario, "directed_idle", backends=backends)
    assert outcome.result.status == "completed"
    assert "predictor" in transport.roles()
    # Only memory-gap candidates can reach the value gate without the predictor.
    for role, prompt in transport.prompts:
        if role == "value_assessor":
            assert "\nRationale: memory gap (" in prompt
    assert outcome.metrics.anticipated_count == 0
    assert all(t.pushes == () for t in outcome.result.turns)


def test_http_401_fails_the_unit_without_retry(finance_scenario):
    backends, transport = scripted_backends(finance_scenario, replies={"simulator": (401, {"error": "bad key"})})
    outcome = run_scenario(finance_scenario, "directed_idle", backends=backends)
    assert outcome.result.status == "failed"
    assert outcome.result.error.startswith("AuthenticationError:")
    assert transport.roles() == ["simulator"]


def test_predictor_prompt_notes_the_twenty_newest_active_records(finance_scenario):
    memory = MemoryState()
    merge = lambda content, record: ArbiterVerdict("merge")
    for i in range(30):
        kind = "artifact" if i % 3 == 0 else "entity_fact"
        memory.add_knowledge(kind, f"topic{i} anchor{i}\r\nbody{i} detail{i}\nmore{i}", merge)
    # Retire the second record: the merged record goes to the end of the store.
    memory.add_knowledge("entity_fact", "topic1 anchor1 body1 detail1 more1 extra", merge)
    memory.profile["city"] = "Lisbon"
    active = memory.active_records()
    assert memory.records["m000002"].status == "merged" and len(active) == 30
    history = [{"user": "what are the fees", "assistant": "none"}]
    backends, transport = scripted_backends(finance_scenario)
    backends.predict(history, memory)
    ((role, prompt),) = transport.prompts
    newest = active[-20:]
    assert [r.id for r in newest] == [f"m{i:06d}" for i in range(12, 32)]
    notes = [r.content.splitlines()[0] for r in newest]
    assert notes[:19] == [f"topic{i} anchor{i}" for i in range(11, 30)]
    assert role == "predictor"
    assert prompt == build_predictor_prompt(history, memory.profile, notes)
    merged_note = memory.records["m000031"].content.splitlines()[0]
    assert prompt.index("- topic29 anchor29\n") < prompt.index(f"- {merged_note}\n")
    assert "- topic11 anchor11\n" in prompt and "topic10" not in prompt
