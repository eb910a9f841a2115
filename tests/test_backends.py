import json
import logging
import math
import random

import pytest

from foresight.backends import (
    ACTIVE_ROLES,
    API_KEY_ENV,
    AuthenticationError,
    BackendError,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    ConfigurationError,
    HttpChatClient,
    MalformedResponseError,
    RetryExhaustedError,
    Role,
    TokenLedger,
    TransportError,
    build_judge_prompt,
    build_predictor_prompt,
    build_simulator_prompt,
    parse_arbiter_response,
    parse_judge_response,
    parse_predictor_response,
    parse_push_response,
    parse_searcher_response,
    parse_value_response,
    synthetic_tokens,
)
from foresight.http_roles import HttpRoleBackends
from foresight.memory import MemoryState
from foresight.oracles import OracleBackends, undirected_candidates


def ok_body(text="hello", usage=True):
    body = {"choices": [{"message": {"content": text}}]}
    if usage:
        body["usage"] = {"prompt_tokens": 11, "completion_tokens": 7}
    return body


class StubTransport:
    """Scripted transport: each entry is (status, body) or an exception."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, headers, payload, timeout):
        self.calls.append({"url": url, "headers": headers, "payload": payload, "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def make_client(script, **kwargs):
    transport = StubTransport(script)
    sleeps = []
    client = HttpChatClient(
        endpoint="https://models.local/v1/chat",
        api_key="test-key",
        transport=transport,
        sleep=sleeps.append,
        **kwargs,
    )
    return client, transport, sleeps


def request(role=Role.PREDICTOR, text="ping", seed=None):
    return ChatRequest(role_tag=role, messages=(ChatMessage("user", text),), seed=seed)


def test_synthetic_tokens():
    assert synthetic_tokens("") == 0
    assert synthetic_tokens("abcd") == 1
    assert synthetic_tokens("abcde") == 2
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(0, 400)
        assert synthetic_tokens("x" * n) == math.ceil(n / 4)


def test_message_and_request_validation():
    with pytest.raises(ValueError):
        ChatMessage("narrator", "x")
    with pytest.raises(ValueError):
        ChatRequest(role_tag=Role.JUDGE, messages=())
    with pytest.raises(ValueError):
        ChatResponse(text="x", prompt_tokens=-1, completion_tokens=0)


def test_ledger_accumulates_per_role():
    ledger = TokenLedger()
    ledger.record(Role.PREDICTOR, 10, 5)
    ledger.record(Role.PREDICTOR, 1, 2)
    ledger.record(Role.JUDGE, 100, 50)
    assert ledger.role_total(Role.PREDICTOR) == 18
    assert ledger.role_total(Role.JUDGE) == 150
    assert ledger.calls[Role.PREDICTOR] == 2
    assert ledger.calls[Role.JUDGE] == 1
    with pytest.raises(ValueError):
        ledger.record(Role.JUDGE, -1, 0)


def test_active_total_counts_only_proactive_roles():
    assert ACTIVE_ROLES == frozenset(
        {Role.PREDICTOR, Role.VALUE_ASSESSOR, Role.SEARCHER, Role.SYNTHESIZER, Role.PUSH_ASSESSOR}
    )
    ledger = TokenLedger()
    for role in Role:
        ledger.record(role, 10, 3)
    assert ledger.active_total() == 13 * 5
    assert ledger.grand_total() == 13 * 8
    snapshot = ledger.to_dict()
    assert snapshot["judge"] == {"prompt_tokens": 10, "completion_tokens": 3, "calls": 1}


def test_charge_text_uses_synthetic_counts():
    ledger = TokenLedger()
    ledger.charge_text(Role.SEARCHER, "x" * 9, "y" * 4)
    assert ledger.role_total(Role.SEARCHER) == 3 + 1


def test_client_requires_credential(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(ConfigurationError):
        HttpChatClient(endpoint="https://models.local/v1/chat")
    monkeypatch.setenv(API_KEY_ENV, "from-env")
    client = HttpChatClient(endpoint="https://models.local/v1/chat", transport=StubTransport([]))
    assert client._api_key == "from-env"


def test_client_rejects_bad_attempts():
    with pytest.raises(ConfigurationError):
        HttpChatClient(endpoint="e", api_key="k", max_attempts=0)


def test_successful_call_payload_and_usage():
    client, transport, sleeps = make_client([(200, ok_body("pong"))])
    response = client.chat(request(role=Role.SIMULATOR, text="ping", seed=42))
    assert response.text == "pong"
    assert response.prompt_tokens == 11
    assert response.completion_tokens == 7
    assert sleeps == []
    call = transport.calls[0]
    assert call["url"] == "https://models.local/v1/chat"
    assert call["headers"]["Authorization"] == "Bearer test-key"
    assert call["payload"]["model"] == "gpt-4o"
    assert call["payload"]["seed"] == 42
    assert call["payload"]["temperature"] == 0.0
    assert call["payload"]["messages"] == [{"role": "user", "content": "ping"}]
    assert call["timeout"] == 60.0


def test_seed_omitted_when_unset():
    client, transport, _ = make_client([(200, ok_body())])
    client.chat(request(seed=None))
    assert "seed" not in transport.calls[0]["payload"]


def test_role_model_mapping():
    client, transport, _ = make_client([(200, ok_body()), (200, ok_body()), (200, ok_body())])
    assert client.model_for(Role.SIMULATOR) == "gpt-4o"
    assert client.model_for(Role.JUDGE) == "gpt-4o-mini"
    assert client.model_for(Role.SEARCHER) == "gpt-4o-mini"  # fallback
    client.chat(request(role=Role.JUDGE))
    assert transport.calls[0]["payload"]["model"] == "gpt-4o-mini"
    custom, transport2, _ = make_client([(200, ok_body())], role_models={Role.JUDGE: "tiny-judge"})
    custom.chat(request(role=Role.JUDGE))
    assert transport2.calls[0]["payload"]["model"] == "tiny-judge"


def test_missing_usage_falls_back_to_synthetic(caplog):
    client, _, _ = make_client([(200, ok_body("four", usage=False))])
    with caplog.at_level(logging.WARNING, logger="foresight.backends"):
        response = client.chat(request(text="x" * 8))
    assert response.prompt_tokens == 2
    assert response.completion_tokens == 1
    assert any("usage" in rec.message for rec in caplog.records)


def test_partial_usage_falls_back_to_synthetic():
    body = ok_body("four", usage=False)
    body["usage"] = {"prompt_tokens": 9}
    client, _, _ = make_client([(200, body)])
    response = client.chat(request(text="x" * 8))
    assert (response.prompt_tokens, response.completion_tokens) == (2, 1)


def test_401_raises_immediately_without_retry():
    client, transport, sleeps = make_client([(401, {"error": "bad key"})])
    with pytest.raises(AuthenticationError):
        client.chat(request())
    assert len(transport.calls) == 1
    assert sleeps == []


def test_other_4xx_fails_fast():
    client, transport, _ = make_client([(404, {"error": "no such model"})])
    with pytest.raises(BackendError) as info:
        client.chat(request())
    assert not isinstance(info.value, RetryExhaustedError)
    assert "404" in str(info.value)
    assert len(transport.calls) == 1


@pytest.mark.parametrize("status", [429, 500, 503])
def test_retryable_status_then_success(status):
    client, transport, sleeps = make_client([(status, {}), (200, ok_body("ok"))])
    response = client.chat(request())
    assert response.text == "ok"
    assert len(transport.calls) == 2
    assert sleeps == [1.0]


def test_two_failures_then_success_backoff_doubles():
    client, transport, sleeps = make_client([(500, {}), (500, {}), (200, ok_body("ok"))])
    assert client.chat(request()).text == "ok"
    assert len(transport.calls) == 3
    assert sleeps == [1.0, 2.0]


def test_transport_fault_retries():
    client, transport, sleeps = make_client([TransportError("conn reset"), (200, ok_body("ok"))])
    assert client.chat(request()).text == "ok"
    assert sleeps == [1.0]


def test_malformed_body_retries():
    client, _, sleeps = make_client([(200, {"choices": []}), (200, ok_body("ok"))])
    assert client.chat(request()).text == "ok"
    assert sleeps == [1.0]


def test_retry_exhaustion_after_max_attempts():
    client, transport, sleeps = make_client([(500, {}), (429, {}), TransportError("reset")])
    with pytest.raises(RetryExhaustedError) as info:
        client.chat(request())
    assert len(transport.calls) == 3
    assert sleeps == [1.0, 2.0]
    assert "3 attempts" in str(info.value)


def test_non_string_content_is_malformed():
    body = {"choices": [{"message": {"content": 42}}]}
    client, _, _ = make_client([(200, body), (200, ok_body("ok"))])
    assert client.chat(request()).text == "ok"


# -- parsers ----------------------------------------------------------------


def test_parse_predictor_response():
    text = json.dumps(
        [
            {"topic": "t", "need": "n", "reason": "r", "confidence": 0.8, "retrieval_query": "q"},
            {"topic": "t2", "need": "n2", "confidence": 0.5, "retrieval_query": "q2"},
        ]
    )
    out = parse_predictor_response(text)
    assert out[0]["confidence"] == 0.8
    assert out[1]["reason"] == ""
    for bad in ("{}", "[1]", '[{"topic": "t"}]', "not json"):
        with pytest.raises(MalformedResponseError):
            parse_predictor_response(bad)


def test_parse_value_response_scales_composite():
    text = json.dumps(
        {
            "value_score": 0.9,
            "relevance_score": 95,
            "knowledge_gap_score": 80,
            "incremental_value_score": 90,
            "timeliness_score": 95,
            "decision": "search_now",
            "rationale": "high value",
        }
    )
    out = parse_value_response(text)
    assert out["value_score_100"] == pytest.approx(90.0)
    assert out["relevance"] == 95.0
    assert out["timeliness"] == 95.0
    with pytest.raises(MalformedResponseError):
        parse_value_response(json.dumps({"value_score": 90, "relevance_score": 95,
                                         "knowledge_gap_score": 80, "incremental_value_score": 90,
                                         "timeliness_score": 95}))  # composite not normalized
    with pytest.raises(MalformedResponseError):
        parse_value_response(json.dumps({"value_score": 0.5}))
    with pytest.raises(MalformedResponseError):
        parse_value_response("[]")


def test_parse_push_response():
    assert parse_push_response('{"value": 88, "cost": 22}') == (88.0, 22.0)
    with pytest.raises(MalformedResponseError):
        parse_push_response('{"value": 88}')
    with pytest.raises(MalformedResponseError):
        parse_push_response("nope")


def test_parse_searcher_response():
    out = parse_searcher_response('[{"ref": "F06", "excerpt": "rate is 4.50%"}, {"excerpt": "x"}]')
    assert out == [{"ref": "F06", "excerpt": "rate is 4.50%"}, {"ref": "", "excerpt": "x"}]
    with pytest.raises(MalformedResponseError):
        parse_searcher_response('[{"ref": "F06"}]')
    with pytest.raises(MalformedResponseError):
        parse_searcher_response("{}")


def test_parse_arbiter_response():
    assert parse_arbiter_response('{"action": "skip"}') == {"action": "skip", "merged_content": None}
    out = parse_arbiter_response('{"action": "merge", "merged_content": "both"}')
    assert out == {"action": "merge", "merged_content": "both"}
    with pytest.raises(MalformedResponseError):
        parse_arbiter_response('{"action": "delete"}')
    with pytest.raises(MalformedResponseError):
        parse_arbiter_response("[]")


def test_parse_judge_response():
    text = json.dumps(
        {
            "facts_conveyed": ["F01", "F02"],
            "facts_distorted": ["F03"],
            "hallucinated_claims": ["made up"],
            "needs_addressed": [{"need_id": "N1", "mode": "reactive"}],
        }
    )
    out = parse_judge_response(text)
    assert out["facts_conveyed"] == ["F01", "F02"]
    assert out["needs_addressed"] == [{"need_id": "N1", "mode": "reactive"}]
    assert parse_judge_response("{}") == {
        "facts_conveyed": [],
        "facts_distorted": [],
        "hallucinated_claims": [],
        "needs_addressed": [],
    }
    with pytest.raises(MalformedResponseError):
        parse_judge_response('{"needs_addressed": [{"mode": "reactive"}]}')


# -- prompt builders ---------------------------------------------------------


def test_predictor_prompt_renders_inputs():
    prompt = build_predictor_prompt(
        [{"user": "hi there", "assistant": "hello"}],
        {"name": "Sam", "city": "Austin"},
        ["stored note one"],
    )
    assert "user: hi there" in prompt
    assert "name: Sam" in prompt
    assert "- stored note one" in prompt
    assert "confidence" in prompt


def test_simulator_prompt_renders_persona():
    prompt = build_simulator_prompt("Priya, analyst", "planning finances", "concise", "ask about match")
    assert "Priya, analyst" in prompt
    assert "ask about match" in prompt
    assert "ONLY the user's message" in prompt


def test_judge_prompt_renders_sections():
    prompt = build_judge_prompt(["F01: alpha"], ["N1 [must_have] keys=F01: what"], "reply body")
    assert "[Fact Sheet]" in prompt
    assert "F01: alpha" in prompt
    assert "reply body" in prompt
    assert "facts_conveyed" in prompt


def test_http_and_oracle_unguided_share_one_candidate_list(finance_scenario):
    client, transport, _ = make_client([])  # unguided makes no chat call
    http = HttpRoleBackends(finance_scenario, client)
    oracle = OracleBackends(finance_scenario)
    expected = undirected_candidates(finance_scenario.domain)
    assert http.unguided([], MemoryState()) == oracle.unguided([], MemoryState()) == expected
    assert transport.calls == []
    assert http.ledger.active_total() == 0
    assert oracle.ledger.role_total(Role.PREDICTOR) > 0  # the oracle still charges its ledger
