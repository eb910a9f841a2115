import json
import logging
import math
import random

import pytest

from foresight.acquisition import Evidence, ValueScores
from foresight.backends import (
    ACTIVE_ROLES,
    API_KEY_ENV,
    AuthenticationError,
    BackendError,
    ConfigurationError,
    HttpChatClient,
    MalformedResponseError,
    RetryExhaustedError,
    Role,
    TokenLedger,
    TransportError,
    synthetic_tokens,
)
from foresight.http_roles import (
    HttpRoleBackends,
    build_judge_prompt,
    build_predictor_prompt,
    build_simulator_prompt,
    parse_arbiter_response,
    parse_judge_response,
    parse_predictor_response,
    parse_push_response,
    parse_searcher_response,
    parse_value_response,
)
from foresight.memory import ArbiterVerdict, MemoryState
from foresight.metrics import JudgeVerdict, NeedMark
from foresight.oracles import OracleBackends, undirected_candidates
from foresight.prediction import CandidateNeed


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


def make_client(script):
    transport = StubTransport(script)
    sleeps = []
    client = HttpChatClient(
        endpoint="https://models.local/v1/chat",
        api_key="test-key",
        transport=transport,
        sleep=sleeps.append,
    )
    return client, transport, sleeps


def test_synthetic_tokens():
    assert synthetic_tokens("") == 0
    assert synthetic_tokens("abcd") == 1
    assert synthetic_tokens("abcde") == 2
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(0, 400)
        assert synthetic_tokens("x" * n) == math.ceil(n / 4)


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


def test_successful_call_payload_and_usage():
    client, transport, sleeps = make_client([(200, ok_body("pong"))])
    response = client.chat(Role.SIMULATOR, "ping", seed=42)
    assert response.text == "pong"
    assert response.prompt_tokens == 11
    assert response.completion_tokens == 7
    assert sleeps == []
    call = transport.calls[0]
    assert call["url"] == "https://models.local/v1/chat"
    assert call["headers"]["Authorization"] == "Bearer test-key"
    assert call["payload"] == {
        "model": "gpt-4o",
        "messages": [{"role": "user", "content": "ping"}],
        "temperature": 0.0,
        "max_tokens": 1024,
        "seed": 42,
    }
    assert call["timeout"] == 60.0


def test_seed_omitted_when_unset():
    client, transport, _ = make_client([(200, ok_body())])
    client.chat(Role.PREDICTOR, "ping")
    assert "seed" not in transport.calls[0]["payload"]


def test_role_model_mapping():
    client, transport, _ = make_client([(200, ok_body()), (200, ok_body()), (200, ok_body())])
    for role in (Role.SIMULATOR, Role.JUDGE, Role.SEARCHER):
        client.chat(role, "ping")
    models = [call["payload"]["model"] for call in transport.calls]
    assert models == ["gpt-4o", "gpt-4o-mini", "gpt-4o-mini"]  # the searcher falls back


def test_missing_usage_falls_back_to_synthetic(caplog):
    client, _, _ = make_client([(200, ok_body("four", usage=False))])
    with caplog.at_level(logging.WARNING, logger="foresight.backends"):
        response = client.chat(Role.PREDICTOR, "x" * 8)
    assert response.prompt_tokens == 2
    assert response.completion_tokens == 1
    assert any("usage" in rec.message for rec in caplog.records)


def test_partial_usage_falls_back_to_synthetic():
    body = ok_body("four", usage=False)
    body["usage"] = {"prompt_tokens": 9}
    client, _, _ = make_client([(200, body)])
    response = client.chat(Role.PREDICTOR, "x" * 8)
    assert (response.prompt_tokens, response.completion_tokens) == (2, 1)


@pytest.mark.parametrize(
    "usage",
    [
        {"prompt_tokens": None, "completion_tokens": 7},
        {"prompt_tokens": 11, "completion_tokens": -1},
        {"prompt_tokens": "11", "completion_tokens": 7},
        {"prompt_tokens": 11.0, "completion_tokens": 7},
        {"prompt_tokens": True, "completion_tokens": 7},
        [11, 7],
    ],
    ids=["null", "negative", "string", "float", "bool", "list"],
)
def test_malformed_usage_falls_back_to_synthetic(usage, caplog):
    body = ok_body("four", usage=False)
    body["usage"] = usage
    client, _, _ = make_client([(200, body)])
    with caplog.at_level(logging.WARNING, logger="foresight.backends"):
        response = client.chat(Role.PREDICTOR, "x" * 8)
    assert (response.prompt_tokens, response.completion_tokens) == (2, 1)
    assert any("usage" in rec.message for rec in caplog.records)


def test_401_raises_immediately_without_retry():
    client, transport, sleeps = make_client([(401, {"error": "bad key"})])
    with pytest.raises(AuthenticationError):
        client.chat(Role.PREDICTOR, "ping")
    assert len(transport.calls) == 1
    assert sleeps == []


def test_other_4xx_fails_fast():
    client, transport, _ = make_client([(404, {"error": "no such model"})])
    with pytest.raises(BackendError) as info:
        client.chat(Role.PREDICTOR, "ping")
    assert not isinstance(info.value, RetryExhaustedError)
    assert "404" in str(info.value)
    assert len(transport.calls) == 1


@pytest.mark.parametrize("status", [429, 500, 503])
def test_retryable_status_then_success(status):
    client, transport, sleeps = make_client([(status, {}), (200, ok_body("ok"))])
    response = client.chat(Role.PREDICTOR, "ping")
    assert response.text == "ok"
    assert len(transport.calls) == 2
    assert sleeps == [1.0]


def test_two_failures_then_success_backoff_doubles():
    client, transport, sleeps = make_client([(500, {}), (500, {}), (200, ok_body("ok"))])
    assert client.chat(Role.PREDICTOR, "ping").text == "ok"
    assert len(transport.calls) == 3
    assert sleeps == [1.0, 2.0]


def test_transport_fault_retries():
    client, transport, sleeps = make_client([TransportError("conn reset"), (200, ok_body("ok"))])
    assert client.chat(Role.PREDICTOR, "ping").text == "ok"
    assert sleeps == [1.0]


def test_malformed_body_retries():
    client, _, sleeps = make_client([(200, {"choices": []}), (200, ok_body("ok"))])
    assert client.chat(Role.PREDICTOR, "ping").text == "ok"
    assert sleeps == [1.0]


def test_retry_exhaustion_after_max_attempts():
    client, transport, sleeps = make_client([(500, {}), (429, {}), TransportError("reset")])
    with pytest.raises(RetryExhaustedError) as info:
        client.chat(Role.PREDICTOR, "ping")
    assert len(transport.calls) == 3
    assert sleeps == [1.0, 2.0]
    assert "3 attempts" in str(info.value)


def test_non_string_content_is_malformed():
    body = {"choices": [{"message": {"content": 42}}]}
    client, _, _ = make_client([(200, body), (200, ok_body("ok"))])
    assert client.chat(Role.PREDICTOR, "ping").text == "ok"


# -- reply parsers (foresight.http_roles) -----------------------------------


def test_parse_predictor_response():
    text = json.dumps(
        [
            {"topic": "t", "need": "n", "reason": "r", "confidence": 0.8, "retrieval_query": "q"},
            {"topic": "t2", "need": "n2", "confidence": 1.5, "retrieval_query": "q2"},
        ]
    )
    assert parse_predictor_response(text) == [
        CandidateNeed(topic="t", need="n", reason="r", confidence=0.8, retrieval_query="q"),
        CandidateNeed(topic="t2", need="n2", reason="", confidence=1.0, retrieval_query="q2"),
    ]
    for bad in ("{}", "[1]", '[{"topic": "t"}]', "not json"):
        with pytest.raises(MalformedResponseError):
            parse_predictor_response(bad)


def test_parse_value_response_returns_clamped_scores():
    reply = {
        "value_score": 0.9,
        "relevance_score": 95,
        "knowledge_gap_score": 80,
        "incremental_value_score": 120,
        "timeliness_score": -5,
        "decision": "search_now",
        "rationale": "high value",
    }
    assert parse_value_response(json.dumps(reply)) == ValueScores(95.0, 80.0, 100.0, 0.0)
    with pytest.raises(MalformedResponseError):
        parse_value_response(json.dumps({**reply, "value_score": 90}))  # composite not normalized
    with pytest.raises(MalformedResponseError):
        parse_value_response(json.dumps({"value_score": 0.5}))
    with pytest.raises(MalformedResponseError):
        parse_value_response("[]")


def test_parse_push_response():
    assert parse_push_response('{"value": 88, "cost": 22}') == (88.0, 22.0)
    assert parse_push_response('{"value": 140, "cost": -3}') == (100.0, 0.0)
    with pytest.raises(MalformedResponseError):
        parse_push_response('{"value": 88}')
    with pytest.raises(MalformedResponseError):
        parse_push_response("nope")


def test_parse_searcher_response():
    out = parse_searcher_response('[{"ref": "F06", "excerpt": "rate is 4.50%"}, {"excerpt": "x"}]', "rates")
    assert out == [Evidence("search", "F06", "rate is 4.50%"), Evidence("search", "rates", "x")]
    with pytest.raises(MalformedResponseError):
        parse_searcher_response('[{"ref": "F06"}]', "q")
    with pytest.raises(MalformedResponseError):
        parse_searcher_response("{}", "q")


def test_parse_arbiter_response():
    assert parse_arbiter_response('{"action": "skip"}') == ArbiterVerdict("skip")
    assert parse_arbiter_response('{"action": "merge", "merged_content": "both"}') == ArbiterVerdict("merge", "both")
    # A merge without content is passed on as such; MemoryState.add_knowledge joins the two texts.
    assert parse_arbiter_response('{"action": "merge"}') == ArbiterVerdict("merge")
    with pytest.raises(MalformedResponseError):
        parse_arbiter_response('{"action": "delete"}')
    with pytest.raises(MalformedResponseError):
        parse_arbiter_response("[]")


def test_parse_judge_response():
    text = json.dumps(
        {
            "facts_conveyed": ["F01", "F02", "F03"],
            "facts_distorted": ["F03"],
            "hallucinated_claims": ["made up"],
            "needs_addressed": [{"need_id": "N1", "mode": "reactive"}, {"need_id": "N2", "mode": "guess"}],
        }
    )
    assert parse_judge_response(text) == JudgeVerdict(
        facts_conveyed=("F01", "F02"),
        facts_distorted=("F03",),
        hallucinated_claims=("made up",),
        needs_addressed=(NeedMark("N1", "reactive"),),
    )
    assert parse_judge_response("{}") == JudgeVerdict()
    with pytest.raises(MalformedResponseError):
        parse_judge_response('{"needs_addressed": [{"mode": "reactive"}]}')


_CANDIDATE = {"topic": "t", "need": "n", "reason": "r", "confidence": 0.8, "retrieval_query": "q"}
_SCORES = {
    "value_score": 0.5,
    "relevance_score": 50,
    "knowledge_gap_score": 50,
    "incremental_value_score": 50,
    "timeliness_score": 50,
}
_WRONG_TYPES = {
    "claims_str": (parse_judge_response, {"hallucinated_claims": "made up"}),
    "conveyed_str": (parse_judge_response, {"facts_conveyed": "F01"}),
    "distorted_int": (parse_judge_response, {"facts_distorted": ["F01", 3]}),
    "conveyed_null": (parse_judge_response, {"facts_conveyed": None}),
    "needs_obj": (parse_judge_response, {"needs_addressed": {"need_id": "N1", "mode": "reactive"}}),
    "need_id_null": (parse_judge_response, {"needs_addressed": [{"need_id": None, "mode": "reactive"}]}),
    "mode_int": (parse_judge_response, {"needs_addressed": [{"need_id": "N1", "mode": 1}]}),
    "topic_null": (parse_predictor_response, [{**_CANDIDATE, "topic": None}]),
    "need_null": (parse_predictor_response, [{**_CANDIDATE, "need": None}]),
    "reason_int": (parse_predictor_response, [{**_CANDIDATE, "reason": 7}]),
    "query_list": (parse_predictor_response, [{**_CANDIDATE, "retrieval_query": ["q"]}]),
    "confidence_str": (parse_predictor_response, [{**_CANDIDATE, "confidence": "0.8"}]),
    "ref_null": (lambda text: parse_searcher_response(text, "q"), [{"ref": None, "excerpt": "x"}]),
    "excerpt_null": (lambda text: parse_searcher_response(text, "q"), [{"ref": "F01", "excerpt": None}]),
    "merged_list": (parse_arbiter_response, {"action": "merge", "merged_content": ["a", "b"]}),
    "score_bool": (parse_value_response, {**_SCORES, "timeliness_score": True}),
    "score_nan": (parse_value_response, {**_SCORES, "relevance_score": float("nan")}),
    "push_str": (parse_push_response, {"value": "88", "cost": 22}),
    "push_inf": (parse_push_response, {"value": 88, "cost": float("inf")}),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_parsers_reject_wrong_json_types(case):
    parse, reply = _WRONG_TYPES[case]
    with pytest.raises(MalformedResponseError):
        parse(json.dumps(reply))


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
