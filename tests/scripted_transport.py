"""An in-process chat server for driving HttpRoleBackends without a network.

`ScriptedTransport` plugs into `HttpChatClient(transport=...)`. It tells the
roles apart by each prompt builder's fixed first line, answers every role in
its pinned JSON shape with the decision `OracleBackends` would make, and
records every prompt it receives tagged with its role. The oracle's own
judge keeps the covered-need set its predictor reads, from the verdicts the
transport itself returned, so it needs no reference back to the backends.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from typing import Optional

from foresight.acquisition import value_score
from foresight.backends import HttpChatClient, Role, synthetic_tokens
from foresight.config import RunConfig
from foresight.http_roles import (
    HttpRoleBackends,
    build_arbiter_prompt,
    build_judge_prompt,
    build_predictor_prompt,
    build_push_prompt,
    build_searcher_prompt,
    build_simulator_prompt,
    build_synthesizer_prompt,
    build_value_prompt,
)
from foresight.memory import MemoryState
from foresight.metrics import AssistantReply
from foresight.oracles import OTHER_PUSH_ROW, PUSH_ROWS, OracleBackends, extract_fact_ids
from foresight.prediction import CandidateNeed
from foresight.scenarios import Scenario

ASSISTANT = "assistant"  # HttpRoleBackends.respond; not a ledger Role
# Roles that must never see gold need metadata: everything but simulator and judge.
RUNTIME_ROLES = frozenset(
    {role.value for role in Role if role not in (Role.SIMULATOR, Role.JUDGE)} | {ASSISTANT}
)


def _first_line(prompt: str) -> str:
    return prompt.split("\n", 1)[0]


ROLE_BY_FIRST_LINE = {
    _first_line(build_predictor_prompt([], {}, [])): Role.PREDICTOR.value,
    _first_line(build_value_prompt("", "", "", "")): Role.VALUE_ASSESSOR.value,
    _first_line(build_searcher_prompt("", [])): Role.SEARCHER.value,
    _first_line(build_synthesizer_prompt("", "", [])): Role.SYNTHESIZER.value,
    _first_line(build_push_prompt("", "")): Role.PUSH_ASSESSOR.value,
    _first_line(build_arbiter_prompt("", "")): Role.ARBITER.value,
    _first_line(build_simulator_prompt("", "", "", "")): Role.SIMULATOR.value,
    _first_line(build_judge_prompt([], [], "")): Role.JUDGE.value,
    "You are a helpful assistant. Answer the user from the reference": ASSISTANT,
}


def chat_body(text: str, prompt: str = "") -> dict:
    """A chat-completions response body carrying `text`."""
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": synthetic_tokens(prompt), "completion_tokens": synthetic_tokens(text)},
    }


def _between(text: str, start: str, end: Optional[str] = None) -> str:
    """The part of `text` after the first `start` and before the next `end`."""
    head = text.index(start) + len(start)
    return text[head:] if end is None else text[head : text.index(end, head)]


class ScriptedTransport:
    """Answers each role's prompt with the oracle's decision.

    `replies` maps a role name to a fixed (status, body) that replaces the
    scripted answer for that role, to inject faults.
    """

    def __init__(
        self,
        scenario: Scenario,
        cfg: Optional[RunConfig] = None,
        replies: Optional[dict[str, tuple[int, dict]]] = None,
    ) -> None:
        self.oracle = OracleBackends(scenario, cfg=cfg)
        self.replies = dict(replies or {})
        self.prompts: list[tuple[str, str]] = []  # (role, prompt) in arrival order
        self.payloads: list[dict] = []
        self._facts = {f.id: f.content for f in scenario.facts}
        self._fact_ids = frozenset(self._facts)
        self._need_by_description = {n.description: n for n in scenario.needs}
        self._need_by_topic: dict[str, str] = {}  # candidate topic -> need, from value prompts

    def roles(self) -> list[str]:
        return [role for role, _ in self.prompts]

    def __call__(self, url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, dict]:
        prompt = payload["messages"][-1]["content"]
        role = ROLE_BY_FIRST_LINE[_first_line(prompt)]
        self.prompts.append((role, prompt))
        self.payloads.append(payload)
        if role in self.replies:
            return self.replies[role]
        return 200, chat_body(getattr(self, f"_{role}")(prompt), prompt)

    # -- evaluation-side roles ----------------------------------------------

    def _simulator(self, prompt: str) -> str:
        return _between(prompt, "Current need to express naturally: ", "\n")

    def _judge(self, prompt: str) -> str:
        text = _between(prompt, "[Assistant Response]\n", "\n\nRespond in JSON")
        need_lines = _between(prompt, "[User Needs List]\n", "\n\n[Assistant Response]").split("\n")
        target = next(
            (line.split(" ", 1)[0] for line in need_lines if line.endswith("(explicitly asked this turn)")),
            None,
        )
        reply = AssistantReply(text=text, delivered_fact_ids=extract_fact_ids(text, self._fact_ids))
        return json.dumps(self.oracle.judge(reply, target).to_dict())

    def _assistant(self, prompt: str) -> str:
        user_message = prompt.rsplit("\nuser: ", 1)[1]
        delivered = list(self._need_by_description[user_message].key_fact_ids)
        if "[Prepared notes to weave in if relevant]" in prompt:
            notes = _between(prompt, "[Prepared notes to weave in if relevant]\n", "\n\n")
            delivered += [i for i in extract_fact_ids(notes, self._fact_ids) if i not in delivered]
        return "\n".join(f"{fid}: {self._facts[fid]}" for fid in delivered)

    # -- proactive runtime roles ----------------------------------------------

    def _predictor(self, prompt: str) -> str:
        candidates = self.oracle.predict([], MemoryState())
        return json.dumps(
            [
                {
                    "topic": c.topic,
                    "need": c.need,
                    "reason": c.reason,
                    "confidence": c.confidence,
                    "retrieval_query": c.retrieval_query,
                }
                for c in candidates
            ]
        )

    def _value_assessor(self, prompt: str) -> str:
        topic = _between(prompt, "Candidate topic: ", "\nAnticipated need: ")
        need = _between(prompt, "Anticipated need: ", "\nRationale: ")
        reason = _between(prompt, "Rationale: ", "\nRetrieval plan: ")
        query = _between(prompt, "Retrieval plan: ", "\n\nRespond in JSON")
        self._need_by_topic[topic] = need
        candidate = CandidateNeed(
            topic=topic,
            need=need,
            reason=reason,
            confidence=1.0,
            retrieval_query=query,
            source="memory_gap" if reason.startswith("memory gap (") else "scenario",
        )
        scores = self.oracle.assess_value(candidate)
        return json.dumps(
            {
                "value_score": value_score(scores) / 100.0,
                "relevance_score": scores.relevance,
                "knowledge_gap_score": scores.knowledge_gap,
                "incremental_value_score": scores.incremental_value,
                "timeliness_score": scores.timeliness,
                "decision": "search_now",
                "rationale": "scripted",
            }
        )

    def _searcher(self, prompt: str) -> str:
        evidence = self.oracle.search(_between(prompt, "Query: ", "\n\n[Reference Sheet]"))
        return json.dumps([{"ref": e.ref, "excerpt": e.excerpt} for e in evidence])

    def _synthesizer(self, prompt: str) -> str:
        # Evidence is rendered one "- excerpt" per item; the oracle's note is
        # the excerpts joined by newlines.
        return _between(prompt, "[Evidence]\n- ").replace("\n- ", "\n")

    def _push_assessor(self, prompt: str) -> str:
        topic = _between(prompt, "Topic: ", "\n[Note]\n")
        need = self._need_by_description.get(self._need_by_topic.get(topic, topic))
        value, cost = PUSH_ROWS.get(need.importance, OTHER_PUSH_ROW) if need else OTHER_PUSH_ROW
        return json.dumps({"value": value, "cost": cost, "rationale": "scripted"})

    def _arbiter(self, prompt: str) -> str:
        existing = _between(prompt, "[Existing]\n", "\n\n[New]\n")
        new = _between(prompt, "\n\n[New]\n")
        new = new[: new.rindex("\n\nRespond in JSON")]
        verdict = self.oracle.arbitrate(new, SimpleNamespace(content=existing))
        return json.dumps({"action": verdict.action, "merged_content": verdict.merged_content})


def scripted_backends(
    scenario: Scenario,
    cfg: Optional[RunConfig] = None,
    replies: Optional[dict[str, tuple[int, dict]]] = None,
    seed: Optional[int] = None,
) -> tuple[HttpRoleBackends, ScriptedTransport]:
    """`HttpRoleBackends` over an `HttpChatClient` wired to a fresh transport."""
    transport = ScriptedTransport(scenario, cfg, replies)
    client = HttpChatClient(
        endpoint="https://models.local/v1/chat",
        api_key="test-key",
        transport=transport,
        sleep=lambda _: None,
    )
    backends = HttpRoleBackends(scenario, client, seed=seed)
    return backends, transport
