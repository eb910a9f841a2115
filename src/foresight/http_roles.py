"""Live-model role implementations over the HTTP chat client.

Mirrors the oracle backend surface so the harness can swap between them.
Evaluation-side roles (simulator, judge) see gold scenario data; runtime
roles build their prompts from runtime-visible inputs only.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Sequence

from foresight.acquisition import Evidence, KnowledgeArtifact, ValueScores
from foresight.backends import (
    ChatMessage,
    ChatRequest,
    HttpChatClient,
    Role,
    TokenLedger,
    build_arbiter_prompt,
    build_judge_prompt,
    build_predictor_prompt,
    build_push_prompt,
    build_searcher_prompt,
    build_simulator_prompt,
    build_synthesizer_prompt,
    build_value_prompt,
    parse_arbiter_response,
    parse_judge_response,
    parse_predictor_response,
    parse_push_response,
    parse_searcher_response,
    parse_value_response,
)
from foresight.delivery import PushAssessment
from foresight.memory import ArbiterVerdict, MemoryRecord, MemoryState
from foresight.metrics import AssistantReply, JudgeVerdict, NeedMark
from foresight.oracles import extract_fact_ids, undirected_candidates
from foresight.prediction import CandidateNeed
from foresight.scenarios import Scenario


class HttpRoleBackends:
    """Eight model roles driven through one chat-completion client."""

    def __init__(
        self,
        scenario: Scenario,
        client: HttpChatClient,
        ledger: Optional[TokenLedger] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.scenario = scenario
        self.client = client
        self.ledger = ledger or TokenLedger()
        self.seed = seed
        self._fact_ids = frozenset(f.id for f in scenario.facts)
        self._fact_lines = [f"{f.id}: {f.content}" for f in scenario.facts]
        self._history: list[dict] = []

    def _chat(self, role: Role, prompt: str) -> str:
        request = ChatRequest(
            role_tag=role, messages=(ChatMessage("user", prompt),), seed=self.seed
        )
        response = self.client.chat(request)
        self.ledger.record(role, response.prompt_tokens, response.completion_tokens)
        return response.text

    # -- evaluation-side roles ------------------------------------------------

    def simulate(self, covered: set[str]) -> Optional[tuple[str, str]]:
        remaining = [n for n in self.scenario.needs if n.id not in covered]
        if not remaining:
            return None
        target = min(remaining, key=lambda n: n.turn_order)
        profile = self.scenario.user_profile
        prompt = build_simulator_prompt(
            profile.persona, profile.context, profile.communication_style, target.description
        )
        return target.id, self._chat(Role.SIMULATOR, prompt).strip()

    def judge(self, reply: AssistantReply, target_need_id: Optional[str]) -> JudgeVerdict:
        need_lines = []
        for need in self.scenario.needs:
            asked = " (explicitly asked this turn)" if need.id == target_need_id else ""
            need_lines.append(
                f"{need.id} [{need.importance}] keys={','.join(need.key_fact_ids)}: "
                f"{need.description}{asked}"
            )
        prompt = build_judge_prompt(self._fact_lines, need_lines, reply.text)
        data = parse_judge_response(self._chat(Role.JUDGE, prompt))
        marks = tuple(
            NeedMark(entry["need_id"], entry["mode"])
            for entry in data["needs_addressed"]
            if entry["mode"] in ("reactive", "proactive")
        )
        conveyed = tuple(i for i in data["facts_conveyed"] if i not in set(data["facts_distorted"]))
        return JudgeVerdict(
            facts_conveyed=conveyed,
            facts_distorted=tuple(data["facts_distorted"]),
            hallucinated_claims=tuple(data["hallucinated_claims"]),
            needs_addressed=marks,
        )

    # -- the assistant under test ---------------------------------------------

    def respond(
        self,
        target_need_id: Optional[str],
        condition: str,
        queued_artifacts: Sequence[KnowledgeArtifact] = (),
        user_message: str = "",
    ) -> AssistantReply:
        profile = self.scenario.user_profile
        lines = [
            "You are a helpful assistant. Answer the user from the reference",
            "sheet below; cite sheet entries by their ids. Do not invent facts.",
            "",
            f"User persona: {profile.persona}",
            "[Reference Sheet]",
        ]
        lines.extend(self._fact_lines)
        if condition != "reactive" and queued_artifacts:
            lines.append("")
            lines.append("[Prepared notes to weave in if relevant]")
            for artifact in queued_artifacts:
                lines.append(f"{artifact.candidate.topic}: {artifact.preparation_note}")
        lines.append("")
        for turn in self._history[-6:]:
            lines.append(f"user: {turn['user']}")
            lines.append(f"assistant: {turn['assistant']}")
        lines.append(f"user: {user_message}")
        # The assistant is the system under test, not a proactive runtime
        # role; its spend stays out of active tokens by ledger design.
        request = ChatRequest(
            role_tag=Role.SIMULATOR, messages=(ChatMessage("user", "\n".join(lines)),), seed=self.seed
        )
        response = self.client.chat(request)
        text = response.text
        self._history.append({"user": user_message, "assistant": text})
        return AssistantReply(text=text, delivered_fact_ids=extract_fact_ids(text, self._fact_ids))

    def push_reply(self, artifact: KnowledgeArtifact) -> AssistantReply:
        text = f"{artifact.candidate.topic}\n{artifact.preparation_note}"
        return AssistantReply(text=text, delivered_fact_ids=extract_fact_ids(text, self._fact_ids))

    # -- proactive runtime roles ------------------------------------------------

    def predict(self, history: Sequence[dict], memory: MemoryState) -> list[CandidateNeed]:
        # The 20 newest active records, in store order, so this run's writes show.
        newest = islice((r for r in reversed(memory.records.values()) if r.status == "active"), 20)
        notes = [r.content.splitlines()[0] for r in reversed(list(newest))]
        prompt = build_predictor_prompt(history, memory.profile, notes)
        items = parse_predictor_response(self._chat(Role.PREDICTOR, prompt))
        return [
            CandidateNeed(
                topic=item["topic"],
                need=item["need"],
                reason=item["reason"],
                confidence=min(max(item["confidence"], 0.0), 1.0),
                retrieval_query=item["retrieval_query"],
                source="scenario",
            )
            for item in items
        ]

    def unguided(self, history: Sequence[dict], memory: MemoryState) -> list[CandidateNeed]:
        return undirected_candidates(self.scenario.domain)

    def assess_value(self, candidate: CandidateNeed) -> ValueScores:
        prompt = build_value_prompt(
            candidate.topic, candidate.need, candidate.reason, candidate.retrieval_query
        )
        data = parse_value_response(self._chat(Role.VALUE_ASSESSOR, prompt))
        clamp = lambda x: min(max(x, 0.0), 100.0)
        return ValueScores(
            relevance=clamp(data["relevance"]),
            knowledge_gap=clamp(data["knowledge_gap"]),
            incremental_value=clamp(data["incremental_value"]),
            timeliness=clamp(data["timeliness"]),
        )

    def search(self, query: str) -> list[Evidence]:
        prompt = build_searcher_prompt(query, self._fact_lines)
        items = parse_searcher_response(self._chat(Role.SEARCHER, prompt))
        return [Evidence(source="search", ref=item["ref"] or query, excerpt=item["excerpt"]) for item in items]

    def synthesize(self, candidate: CandidateNeed, evidence: Sequence[Evidence]) -> str:
        prompt = build_synthesizer_prompt(candidate.topic, candidate.need, [e.excerpt for e in evidence])
        return self._chat(Role.SYNTHESIZER, prompt).strip()

    def assess_push(self, artifact: KnowledgeArtifact) -> PushAssessment:
        prompt = build_push_prompt(artifact.candidate.topic, artifact.preparation_note)
        value, cost = parse_push_response(self._chat(Role.PUSH_ASSESSOR, prompt))
        clamp = lambda x: min(max(x, 0.0), 100.0)
        return PushAssessment(
            artifact_id=artifact.id, value=clamp(value), cost=clamp(cost), created_at=artifact.created_at
        )

    def arbitrate(self, new_content: str, existing: MemoryRecord) -> ArbiterVerdict:
        prompt = build_arbiter_prompt(new_content, existing.content)
        data = parse_arbiter_response(self._chat(Role.ARBITER, prompt))
        merged = data.get("merged_content")
        if data["action"] == "merge" and not merged:
            merged = f"{existing.content}\n{new_content}"
        return ArbiterVerdict(action=data["action"], merged_content=merged)


__all__ = ["HttpRoleBackends"]
