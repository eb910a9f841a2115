"""The HTTP role contract: each role's prompt, its reply parser, and the backend.

``HttpRoleBackends`` mirrors the oracle backend surface so the harness can
swap between them. Each role method builds its prompt, sends it through the
``HttpChatClient`` as one request, and parses the reply into the typed value
the harness reads. Evaluation-side roles (simulator, judge) see gold
scenario data; runtime roles build their prompts from runtime-visible
inputs only.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from itertools import islice
from typing import Optional, Sequence

from foresight.acquisition import Evidence, KnowledgeArtifact, ValueScores
from foresight.backends import HttpChatClient, MalformedResponseError, Role, TokenLedger
from foresight.delivery import PushAssessment
from foresight.memory import ArbiterVerdict, MemoryRecord, MemoryState
from foresight.metrics import MODES, AssistantReply, JudgeVerdict, NeedMark
from foresight.oracles import extract_fact_ids, undirected_candidates
from foresight.prediction import CandidateNeed
from foresight.scenarios import Scenario

# ---------------------------------------------------------------------------
# Prompt builders. Runtime-role prompts (everything except simulator/judge)
# are built exclusively from runtime-visible data: dialogue history, user
# profile, fact sheet, memory contents, and candidate/artifact fields. They
# must never see gold need metadata.
# ---------------------------------------------------------------------------


def build_predictor_prompt(history: Sequence[dict], profile: dict, memory_notes: Sequence[str]) -> str:
    lines = [
        "Predict likely future information needs after the current turn is answered.",
        "Do not predict facts that merely help answer the current user question.",
        "Use only the dialogue state, user profile, and stored memory below.",
        "Generate NEXT-STEP candidates (immediate follow-ups in the current topic)",
        "and ADJACENT candidates (related topics grounded in profile or memory gaps).",
        "Prefer concrete anchors: entities, dates, constraints, unresolved dependencies.",
        "Assign calibrated confidence in [0, 1].",
        "",
        "[User Profile]",
    ]
    for key in sorted(profile):
        lines.append(f"{key}: {profile[key]}")
    lines.append("")
    lines.append("[Dialogue So Far]")
    for turn in history:
        lines.append(f"user: {turn.get('user', '')}")
        lines.append(f"assistant: {turn.get('assistant', '')}")
    lines.append("")
    lines.append("[Memory Notes]")
    for note in memory_notes:
        lines.append(f"- {note}")
    lines.append("")
    lines.append(
        'Respond in JSON: [{"topic": "...", "need": "...", "reason": "...",'
        ' "confidence": 0.0, "retrieval_query": "..."}]'
    )
    return "\n".join(lines)


def build_value_prompt(topic: str, need: str, reason: str, retrieval_query: str) -> str:
    return "\n".join(
        [
            "Score whether this candidate should receive idle-time exploration.",
            "Consider user relevance, current knowledge gap, incremental value",
            "beyond stored memory, and timeliness.",
            "",
            f"Candidate topic: {topic}",
            f"Anticipated need: {need}",
            f"Rationale: {reason}",
            f"Retrieval plan: {retrieval_query}",
            "",
            "Respond in JSON:",
            '{"value_score": 0.0, "relevance_score": 0, "knowledge_gap_score": 0,',
            ' "incremental_value_score": 0, "timeliness_score": 0,',
            ' "decision": "search_now|queue|store_only|drop", "rationale": "..."}',
            "value_score is in [0, 1]; component scores are on a 0-100 scale.",
        ]
    )


def build_searcher_prompt(query: str, fact_lines: Sequence[str]) -> str:
    lines = [
        "Retrieve evidence relevant to the query from the reference sheet below.",
        "Return only grounded excerpts; do not invent content.",
        "",
        f"Query: {query}",
        "",
        "[Reference Sheet]",
    ]
    lines.extend(fact_lines)
    lines.append("")
    lines.append('Respond in JSON: [{"ref": "...", "excerpt": "..."}]')
    return "\n".join(lines)


def build_synthesizer_prompt(topic: str, need: str, excerpts: Sequence[str]) -> str:
    lines = [
        "Compose a compact preparation note for the anticipated need below,",
        "using only the evidence excerpts. Keep every claim grounded.",
        "",
        f"Topic: {topic}",
        f"Anticipated need: {need}",
        "",
        "[Evidence]",
    ]
    for excerpt in excerpts:
        lines.append(f"- {excerpt}")
    return "\n".join(lines)


def build_push_prompt(topic: str, note: str) -> str:
    return "\n".join(
        [
            "Decide whether this prepared note justifies interrupting the user now.",
            "Estimate Value (usefulness of seeing it immediately) and Cost",
            "(disruption from the interruption), each on a 0-100 scale.",
            "",
            f"Topic: {topic}",
            "[Note]",
            note,
            "",
            'Respond in JSON: {"value": 0, "cost": 0, "rationale": "..."}',
        ]
    )


def build_arbiter_prompt(new_content: str, existing_content: str) -> str:
    return "\n".join(
        [
            "A new memory entry is similar to an existing one. Choose how to store it:",
            "skip (new adds nothing), replace (new supersedes old), or",
            "merge (combine both into one entry).",
            "",
            "[Existing]",
            existing_content,
            "",
            "[New]",
            new_content,
            "",
            'Respond in JSON: {"action": "skip|replace|merge", "merged_content": "..."}',
        ]
    )


def build_simulator_prompt(persona: str, context: str, style: str, need_description: str) -> str:
    return "\n".join(
        [
            "You are role-playing as a user talking to an AI assistant.",
            "Stay in character and write one natural, conversational message.",
            "",
            f"Your persona: {persona}",
            f"Your current situation: {context}",
            f"Your communication style: {style}",
            f"Current need to express naturally: {need_description}",
            "",
            "Rules:",
            "- Generate ONLY the user's message, nothing else.",
            "- Do not mention IDs or evaluation metadata.",
            "- Do NOT copy the need description verbatim.",
        ]
    )


def build_judge_prompt(fact_lines: Sequence[str], need_lines: Sequence[str], reply_text: str) -> str:
    lines = [
        "You are a strict evaluation judge for an AI assistant benchmark.",
        "Given the [Fact Sheet] and [User Needs List], analyze the assistant's",
        "response and determine:",
        "1. facts_conveyed  - fact IDs whose information is accurately communicated",
        "2. facts_distorted - fact IDs mentioned but with errors",
        "3. hallucinated_claims - claims NOT grounded in the fact sheet",
        "4. needs_addressed - user needs substantively covered",
        "",
        'Mode "reactive": the user explicitly asked about the need this turn.',
        'Mode "proactive": the assistant volunteered the information unasked.',
        "A need is addressed ONLY when the response conveys at least one fact",
        "from the need's key_fact_ids. Generic advice does not count.",
        "",
        "[Fact Sheet]",
    ]
    lines.extend(fact_lines)
    lines.append("")
    lines.append("[User Needs List]")
    lines.extend(need_lines)
    lines.append("")
    lines.append("[Assistant Response]")
    lines.append(reply_text)
    lines.append("")
    lines.append(
        'Respond in JSON: {"facts_conveyed": [], "facts_distorted": [],'
        ' "hallucinated_claims": [], "needs_addressed": [{"need_id": "...", "mode": "..."}]}'
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Reply parsers. Pinned JSON shapes, each read into the value its role
# returns. A string field must be a JSON string, a number field a finite
# JSON number and a list field a list of strings; anything else raises
# MalformedResponseError, so the harness can record a failed scenario (or,
# for the predictor, skip prediction).
# ---------------------------------------------------------------------------


def _load_json(text: str, shape: type, what: str) -> object:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedResponseError(f"model returned non-JSON: {exc}") from exc
    if not isinstance(data, shape):
        kind = "array" if shape is list else "object"
        raise MalformedResponseError(f"{what} must be a JSON {kind}")
    return data


def _string(data: dict, key: str, default: Optional[str] = None) -> str:
    """``data[key]`` as a JSON string; ``default`` when the key is absent."""
    value = data.get(key, default)
    if not isinstance(value, str):
        raise MalformedResponseError(f"{key} must be a string, got {value!r}")
    return value


def _strings(data: dict, key: str) -> tuple[str, ...]:
    """``data[key]`` as a JSON list of strings; empty when the key is absent."""
    value = data.get(key, [])
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MalformedResponseError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


def _number(data: dict, key: str) -> float:
    """``data[key]`` as a finite JSON number (a bool is not one)."""
    value = data.get(key)
    if type(value) not in (int, float) or not math.isfinite(value):
        raise MalformedResponseError(f"{key} must be a number, got {value!r}")
    return float(value)


def _clamp(x: float, top: float) -> float:
    return min(max(x, 0.0), top)


def parse_predictor_response(text: str) -> list[CandidateNeed]:
    out = []
    for item in _load_json(text, list, "predictor response"):
        if not isinstance(item, dict):
            raise MalformedResponseError("predictor items must be objects")
        try:
            out.append(
                CandidateNeed(
                    topic=_string(item, "topic"),
                    need=_string(item, "need"),
                    reason=_string(item, "reason", ""),
                    confidence=_clamp(_number(item, "confidence"), 1.0),
                    retrieval_query=_string(item, "retrieval_query"),
                    source="scenario",
                )
            )
        except ValueError as exc:  # an empty need or retrieval_query
            raise MalformedResponseError(f"bad predictor item: {exc}") from exc
    return out


def parse_value_response(text: str) -> ValueScores:
    """Components arrive on 0-100 and are clamped there; the composite
    ``value_score`` must be normalized to [0, 1] but is not used."""
    data = _load_json(text, dict, "value response")
    composite = _number(data, "value_score")
    if not 0.0 <= composite <= 1.0:
        raise MalformedResponseError(f"value_score out of [0, 1]: {composite}")
    return ValueScores(**{f.name: _clamp(_number(data, f"{f.name}_score"), 100.0) for f in fields(ValueScores)})


def parse_push_response(text: str) -> tuple[float, float]:
    """(value, cost), each clamped to [0, 100]."""
    data = _load_json(text, dict, "push response")
    return _clamp(_number(data, "value"), 100.0), _clamp(_number(data, "cost"), 100.0)


def parse_searcher_response(text: str, query: str) -> list[Evidence]:
    """Search evidence; an item without a ref is referenced by ``query``."""
    out = []
    for item in _load_json(text, list, "searcher response"):
        if not isinstance(item, dict):
            raise MalformedResponseError("searcher items must be objects with an excerpt")
        ref, excerpt = _string(item, "ref", ""), _string(item, "excerpt")
        out.append(Evidence(source="search", ref=ref or query, excerpt=excerpt))
    return out


def parse_arbiter_response(text: str) -> ArbiterVerdict:
    data = _load_json(text, dict, "arbiter response")
    if data.get("action") not in ("skip", "replace", "merge"):
        raise MalformedResponseError("arbiter response must name a skip/replace/merge action")
    merged = data.get("merged_content")
    if merged is not None and not isinstance(merged, str):
        raise MalformedResponseError(f"merged_content must be a string, got {merged!r}")
    return ArbiterVerdict(action=data["action"], merged_content=merged)


def parse_judge_response(text: str) -> JudgeVerdict:
    """Needs marked in a mode other than reactive/proactive are dropped, and
    a fact both conveyed and distorted counts as distorted."""
    data = _load_json(text, dict, "judge response")
    entries = data.get("needs_addressed", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise MalformedResponseError(f"needs_addressed must be a list of objects, got {entries!r}")
    marks = [(_string(e, "need_id"), _string(e, "mode")) for e in entries]
    distorted = _strings(data, "facts_distorted")
    return JudgeVerdict(
        facts_conveyed=tuple(i for i in _strings(data, "facts_conveyed") if i not in distorted),
        facts_distorted=distorted,
        hallucinated_claims=_strings(data, "hallucinated_claims"),
        needs_addressed=tuple(NeedMark(need_id, mode) for need_id, mode in marks if mode in MODES),
    )


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
        response = self.client.chat(role, prompt, self.seed)
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
        return parse_judge_response(self._chat(Role.JUDGE, prompt))

    # -- the assistant under test ---------------------------------------------

    def respond(
        self,
        target_need_id: Optional[str],
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
        if queued_artifacts:
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
        text = self.client.chat(Role.SIMULATOR, "\n".join(lines), self.seed).text
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
        return parse_predictor_response(self._chat(Role.PREDICTOR, prompt))

    def unguided(self, history: Sequence[dict], memory: MemoryState) -> list[CandidateNeed]:
        return undirected_candidates(self.scenario.domain)

    def assess_value(self, candidate: CandidateNeed) -> ValueScores:
        prompt = build_value_prompt(
            candidate.topic, candidate.need, candidate.reason, candidate.retrieval_query
        )
        return parse_value_response(self._chat(Role.VALUE_ASSESSOR, prompt))

    def search(self, query: str) -> list[Evidence]:
        prompt = build_searcher_prompt(query, self._fact_lines)
        return parse_searcher_response(self._chat(Role.SEARCHER, prompt), query)

    def synthesize(self, candidate: CandidateNeed, evidence: Sequence[Evidence]) -> str:
        prompt = build_synthesizer_prompt(candidate.topic, candidate.need, [e.excerpt for e in evidence])
        return self._chat(Role.SYNTHESIZER, prompt).strip()

    def assess_push(self, artifact: KnowledgeArtifact) -> PushAssessment:
        prompt = build_push_prompt(artifact.candidate.topic, artifact.preparation_note)
        value, cost = parse_push_response(self._chat(Role.PUSH_ASSESSOR, prompt))
        return PushAssessment(artifact_id=artifact.id, value=value, cost=cost, created_at=artifact.created_at)

    def arbitrate(self, new_content: str, existing: MemoryRecord) -> ArbiterVerdict:
        prompt = build_arbiter_prompt(new_content, existing.content)
        return parse_arbiter_response(self._chat(Role.ARBITER, prompt))


__all__ = [
    "HttpRoleBackends",
    "build_arbiter_prompt",
    "build_judge_prompt",
    "build_predictor_prompt",
    "build_push_prompt",
    "build_searcher_prompt",
    "build_simulator_prompt",
    "build_synthesizer_prompt",
    "build_value_prompt",
    "parse_arbiter_response",
    "parse_judge_response",
    "parse_predictor_response",
    "parse_push_response",
    "parse_searcher_response",
    "parse_value_response",
]
