"""Model-call plumbing shared by every runtime and evaluation role.

Eight roles talk to a model: five proactive runtime roles (predictor, value
assessor, searcher, synthesizer, push assessor), the memory arbiter, and two
evaluation-only roles (user simulator, coverage judge). This module gives
them a uniform chat interface, per-role token accounting, an HTTP
chat-completion client with bounded retries, and the prompt builders used on
the HTTP path. Active-token totals count only the five proactive roles.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

logger = logging.getLogger(__name__)

API_KEY_ENV = "FORESIGHT_API_KEY"
DEFAULT_TIMEOUT = 60.0
DEFAULT_MAX_ATTEMPTS = 3


class Role(str, Enum):
    PREDICTOR = "predictor"
    VALUE_ASSESSOR = "value_assessor"
    SEARCHER = "searcher"
    SYNTHESIZER = "synthesizer"
    PUSH_ASSESSOR = "push_assessor"
    ARBITER = "arbiter"
    SIMULATOR = "simulator"
    JUDGE = "judge"


# Roles whose spend counts toward active tokens: prediction, acquisition
# (value scoring, search, synthesis), and push scoring. Response generation,
# memory arbitration, simulation, and judging are excluded.
ACTIVE_ROLES = frozenset(
    {Role.PREDICTOR, Role.VALUE_ASSESSOR, Role.SEARCHER, Role.SYNTHESIZER, Role.PUSH_ASSESSOR}
)

DEFAULT_ROLE_MODELS = {
    Role.SIMULATOR: "gpt-4o",
    Role.JUDGE: "gpt-4o-mini",
}
FALLBACK_MODEL = "gpt-4o-mini"


class BackendError(RuntimeError):
    """Base class for model-call failures."""


class ConfigurationError(ValueError):
    """Invalid configuration: missing credential, retry, scoring or budget settings."""


class AuthenticationError(BackendError):
    pass


class TransportError(BackendError):
    pass


class MalformedResponseError(BackendError):
    pass


class RetryExhaustedError(BackendError):
    pass


def synthetic_tokens(text: str) -> int:
    """Deterministic stand-in for server-reported usage: ceil(len/4)."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class ChatMessage:
    speaker: str  # system | user | assistant
    text: str

    def __post_init__(self) -> None:
        if self.speaker not in ("system", "user", "assistant"):
            raise ValueError(f"unknown speaker {self.speaker!r}")


@dataclass(frozen=True)
class ChatRequest:
    role_tag: Role
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_tokens: int = 1024
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("messages must be non-empty")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")


class TokenLedger:
    """Per-role prompt/completion token tallies for one scenario run."""

    def __init__(self) -> None:
        self._prompt: dict[Role, int] = {role: 0 for role in Role}
        self._completion: dict[Role, int] = {role: 0 for role in Role}
        self.calls: dict[Role, int] = {role: 0 for role in Role}

    def record(self, role: Role, prompt_tokens: int, completion_tokens: int) -> None:
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValueError("token counts must be >= 0")
        self._prompt[role] += prompt_tokens
        self._completion[role] += completion_tokens
        self.calls[role] += 1

    def charge_text(self, role: Role, prompt_text: str, completion_text: str) -> None:
        self.record(role, synthetic_tokens(prompt_text), synthetic_tokens(completion_text))

    def role_total(self, role: Role) -> int:
        return self._prompt[role] + self._completion[role]

    def active_total(self) -> int:
        return sum(self.role_total(role) for role in ACTIVE_ROLES)

    def grand_total(self) -> int:
        return sum(self.role_total(role) for role in Role)

    def to_dict(self) -> dict[str, dict[str, int]]:
        return {
            role.value: {
                "prompt_tokens": self._prompt[role],
                "completion_tokens": self._completion[role],
                "calls": self.calls[role],
            }
            for role in Role
        }


# Transport: (url, headers, payload, timeout) -> (status_code, parsed_body)
Transport = Callable[[str, dict, dict, float], tuple[int, dict]]


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, dict]:
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    try:
        body = resp.json()
    except ValueError as exc:
        raise MalformedResponseError(f"non-JSON body (HTTP {resp.status_code})") from exc
    return resp.status_code, body


class HttpChatClient:
    """Plain chat-completion client with bounded retries and token fallback.

    Retry policy: up to max_attempts total tries with doubling backoff
    (1s, 2s, ...). Transport faults, malformed bodies, 5xx, and 429 retry;
    401 raises AuthenticationError immediately; any other 4xx fails fast.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        role_models: Optional[dict[Role, str]] = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        transport: Optional[Transport] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise ConfigurationError(f"missing API credential; set {API_KEY_ENV}")
        if max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")
        self.endpoint = endpoint
        self._api_key = key
        self.role_models = dict(DEFAULT_ROLE_MODELS)
        if role_models:
            self.role_models.update(role_models)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._transport = transport or _requests_transport
        self._sleep = sleep

    def model_for(self, role: Role) -> str:
        return self.role_models.get(role, FALLBACK_MODEL)

    def chat(self, request: ChatRequest) -> ChatResponse:
        payload: dict = {
            "model": self.model_for(request.role_tag),
            "messages": [{"role": m.speaker, "content": m.text} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        headers = {
            "Authorization": f"Bearer {self._api_key}",
            "Content-Type": "application/json",
        }

        last_error: Optional[BackendError] = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self._sleep(float(2 ** (attempt - 1)))
            started = time.monotonic()
            try:
                status, body = self._transport(self.endpoint, headers, payload, self.timeout)
            except (TransportError, MalformedResponseError) as exc:
                last_error = exc
                continue
            latency = time.monotonic() - started

            if status == 401:
                raise AuthenticationError("authentication rejected (HTTP 401)")
            if status == 429 or status >= 500:
                last_error = BackendError(f"HTTP {status}")
                continue
            if status != 200:
                raise BackendError(f"HTTP {status}: {_brief(body)}")

            try:
                text = body["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError("content is not a string")
            except (KeyError, IndexError, TypeError) as exc:
                last_error = MalformedResponseError(f"unexpected response shape: {exc}")
                continue

            usage = body.get("usage")
            if isinstance(usage, dict) and "prompt_tokens" in usage and "completion_tokens" in usage:
                prompt_tokens = int(usage["prompt_tokens"])
                completion_tokens = int(usage["completion_tokens"])
            else:
                prompt_text = "".join(m.text for m in request.messages)
                prompt_tokens = synthetic_tokens(prompt_text)
                completion_tokens = synthetic_tokens(text)
                logger.warning("usage block missing; estimated token counts from text length")
            return ChatResponse(text, prompt_tokens, completion_tokens, latency)

        raise RetryExhaustedError(
            f"gave up after {self.max_attempts} attempts: {last_error}"
        ) from last_error


def _brief(body: object, limit: int = 200) -> str:
    text = json.dumps(body, ensure_ascii=False, default=str)
    return text if len(text) <= limit else text[:limit] + "..."


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
# Response parsers for the HTTP path. Pinned JSON shapes; malformed payloads
# raise MalformedResponseError so the harness can record a failed scenario.
# ---------------------------------------------------------------------------


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedResponseError(f"model returned non-JSON: {exc}") from exc


def parse_predictor_response(text: str) -> list[dict]:
    data = _load_json(text)
    if not isinstance(data, list):
        raise MalformedResponseError("predictor response must be a JSON array")
    out = []
    for item in data:
        if not isinstance(item, dict):
            raise MalformedResponseError("predictor items must be objects")
        try:
            out.append(
                {
                    "topic": str(item["topic"]),
                    "need": str(item["need"]),
                    "reason": str(item.get("reason", "")),
                    "confidence": float(item["confidence"]),
                    "retrieval_query": str(item["retrieval_query"]),
                }
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedResponseError(f"bad predictor item: {exc}") from exc
    return out


def parse_value_response(text: str) -> dict:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise MalformedResponseError("value response must be a JSON object")
    try:
        composite = float(data["value_score"])
        components = {
            "relevance": float(data["relevance_score"]),
            "knowledge_gap": float(data["knowledge_gap_score"]),
            "incremental_value": float(data["incremental_value_score"]),
            "timeliness": float(data["timeliness_score"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedResponseError(f"bad value response: {exc}") from exc
    if not 0.0 <= composite <= 1.0:
        raise MalformedResponseError(f"value_score out of [0, 1]: {composite}")
    # Components arrive on 0-100; the composite arrives normalized to [0, 1].
    return {"value_score_100": composite * 100.0, **components}


def parse_push_response(text: str) -> tuple[float, float]:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise MalformedResponseError("push response must be a JSON object")
    try:
        return float(data["value"]), float(data["cost"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedResponseError(f"bad push response: {exc}") from exc


def parse_searcher_response(text: str) -> list[dict]:
    data = _load_json(text)
    if not isinstance(data, list):
        raise MalformedResponseError("searcher response must be a JSON array")
    out = []
    for item in data:
        if not isinstance(item, dict) or "excerpt" not in item:
            raise MalformedResponseError("searcher items must be objects with an excerpt")
        out.append({"ref": str(item.get("ref", "")), "excerpt": str(item["excerpt"])})
    return out


def parse_arbiter_response(text: str) -> dict:
    data = _load_json(text)
    if not isinstance(data, dict) or data.get("action") not in ("skip", "replace", "merge"):
        raise MalformedResponseError("arbiter response must name a skip/replace/merge action")
    return {"action": data["action"], "merged_content": data.get("merged_content")}


def parse_judge_response(text: str) -> dict:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise MalformedResponseError("judge response must be a JSON object")
    try:
        needs = [
            {"need_id": str(entry["need_id"]), "mode": str(entry["mode"])}
            for entry in data.get("needs_addressed", [])
        ]
        return {
            "facts_conveyed": [str(x) for x in data.get("facts_conveyed", [])],
            "facts_distorted": [str(x) for x in data.get("facts_distorted", [])],
            "hallucinated_claims": [str(x) for x in data.get("hallucinated_claims", [])],
            "needs_addressed": needs,
        }
    except (KeyError, TypeError) as exc:
        raise MalformedResponseError(f"bad judge response: {exc}") from exc


__all__ = [
    "ACTIVE_ROLES",
    "API_KEY_ENV",
    "AuthenticationError",
    "BackendError",
    "ChatMessage",
    "ChatRequest",
    "ChatResponse",
    "ConfigurationError",
    "DEFAULT_ROLE_MODELS",
    "HttpChatClient",
    "MalformedResponseError",
    "RetryExhaustedError",
    "Role",
    "TokenLedger",
    "Transport",
    "TransportError",
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
    "synthetic_tokens",
]
