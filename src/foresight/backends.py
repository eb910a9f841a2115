"""Model-call plumbing shared by the oracle and HTTP role backends.

Eight roles talk to a model: five proactive runtime roles (predictor, value
assessor, searcher, synthesizer, push assessor), the memory arbiter, and two
evaluation-only roles (user simulator, coverage judge). This module holds
what both backends share: the role names, per-role token accounting and the
error classes. It also holds the transport-level HTTP chat-completion
client, which sends one prompt per request and retries transient faults.
Active-token totals count only the five proactive roles. What each role's
prompt says and how its reply is read is the business of
``foresight.http_roles``.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

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
class ChatResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency: float = 0.0


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


USAGE_KEYS = ("prompt_tokens", "completion_tokens")


def _is_count(value: object) -> bool:
    """A JSON integer >= 0 (bool is not one)."""
    return type(value) is int and value >= 0


class HttpChatClient:
    """Plain chat-completion client with bounded retries and token fallback.

    Every request is one user message at temperature 0.0 with max_tokens
    1024, sent to the role's model in ``DEFAULT_ROLE_MODELS`` (else
    ``FALLBACK_MODEL``), with a ``seed`` only when one is given.

    Retry policy: up to ``DEFAULT_MAX_ATTEMPTS`` total tries with doubling
    backoff (1s, 2s, ...). Transport faults, malformed bodies, 5xx, and 429
    retry; 401 raises AuthenticationError immediately; any other 4xx fails
    fast. ``transport`` and ``sleep`` replace the network and the backoff.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        transport: Optional[Transport] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise ConfigurationError(f"missing API credential; set {API_KEY_ENV}")
        self.endpoint = endpoint
        self._api_key = key
        self._transport = transport or _requests_transport
        self._sleep = sleep

    def chat(self, role: Role, prompt: str, seed: Optional[int] = None) -> ChatResponse:
        payload: dict = {
            "model": DEFAULT_ROLE_MODELS.get(role, FALLBACK_MODEL),
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "max_tokens": 1024,
        }
        if seed is not None:
            payload["seed"] = seed
        headers = {
            "Authorization": f"Bearer {self._api_key}",
            "Content-Type": "application/json",
        }

        last_error: Optional[BackendError] = None
        for attempt in range(DEFAULT_MAX_ATTEMPTS):
            if attempt > 0:
                self._sleep(float(2 ** (attempt - 1)))
            started = time.monotonic()
            try:
                status, body = self._transport(self.endpoint, headers, payload, DEFAULT_TIMEOUT)
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
            if isinstance(usage, dict) and all(_is_count(usage.get(k)) for k in USAGE_KEYS):
                counts = (usage["prompt_tokens"], usage["completion_tokens"])
            else:
                counts = (synthetic_tokens(prompt), synthetic_tokens(text))
                logger.warning("usage block missing or malformed; estimated token counts from text length")
            return ChatResponse(text, *counts, latency)

        raise RetryExhaustedError(
            f"gave up after {DEFAULT_MAX_ATTEMPTS} attempts: {last_error}"
        ) from last_error


def _brief(body: object, limit: int = 200) -> str:
    text = json.dumps(body, ensure_ascii=False, default=str)
    return text if len(text) <= limit else text[:limit] + "..."


__all__ = [
    "ACTIVE_ROLES",
    "API_KEY_ENV",
    "AuthenticationError",
    "BackendError",
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
    "synthetic_tokens",
]
