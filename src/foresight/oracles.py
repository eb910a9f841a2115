"""Deterministic gold-data-driven stand-ins for every model role.

These backends make the closed loop exactly reproducible at desk scale: each
role is a pure function of the scenario, the run config, and the needs the
judge has marked so far in this run. Token spend is charged synthetically
(ceil(len/4) of canonical request/response text) through the shared ledger,
so active-token accounting is testable without a model server.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional, Sequence

from foresight.acquisition import Evidence, KnowledgeArtifact, ValueScores
from foresight.backends import Role, TokenLedger
from foresight.config import RunConfig
from foresight.delivery import PushAssessment
from foresight.embedding import token_counts
from foresight.memory import ArbiterVerdict, MemoryRecord, MemoryState
from foresight.metrics import AssistantReply, JudgeVerdict, NeedMark
from foresight.prediction import CandidateNeed
from foresight.scenarios import Scenario

_FACT_TOKEN = re.compile(r"[A-Z]+\d+")

# Component scores keyed by the underlying need's importance; sources without
# a scenario need get the flat rows below.
VALUE_ROWS = {
    "must_have": (95.0, 80.0, 90.0, 95.0),
    "nice_to_have": (70.0, 35.0, 40.0, 70.0),
}
RELATED_VALUE_ROW = (90.0, 75.0, 80.0, 85.0)
MEMORY_GAP_VALUE_ROW = (55.0, 70.0, 45.0, 50.0)

PUSH_ROWS = {
    "must_have": (88.0, 22.0),
    "nice_to_have": (76.0, 50.0),
}
OTHER_PUSH_ROW = (45.0, 60.0)


def extract_fact_ids(text: str, valid_ids: frozenset[str]) -> tuple[str, ...]:
    """Fact-sheet ids referenced in a note, in first-appearance order."""
    seen: list[str] = []
    for token in _FACT_TOKEN.findall(text):
        if token in valid_ids and token not in seen:
            seen.append(token)
    return tuple(seen)


def _within(counts: Mapping[str, int], bound: Mapping[str, int]) -> bool:
    """Whether no token occurs more often in ``counts`` than in ``bound``,
    which is when ``Counter`` subtraction of ``bound`` from ``counts`` is
    empty."""
    return all(n <= bound.get(token, 0) for token, n in counts.items())


def undirected_candidates(domain: str) -> list[CandidateNeed]:
    """Generic background intents derived from the domain string alone.

    The unguided condition swaps these in for the predictor, so they must not
    encode anything about covered needs or predictability structure.
    """
    intents = (
        (f"common questions about {domain}", f"general orientation in {domain}"),
        (f"{domain} terminology basics", f"definitions of frequent {domain} terms"),
        (f"typical next steps in {domain}", f"likely follow-up tasks in {domain}"),
    )
    return [
        CandidateNeed(
            topic=topic,
            need=need,
            reason="broad background preparation",
            confidence=0.65,
            retrieval_query=topic,
            source="related",
        )
        for topic, need in intents
    ]


class OracleBackends:
    """One scenario's worth of deterministic role implementations.

    `judge` adds every need it marks to `covered`, push verdicts included, so
    `covered` is the run's covered-need set; the predictor reads it in place
    of a learned model. All other roles work from arguments only.
    """

    def __init__(
        self, scenario: Scenario, ledger: Optional[TokenLedger] = None, cfg: Optional[RunConfig] = None
    ) -> None:
        self.scenario = scenario
        self.ledger = ledger or TokenLedger()
        self.cfg = cfg or RunConfig()
        self.covered: set[str] = set()
        self._fact_ids = frozenset(f.id for f in scenario.facts)
        self._facts = {f.id: f for f in scenario.facts}
        self._needs = scenario.need_by_id()
        self._need_by_description = {n.description: n for n in scenario.needs}
        # Each need's id and key facts, in turn order: the order judge marks them.
        self._need_keys = [
            (n.id, frozenset(n.key_fact_ids)) for n in sorted(scenario.needs, key=lambda n: n.turn_order)
        ]

    # -- evaluation-only roles (gold-visible) --------------------------------

    def simulate(self, covered: set[str]) -> Optional[tuple[str, str]]:
        """Next explicit ask: the lowest-turn_order need not yet covered."""
        remaining = [n for n in self.scenario.needs if n.id not in covered]
        target = min(remaining, key=lambda n: n.turn_order) if remaining else None
        message = target.description if target else ""
        self.ledger.charge_text(Role.SIMULATOR, f"covered={sorted(covered)}", message)
        if target is None:
            return None
        return target.id, message

    def judge(self, reply: AssistantReply, target_need_id: Optional[str]) -> JudgeVerdict:
        delivered = tuple(dict.fromkeys(reply.delivered_fact_ids))
        distorted = tuple(i for i in dict.fromkeys(reply.distorted_fact_ids) if i in self._fact_ids)
        conveyed = tuple(i for i in delivered if i in self._fact_ids and i not in distorted)
        hallucinated = tuple(i for i in delivered if i not in self._fact_ids)
        grounded = set(conveyed)
        marks = []
        for need_id, keys in self._need_keys:
            if not grounded.isdisjoint(keys):
                mode = "reactive" if need_id == target_need_id else "proactive"
                marks.append(NeedMark(need_id, mode))
        verdict = JudgeVerdict(conveyed, distorted, hallucinated, tuple(marks))
        self.covered.update(m.need_id for m in marks)
        self.ledger.charge_text(Role.JUDGE, reply.text, repr(verdict.to_dict()))
        return verdict

    # -- the simulated assistant under test ----------------------------------

    def respond(
        self,
        target_need_id: Optional[str],
        condition: str,
        queued_artifacts: Sequence[KnowledgeArtifact] = (),
        user_message: str = "",
    ) -> AssistantReply:
        """Reactive answer plus, outside the reactive condition, integration
        of facts carried by queued artifacts. Never leaves the fact sheet."""
        delivered: list[str] = []
        if target_need_id is not None:
            delivered.extend(self._needs[target_need_id].key_fact_ids)
        if condition != "reactive":
            for artifact in queued_artifacts:
                for fact_id in extract_fact_ids(artifact.preparation_note, self._fact_ids):
                    if fact_id not in delivered:
                        delivered.append(fact_id)
        text = "\n".join(f"{fid}: {self._facts[fid].content}" for fid in delivered)
        return AssistantReply(text=text, delivered_fact_ids=tuple(delivered))

    def push_reply(self, artifact: KnowledgeArtifact) -> AssistantReply:
        """Notification content rendered for judging."""
        delivered = extract_fact_ids(artifact.preparation_note, self._fact_ids)
        text = f"{artifact.candidate.topic}\n{artifact.preparation_note}"
        return AssistantReply(text=text, delivered_fact_ids=delivered)

    # -- proactive runtime roles ---------------------------------------------

    def predict(self, history: Sequence[dict], memory: MemoryState) -> list[CandidateNeed]:
        """Candidates for uncovered needs whose trigger is already covered,
        capped at the per-idle intent limit by turn order."""
        eligible = [
            n
            for n in self.scenario.needs
            if n.id not in self.covered
            and n.predictable_after is not None
            and n.predictable_after in self.covered
        ]
        eligible.sort(key=lambda n: n.turn_order)
        eligible = eligible[: self.cfg.max_predictor_candidates]
        out = []
        for need in eligible:
            trigger = self._needs[need.predictable_after]
            out.append(
                CandidateNeed(
                    topic=need.description,
                    need=need.description,
                    reason=f"natural follow-up once '{trigger.description}' is settled",
                    confidence=0.9,
                    retrieval_query=" ".join(need.key_fact_ids),
                    subtopics=tuple(need.key_fact_ids),
                    source="scenario",
                )
            )
        self.ledger.charge_text(
            Role.PREDICTOR,
            f"history_turns={len(history)}|records={len(memory.records)}",
            repr([(c.topic, c.confidence) for c in out]),
        )
        return out

    def unguided(self, history: Sequence[dict], memory: MemoryState) -> list[CandidateNeed]:
        """Generic-topic intents for the unguided idle condition."""
        out = undirected_candidates(self.scenario.domain)
        self.ledger.charge_text(
            Role.PREDICTOR,
            f"history_turns={len(history)}|domain={self.scenario.domain}",
            repr([c.topic for c in out]),
        )
        return out

    def assess_value(self, candidate: CandidateNeed) -> ValueScores:
        if candidate.source == "memory_gap":
            row = MEMORY_GAP_VALUE_ROW
        else:
            need = self._need_by_description.get(candidate.need)
            if need is None:
                row = RELATED_VALUE_ROW
            else:
                row = VALUE_ROWS[need.importance]
        scores = ValueScores(*row)
        self.ledger.charge_text(Role.VALUE_ASSESSOR, candidate.need, repr(row))
        return scores

    def search(self, query: str) -> list[Evidence]:
        """Resolve fact-id tokens in the query against the fact sheet."""
        out = []
        for fact_id in extract_fact_ids(query, self._fact_ids):
            fact = self._facts[fact_id]
            out.append(Evidence(source="search", ref=fact_id, excerpt=f"{fact_id}: {fact.content}"))
        self.ledger.charge_text(Role.SEARCHER, query, repr([e.ref for e in out]))
        return out

    def synthesize(self, candidate: CandidateNeed, evidence: Sequence[Evidence]) -> str:
        note = "\n".join(e.excerpt for e in evidence)
        self.ledger.charge_text(Role.SYNTHESIZER, candidate.topic, note)
        return note

    def assess_push(self, artifact: KnowledgeArtifact) -> PushAssessment:
        need = self._need_by_description.get(artifact.candidate.need)
        row = PUSH_ROWS.get(need.importance) if need is not None else None
        value, cost = row if row is not None else OTHER_PUSH_ROW
        self.ledger.charge_text(Role.PUSH_ASSESSOR, artifact.candidate.topic, repr((value, cost)))
        return PushAssessment(
            artifact_id=artifact.id, value=value, cost=cost, created_at=artifact.created_at
        )

    # -- memory arbiter -------------------------------------------------------

    def arbitrate(self, new_content: str, existing: MemoryRecord) -> ArbiterVerdict:
        """Token-multiset containment rule: subset skips, superset replaces,
        anything else merges both texts."""
        new_tokens = token_counts(new_content)
        old_tokens = token_counts(existing.content)
        if _within(new_tokens, old_tokens):
            verdict = ArbiterVerdict(action="skip")
        elif _within(old_tokens, new_tokens):
            verdict = ArbiterVerdict(action="replace")
        else:
            verdict = ArbiterVerdict(
                action="merge", merged_content=f"{existing.content}\n{new_content}"
            )
        self.ledger.charge_text(Role.ARBITER, new_content + existing.content, verdict.action)
        return verdict


__all__ = [
    "MEMORY_GAP_VALUE_ROW",
    "OTHER_PUSH_ROW",
    "OracleBackends",
    "PUSH_ROWS",
    "RELATED_VALUE_ROW",
    "VALUE_ROWS",
    "extract_fact_ids",
    "undirected_candidates",
]
