"""Scenario model: parsing, validation, composition statistics, stratification.

A scenario is a closed world for one evaluated conversation: a fact sheet,
a set of user needs bound to key facts, and reveal groups that stage when
topics become visible. Needs may carry a ``predictable_after`` edge marking
them as anticipatable once their predecessor has been addressed.

The runtime view deliberately strips everything the system under test must
not see: need identifiers, key-fact bindings, predictability edges, and
reveal groups.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

IMPORTANCE_LEVELS = ("must_have", "nice_to_have")

ARCHETYPES = (
    "foundational_memory",
    "translation_gap_resolution",
    "trace_dependency_reasoning",
    "handoff_consistency_control",
    "readiness_follow_through",
)

# Fact and need identifiers: uppercase letters then digits ("F06", "N1").
_ID_RE = re.compile(r"^[A-Z]+[0-9]+$")


class ScenarioParseError(ValueError):
    """Input is not well-formed JSON."""


class ScenarioSchemaError(ValueError):
    """JSON parsed but a required field is missing or of the wrong type."""


@dataclass(frozen=True)
class Fact:
    id: str
    category: str
    content: str
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UserNeed:
    id: str
    description: str
    importance: str
    key_fact_ids: tuple[str, ...]
    predictable_after: Optional[str]
    reveal_group: str
    turn_order: int
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RevealGroup:
    id: str
    label: str
    need_ids: tuple[str, ...]
    trigger_after: Optional[str]
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UserProfile:
    persona: str
    context: str
    communication_style: str
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    domain: str
    archetype: str
    user_profile: UserProfile
    facts: tuple[Fact, ...]
    needs: tuple[UserNeed, ...]
    groups: tuple[RevealGroup, ...]
    extra: dict = field(default_factory=dict)

    def need_by_id(self) -> dict[str, UserNeed]:
        return {n.id: n for n in self.needs}

    def group_of(self, need_id: str) -> Optional[str]:
        for g in self.groups:
            if need_id in g.need_ids:
                return g.id
        return None


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    offending_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class CompositionStats:
    need_count: int
    fact_count: int
    group_count: int
    predictable_count: int
    non_predictable_count: int
    cross_group_links: int
    intra_group_links: int
    auditable_targets: int
    opportunity_fraction: float


class OpportunityLevel(str, Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


class FragmentationLevel(str, Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


@dataclass(frozen=True)
class Strata:
    opportunity: OpportunityLevel
    fragmentation: FragmentationLevel


@dataclass(frozen=True)
class RuntimeView:
    """What the system under test is allowed to see before the run."""

    scenario_id: str
    domain: str
    user_profile: UserProfile
    facts: tuple[Fact, ...]

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "domain": self.domain,
            "user_profile": {
                "persona": self.user_profile.persona,
                "context": self.user_profile.context,
                "communication_style": self.user_profile.communication_style,
            },
            "facts": [{"id": f.id, "category": f.category, "content": f.content} for f in self.facts],
        }


def _require(obj: dict, key: str, kind: type, path: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ScenarioSchemaError(f"missing required field: {path}.{key}")
    value = obj[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ScenarioSchemaError(f"wrong type for {path}.{key}: expected {kind.__name__}")
    return value


def _extras(obj: dict, known: tuple[str, ...]) -> dict:
    return {k: v for k, v in obj.items() if k not in known}


def parse_scenario(data: bytes | str) -> Scenario:
    """Parse scenario JSON. Unknown fields are preserved for round-tripping.

    Raises ScenarioParseError for malformed JSON and ScenarioSchemaError for
    missing or mistyped required fields. Validation is a separate step.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioSchemaError("top-level value must be an object")

    profile_doc = _require(doc, "user_profile", dict, "$")
    profile = UserProfile(
        persona=_require(profile_doc, "persona", str, "$.user_profile"),
        context=_require(profile_doc, "context", str, "$.user_profile"),
        communication_style=_require(profile_doc, "communication_style", str, "$.user_profile"),
        extra=_extras(profile_doc, ("persona", "context", "communication_style")),
    )

    facts = []
    for i, fd in enumerate(_require(doc, "facts", list, "$")):
        path = f"$.facts[{i}]"
        if not isinstance(fd, dict):
            raise ScenarioSchemaError(f"wrong type for {path}: expected object")
        facts.append(
            Fact(
                id=_require(fd, "id", str, path),
                category=_require(fd, "category", str, path),
                content=_require(fd, "content", str, path),
                extra=_extras(fd, ("id", "category", "content")),
            )
        )

    needs = []
    for i, nd in enumerate(_require(doc, "user_needs", list, "$")):
        path = f"$.user_needs[{i}]"
        if not isinstance(nd, dict):
            raise ScenarioSchemaError(f"wrong type for {path}: expected object")
        key_ids = _require(nd, "key_fact_ids", list, path)
        if not all(isinstance(k, str) for k in key_ids):
            raise ScenarioSchemaError(f"wrong type for {path}.key_fact_ids: expected list of strings")
        pred = nd.get("predictable_after")
        if pred is not None and not isinstance(pred, str):
            raise ScenarioSchemaError(f"wrong type for {path}.predictable_after: expected string or null")
        needs.append(
            UserNeed(
                id=_require(nd, "id", str, path),
                description=_require(nd, "description", str, path),
                importance=_require(nd, "importance", str, path),
                key_fact_ids=tuple(key_ids),
                predictable_after=pred,
                reveal_group=_require(nd, "reveal_group", str, path),
                turn_order=_require(nd, "turn_order", int, path),
                extra=_extras(
                    nd,
                    (
                        "id",
                        "description",
                        "importance",
                        "key_fact_ids",
                        "predictable_after",
                        "reveal_group",
                        "turn_order",
                    ),
                ),
            )
        )

    groups = []
    for i, gd in enumerate(_require(doc, "reveal_groups", list, "$")):
        path = f"$.reveal_groups[{i}]"
        if not isinstance(gd, dict):
            raise ScenarioSchemaError(f"wrong type for {path}: expected object")
        need_ids = _require(gd, "need_ids", list, path)
        trigger = gd.get("trigger_after")
        if trigger is not None and not isinstance(trigger, str):
            raise ScenarioSchemaError(f"wrong type for {path}.trigger_after: expected string or null")
        groups.append(
            RevealGroup(
                id=_require(gd, "id", str, path),
                label=_require(gd, "label", str, path),
                need_ids=tuple(need_ids),
                trigger_after=trigger,
                extra=_extras(gd, ("id", "label", "need_ids", "trigger_after")),
            )
        )

    return Scenario(
        scenario_id=_require(doc, "scenario_id", str, "$"),
        domain=_require(doc, "domain", str, "$"),
        archetype=_require(doc, "archetype", str, "$"),
        user_profile=profile,
        facts=tuple(facts),
        needs=tuple(needs),
        groups=tuple(groups),
        extra=_extras(
            doc,
            ("scenario_id", "domain", "archetype", "user_profile", "facts", "user_needs", "reveal_groups"),
        ),
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Inverse of parse_scenario; parse(serialize(s)) == s."""
    doc: dict[str, Any] = {
        "scenario_id": scenario.scenario_id,
        "domain": scenario.domain,
        "archetype": scenario.archetype,
        "user_profile": {
            "persona": scenario.user_profile.persona,
            "context": scenario.user_profile.context,
            "communication_style": scenario.user_profile.communication_style,
            **scenario.user_profile.extra,
        },
        "facts": [{"id": f.id, "category": f.category, "content": f.content, **f.extra} for f in scenario.facts],
        "user_needs": [
            {
                "id": n.id,
                "description": n.description,
                "importance": n.importance,
                "key_fact_ids": list(n.key_fact_ids),
                "predictable_after": n.predictable_after,
                "reveal_group": n.reveal_group,
                "turn_order": n.turn_order,
                **n.extra,
            }
            for n in scenario.needs
        ],
        "reveal_groups": [
            {
                "id": g.id,
                "label": g.label,
                "need_ids": list(g.need_ids),
                "trigger_after": g.trigger_after,
                **g.extra,
            }
            for g in scenario.groups
        ],
    }
    doc.update(scenario.extra)
    return json.dumps(doc, ensure_ascii=False, indent=2)


def _has_cycle(nodes: list[str], edges: dict[str, str]) -> bool:
    # Kahn's algorithm over single-parent edges; leftover nodes mean a cycle.
    indegree = {n: 0 for n in nodes}
    children: dict[str, list[str]] = {n: [] for n in nodes}
    for child, parent in edges.items():
        if parent in children and child in indegree:
            children[parent].append(child)
            indegree[child] += 1
    queue = [n for n in nodes if indegree[n] == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    return seen != len(nodes)


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Structural validation. Returns every violation, not just the first."""
    violations: list[Violation] = []

    fact_ids = [f.id for f in scenario.facts]
    need_ids = [n.id for n in scenario.needs]
    group_ids = [g.id for g in scenario.groups]

    if not scenario.facts:
        violations.append(Violation("EMPTY_FACTS", "scenario has no facts"))
    if not scenario.needs:
        violations.append(Violation("EMPTY_NEEDS", "scenario has no user needs"))

    for label, ids in (("fact", fact_ids), ("need", need_ids), ("group", group_ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            violations.append(Violation("UNIQUE_ID", f"duplicate {label} ids", tuple(dupes)))

    for fid in fact_ids:
        if not _ID_RE.match(fid):
            violations.append(Violation("ID_FORMAT", f"fact id {fid!r} does not match [A-Z]+[0-9]+", (fid,)))
    for nid in need_ids:
        if not _ID_RE.match(nid):
            violations.append(Violation("ID_FORMAT", f"need id {nid!r} does not match [A-Z]+[0-9]+", (nid,)))

    if scenario.archetype not in ARCHETYPES:
        violations.append(Violation("ARCHETYPE", f"unknown archetype {scenario.archetype!r}", (scenario.archetype,)))

    for fact in scenario.facts:
        if not fact.content.strip():
            violations.append(Violation("EMPTY_CONTENT", f"fact {fact.id} has empty content", (fact.id,)))

    fact_set = set(fact_ids)
    need_set = set(need_ids)
    for need in scenario.needs:
        if need.importance not in IMPORTANCE_LEVELS:
            violations.append(
                Violation("IMPORTANCE", f"need {need.id} has unknown importance {need.importance!r}", (need.id,))
            )
        if not need.key_fact_ids:
            violations.append(Violation("KEY_FACTS", f"need {need.id} has no key facts", (need.id,)))
        for kf in need.key_fact_ids:
            if kf not in fact_set:
                violations.append(
                    Violation("FACT_REF", f"need {need.id} references unknown fact {kf}", (need.id, kf))
                )
        if need.predictable_after is not None:
            if need.predictable_after not in need_set:
                violations.append(
                    Violation(
                        "PRED_REF",
                        f"need {need.id} is predictable after unknown need {need.predictable_after}",
                        (need.id, need.predictable_after),
                    )
                )
            elif need.predictable_after == need.id:
                violations.append(Violation("ACYCLIC", f"need {need.id} is predictable after itself", (need.id,)))

    pred_edges = {
        n.id: n.predictable_after
        for n in scenario.needs
        if n.predictable_after is not None and n.predictable_after in need_set
    }
    if need_ids and _has_cycle(need_ids, pred_edges):
        violations.append(Violation("ACYCLIC", "predictable_after edges form a cycle"))

    orders = sorted(n.turn_order for n in scenario.needs)
    if scenario.needs and orders != list(range(1, len(scenario.needs) + 1)):
        violations.append(
            Violation("TURN_ORDER", f"turn_order values must be exactly 1..{len(scenario.needs)}, got {orders}")
        )

    # Reveal groups must partition the need set.
    assigned: dict[str, list[str]] = {}
    group_set = set(group_ids)
    for group in scenario.groups:
        for nid in group.need_ids:
            assigned.setdefault(nid, []).append(group.id)
            if nid not in need_set:
                violations.append(
                    Violation("GROUP_REF", f"group {group.id} lists unknown need {nid}", (group.id, nid))
                )
        if group.trigger_after is not None and group.trigger_after not in group_set:
            violations.append(
                Violation(
                    "GROUP_REF",
                    f"group {group.id} triggers after unknown group {group.trigger_after}",
                    (group.id, group.trigger_after),
                )
            )
    for need in scenario.needs:
        homes = assigned.get(need.id, [])
        if len(homes) != 1 or (homes and homes[0] != need.reveal_group):
            violations.append(
                Violation(
                    "GROUP_PARTITION",
                    f"need {need.id} must appear in exactly its declared group {need.reveal_group}",
                    (need.id,),
                )
            )

    trigger_edges = {
        g.id: g.trigger_after for g in scenario.groups if g.trigger_after is not None and g.trigger_after in group_set
    }
    if group_ids and _has_cycle(group_ids, trigger_edges):
        violations.append(Violation("GROUP_ACYCLIC", "trigger_after edges form a cycle"))

    # Structural guarantees for grouped scenarios: anticipation must be
    # possible (cross-group link) and measurable (auditable target).
    if len(scenario.groups) >= 2 and not violations:
        stats = _stats_unchecked(scenario)
        if stats.cross_group_links < 1:
            violations.append(
                Violation(
                    "CROSS_GROUP",
                    f"grouped scenario needs >= 1 cross-group predictability link(s), found {stats.cross_group_links}",
                )
            )
        if stats.auditable_targets < 1:
            violations.append(
                Violation(
                    "AUDITABLE",
                    "grouped scenario needs at least one predictable need whose key facts are disjoint "
                    "from its predecessor's",
                )
            )

    return ValidationReport(valid=not violations, violations=tuple(violations))


def _stats_unchecked(scenario: Scenario) -> CompositionStats:
    needs_by_id = scenario.need_by_id()
    predictable = [n for n in scenario.needs if n.predictable_after is not None]
    cross = intra = auditable = 0
    for need in predictable:
        pred = needs_by_id.get(need.predictable_after or "")
        if pred is None:
            continue
        if scenario.group_of(need.id) == scenario.group_of(pred.id):
            intra += 1
        else:
            cross += 1
        if not set(need.key_fact_ids) & set(pred.key_fact_ids):
            auditable += 1
    count = len(scenario.needs)
    return CompositionStats(
        need_count=count,
        fact_count=len(scenario.facts),
        group_count=len(scenario.groups),
        predictable_count=len(predictable),
        non_predictable_count=count - len(predictable),
        cross_group_links=cross,
        intra_group_links=intra,
        auditable_targets=auditable,
        opportunity_fraction=(len(predictable) / count) if count else 0.0,
    )


def composition_stats(scenario: Scenario, report: Optional[ValidationReport] = None) -> CompositionStats:
    """Structural counts for a valid scenario.

    ``report`` is the scenario's ``validate_scenario`` report when the
    caller already holds it; without one the scenario is validated here.
    """
    if report is None:
        report = validate_scenario(scenario)
    # CROSS_GROUP/AUDITABLE are stratification concerns, not integrity ones;
    # stats still require the integrity checks to pass.
    hard = [v for v in report.violations if v.code not in ("CROSS_GROUP", "AUDITABLE")]
    if hard:
        raise ValueError(f"composition_stats requires a valid scenario; first violation: {hard[0]}")
    return _stats_unchecked(scenario)


def stratify(scenario: Scenario, report: Optional[ValidationReport] = None) -> Strata:
    """Opportunity (predictable fraction) and fragmentation (group count)
    strata; ``report`` as in ``composition_stats``."""
    stats = composition_stats(scenario, report)
    frac = stats.opportunity_fraction
    if frac >= 0.70:
        opportunity = OpportunityLevel.HIGH
    elif frac >= 0.55:
        opportunity = OpportunityLevel.MEDIUM
    else:
        opportunity = OpportunityLevel.LOW
    if stats.group_count >= 10:
        fragmentation = FragmentationLevel.HIGH
    elif stats.group_count >= 8:
        fragmentation = FragmentationLevel.MEDIUM
    else:
        fragmentation = FragmentationLevel.LOW
    return Strata(opportunity=opportunity, fragmentation=fragmentation)


def runtime_view(scenario: Scenario) -> RuntimeView:
    """Strip gold structure: no needs, no key facts, no groups, no edges."""
    return RuntimeView(
        scenario_id=scenario.scenario_id,
        domain=scenario.domain,
        user_profile=UserProfile(
            persona=scenario.user_profile.persona,
            context=scenario.user_profile.context,
            communication_style=scenario.user_profile.communication_style,
        ),
        facts=tuple(Fact(id=f.id, category=f.category, content=f.content) for f in scenario.facts),
    )


__all__ = [
    "ARCHETYPES",
    "IMPORTANCE_LEVELS",
    "CompositionStats",
    "Fact",
    "FragmentationLevel",
    "OpportunityLevel",
    "RevealGroup",
    "RuntimeView",
    "Scenario",
    "ScenarioParseError",
    "ScenarioSchemaError",
    "Strata",
    "UserNeed",
    "UserProfile",
    "ValidationReport",
    "Violation",
    "composition_stats",
    "parse_scenario",
    "runtime_view",
    "serialize_scenario",
    "stratify",
    "validate_scenario",
]
