"""Seeded inputs for the benchmark: scenarios and a long-term memory.

Everything here is a pure function of a ``random.Random`` so that one seed
always gives byte-identical inputs. The program under test only ever sees
the generated scenarios (as files or objects) and the memory snapshot.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

from foresight.memory import LogicalClock, MemoryState
from foresight.oracles import OracleBackends
from foresight.scenarios import (
    ARCHETYPES,
    Fact,
    RevealGroup,
    Scenario,
    UserNeed,
    UserProfile,
    validate_scenario,
)

DOMAINS = (
    "home_networking", "travel_planning", "meal_prep", "garden_care",
    "pet_adoption", "apartment_hunting", "event_hosting",
)

_ONSETS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"

# Seeded long-term memory for the long_memory workload: 1,000 records. Counts
# are exact, not proportions, so every seed puts the same work on each gap path.
MEMORY_KIND_MIX = {  # kind -> records; research_fact includes the unsupported ones
    "entity_fact": 590,
    "conversation_summary": 150,
    "profile_attr": 100,
    "artifact": 150,
    "research_fact": 10,
}
MEMORY_UNSUPPORTED_FACTS = 5  # research facts with no neighbour >= coverage threshold
UNSUPPORTED_WORDS = 10  # short enough that the whole text is the gap topic
MEMORY_VOCABULARY = 1500  # distinct pseudo-words the record texts draw from
MEMORY_STALE_RECORDS = 10  # oldest records that fall past the staleness window
MEMORY_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
# One hour between build writes, so the few seconds a unit's clock advances
# never push another record past the staleness window mid-run.
MEMORY_CLOCK_STEP_S = 3600.0


def vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct lowercase three-syllable pseudo-words."""
    syllables = [c + v for c in _ONSETS for v in _VOWELS]
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(syllables) for _ in range(3)))
    return sorted(words)


def make_scenario(rng: random.Random, scenario_id: str, n: int, nouns: list[str]) -> Scenario:
    """A valid scenario of ``n`` needs, each with its own two-noun fact.

    The shape follows the test suite's generator: one base reveal group plus
    one branch group per predictable must-have need, each triggered by a
    non-predictable need asked two or more turns earlier. Disjoint
    single-fact keys keep reactive coverage at one need per turn.
    """
    if len(nouns) < 2 * n:
        raise ValueError(f"{n} needs require {2 * n} nouns, got {len(nouns)}")
    words = rng.sample(nouns, 2 * n)
    p = rng.randint(2, max(2, min(3, n - 2))) if n <= 8 else max(2, n // 4)
    pred_orders = sorted(rng.sample(range(3, n + 1), p))
    predictable = set(pred_orders)
    triggers = {}
    for order in pred_orders:
        pool = [t for t in range(1, order - 1) if t not in predictable]
        triggers[order] = rng.choice(pool)

    facts = []
    needs = []
    for i in range(1, n + 1):
        a, b = words[2 * (i - 1)], words[2 * (i - 1) + 1]
        facts.append(
            Fact(
                id=f"F{i}",
                category="detail",
                content=f"The {a} {b} plan costs {rng.randint(10, 99)} credits per month.",
            )
        )
        is_pred = i in predictable
        needs.append(
            UserNeed(
                id=f"N{i}",
                description=f"What is the {a} {b} policy?",
                importance="must_have" if is_pred else rng.choice(("must_have", "must_have", "nice_to_have")),
                key_fact_ids=(f"F{i}",),
                predictable_after=f"N{triggers[i]}" if is_pred else None,
                reveal_group=f"G{2 + pred_orders.index(i)}" if is_pred else "G1",
                turn_order=i,
            )
        )

    groups = [
        RevealGroup(
            id="G1",
            label="base_thread",
            need_ids=tuple(f"N{i}" for i in range(1, n + 1) if i not in predictable),
            trigger_after=None,
        )
    ]
    for j, order in enumerate(pred_orders):
        groups.append(
            RevealGroup(
                id=f"G{2 + j}",
                label=f"branch_{words[2 * (order - 1)]}",
                need_ids=(f"N{order}",),
                trigger_after="G1",
            )
        )

    scenario = Scenario(
        scenario_id=scenario_id,
        domain=rng.choice(DOMAINS),
        archetype=rng.choice(ARCHETYPES),
        user_profile=UserProfile(
            persona=f"A planner comparing {words[0]} options",
            context=f"Budgeting for a {words[1]} project this quarter",
            communication_style="short direct questions",
        ),
        facts=tuple(facts),
        needs=tuple(needs),
        groups=tuple(groups),
    )
    report = validate_scenario(scenario)
    if not report.valid:
        raise ValueError(f"generated invalid scenario {scenario_id}: {[v.message for v in report.violations]}")
    return scenario


def scenario_set(rng: random.Random, prefix: str, count: int, needs_range: tuple[int, int]) -> list[Scenario]:
    """``count`` scenarios whose need counts cycle evenly through ``needs_range``.

    The cycle (shuffled by the seed) fixes the total need count, so seeds
    differ in content but not in amount of work. Nouns come from a generated
    vocabulary large enough for the longest scenario, so the shape scales
    past the 20 needs a fixed word list allows.
    """
    low, high = needs_range
    sizes = [low + i % (high - low + 1) for i in range(count)]
    rng.shuffle(sizes)
    nouns = vocabulary(rng, max(80, 4 * high))
    return [make_scenario(rng, f"{prefix}_{i:04d}", n, nouns) for i, n in enumerate(sizes)]


def seeded_memory(
    rng: random.Random, arbiter_scenario: Scenario, staleness_s: float
) -> tuple[dict, datetime]:
    """A deterministic long-term memory, returned as a snapshot.

    Records go in through ``add_knowledge`` with the oracle arbiter. Each
    supported research fact paraphrases the entity fact stored just before
    it (10 of 12 words shared, cosine between the coverage and near-duplicate
    thresholds, 0.80 and 0.88 by default), so the gap scan finds
    support without the store treating it as a near-duplicate. Unsupported
    research facts use words no other record uses. Also returns the clock
    start for units: far enough past the build that exactly the
    ``MEMORY_STALE_RECORDS`` oldest records are stale.
    """
    words = vocabulary(rng, MEMORY_VOCABULARY + UNSUPPORTED_WORDS * MEMORY_UNSUPPORTED_FACTS)
    rng.shuffle(words)
    private = words[MEMORY_VOCABULARY:]
    words = words[:MEMORY_VOCABULARY]

    memory = MemoryState(clock=LogicalClock(start=MEMORY_EPOCH, step_seconds=MEMORY_CLOCK_STEP_S))
    arbiter = OracleBackends(arbiter_scenario).arbitrate
    # Only the words vary with the seed. Which gap paths fire every window
    # depends on record kinds and on where facts sit in id order (the gap
    # scan walks records by id), so kinds of the stale records and positions
    # of research facts are fixed: stale records are the first entity facts,
    # and research facts are spread evenly through the store.
    mix = dict(MEMORY_KIND_MIX, entity_fact=MEMORY_KIND_MIX["entity_fact"] - MEMORY_STALE_RECORDS)
    body = [kind for kind, count in mix.items() if kind != "research_fact" for _ in range(count)]
    rng.shuffle(body)
    for j in range(MEMORY_UNSUPPORTED_FACTS):
        body.insert((2 * j + 1) * len(body) // (2 * MEMORY_UNSUPPORTED_FACTS), "unsupported")
    plan = ["entity_fact"] * MEMORY_STALE_RECORDS + body
    entity_at = [i for i, kind in enumerate(plan) if kind == "entity_fact"][MEMORY_STALE_RECORDS:]
    supported = MEMORY_KIND_MIX["research_fact"] - MEMORY_UNSUPPORTED_FACTS
    supported_after = {entity_at[(2 * j + 1) * len(entity_at) // (2 * supported)] for j in range(supported)}

    for i, kind in enumerate(plan):
        if kind == "unsupported":
            base, private = private[:UNSUPPORTED_WORDS], private[UNSUPPORTED_WORDS:]
            memory.add_knowledge("research_fact", "finding: " + " ".join(base), arbiter)
            continue
        if kind == "profile_attr":
            content = f"profile {rng.choice(words)}: " + " ".join(rng.sample(words, 6))
        elif kind == "conversation_summary":
            content = "summary " + " ".join(rng.sample(words, 16))
        elif kind == "artifact":
            content = " ".join(rng.sample(words, 5)) + "\n" + " ".join(rng.sample(words, 14))
        else:
            content = " ".join(rng.sample(words, 12))
        memory.add_knowledge(kind, content, arbiter)
        if i in supported_after:
            base = content.split()
            while True:
                fact = list(base)
                for slot in rng.sample(range(12), 2):
                    fact[slot] = rng.choice(words)
                paraphrase = " ".join(fact)
                (_, similarity), = memory.vector_search(paraphrase, k=1)
                if memory.coverage_threshold <= similarity < memory.near_dup_threshold:
                    break
            memory.add_knowledge("research_fact", paraphrase, arbiter)

    oldest = sorted(r.updated_at for r in memory.active_records())
    # detect_gaps flags now - updated_at > staleness: start half a build step
    # past the newest stale record.
    start = oldest[MEMORY_STALE_RECORDS - 1] + timedelta(seconds=staleness_s + MEMORY_CLOCK_STEP_S / 2)
    return memory.to_snapshot(), start
