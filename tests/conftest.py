import random
from pathlib import Path

import pytest

from foresight.scenarios import (
    ARCHETYPES,
    Fact,
    RevealGroup,
    Scenario,
    UserNeed,
    UserProfile,
    parse_scenario,
    validate_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

_NOUNS = (
    "router", "harbor", "lantern", "orchard", "compass", "ledger", "turbine",
    "granite", "willow", "meadow", "anchor", "beacon", "canyon", "drift",
    "ember", "falcon", "glacier", "hollow", "ivory", "juniper", "kestrel",
    "lagoon", "marble", "nectar", "onyx", "prairie", "quartz", "ridge",
    "saffron", "thicket", "umber", "vessel", "walnut", "yarrow", "zephyr",
    "basalt", "cobalt", "dune", "fjord", "grove",
)

_DOMAINS = (
    "home_networking", "travel_planning", "meal_prep", "garden_care",
    "pet_adoption", "apartment_hunting", "event_hosting",
)


def make_scenario(rng: random.Random, scenario_id: str = "gen_00") -> Scenario:
    """Random valid scenario with at least two cross-group predictable
    must-have needs, each triggered by a need asked two or more turns earlier
    and carrying its own unique key fact.

    Disjoint single-fact keys keep reactive coverage strictly one need per
    turn, which pins reactive user_effort at the need count.
    """
    n = rng.randint(4, 8)
    nouns = rng.sample(_NOUNS, 2 * n)

    p = rng.randint(2, max(2, min(3, n - 2)))
    pred_orders = sorted(rng.sample(range(3, n + 1), p))
    triggers = {}
    for order in pred_orders:
        pool = [t for t in range(1, order - 1) if t not in pred_orders]
        triggers[order] = rng.choice(pool)

    facts = []
    needs = []
    for i in range(1, n + 1):
        a, b = nouns[2 * (i - 1)], nouns[2 * (i - 1) + 1]
        facts.append(
            Fact(
                id=f"F{i}",
                category="detail",
                content=f"The {a} {b} plan costs {rng.randint(10, 99)} credits per month.",
            )
        )
        predictable = i in pred_orders
        needs.append(
            UserNeed(
                id=f"N{i}",
                description=f"What is the {a} {b} policy?",
                importance="must_have" if predictable else rng.choice(
                    ("must_have", "must_have", "nice_to_have")
                ),
                key_fact_ids=(f"F{i}",),
                predictable_after=f"N{triggers[i]}" if predictable else None,
                reveal_group="G1" if not predictable else f"G{2 + pred_orders.index(i)}",
                turn_order=i,
            )
        )

    groups = [
        RevealGroup(
            id="G1",
            label="base_thread",
            need_ids=tuple(f"N{i}" for i in range(1, n + 1) if i not in pred_orders),
            trigger_after=None,
        )
    ]
    for j, order in enumerate(pred_orders):
        groups.append(
            RevealGroup(
                id=f"G{2 + j}",
                label=f"branch_{nouns[2 * (order - 1)]}",
                need_ids=(f"N{order}",),
                trigger_after="G1",
            )
        )

    scenario = Scenario(
        scenario_id=scenario_id,
        domain=rng.choice(_DOMAINS),
        archetype=rng.choice(ARCHETYPES),
        user_profile=UserProfile(
            persona=f"A planner comparing {nouns[0]} options",
            context=f"Budgeting for a {nouns[1]} project this quarter",
            communication_style="short direct questions",
        ),
        facts=tuple(facts),
        needs=tuple(needs),
        groups=tuple(groups),
    )
    report = validate_scenario(scenario)
    assert report.valid, [v.message for v in report.violations]
    return scenario


def make_two_branch_scenario() -> Scenario:
    """Hand-built scenario where one covered need unlocks two must-have
    branches at once. Both clear the value gate in the same idle window, so
    one artifact pushes and the other queues for next-turn integration."""
    scenario = Scenario(
        scenario_id="two_branch_test",
        domain="device_setup",
        archetype="readiness_follow_through",
        user_profile=UserProfile(
            persona="Test user",
            context="setting things up",
            communication_style="direct",
        ),
        facts=(
            Fact(id="F1", category="setup", content="The base unit pairs over short range radio."),
            Fact(id="F2", category="setup", content="The wall bracket needs two anchor screws."),
            Fact(id="F3", category="setup", content="The spare filter lasts roughly three months."),
            Fact(id="F4", category="setup", content="The status light blinks green while charging."),
        ),
        needs=(
            UserNeed(id="N1", description="How does the base unit pair?", key_fact_ids=("F1",),
                     importance="must_have", predictable_after=None, turn_order=1, reveal_group="G1"),
            UserNeed(id="N2", description="Anchor screws needed for the wall bracket?", key_fact_ids=("F2",),
                     importance="must_have", predictable_after="N1", turn_order=2, reveal_group="G2"),
            UserNeed(id="N4", description="What does the green status light mean?", key_fact_ids=("F4",),
                     importance="must_have", predictable_after=None, turn_order=3, reveal_group="G1"),
            UserNeed(id="N3", description="Lifespan of the spare filter?", key_fact_ids=("F3",),
                     importance="must_have", predictable_after="N1", turn_order=4, reveal_group="G3"),
        ),
        groups=(
            RevealGroup(id="G1", label="base_thread", need_ids=("N1", "N4"), trigger_after=None),
            RevealGroup(id="G2", label="bracket_branch", need_ids=("N2",), trigger_after="G1"),
            RevealGroup(id="G3", label="filter_branch", need_ids=("N3",), trigger_after="G1"),
        ),
    )
    assert validate_scenario(scenario).valid
    return scenario


@pytest.fixture(scope="session")
def two_branch_scenario() -> Scenario:
    return make_two_branch_scenario()


@pytest.fixture(scope="session")
def finance_scenario() -> Scenario:
    return parse_scenario((SCENARIO_DIR / "finance_basic_01.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def sweep_scenario() -> Scenario:
    return parse_scenario((SCENARIO_DIR / "budget_sweep_01.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def no_kept_memory_base(monkeypatch):
    """Every test starts with no base kept by ``MemoryState.from_snapshot``,
    so no test forks a base that another test built."""
    from foresight import memory

    monkeypatch.setattr(memory, "_last_base", None)
