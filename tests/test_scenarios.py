import dataclasses
import json
import random

import pytest

from conftest import make_scenario
from foresight.scenarios import (
    ScenarioParseError,
    ScenarioSchemaError,
    composition_stats,
    parse_scenario,
    runtime_view,
    serialize_scenario,
    stratify,
    validate_scenario,
)


def _doc(scenario):
    return json.loads(serialize_scenario(scenario))


def test_round_trip_identity(finance_scenario):
    assert parse_scenario(serialize_scenario(finance_scenario)) == finance_scenario


def test_round_trip_random_scenarios():
    rng = random.Random(11)
    for i in range(20):
        scenario = make_scenario(rng, f"rt_{i}")
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_parse_accepts_bytes(finance_scenario):
    data = serialize_scenario(finance_scenario).encode("utf-8")
    assert parse_scenario(data) == finance_scenario


def test_parse_malformed_json():
    with pytest.raises(ScenarioParseError):
        parse_scenario("{not json")


def test_parse_non_object():
    with pytest.raises(ScenarioSchemaError):
        parse_scenario("[1, 2]")


def test_parse_missing_field(finance_scenario):
    doc = _doc(finance_scenario)
    del doc["user_needs"]
    with pytest.raises(ScenarioSchemaError):
        parse_scenario(json.dumps(doc))


def test_parse_preserves_unknown_fields(finance_scenario):
    doc = _doc(finance_scenario)
    doc["notes"] = "extra"
    doc["facts"][0]["weight"] = 3
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.extra == {"notes": "extra"}
    assert scenario.facts[0].extra == {"weight": 3}
    assert json.loads(serialize_scenario(scenario))["notes"] == "extra"


def test_validate_clean(finance_scenario, sweep_scenario):
    assert validate_scenario(finance_scenario).valid
    assert validate_scenario(sweep_scenario).valid


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda d: d["user_needs"][0].__setitem__("key_fact_ids", ["F99"]), "FACT_REF"),
        (lambda d: d["user_needs"][0].__setitem__("importance", "critical"), "IMPORTANCE"),
        (lambda d: d["user_needs"][0].__setitem__("key_fact_ids", []), "KEY_FACTS"),
        (lambda d: d["user_needs"][0].__setitem__("turn_order", 99), "TURN_ORDER"),
        (lambda d: d.__setitem__("archetype", "unheard_of"), "ARCHETYPE"),
        (lambda d: d["facts"][0].__setitem__("id", "f1"), "ID_FORMAT"),
        (lambda d: d["facts"][0].__setitem__("content", "   "), "EMPTY_CONTENT"),
        (lambda d: d["user_needs"][0].__setitem__("predictable_after", "N77"), "PRED_REF"),
        (lambda d: d["user_needs"][0].__setitem__("predictable_after", "N1"), "ACYCLIC"),
        (lambda d: d["reveal_groups"][0]["need_ids"].append("N99"), "GROUP_REF"),
        (lambda d: d["reveal_groups"][0].__setitem__("trigger_after", "G77"), "GROUP_REF"),
        (lambda d: d["user_needs"][0].__setitem__("reveal_group", "G3"), "GROUP_PARTITION"),
    ],
)
def test_validate_single_violation(finance_scenario, mutate, code):
    doc = _doc(finance_scenario)
    mutate(doc)
    report = validate_scenario(parse_scenario(json.dumps(doc)))
    assert not report.valid
    assert code in {v.code for v in report.violations}


def test_validate_duplicate_ids(finance_scenario):
    doc = _doc(finance_scenario)
    doc["facts"][1]["id"] = doc["facts"][0]["id"]
    report = validate_scenario(parse_scenario(json.dumps(doc)))
    assert "UNIQUE_ID" in {v.code for v in report.violations}


def test_validate_predictability_cycle(finance_scenario):
    doc = _doc(finance_scenario)
    # N1 -> N6 and N6 -> N1 close a loop
    doc["user_needs"][0]["predictable_after"] = "N6"
    report = validate_scenario(parse_scenario(json.dumps(doc)))
    assert "ACYCLIC" in {v.code for v in report.violations}


def test_validate_group_trigger_cycle(finance_scenario):
    doc = _doc(finance_scenario)
    doc["reveal_groups"][0]["trigger_after"] = "G4"  # G4 already triggers after G1
    report = validate_scenario(parse_scenario(json.dumps(doc)))
    assert "GROUP_ACYCLIC" in {v.code for v in report.violations}


def test_validate_empty_collections():
    doc = {
        "scenario_id": "empty",
        "domain": "d",
        "archetype": "foundational_memory",
        "user_profile": {"persona": "p", "context": "c", "communication_style": "s"},
        "facts": [],
        "user_needs": [],
        "reveal_groups": [],
    }
    report = validate_scenario(parse_scenario(json.dumps(doc)))
    codes = {v.code for v in report.violations}
    assert {"EMPTY_FACTS", "EMPTY_NEEDS"} <= codes


def test_validate_requires_cross_group_link(finance_scenario):
    doc = _doc(finance_scenario)
    for need in doc["user_needs"]:
        need["predictable_after"] = None
    report = validate_scenario(parse_scenario(json.dumps(doc)))
    assert "CROSS_GROUP" in {v.code for v in report.violations}


def test_composition_stats_finance(finance_scenario):
    stats = composition_stats(finance_scenario)
    assert stats.need_count == 12
    assert stats.fact_count == 28
    assert stats.group_count == 8
    assert stats.predictable_count == 4
    assert stats.non_predictable_count == 8
    assert stats.cross_group_links == 3
    assert stats.intra_group_links == 1
    assert stats.opportunity_fraction == pytest.approx(4 / 12)


def test_stratify_levels(finance_scenario, sweep_scenario):
    assert stratify(finance_scenario).opportunity.value == "low"
    assert stratify(sweep_scenario).opportunity.value == "high"
    assert stratify(sweep_scenario).fragmentation.value == "low"


def test_runtime_view_hides_gold_labels(finance_scenario):
    view = runtime_view(finance_scenario)
    payload = json.dumps(view.to_dict(), ensure_ascii=False)
    assert "key_fact_ids" not in payload
    assert "predictable_after" not in payload
    assert "reveal_group" not in payload
    for need in finance_scenario.needs:
        assert f'"{need.id}"' not in payload
    # facts and profile remain visible
    assert "F20" in payload
    assert "Priya" in payload


def test_runtime_view_fields(finance_scenario):
    view = runtime_view(finance_scenario)
    assert view.scenario_id == finance_scenario.scenario_id
    assert len(view.facts) == len(finance_scenario.facts)
    assert not any(hasattr(f, "key_fact_ids") for f in view.facts)


def test_generated_scenarios_are_valid_and_fresh():
    rng = random.Random(5)
    seen = set()
    for i in range(30):
        scenario = make_scenario(rng, f"g{i}")
        assert validate_scenario(scenario).valid
        stats = composition_stats(scenario)
        assert stats.cross_group_links >= 2
        key = tuple(dataclasses.astuple(n)[:3] for n in scenario.needs)
        assert key not in seen
        seen.add(key)
