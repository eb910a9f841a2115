import random
from datetime import datetime, timedelta, timezone

import pytest

from foresight.acquisition import Evidence, KnowledgeArtifact, ValueScores
from foresight.delivery import (
    DeliveryAction,
    Notification,
    PushAssessment,
    commit_window,
    decide_delivery,
    is_high_priority,
    push_score,
)
from foresight.prediction import CandidateNeed

T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)


def assessment(artifact_id, value, cost, at=T0):
    return PushAssessment(artifact_id=artifact_id, value=value, cost=cost, created_at=at)


def make_artifact(artifact_id, topic, note):
    return KnowledgeArtifact(
        id=artifact_id,
        candidate=CandidateNeed(
            topic=topic, need=f"cover {topic}", reason="r", confidence=0.9, retrieval_query=topic
        ),
        preparation_note=note,
        provenance=(Evidence("search", topic, note),),
        value_scores=ValueScores(95, 80, 90, 95),
        created_at=T0,
    )


@pytest.mark.parametrize(
    "value,cost,expected",
    [
        (88, 22, 100.0),  # clipped at the ceiling
        (76, 50, 76.0),
        (45, 60, 35.0),
        (0, 100, 0.0),  # clipped at the floor
        (50, 50, 50.0),
        (0, 0, 50.0),
    ],
)
def test_push_score(value, cost, expected):
    assert push_score(value, cost) == expected


def test_push_score_validates_range():
    with pytest.raises(ValueError):
        push_score(101, 0)
    with pytest.raises(ValueError):
        push_score(0, -1)


def test_push_assessment_validates_range():
    with pytest.raises(ValueError):
        assessment("a", 101, 0)
    with pytest.raises(ValueError):
        assessment("a", 0, 101)


def test_high_priority_boundary():
    assert is_high_priority(70.0)
    assert not is_high_priority(69.999)


def test_decide_worked_rows():
    actions = decide_delivery(
        [assessment("art-a", 88, 22), assessment("art-b", 76, 50), assessment("art-c", 45, 60)]
    )
    assert actions == {
        "art-a": DeliveryAction.PUSH,
        "art-b": DeliveryAction.QUEUE,
        "art-c": DeliveryAction.STORE,
    }


def test_decide_floor_is_exclusive():
    # exactly 40 stores; strictly above pushes
    assert decide_delivery([assessment("art-a", 40, 50)]) == {"art-a": DeliveryAction.STORE}
    assert decide_delivery([assessment("art-a", 41, 50)]) == {"art-a": DeliveryAction.PUSH}


def test_decide_at_most_one_push():
    actions = decide_delivery([assessment(f"art-{i}", 90, 10) for i in range(5)])
    assert sum(1 for a in actions.values() if a is DeliveryAction.PUSH) == 1


def test_decide_tie_breaks_on_created_at_then_id():
    earlier = assessment("art-z", 80, 10, at=T0)
    later = assessment("art-a", 80, 10, at=T0 + timedelta(seconds=5))
    actions = decide_delivery([later, earlier])
    assert actions["art-z"] is DeliveryAction.PUSH
    assert actions["art-a"] is DeliveryAction.QUEUE

    same_time = decide_delivery([assessment("art-b", 80, 10), assessment("art-a", 80, 10)])
    assert same_time["art-a"] is DeliveryAction.PUSH
    assert same_time["art-b"] is DeliveryAction.QUEUE


def test_decide_empty_input():
    assert decide_delivery([]) == {}


def test_decide_matches_brute_force_oracle():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 6)
        items = [
            assessment(
                f"art-{rng.randint(0, 9)}{i}",
                rng.randint(0, 100),
                rng.randint(0, 100),
                at=T0 + timedelta(seconds=rng.randint(0, 3)),
            )
            for i in range(n)
        ]
        actions = decide_delivery(items)
        eligible = [(a, push_score(a.value, a.cost)) for a in items if push_score(a.value, a.cost) > 40.0]
        if eligible:
            winner = min(eligible, key=lambda pair: (-pair[1], pair[0].created_at, pair[0].artifact_id))
            assert actions[winner[0].artifact_id] is DeliveryAction.PUSH
        for a in items:
            score = push_score(a.value, a.cost)
            if eligible and a.artifact_id == winner[0].artifact_id:
                continue
            assert actions[a.artifact_id] is (
                DeliveryAction.STORE if score <= 40.0 else DeliveryAction.QUEUE
            )


def test_commit_window_routes_actions():
    art_push = make_artifact("art-p", "match rules", "the employer matches four percent")
    art_queue = make_artifact("art-q", "vesting split", "vesting completes after three years")
    art_store = make_artifact("art-s", "fee waiver note", "fees are waived on this tier")
    assessments = [
        assessment("art-p", 88, 22),
        assessment("art-q", 76, 50),
        assessment("art-s", 45, 60),
    ]
    actions = decide_delivery(assessments)
    pending = []
    note = commit_window(actions, [art_push, art_queue, art_store], assessments, pending)
    assert isinstance(note, Notification)
    assert note.artifact_id == "art-p"
    assert note.topic == "match rules"
    assert note.body == "the employer matches four percent"
    assert note.high_priority  # score 100 >= 70
    assert [a.id for a in pending] == ["art-q"]


def test_commit_window_low_score_push_is_not_high_priority():
    art = make_artifact("art-m", "mild nudge", "minor update text")
    assessments = [assessment("art-m", 50, 45)]  # score 55: pushes, below 70
    actions = decide_delivery(assessments)
    note = commit_window(actions, [art], assessments, [])
    assert note is not None
    assert not note.high_priority


def test_commit_window_no_push_returns_none():
    art = make_artifact("art-s", "quiet note", "stored silently")
    assessments = [assessment("art-s", 10, 60)]
    note = commit_window(decide_delivery(assessments), [art], assessments, [])
    assert note is None


def test_commit_window_unknown_artifact_raises():
    with pytest.raises(KeyError):
        commit_window({"art-ghost": DeliveryAction.STORE}, [], [], [])
