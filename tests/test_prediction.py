import itertools
import logging
import random

import pytest

from foresight.config import RunConfig
from foresight.embedding import _bucket, cosine, embed
from foresight.memory import MemoryState
from foresight.prediction import (
    CandidateNeed,
    candidate_order,
    filter_candidates,
    generate_candidates,
)


def cand(topic, conf, source="scenario", need=None):
    return CandidateNeed(
        topic=topic,
        need=need or f"answer about {topic}",
        reason="test",
        confidence=conf,
        retrieval_query=topic,
        source=source,
    )


HISTORY = [{"turn": 1, "user": "hello", "assistant": "hi"}]


def test_candidate_validation():
    with pytest.raises(ValueError):
        cand("t", 1.2)
    with pytest.raises(ValueError):
        cand("t", -0.1)
    with pytest.raises(ValueError):
        cand("t", 0.5, source="oracle")
    with pytest.raises(ValueError):
        CandidateNeed(topic="t", need="", reason="r", confidence=0.5, retrieval_query="q")
    with pytest.raises(ValueError):
        CandidateNeed(topic="t", need="n", reason="r", confidence=0.5, retrieval_query="")
    assert cand("t", 0.0).confidence == 0.0
    assert cand("t", 1.0).confidence == 1.0


def test_generate_requires_history():
    with pytest.raises(ValueError):
        generate_candidates([], MemoryState(), lambda h, m: [])


def test_generate_predictor_fault_is_contained(caplog):
    def bad_predictor(history, memory):
        raise RuntimeError("backend timeout")

    with caplog.at_level(logging.WARNING, logger="foresight.prediction"):
        out = generate_candidates(HISTORY, MemoryState(), bad_predictor)
    assert out == []
    assert any("predictor backend failed" in rec.message for rec in caplog.records)


def test_generate_caps_predictor_candidates_by_confidence():
    pool = [cand(f"topic variant {i}", 0.5 + i * 0.05) for i in range(6)]

    def predictor(history, memory):
        return list(pool)

    out = generate_candidates(HISTORY, MemoryState(), predictor)
    assert RunConfig.max_predictor_candidates == 3
    assert [c.confidence for c in out] == [0.75, 0.70, 0.65]


def test_generate_appends_memory_gaps_beyond_cap():
    memory = MemoryState()
    memory.add_knowledge("entity_fact", "launch date TBD for the rollout", lambda c, r: None)
    pool = [cand(f"subject {i} item", 0.9 - i * 0.01) for i in range(3)]
    out = generate_candidates(HISTORY, memory, lambda h, m: list(pool))
    assert len(out) == 4
    gap = out[3]
    assert gap.source == "memory_gap"
    assert gap.confidence == RunConfig.memory_gap_confidence
    assert gap.reason == "memory gap (incomplete)"
    assert gap.need.startswith("refresh knowledge: ")
    assert gap.retrieval_query == gap.topic


def test_generate_truncates_gap_topic():
    memory = MemoryState()
    long = "TBD " + " ".join(f"filler{i}" for i in range(40))
    memory.add_knowledge("entity_fact", long, lambda c, r: None)
    out = generate_candidates(HISTORY, memory, lambda h, m: [])
    assert out and len(out[0].topic) == 80


def test_filter_confidence_gate_is_inclusive():
    assert RunConfig.confidence_threshold == 0.6
    raw = [cand("alpha subject", 0.6), cand("beta subject", 0.59), cand("gamma subject", 0.61)]
    out = filter_candidates(raw, MemoryState())
    assert {c.topic for c in out} == {"alpha subject", "gamma subject"}


def test_filter_drops_topics_covered_by_artifacts():
    memory = MemoryState()
    memory.add_knowledge(
        "artifact", "retirement match rules\nThe employer matches contributions.", lambda c, r: None
    )
    sim = cosine(embed("retirement match rules"), embed("retirement match rules today"))
    assert sim >= 0.85, sim
    raw = [cand("retirement match rules today", 0.9), cand("vesting schedule details", 0.9)]
    out = filter_candidates(raw, memory)
    assert [c.topic for c in out] == ["vesting schedule details"]


def test_filter_only_first_artifact_line_counts():
    memory = MemoryState()
    memory.add_knowledge(
        "artifact", "unrelated headline topic\nvesting schedule details body text", lambda c, r: None
    )
    raw = [cand("vesting schedule details", 0.9)]
    out = filter_candidates(raw, memory)
    assert [c.topic for c in out] == ["vesting schedule details"]


def test_filter_collapses_near_topics_to_max_confidence():
    a = cand("visa appointment slots", 0.7)
    b = cand("visa appointment slots today", 0.9)
    assert cosine(embed(a.topic), embed(b.topic)) >= 0.85
    out = filter_candidates([a, b], MemoryState())
    assert len(out) == 1
    assert out[0].confidence == 0.9


def test_filter_keeps_distinct_topics():
    raw = [cand("solar panel rebate", 0.8), cand("passport renewal steps", 0.8)]
    out = filter_candidates(raw, MemoryState())
    assert len(out) == 2


def distinct_bucket_words(n):
    """``n`` words that hash to ``n`` different buckets, so counts never merge."""
    words, buckets = [], set()
    for i in itertools.count():
        bucket = _bucket(f"d{i}")
        if bucket not in buckets:
            buckets.add(bucket)
            words.append(f"d{i}")
            if len(words) == n:
                return words


def test_filter_collapse_keeps_the_survivors_of_a_plain_cosine_loop():
    words = distinct_bucket_words(32)
    base, extra = words[:20], words[20:]
    # By descending confidence: the first is kept; the second scores
    # 17/20 = 0.85 with it, on the threshold, and is dropped; the third
    # scores 17/sqrt(20 * 21) with it, just below, and is kept; the fourth
    # is below the threshold with both and kept; the last scores 20/21 with
    # the third and is dropped.
    topics = [
        base,
        base[:17] + extra[:3],
        base[:17] + extra[3:7],
        base[:16] + extra[7:11],
        base[:16] + extra[3:7] + extra[11:12],
    ]
    raw = [cand(" ".join(topic), conf) for topic, conf in zip(topics, (0.9, 0.8, 0.7, 0.65, 0.62))]
    threshold = RunConfig.topic_dedup_threshold
    vec = {c.topic: embed(c.topic) for c in raw}
    assert cosine(vec[raw[0].topic], vec[raw[1].topic]) == threshold
    assert 0.82 < cosine(vec[raw[0].topic], vec[raw[2].topic]) < threshold

    want = []
    for candidate in sorted(raw, key=lambda c: (-c.confidence, c.topic, c.need)):
        if all(cosine(vec[candidate.topic], vec[kept.topic]) < threshold for kept in want):
            want.append(candidate)
    assert want == [raw[0], raw[2], raw[3]]
    shuffled = raw[:]
    random.Random(3).shuffle(shuffled)
    assert filter_candidates(shuffled, MemoryState()) == want


def test_queue_pop_order():
    items = [
        cand("b topic", 0.8, source="memory_gap"),
        cand("a topic", 0.8, source="scenario"),
        cand("z topic", 0.95, source="related"),
        cand("a topic", 0.8, source="related"),
        cand("a topic", 0.8, source="related", need="second need"),
    ]
    drained = sorted(items, key=candidate_order)
    assert [(c.topic, c.source, c.need) for c in drained] == [
        ("z topic", "related", "answer about z topic"),
        ("a topic", "scenario", "answer about a topic"),
        ("a topic", "related", "answer about a topic"),
        ("a topic", "related", "second need"),
        ("b topic", "memory_gap", "answer about b topic"),
    ]


def test_queue_matches_sort_oracle():
    rng = random.Random(99)
    sources = ("scenario", "related", "memory_gap")
    items = [
        cand(
            f"topic {rng.randint(0, 5)}",
            round(rng.uniform(0.0, 1.0), 2),
            source=rng.choice(sources),
            need=f"need {i}",
        )
        for i in range(40)
    ]
    got = sorted(items, key=candidate_order)
    rank = {"scenario": 0, "related": 1, "memory_gap": 2}
    expected = sorted(items, key=lambda c: (-c.confidence, rank[c.source], c.topic, c.need))
    assert got == expected


def test_scenario_candidates_outrank_memory_gaps():
    # Scenario candidates carry predictor confidence 0.9; gap candidates are
    # fixed at 0.70, so a scenario candidate always comes first.
    items = [
        cand("gap topic", RunConfig.memory_gap_confidence, source="memory_gap"),
        cand("real topic", 0.9, source="scenario"),
    ]
    assert sorted(items, key=candidate_order)[0].source == "scenario"
