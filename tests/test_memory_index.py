"""Memory reads through the similarity index against brute-force loops.

The oracles below are the per-record ``cosine`` loops that ``MemoryState``
and ``filter_candidates`` ran before the index existed. Every read must
return exactly what they return: same records, same order, same floats.
"""

import json
import random
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foresight.embedding import DEFAULT_DIM, _bucket, cosine, embed
from foresight.memory import (
    MEMORY_KINDS,
    SMALL_INDEX_ROWS,
    ArbiterVerdict,
    CoverageReport,
    GapCandidate,
    MemoryState,
    SimilarityIndex,
)
from foresight.prediction import CandidateNeed, PredictionConfig, filter_candidates

# -- oracles -------------------------------------------------------------------


def oracle_vector_search(state, query, k=5, threshold=0.0):
    qvec = embed(query)
    scored = [(record, cosine(qvec, record.embedding)) for record in state.active_records()]
    scored = [(r, s) for r, s in scored if s >= threshold]
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored[:k]


def oracle_coverage_check(state, retrieval_query, subtopics=()):
    plan = tuple(subtopics) if subtopics else (retrieval_query,)
    missing, supporting = [], []
    for subtopic in plan:
        hits = oracle_vector_search(state, subtopic, k=1, threshold=state.coverage_threshold)
        if hits:
            supporting.append(hits[0][0].id)
        else:
            missing.append(subtopic)
    if not missing:
        level = "high"
    elif len(missing) == len(plan):
        level = "low"
    else:
        level = "partial"
    return CoverageReport(level=level, missing_subtopics=tuple(missing), supporting_record_ids=tuple(supporting))


def oracle_detect_gaps(state, now, staleness):
    gaps = []
    actives = sorted(state.active_records(), key=lambda r: r.id)
    for record in actives:
        if now - record.updated_at > staleness:
            gaps.append(GapCandidate(topic=record.content, reason="stale", related_record_ids=(record.id,)))
        if "TBD" in record.content:
            gaps.append(GapCandidate(topic=record.content, reason="incomplete", related_record_ids=(record.id,)))
        if record.kind == "research_fact" and not record.merged_from:
            supported = False
            for other in actives:
                if other.id == record.id:
                    continue
                if cosine(record.embedding, other.embedding) >= state.coverage_threshold:
                    supported = True
                    break
            if not supported:
                gaps.append(GapCandidate(topic=record.content, reason="weakly_supported", related_record_ids=(record.id,)))
    return gaps


def oracle_filter_candidates(raw, memory, cfg):
    survivors = [c for c in raw if c.confidence >= cfg.confidence_threshold]
    artifact_vecs = [
        embed(r.content.split("\n", 1)[0]) for r in memory.active_records() if r.kind == "artifact"
    ]
    if artifact_vecs:
        survivors = [
            c
            for c in survivors
            if not any(cosine(embed(c.topic), avec) >= cfg.topic_dedup_threshold for avec in artifact_vecs)
        ]
    survivors.sort(key=lambda c: (-c.confidence, c.topic, c.need))
    result, result_vecs = [], []
    for candidate in survivors:
        cvec = embed(candidate.topic)
        if any(cosine(cvec, kv) >= cfg.topic_dedup_threshold for kv in result_vecs):
            continue
        result.append(candidate)
        result_vecs.append(cvec)
    return result


# -- checks --------------------------------------------------------------------


def assert_search_matches(state, query, k, threshold):
    got = state.vector_search(query, k=k, threshold=threshold)
    want = oracle_vector_search(state, query, k=k, threshold=threshold)
    assert [(r.id, s) for r, s in got] == [(r.id, s) for r, s in want]
    assert all(r is state.records[r.id] for r, _ in got)


def assert_reads_match(state, queries, topics):
    n = len(state.active_records())
    for query in queries:
        for k in sorted({1, max(n - 1, 1), n, n + 3}):
            for threshold in (0.0, 0.3, state.near_dup_threshold):
                assert_search_matches(state, query, k, threshold)
    assert state.coverage_check(queries[0], tuple(queries[1:])) == oracle_coverage_check(
        state, queries[0], tuple(queries[1:])
    )
    now = state.clock.now()
    for staleness in (timedelta(seconds=3), timedelta(hours=1)):
        assert state.detect_gaps(now, staleness) == oracle_detect_gaps(state, now, staleness)
    raw = [
        CandidateNeed(topic=topic, need=f"need {i}", reason="test", confidence=conf, retrieval_query=topic)
        for i, (topic, conf) in enumerate(topics)
    ]
    for threshold in (0.5, 0.85):
        cfg = PredictionConfig(topic_dedup_threshold=threshold)
        assert filter_candidates(raw, state, cfg) == oracle_filter_candidates(raw, state, cfg)


# -- strategies ----------------------------------------------------------------

# Small vocabulary: near-duplicates and bucket overlaps are common. "q1 a1"
# and "q2 a2" have identical token-count profiles, so they tie exactly
# against "q1 q2"; "!!!" has no tokens at all.
VOCAB = ("q1", "q2", "a1", "a2", "alpha", "beta", "gamma", "delta", "TBD")

token_lists = st.lists(st.sampled_from(VOCAB), max_size=7)
texts = token_lists.map(lambda words: " ".join(words) if words else "!!!")
contents = st.one_of(
    texts,
    st.sampled_from(("q1 a1", "q2 a2", "!!!")),
    st.tuples(texts, texts).map(lambda pair: "\n".join(pair)),  # artifact-style: topic line, then body
)


def draw_arbiter(data, state):
    def arbiter(content, neighbor):
        action = data.draw(st.sampled_from(("skip", "replace", "merge")), label="action")
        if action != "merge":
            return ArbiterVerdict(action)
        actives = [r.content for r in state.active_records()]
        merged = data.draw(
            st.one_of(st.none(), contents, st.sampled_from(actives)), label="merged_content"
        )  # an existing active content exercises merge-into-existing
        return ArbiterVerdict("merge", merged_content=merged)

    return arbiter


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    near_dup=st.sampled_from((0.5, 0.88)),
    coverage=st.sampled_from((0.0, 0.5, 0.8)),
    steps=st.integers(1, 3 * SMALL_INDEX_ROWS + 6),
)
def test_reads_match_brute_force_over_random_add_sequences(data, near_dup, coverage, steps):
    kwargs = {"near_dup_threshold": near_dup, "coverage_threshold": coverage}
    state = MemoryState(**kwargs)
    round_trip_at = data.draw(st.integers(0, steps), label="round_trip_at")
    for step in range(steps):
        if step == round_trip_at:
            snapshot = json.loads(json.dumps(state.to_snapshot()))
            state = MemoryState.from_snapshot(snapshot, clock=state.clock, **kwargs)
        kind = data.draw(st.sampled_from(MEMORY_KINDS), label="kind")
        state.add_knowledge(kind, data.draw(contents, label="content"), draw_arbiter(data, state))
        assert_search_matches(
            state,
            data.draw(texts, label="query"),
            data.draw(st.integers(1, steps + 2), label="k"),
            data.draw(st.sampled_from((0.0, 0.5, coverage, near_dup)), label="threshold"),
        )
    queries = ["q1 q2", "!!!"] + data.draw(st.lists(texts, min_size=1, max_size=3), label="queries")
    topics = data.draw(
        st.lists(st.tuples(texts, st.sampled_from((0.5, 0.6, 0.9))), max_size=5), label="topics"
    )
    assert_reads_match(state, queries, topics)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), near_dup=st.sampled_from((0.5, 0.88)), steps=st.integers(0, 2 * SMALL_INDEX_ROWS + 4))
def test_snapshot_round_trip_restores_embeddings_bit_for_bit(data, near_dup, steps):
    state = MemoryState(near_dup_threshold=near_dup)
    for _ in range(steps):
        kind = data.draw(st.sampled_from(MEMORY_KINDS), label="kind")
        state.add_knowledge(kind, data.draw(contents, label="content"), draw_arbiter(data, state))
    snapshot = state.to_snapshot()
    loaded = MemoryState.from_snapshot(
        json.loads(json.dumps(snapshot)), clock=state.clock, near_dup_threshold=near_dup
    )
    assert loaded.to_snapshot() == snapshot
    assert loaded.records.keys() == state.records.keys()
    for rid, record in state.records.items():
        restored = loaded.records[rid].embedding
        assert restored.tobytes() == record.embedding.tobytes() == embed(record.content).tobytes()
    query = data.draw(texts, label="query")
    assert [(r.id, s) for r, s in loaded.vector_search(query, k=steps + 1)] == [
        (r.id, s) for r, s in state.vector_search(query, k=steps + 1)
    ]


def test_reads_match_brute_force_on_a_large_loaded_memory():
    rng = random.Random(7)
    words = [f"w{i}" for i in range(60)]
    state = MemoryState()
    for i in range(400):
        body = " ".join(rng.sample(words, rng.randint(3, 9)))
        kind = MEMORY_KINDS[i % len(MEMORY_KINDS)]
        content = f"{' '.join(rng.sample(words, 3))}\n{body}" if kind == "artifact" else body
        state.add_knowledge(kind, content, lambda content, record: ArbiterVerdict("merge"))
    loaded = MemoryState.from_snapshot(state.to_snapshot(), clock=state.clock)
    queries = [" ".join(rng.sample(words, rng.randint(1, 6))) for _ in range(20)] + ["!!!"]
    topics = [(" ".join(rng.sample(words, 3)), 0.9) for _ in range(10)]
    for memory in (state, loaded):
        assert len(memory.active_records()) > SMALL_INDEX_ROWS
        assert_reads_match(memory, queries, topics)


def test_four_of_five_shared_tokens_score_exactly_four_fifths():
    # Six tokens in six distinct buckets; the texts share four of them, so
    # their cosine is exactly 4/5 and meets a 0.80 coverage threshold.
    record, query = "solar panel permit rules county", "solar panel permit rules fees"
    assert len({_bucket(token, DEFAULT_DIM) for token in set((record + " " + query).split())}) == 6
    assert cosine(embed(record), embed(query)) == 0.8
    fillers = [f"filler{i} x{i}" for i in range(SMALL_INDEX_ROWS + 1)]
    for extra in ([], fillers):  # scalar path, then built index arrays
        state = MemoryState(coverage_threshold=0.80)
        for content in [record] + extra:
            state.add_knowledge("entity_fact", content, lambda content, record: ArbiterVerdict("skip"))
        assert (state._index._rows is not None) == bool(extra)
        report = state.coverage_check(query)
        assert report.level == "high" and report.supporting_record_ids == ("m000001",)
        assert [(r.id, s) for r, s in state.vector_search(query, k=1)] == [("m000001", 0.8)]
        assert_search_matches(state, query, len(extra) + 1, 0.8)


# -- bulk restore --------------------------------------------------------------


def index_arrays(index):
    size = index._size
    return index._rows[:size], index._buckets[:size], index._counts[:size], index._sq[: len(index)]


def assert_restored_like_build(loaded):
    """``from_snapshot`` fills the index as ``_build`` would; every embedding is ``embed(content)``."""
    actives = [r.id for r in loaded.records.values() if r.status == "active"]
    assert loaded._index._keys == actives
    if len(actives) <= SMALL_INDEX_ROWS:
        assert loaded._index._rows is None
    else:
        built = SimilarityIndex(loaded.records, lambda record: record.embedding, actives)
        built._build()
        for got, want in zip(index_arrays(loaded._index), index_arrays(built)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert_embeddings_intact(loaded)


def assert_embeddings_intact(state):
    for record in state.records.values():
        assert record.embedding.tobytes() == embed(record.content).tobytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), near_dup=st.sampled_from((0.5, 0.88)), steps=st.integers(0, 3 * SMALL_INDEX_ROWS + 8))
def test_bulk_restore_fills_the_index_as_build_does(data, near_dup, steps):
    state = MemoryState(near_dup_threshold=near_dup)
    for _ in range(steps):
        kind = data.draw(st.sampled_from(MEMORY_KINDS), label="kind")
        state.add_knowledge(kind, data.draw(contents, label="content"), draw_arbiter(data, state))
    loaded = MemoryState.from_snapshot(
        json.loads(json.dumps(state.to_snapshot())), clock=state.clock, near_dup_threshold=near_dup
    )
    assert_restored_like_build(loaded)
    # Replace and merge on the restored memory: no write reaches another
    # record's row of the shared matrix.
    for _ in range(data.draw(st.integers(0, 6), label="more_steps")):
        kind = data.draw(st.sampled_from(MEMORY_KINDS), label="kind")
        loaded.add_knowledge(kind, data.draw(contents, label="content"), draw_arbiter(data, loaded))
        assert_embeddings_intact(loaded)
    assert_search_matches(loaded, data.draw(texts, label="query"), steps + 1, 0.0)


def test_bulk_restore_with_retired_records_between_active_ones():
    rng = random.Random(11)
    words = [f"w{i}" for i in range(12)]
    state = MemoryState(near_dup_threshold=0.5)
    for i in range(60):
        state.add_knowledge(
            MEMORY_KINDS[i % len(MEMORY_KINDS)],
            " ".join(rng.sample(words, rng.randint(2, 6))),
            lambda content, record: ArbiterVerdict(rng.choice(("skip", "replace", "merge"))),
        )
    ids = sorted(state.records)
    retired = [rid for rid in ids if state.records[rid].status != "active"]
    actives = [rid for rid in ids if state.records[rid].status == "active"]
    assert len(actives) > SMALL_INDEX_ROWS
    assert retired and retired[0] < actives[-1] and actives[0] < retired[-1]
    loaded = MemoryState.from_snapshot(json.loads(json.dumps(state.to_snapshot())), clock=state.clock)
    assert_restored_like_build(loaded)
    embedding = loaded.records[actives[0]].embedding
    with pytest.raises(ValueError):
        embedding[0] = 1.0
    for i in range(20):
        action = ("replace", "merge")[i % 2]
        content = " ".join(rng.sample(words, rng.randint(2, 6)))
        loaded.add_knowledge("entity_fact", content, lambda content, record: ArbiterVerdict(action))
        assert_embeddings_intact(loaded)
    assert_reads_match(loaded, ["w1 w2", "!!!", "w3 w4 w5"], [("w1 w2", 0.9)])


def snapshot_of(contents_and_statuses):
    records = []
    for i, (content, status) in enumerate(contents_and_statuses, start=1):
        state = MemoryState()
        state.add_knowledge("entity_fact", content, lambda content, record: ArbiterVerdict("skip"))
        (rd,) = state.to_snapshot()["records"]
        rd.update(id=f"m{i:06d}", status=status)
        records.append(rd)
    return {"records": records, "profile": {}}


@pytest.mark.parametrize(
    "entries, built",
    [
        ([], False),
        ([(f"r{i} x", "merged") for i in range(8)], False),
        ([("!!!", "active")] * 8, True),
        ([(f"r{i} x", "active") for i in range(SMALL_INDEX_ROWS)], False),
        ([(f"r{i} x", "active") for i in range(SMALL_INDEX_ROWS)] + [("gone", "merged")] * 3, False),
        ([(f"r{i} x", "active") for i in range(SMALL_INDEX_ROWS + 1)], True),
        ([("!!!", "active"), ("r1 x", "merged")] * (SMALL_INDEX_ROWS + 1), True),
    ],
)
def test_bulk_restore_edge_snapshots(entries, built):
    loaded = MemoryState.from_snapshot(snapshot_of(entries))
    assert (loaded._index._rows is not None) == built
    assert_restored_like_build(loaded)
    for query in ("r1 x", "!!!"):
        assert_search_matches(loaded, query, 3, 0.0)
