"""Memory reads through the similarity index against brute-force loops.

The oracles below are the per-record ``cosine`` loops that ``MemoryState``
and ``filter_candidates`` ran before the index existed. Every read must
return exactly what they return: same records, same order, same floats.
"""

import json
import math
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from foresight.config import RunConfig
from foresight.embedding import _bucket, cosine, embed
from foresight import memory as memory_module
from foresight.memory import (
    MEMORY_KINDS,
    SMALL_INDEX_ROWS,
    AddOutcome,
    ArbiterVerdict,
    CoverageReport,
    GapCandidate,
    LogicalClock,
    MemoryState,
    SimilarityIndex,
    artifact_topic,
)
from foresight.prediction import CandidateNeed, filter_candidates

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


def oracle_filter_candidates(raw, memory):
    survivors = [c for c in raw if c.confidence >= RunConfig.confidence_threshold]
    artifact_vecs = [
        embed(r.content.split("\n", 1)[0]) for r in memory.active_records() if r.kind == "artifact"
    ]
    if artifact_vecs:
        survivors = [
            c
            for c in survivors
            if not any(cosine(embed(c.topic), avec) >= RunConfig.topic_dedup_threshold for avec in artifact_vecs)
        ]
    survivors.sort(key=lambda c: (-c.confidence, c.topic, c.need))
    result, result_vecs = [], []
    for candidate in survivors:
        cvec = embed(candidate.topic)
        if any(cosine(cvec, kv) >= RunConfig.topic_dedup_threshold for kv in result_vecs):
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
    assert filter_candidates(raw, state) == oracle_filter_candidates(raw, state)
    # The filter reads the topics index at the fixed 0.85; a low threshold
    # lets many more artifacts through, so the index is checked there too.
    for topic, _ in topics:
        want = brute_force_topic_search(state, topic, 0.5)[:1]
        assert state.artifact_topics().search(topic, 0.5, k=1) == want


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


def rewrites(texts_in_memory):
    """A text in memory with its ``TBD`` swapped for a word, or with a word
    added: a likely near-duplicate, so writes often replace or retire the
    records the gap sources hold."""

    def rewrite(pair):
        text, word = pair
        return text.replace("TBD", word) if "TBD" in text else f"{text} {word}"

    return st.tuples(st.sampled_from(texts_in_memory), st.sampled_from(VOCAB)).map(rewrite)


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


def name_write(state, result, content, before, witnesses):
    """Names, as a hypothesis event, each kind of write the gap sources must follow."""
    rid = result.record_id
    if result.outcome is AddOutcome.MERGED and rid in before:
        event("merge into an existing record")
    if result.outcome is AddOutcome.REPLACED:
        if rid in witnesses:
            event("witness replaced")
        if "TBD" in before[rid] and "TBD" not in content:
            event("TBD record replaced by text without TBD")
    if any(state.records[witness].status != "active" for witness in witnesses):
        event("witness retired")


def assert_gaps_match_after_write(data, state):
    for _ in range(data.draw(st.integers(0, 3), label="ticks")):
        state.clock.tick()
    now = state.clock.now()
    # The stricter staleness first: the second call must see the stamps the
    # first one took off the heap.
    assert_weak_norms_held(state)
    for staleness in (timedelta(seconds=data.draw(st.integers(0, 4), label="staleness")), timedelta(hours=1)):
        assert state.detect_gaps(now, staleness) == oracle_detect_gaps(state, now, staleness)
        assert_weak_norms_held(state)


def assert_weak_norms_held(state):
    """Each weak research fact is held with its embedding's squared norm."""
    for fact, norm in state._weak.items():
        vec = state.records[fact].embedding
        assert norm.hex() == float(vec @ vec).hex(), fact


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
            event("snapshot round trip")
        # Research facts count twice: more of them, and more witnesses.
        kind = data.draw(st.sampled_from(MEMORY_KINDS + ("research_fact",)), label="kind")
        before = {r.id: r.content for r in state.active_records()}
        witnesses = set(state._witness.values())
        # Witnesses count twice among the texts to rewrite.
        targets = list(before.values()) + [before[witness] for witness in witnesses]
        content = data.draw(st.one_of(contents, rewrites(targets)) if targets else contents, label="content")
        result = state.add_knowledge(kind, content, draw_arbiter(data, state))
        name_write(state, result, content, before, witnesses)
        assert_gaps_match_after_write(data, state)
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
    assert len({_bucket(token) for token in set((record + " " + query).split())}) == 6
    assert cosine(embed(record), embed(query)) == 0.8
    fillers = [f"filler{i} x{i}" for i in range(SMALL_INDEX_ROWS + 1)]
    for extra in ([], fillers):  # scalar path, then the built index matrix
        state = MemoryState(coverage_threshold=0.80)
        for content in [record] + extra:
            state.add_knowledge("entity_fact", content, lambda content, record: ArbiterVerdict("skip"))
        assert (state._index._matrix is not None) == bool(extra)
        report = state.coverage_check(query)
        assert report.level == "high" and report.supporting_record_ids == ("m000001",)
        assert [(r.id, s) for r, s in state.vector_search(query, k=1)] == [("m000001", 0.8)]
        assert_search_matches(state, query, len(extra) + 1, 0.8)


def test_a_memory_growing_from_empty_rebuilds_its_index_logarithmically(monkeypatch):
    builds = []
    build = SimilarityIndex._build

    def counting_build(index):
        builds.append(len(index))
        build(index)

    monkeypatch.setattr(SimilarityIndex, "_build", counting_build)
    state = MemoryState()
    for i in range(200):
        state.add_knowledge("entity_fact", f"r{i} x{i} y{i}", lambda content, record: ArbiterVerdict("skip"))
    assert len(state.active_records()) == 200
    assert len(builds) <= 3 * math.log2(200), builds
    assert_reads_match(state, ["r1 x2 y3", "!!!"], [])


# -- gap sources kept on write -------------------------------------------------

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def gap_reasons(state, staleness=timedelta(hours=1)):
    """``detect_gaps`` at the clock's now, checked against the oracle at
    ``staleness`` and at no staleness, as (id, reason) pairs."""
    now = state.clock.now()
    for window in (timedelta(0), staleness):
        gaps = state.detect_gaps(now, window)
        assert gaps == oracle_detect_gaps(state, now, window)
        assert_weak_norms_held(state)
    return [(gap.related_record_ids[0], gap.reason) for gap in gaps]


def verdict(action, merged_content=None):
    return lambda content, record: ArbiterVerdict(action, merged_content)


@pytest.mark.parametrize("fillers", [0, SMALL_INDEX_ROWS + 1])  # scalar path, then the index matrix
def test_gap_sources_follow_each_kind_of_write(fillers):
    state = MemoryState(coverage_threshold=0.80)
    for i in range(fillers):
        state.add_knowledge("entity_fact", f"filler{i} x{i}", verdict("skip"))
    fact = state.add_knowledge("research_fact", "f0 f1 f2 f3 f4", verdict("skip")).record_id
    assert gap_reasons(state) == [(fact, "weakly_supported")]
    write_each_kind(state, fact)


def test_weak_fact_norms_follow_each_kind_of_write_on_a_fork_of_a_restored_base():
    memory_module._last_base = None
    build = MemoryState(coverage_threshold=0.80)
    for i in range(SMALL_INDEX_ROWS + 1):
        build.add_knowledge("entity_fact", f"filler{i} x{i}", verdict("skip"))
    fact = build.add_knowledge("research_fact", "f0 f1 f2 f3 f4", verdict("skip")).record_id
    snapshot = json.loads(json.dumps(build.to_snapshot()))
    state = MemoryState.from_snapshot(snapshot, coverage_threshold=0.80, clock=build.clock)
    # The base searched the fact and found it weak; the fork holds its norm.
    assert state._index._memo is not None and not state._unchecked
    base = memory_module._last_base[2]
    assert list(state._weak) == [fact] and state._weak is not base._weak
    assert gap_reasons(state) == [(fact, "weakly_supported")]
    write_each_kind(state, fact)
    assert base._weak == {fact: 5.0}


def write_each_kind(state, fact):
    """Adds, replaces, merges and retires around ``fact``, a weak research
    fact of ``state``, checking the gaps after each write."""
    add = lambda kind, content, action="skip", merged=None: state.add_knowledge(
        kind, content, verdict(action, merged)
    )
    # 4 of 5 tokens shared: cosine 0.8, support without a near-duplicate.
    witness = add("entity_fact", "f0 f1 f2 f3 g0").record_id
    assert gap_reasons(state) == []
    # The witness is rewritten into text that no longer supports the fact.
    assert add("entity_fact", "f0 f1 f2 f3 g0 g1", "replace").outcome is AddOutcome.REPLACED
    assert state.records[witness].content == "f0 f1 f2 f3 g0 g1"
    assert gap_reasons(state) == [(fact, "weakly_supported")]
    # A new record supports the weak fact; then a merge retires it.
    witness = add("entity_fact", "f0 f1 f2 f3 h0").record_id
    assert gap_reasons(state) == []
    assert add("entity_fact", "f0 f1 f2 f3 h0 h1", "merge").outcome is AddOutcome.MERGED
    assert state.records[witness].status == "merged"
    assert gap_reasons(state) == [(fact, "weakly_supported")]
    # A TBD record rewritten without its marker.
    marked = add("entity_fact", "the closing date for the home loan is TBD").record_id
    assert gap_reasons(state) == [(fact, "weakly_supported"), (marked, "incomplete")]
    add("entity_fact", "the closing date for the home loan is march", "replace")
    assert state.records[marked].content.endswith("march")
    assert gap_reasons(state) == [(fact, "weakly_supported")]
    # Merging into an existing research fact makes it merge-built, so exempt.
    target = add("research_fact", "g5 g6 g7 g8 g9").record_id
    assert gap_reasons(state) == [(fact, "weakly_supported"), (target, "weakly_supported")]
    source = add("entity_fact", "n0 n1 n2 n3 n4 n5 n6 n7 n8 n9").record_id
    merge = add("entity_fact", "n0 n1 n2 n3 n4 n5 n6 n7 n8 n9 n10", "merge", "g5 g6 g7 g8 g9")
    assert merge.record_id == target and state.records[target].merged_from == (source,)
    assert gap_reasons(state) == [(fact, "weakly_supported")]
    # The weak fact itself rewritten.
    add("research_fact", "f0 f1 f2 f3 f4 f5", "replace")
    assert state.records[fact].content == "f0 f1 f2 f3 f4 f5"
    assert gap_reasons(state) == [(fact, "weakly_supported")]


def test_gaps_of_a_restore_stamped_after_its_clock_start():
    # As in the bench's long memory: most restored records carry stamps later
    # than the clock the memory is restored with, so writes after the restore
    # are stamped earlier than they are.
    build = MemoryState(clock=LogicalClock(start=EPOCH, step_seconds=3600))
    for i in range(40):
        kind = ("entity_fact", "research_fact", "artifact")[i % 3]
        build.add_knowledge(kind, " ".join(f"r{i}{c}" for c in "abcdef"), verdict("skip"))
    assert [r.updated_at for r in build.records.values()] == [EPOCH + timedelta(hours=i) for i in range(40)]
    start = EPOCH + timedelta(hours=10)
    snapshot = json.loads(json.dumps(build.to_snapshot()))
    state = MemoryState.from_snapshot(snapshot, clock=LogicalClock(start=start))
    staleness = timedelta(hours=2)

    def stale_ids(hours):
        now = start + timedelta(hours=hours)
        gaps = state.detect_gaps(now, staleness)
        assert gaps == oracle_detect_gaps(state, now, staleness)
        return [gap.related_record_ids[0] for gap in gaps if gap.reason == "stale"]

    # Record i is stale once i < 8 + hours.
    first = "m000001"
    assert [len(stale_ids(hours)) for hours in range(0, 40, 4)] == [min(8 + h, 40) for h in range(0, 40, 4)]
    assert len(stale_ids(1)) == 9 and first in stale_ids(1)
    rewrite = state.add_knowledge("entity_fact", " ".join(f"r0{c}" for c in "abcdefg"), verdict("replace"))
    assert rewrite.record_id == first and state.records[first].updated_at == start
    assert stale_ids(1) == [f"m{i:06d}" for i in range(2, 10)]
    assert len(stale_ids(3)) == 11 and first in stale_ids(3)
    assert len(stale_ids(0)) == 7 and first not in stale_ids(0)
    assert len(stale_ids(40)) == 40


# -- bulk restore --------------------------------------------------------------


def index_arrays(index, keys):
    """The live columns of the index matrix and their squared norms, in the order of ``keys``."""
    rows = [index._row[key] for key in keys]
    return index._matrix[:, rows], index._sq[rows]


def assert_restored_like_build(loaded):
    """``from_snapshot`` fills the index as ``_build`` would; every embedding is ``embed(content)``."""
    actives = [r.id for r in loaded.records.values() if r.status == "active"]
    assert list(loaded._index._row) == actives
    built = SimilarityIndex(loaded.records, lambda record: record.embedding)
    for rid in actives:
        built.add(rid)
    built._build()
    for got, want in zip(index_arrays(loaded._index, actives), index_arrays(built, actives)):
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
    return {"records": records, "profile": {}, "counter": len(records)}


@pytest.mark.parametrize(
    "entries",
    [
        [],
        [(f"r{i} x", "merged") for i in range(8)],
        # Token-less contents, each its own: "!!!", "!!!!", ...
        [("!" * (3 + i), "active") for i in range(8)],
        [(f"r{i} x", "active") for i in range(SMALL_INDEX_ROWS)],
        [(f"r{i} x", "active") for i in range(SMALL_INDEX_ROWS)] + [("gone", "merged")] * 3,
        [(f"r{i} x", "active") for i in range(SMALL_INDEX_ROWS + 1)],
        [pair for i in range(SMALL_INDEX_ROWS + 1) for pair in (("!" * (3 + i), "active"), ("r1 x", "merged"))],
    ],
)
def test_bulk_restore_edge_snapshots(entries):
    loaded = MemoryState.from_snapshot(snapshot_of(entries))
    assert_restored_like_build(loaded)
    for query in ("r1 x", "!!!"):
        assert_search_matches(loaded, query, 3, 0.0)


# -- restored artifact topics --------------------------------------------------


def artifact_text(i, topic_word="b"):
    """An artifact whose topic line is 3 words of its 13: changing one topic
    word keeps it a near-duplicate (12/13) of the text it came from."""
    return f"t{i} a{i} {topic_word}{i}\n" + " ".join(f"w{i}x{j}" for j in range(10))


def memory_with_artifacts(n):
    """``n`` artifacts (one replaced with a new topic, one retired by a
    merge into a new artifact) among records of every other kind, and the
    ids of the replaced and the retired ones."""
    state = MemoryState()
    for i in range(n):
        state.add_knowledge("artifact", artifact_text(i), verdict("skip"))
        state.add_knowledge(MEMORY_KINDS[i % 4], f"other{i} record{i} words{i}", verdict("skip"))
    replaced = state.add_knowledge("artifact", artifact_text(0, topic_word="c"), verdict("replace"))
    assert replaced.outcome is AddOutcome.REPLACED
    retired = state.add_knowledge("artifact", artifact_text(1) + " more", verdict("merge"))
    assert retired.outcome is AddOutcome.MERGED
    (gone,) = state.records[retired.record_id].merged_from
    assert state.records[gone].status == "merged" and state.records[gone].kind == "artifact"
    return state, replaced.record_id, gone


def active_artifacts(state):
    return [r.id for r in state.active_records() if r.kind == "artifact"]


def topic_candidates(n):
    """Candidate topics: each artifact's topic, the replaced one's old topic,
    a near and a novel one."""
    topics = [f"t{i} a{i} b{i}" for i in range(n)] + ["t0 a0 c0", "t2 a2 b2 extra", "nothing like it"]
    return [
        CandidateNeed(topic=topic, need=f"need {i}", reason="test", confidence=0.9, retrieval_query=topic)
        for i, topic in enumerate(topics)
    ]


def restore_counting_topic_embeds(state, monkeypatch):
    """``state`` restored through JSON text, and the list that every
    ``_topic_embedding_of`` call from then on appends its record id to."""
    text = json.dumps(state.to_snapshot(), ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    calls = []
    topic_embedding_of = memory_module._topic_embedding_of

    def counting(record):
        calls.append(record.id)
        return topic_embedding_of(record)

    monkeypatch.setattr(memory_module, "_topic_embedding_of", counting)
    return MemoryState.from_snapshot(json.loads(text), clock=state.clock), calls


def brute_force_topic_search(state, topic, threshold):
    query = embed(topic)
    artifacts = [r for r in state.active_records() if r.kind == "artifact"]
    scored = [(r.id, cosine(query, embed(artifact_topic(r)))) for r in artifacts]
    return sorted([hit for hit in scored if hit[1] >= threshold], key=lambda hit: (-hit[1], hit[0]))


def test_restored_topics_index_equals_a_built_one(monkeypatch):
    n = SMALL_INDEX_ROWS + 4
    state, replaced, gone = memory_with_artifacts(n)
    keys = active_artifacts(state)
    assert len(keys) > SMALL_INDEX_ROWS and replaced in keys and gone not in keys
    raw = topic_candidates(n)
    want = filter_candidates(raw, state)
    assert want == oracle_filter_candidates(raw, state)
    assert 0 < len(want) < len(raw)

    loaded, calls = restore_counting_topic_embeds(state, monkeypatch)
    topics = loaded._topics
    assert topics._matrix is not None
    assert calls == keys  # the restore embedded each active artifact's topic once
    assert filter_candidates(raw, loaded) == want
    assert calls == keys  # and the filter embedded none again

    built = SimilarityIndex(loaded.records, lambda record: embed(artifact_topic(record)))
    for key in keys:
        built.add(key)
    built._build()
    assert list(topics._row) == list(built._row) == keys
    for key in keys:
        column = topics._matrix[:, topics._row[key]]
        assert column.tobytes() == embed(artifact_topic(loaded.records[key])).tobytes()
    assert index_arrays(topics, keys)[1].tobytes() == index_arrays(built, keys)[1].tobytes()
    assert loaded.artifact_topics() is topics


def test_restored_topics_index_grows_past_its_spare_columns():
    state, replaced, gone = memory_with_artifacts(SMALL_INDEX_ROWS + 4)
    loaded = MemoryState.from_snapshot(json.loads(json.dumps(state.to_snapshot())), clock=state.clock)
    topics = loaded.artifact_topics()
    restored = topics._matrix
    room = restored.shape[1] - len(topics._keys)
    added = []
    for i in range(100, 100 + room + 2):
        result = loaded.add_knowledge("artifact", artifact_text(i), verdict("skip"))
        assert result.outcome is AddOutcome.ADDED
        added.append(result.record_id)
    # Replace an artifact's topic after the growth; its key takes a new row.
    rewrite = loaded.add_knowledge("artifact", artifact_text(100, topic_word="c"), verdict("replace"))
    assert rewrite.record_id == added[0]
    assert topics._matrix is not restored  # the index grew
    queries = ["t3 a3 b3", "t100 a100 c100", "t100 a100 b100", f"t{99 + room} a{99 + room} b{99 + room}", "!!!"]
    for query in queries:
        for threshold in (0.0, 0.5, 0.85):
            want = brute_force_topic_search(loaded, query, threshold)
            assert topics.search(query, threshold, k=len(topics)) == want


# -- write-once columns --------------------------------------------------------


def assert_reads_see_live_records_only(state, queries):
    """Every embedding is intact, removed rows never qualify, and reads match the oracles."""
    assert_embeddings_intact(state)
    actives = {record.id for record in state.active_records()}
    everything = len(state.records) + 1
    for query in queries:
        # At threshold 0.0 every live row qualifies, including for "!!!",
        # which has no tokens; a removed row never does.
        assert {r.id for r, _ in state.vector_search(query, k=everything)} == actives
        assert_search_matches(state, query, 2, state.coverage_threshold)
    assert state.coverage_check(queries[0], tuple(queries[1:])) == oracle_coverage_check(
        state, queries[0], tuple(queries[1:])
    )
    now = state.clock.now()
    assert state.detect_gaps(now, timedelta(hours=1)) == oracle_detect_gaps(state, now, timedelta(hours=1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n_active=st.integers(SMALL_INDEX_ROWS + 1, 3 * SMALL_INDEX_ROWS))
def test_restored_columns_are_written_once(data, n_active):
    # A fresh base, whose free list holds its own matrix alone: a base kept
    # from an earlier example may have a copy idle too.
    memory_module._last_base = None
    # Retired records sit strictly between active ones.
    statuses = ["active"] * n_active
    for _ in range(data.draw(st.integers(1, 5), label="n_retired")):
        statuses.insert(data.draw(st.integers(1, len(statuses) - 1), label="retired_at"), "merged")
    words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).map(" ".join)
    contents = [f"c{i} {data.draw(words, label='content')}" for i in range(len(statuses))]
    snapshot = json.loads(json.dumps(snapshot_of(list(zip(contents, statuses)))))
    # The first fork borrows the base's own matrix and keeps it, so the
    # second copies the base's matrix into a buffer of its own.
    borrower = MemoryState.from_snapshot(snapshot, near_dup_threshold=0.5, coverage_threshold=0.5)
    state = MemoryState.from_snapshot(snapshot, near_dup_threshold=0.5, coverage_threshold=0.5)

    # Every restored embedding is a read-only view of a column of the base's
    # matrix.
    base = memory_module._last_base[2]
    assert np.shares_memory(borrower._index._matrix, base._index._matrix)
    base_matrix = base._index._matrix
    base_columns = base_matrix.copy()
    base_records = {rid: (replace(record), record) for rid, record in base.records.items()}
    index = state._index
    restored = index._matrix
    restored_columns = restored[:, : len(statuses)].copy()
    assert not np.shares_memory(restored, base_matrix)
    for record in state.records.values():
        assert np.shares_memory(record.embedding, base_matrix)
        with pytest.raises(ValueError):
            record.embedding[0] = 1.0
    queries = ["!!!", "q1 q2", f"c0 {VOCAB[0]}"]
    assert_reads_see_live_records_only(state, queries)

    # Every add, replace and merge takes a new column, so the adds alone
    # run past the fork's room.
    room = restored.shape[1] - len(index._keys)
    actions = data.draw(
        st.lists(st.sampled_from(("replace", "merge", "merge_existing", "skip")), max_size=8), label="actions"
    )
    steps = data.draw(st.permutations(actions + ["add"] * (room + 1)), label="steps")
    for i, action in enumerate(steps):

        def arbiter(content, neighbor):
            if action == "merge_existing":
                others = [r.content for r in state.active_records() if r.id != neighbor.id]
                return ArbiterVerdict("merge", merged_content=others[0]) if others else ArbiterVerdict("skip")
            return ArbiterVerdict("skip" if action == "add" else action)

        if action == "add":
            content = f"fresh{i} novel{i} unseen{i} words{i}"
        else:
            target = data.draw(st.sampled_from(state.active_records()), label="target")
            content = f"{target.content} extra{i}"
        state.add_knowledge("entity_fact", content, arbiter)
        assert_reads_see_live_records_only(state, queries)

    assert index._matrix is not restored  # the index grew at least once
    assert restored[:, : len(statuses)].tobytes() == restored_columns.tobytes()
    # The fork wrote neither the base's matrix nor any of its records, and
    # the embeddings it did not replace still view the base's columns.
    assert base_matrix.tobytes() == base_columns.tobytes()
    for rid, (saved, record) in base_records.items():
        assert base.records[rid] is record and record == saved
        assert record.embedding.tobytes() == saved.embedding.tobytes()
    assert base.to_snapshot() == snapshot
    for record in state.records.values():
        unchanged = record.id in base.records and record.content == base.records[record.id].content
        assert np.shares_memory(record.embedding, base_matrix) == unchanged
        assert not record.embedding.flags.writeable


# -- squared norms kept per row ------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), most_live=st.sampled_from((SMALL_INDEX_ROWS, 2 * SMALL_INDEX_ROWS + 2)))
def test_search_keeps_each_row_norm_across_remove_and_re_add(data, most_live):
    # A key removed and added back often holds new text, as a replaced
    # record does, so its row must score with the new text's squared norm.
    # Up to SMALL_INDEX_ROWS live keys every search takes the small path;
    # past it the first search builds the matrix.
    records: dict[str, str] = {}
    index = SimilarityIndex(records, embed)
    free = [f"k{i}" for i in range(most_live + 2)]
    live: list[str] = []
    for _ in range(data.draw(st.integers(1, 4 * most_live), label="steps")):
        if live and (len(live) == most_live or not data.draw(st.booleans(), label="add")):
            key = data.draw(st.sampled_from(live), label="remove")
            index.remove(key)
            live.remove(key)
            free.append(key)
        else:
            key = data.draw(st.sampled_from(free), label="key")
            records[key] = data.draw(texts, label="text")
            index.add(key)
            free.remove(key)
            live.append(key)
        query = data.draw(texts, label="query")
        threshold = data.draw(st.sampled_from((0.0, 0.5, 0.8)), label="threshold")
        scored = [(key, cosine(embed(query), embed(records[key]))) for key in live]
        want = sorted([hit for hit in scored if hit[1] >= threshold], key=lambda hit: (-hit[1], hit[0]))
        got = index.search(query, threshold, k=len(index))
        assert [(key, score.hex()) for key, score in got] == [(key, score.hex()) for key, score in want]
    if most_live <= SMALL_INDEX_ROWS:
        assert index._matrix is None
