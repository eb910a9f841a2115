import json
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from foresight.embedding import DEFAULT_DIM, cosine, embed
from foresight.memory import (
    MEMORY_KINDS,
    AddOutcome,
    ArbitrationError,
    ArbiterVerdict,
    LogicalClock,
    MemoryState,
    content_hash,
)

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def words(prefix, n, *extra):
    return " ".join([f"{prefix}{i}" for i in range(n)] + list(extra))


def skip_arbiter(content, record):
    return ArbiterVerdict("skip")


def replace_arbiter(content, record):
    return ArbiterVerdict("replace")


def merge_arbiter(content, record):
    return ArbiterVerdict("merge")


def no_arbiter(content, record):
    raise AssertionError("arbiter must not be consulted")


def test_content_hash_known_digest():
    assert content_hash("abc") == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert content_hash("") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_vocabulary_constants():
    assert MEMORY_KINDS == ("profile_attr", "entity_fact", "conversation_summary", "research_fact", "artifact")


def test_add_new_record():
    state = MemoryState()
    result = state.add_knowledge("entity_fact", "the account has no fees", no_arbiter)
    assert result.outcome is AddOutcome.ADDED
    record = state.records[result.record_id]
    assert record.content == "the account has no fees"
    assert record.kind == "entity_fact"
    assert record.status == "active"
    assert state.hash_index[record.content_hash] == record.id
    assert record.created_at == record.updated_at == EPOCH


def test_add_rejects_bad_inputs():
    state = MemoryState()
    with pytest.raises(ValueError):
        state.add_knowledge("rumor", "x", no_arbiter)
    with pytest.raises(ValueError):
        state.add_knowledge("entity_fact", "", no_arbiter)


def test_exact_duplicate_short_circuits_arbiter():
    state = MemoryState()
    first = state.add_knowledge("entity_fact", "alpha beta gamma", no_arbiter)
    dup = state.add_knowledge("research_fact", "alpha beta gamma", no_arbiter)
    assert dup.outcome is AddOutcome.DUPLICATE
    assert dup.record_id == first.record_id
    assert len(state.records) == 1


def _near_pair():
    a = words("w", 20)
    b = words("w", 19, "x0")
    sim = cosine(embed(a), embed(b))
    assert sim >= 0.89, sim  # fixture precondition: clears the 0.88 gate
    return a, b


def test_near_dup_skip():
    a, b = _near_pair()
    state = MemoryState()
    first = state.add_knowledge("entity_fact", a, no_arbiter)
    result = state.add_knowledge("entity_fact", b, skip_arbiter)
    assert result.outcome is AddOutcome.SKIPPED
    assert result.record_id == first.record_id
    assert len(state.records) == 1
    assert state.records[first.record_id].content == a


def test_near_dup_replace_rewrites_in_place():
    a, b = _near_pair()
    state = MemoryState()
    first = state.add_knowledge("entity_fact", a, no_arbiter)
    old = state.records[first.record_id]
    old_hash, old_created = old.content_hash, old.created_at
    result = state.add_knowledge("entity_fact", b, replace_arbiter)
    assert result.outcome is AddOutcome.REPLACED
    assert result.record_id == first.record_id
    assert len(state.records) == 1
    rec = state.records[first.record_id]
    assert rec.content == b
    assert rec.content_hash == content_hash(b)
    assert np.array_equal(rec.embedding, embed(b))
    assert rec.created_at == old_created
    assert rec.updated_at > old_created
    assert old_hash not in state.hash_index
    assert state.hash_index[rec.content_hash] == rec.id


def test_near_dup_merge_default_concatenation():
    a, b = _near_pair()
    state = MemoryState()
    first = state.add_knowledge("entity_fact", a, no_arbiter)
    result = state.add_knowledge("entity_fact", b, merge_arbiter)
    assert result.outcome is AddOutcome.MERGED
    merged = state.records[result.record_id]
    retired = state.records[first.record_id]
    assert merged.content == f"{a}\n{b}"
    assert merged.merged_from == (first.record_id,)
    assert retired.status == "merged"
    assert retired.merged_into == merged.id
    assert retired.content_hash not in state.hash_index
    assert state.hash_index[merged.content_hash] == merged.id
    assert [r.id for r in state.active_records()] == [merged.id]


def test_near_dup_merge_custom_content():
    a, b = _near_pair()
    state = MemoryState()
    state.add_knowledge("entity_fact", a, no_arbiter)
    result = state.add_knowledge(
        "entity_fact", b, lambda c, r: ArbiterVerdict("merge", merged_content="combined digest text")
    )
    assert result.outcome is AddOutcome.MERGED
    assert state.records[result.record_id].content == "combined digest text"


def test_merge_reuses_record_already_holding_merged_text():
    a, b = _near_pair()
    state = MemoryState()
    first = state.add_knowledge("entity_fact", a, no_arbiter)
    other = state.add_knowledge("entity_fact", words("p", 8), no_arbiter)
    other_content = state.records[other.record_id].content
    # Arbiter resolves the conflict to text that is already stored elsewhere.
    result = state.add_knowledge(
        "entity_fact", b, lambda c, r: ArbiterVerdict("merge", merged_content=other_content)
    )
    assert result.outcome is AddOutcome.MERGED
    assert result.record_id == other.record_id
    target = state.records[other.record_id]
    assert first.record_id in target.merged_from
    assert state.records[first.record_id].status == "merged"
    assert state.records[first.record_id].merged_into == other.record_id
    # Hash uniqueness among actives preserved: exactly one record per digest.
    actives = state.active_records()
    assert len({r.content_hash for r in actives}) == len(actives)


@pytest.mark.parametrize(
    "arbiter",
    [
        lambda c, r: (_ for _ in ()).throw(RuntimeError("backend down")),
        lambda c, r: ArbiterVerdict("explode"),
        lambda c, r: (_ for _ in ()).throw(ArbitrationError("direct")),
    ],
)
def test_arbitration_failure_leaves_state_untouched(arbiter):
    a, b = _near_pair()
    state = MemoryState()
    state.add_knowledge("entity_fact", a, no_arbiter)
    before = state.to_snapshot()
    with pytest.raises(ArbitrationError):
        state.add_knowledge("entity_fact", b, arbiter)
    assert state.to_snapshot() == before


def test_vector_search_matches_brute_force():
    state = MemoryState()
    contents = [words(chr(97 + i), 6) for i in range(8)]
    for content in contents:
        state.add_knowledge("entity_fact", content, no_arbiter)
    query = contents[3] + " " + words("zz", 2)
    got = state.vector_search(query, k=5, threshold=0.05)

    qvec = embed(query)
    expected = [(r, cosine(qvec, r.embedding)) for r in state.active_records()]
    expected = [(r, s) for r, s in expected if s >= 0.05]
    expected.sort(key=lambda pair: (-pair[1], pair[0].id))
    expected = expected[:5]
    assert [(r.id, s) for r, s in got] == [(r.id, s) for r, s in expected]


def test_vector_search_tie_breaks_on_ascending_id():
    state = MemoryState()
    state.add_knowledge("entity_fact", "q1 a1", no_arbiter)
    state.add_knowledge("entity_fact", "q2 a2", no_arbiter)
    hits = state.vector_search("q1 q2", k=2)
    assert hits[0][1] == hits[1][1]
    assert [r.id for r, _ in hits] == sorted(r.id for r, _ in hits)


def test_vector_search_skips_retired_records():
    a, b = _near_pair()
    state = MemoryState()
    first = state.add_knowledge("entity_fact", a, no_arbiter)
    merged = state.add_knowledge("entity_fact", b, merge_arbiter)
    hits = state.vector_search(a, k=10)
    ids = [r.id for r, _ in hits]
    assert first.record_id not in ids
    assert merged.record_id in ids


def test_coverage_check_levels():
    state = MemoryState()
    r1 = state.add_knowledge("entity_fact", "solar panel permit rules", no_arbiter)
    r2 = state.add_knowledge("entity_fact", "battery storage rebate", no_arbiter)
    high = state.coverage_check("home energy", ("solar panel permit rules", "battery storage rebate"))
    assert high.level == "high"
    assert high.missing_subtopics == ()
    assert high.supporting_record_ids == (r1.record_id, r2.record_id)

    partial = state.coverage_check("home energy", ("solar panel permit rules", "inverter warranty terms"))
    assert partial.level == "partial"
    assert partial.missing_subtopics == ("inverter warranty terms",)
    assert partial.supporting_record_ids == (r1.record_id,)

    low = state.coverage_check("unrelated query entirely", ("grid export tariff", "inverter warranty terms"))
    assert low.level == "low"
    assert len(low.missing_subtopics) == 2


def test_coverage_check_defaults_plan_to_query():
    state = MemoryState()
    state.add_knowledge("entity_fact", "visa processing timeline", no_arbiter)
    report = state.coverage_check("visa processing timeline")
    assert report.level == "high"
    with pytest.raises(ValueError):
        state.coverage_check("")


def test_detect_gaps_stale():
    state = MemoryState()
    rid = state.add_knowledge("entity_fact", words("s", 5), no_arbiter).record_id
    gaps = state.detect_gaps(EPOCH + timedelta(hours=2), timedelta(hours=1))
    assert [(g.reason, g.related_record_ids) for g in gaps] == [("stale", (rid,))]
    assert state.detect_gaps(EPOCH + timedelta(minutes=5), timedelta(hours=1)) == []


def test_detect_gaps_incomplete_marker():
    state = MemoryState()
    rid = state.add_knowledge("entity_fact", "closing date TBD for the loan", no_arbiter).record_id
    gaps = state.detect_gaps(EPOCH, timedelta(hours=1))
    assert [(g.reason, g.related_record_ids) for g in gaps] == [("incomplete", (rid,))]


def test_detect_gaps_weak_support():
    a = words("w", 20)
    b = words("w", 17, "y0", "y1", "y2")
    sim = cosine(embed(a), embed(b))
    assert 0.80 <= sim < 0.88, sim  # supports a without tripping the dedup gate
    lonely = MemoryState()
    rid = lonely.add_knowledge("research_fact", a, no_arbiter).record_id
    gaps = lonely.detect_gaps(EPOCH, timedelta(hours=1))
    assert [(g.reason, g.related_record_ids) for g in gaps] == [("weakly_supported", (rid,))]

    supported = MemoryState()
    supported.add_knowledge("research_fact", a, no_arbiter)
    supported.add_knowledge("entity_fact", b, no_arbiter)
    assert supported.detect_gaps(EPOCH, timedelta(hours=1)) == []


def test_detect_gaps_merged_research_is_not_weak():
    a, b = _near_pair()
    state = MemoryState()
    state.add_knowledge("research_fact", a, no_arbiter)
    state.add_knowledge("research_fact", b, merge_arbiter)
    assert state.detect_gaps(EPOCH + timedelta(seconds=1), timedelta(hours=1)) == []


def test_snapshot_round_trip(tmp_path):
    a, b = _near_pair()
    state = MemoryState()
    state.add_knowledge("research_fact", a, no_arbiter)
    state.add_knowledge("research_fact", b, merge_arbiter)
    state.add_knowledge("conversation_summary", "setup conversation so far", no_arbiter)
    state.profile["name"] = "Sam"
    path = tmp_path / "mem.json"
    state.save(str(path))
    # save writes exactly the compact, sorted-key encoding of the snapshot
    assert path.read_text(encoding="utf-8") == json.dumps(
        state.to_snapshot(), ensure_ascii=False, sort_keys=True, separators=(",", ":")
    )
    assert state.to_snapshot().keys() == {"records", "profile"}
    loaded = MemoryState.load(str(path))
    assert loaded.to_snapshot() == state.to_snapshot()
    assert loaded.hash_index == state.hash_index
    assert loaded.profile == state.profile
    # id allocation continues past the restored records
    fresh = loaded.add_knowledge("entity_fact", words("new", 4), no_arbiter)
    assert fresh.record_id not in state.records


def test_snapshot_stores_embeddings_as_sparse_buckets(tmp_path):
    # A snapshot keeps each embedding's nonzero buckets, ascending, with
    # their token counts as integers; loading scatters them back bit for bit.
    a, b = _near_pair()
    state = MemoryState()
    for i in range(3):
        state.add_knowledge("entity_fact", words(f"s{i}x", 7), no_arbiter)
    state.add_knowledge("entity_fact", "!!!", no_arbiter)
    state.add_knowledge("research_fact", a, no_arbiter)
    state.add_knowledge("research_fact", b, merge_arbiter)
    assert {r.status for r in state.records.values()} == {"active", "merged"}
    path = tmp_path / "mem.json"
    state.save(str(path))
    loaded = MemoryState.load(str(path))
    loaded.add_knowledge("research_fact", "half of a fraction 1 3 7", no_arbiter)
    resaved = tmp_path / "again.json"
    loaded.save(str(resaved))
    reloaded = MemoryState.load(str(resaved))

    for memory in (state, loaded):
        for rd in memory.to_snapshot()["records"]:
            vec = memory.records[rd["id"]].embedding
            assert rd["embedding"].keys() == {"buckets", "counts"}
            buckets, counts = rd["embedding"]["buckets"], rd["embedding"]["counts"]
            assert buckets == sorted(set(buckets))
            assert all(type(x) is int for x in buckets + counts) and all(x > 0 for x in counts)
            assert np.array_equal(np.flatnonzero(vec), buckets)
            assert vec[buckets].tobytes() == np.array(counts, dtype=np.float64).tobytes()
    stored = json.loads(path.read_text())["records"]
    (empty,) = [rd for rd in stored if rd["content"] == "!!!"]
    assert empty["embedding"] == {"buckets": [], "counts": []}
    assert not any("emotion" in rd for rd in stored)

    for before, after in ((state, loaded), (loaded, reloaded)):
        assert before.records.keys() <= after.records.keys()
        for rid, record in before.records.items():
            restored = after.records[rid].embedding
            assert restored.dtype == np.float64 and restored.shape == (DEFAULT_DIM,)
            assert restored.tobytes() == record.embedding.tobytes() == embed(record.content).tobytes()


def test_load_honors_config_kwargs(tmp_path):
    state = MemoryState()
    state.add_knowledge("entity_fact", "plain", no_arbiter)
    path = tmp_path / "mem.json"
    state.save(str(path))
    loaded = MemoryState.load(str(path), near_dup_threshold=0.5, coverage_threshold=0.3)
    assert loaded.near_dup_threshold == 0.5
    assert loaded.coverage_threshold == 0.3


def test_logical_clock():
    clock = LogicalClock()
    assert clock.now() == EPOCH
    assert clock.tick() == EPOCH
    assert clock.now() == EPOCH + timedelta(seconds=1)
    custom = LogicalClock(start=EPOCH + timedelta(days=1), step_seconds=5)
    assert custom.tick() == EPOCH + timedelta(days=1)
    assert custom.now() == EPOCH + timedelta(days=1, seconds=5)


def _scan_invariants(state):
    actives = state.active_records()
    hashes = [r.content_hash for r in actives]
    assert len(set(hashes)) == len(hashes), "active content hashes must be unique"
    assert set(state.hash_index) == set(hashes)
    for digest, rid in state.hash_index.items():
        record = state.records[rid]
        assert record.status == "active"
        assert record.content_hash == digest
    for record in state.records.values():
        assert content_hash(record.content) == record.content_hash
        assert np.array_equal(record.embedding, embed(record.content))
        if record.status == "merged":
            assert record.merged_into in state.records
        else:
            assert record.status == "active"
        for source in record.merged_from:
            assert state.records[source].status == "merged"


@pytest.mark.parametrize("seed", [1, 7, 13, 29, 41])
def test_randomized_add_sequences_hold_invariants(seed):
    rng = random.Random(seed)
    base_tokens = [f"tok{i}" for i in range(24)]

    def random_content():
        # Low-entropy pool so exact and near duplicates both occur often.
        core = base_tokens[: rng.randint(16, 20)]
        if rng.random() < 0.35:
            core = core + [f"alt{rng.randint(0, 3)}"]
        if rng.random() < 0.2:
            rng.shuffle(core)
        return " ".join(core)

    def random_arbiter(content, record):
        roll = rng.random()
        if roll < 0.34:
            return ArbiterVerdict("skip")
        if roll < 0.67:
            return ArbiterVerdict("replace")
        if rng.random() < 0.5:
            return ArbiterVerdict("merge")
        return ArbiterVerdict("merge", merged_content=content + " merged")

    state = MemoryState()
    seen = set()
    for _ in range(120):
        kind = rng.choice(MEMORY_KINDS)
        result = state.add_knowledge(kind, random_content(), random_arbiter)
        seen.add(result.outcome)
        assert result.record_id in state.records
        _scan_invariants(state)
    assert AddOutcome.ADDED in seen
    assert AddOutcome.DUPLICATE in seen or AddOutcome.SKIPPED in seen


def test_identical_operation_sequences_are_deterministic():
    def build():
        state = MemoryState()
        state.add_knowledge("entity_fact", words("d", 20), skip_arbiter)
        state.add_knowledge("entity_fact", words("d", 19, "x9"), merge_arbiter)
        state.add_knowledge("research_fact", words("e", 12), skip_arbiter)
        state.add_knowledge("conversation_summary", "sum text", skip_arbiter)
        return state.to_snapshot()

    assert build() == build()
