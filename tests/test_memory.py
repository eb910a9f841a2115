import json
import random
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foresight import memory as memory_module
from foresight.embedding import cosine, embed
from foresight.memory import (
    MEMORY_KINDS,
    SMALL_INDEX_ROWS,
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
    # The replaced record was built by a merge, so every field it keeps
    # through a replace differs from a fresh record's default.
    a, b = _near_pair()
    c = words("w", 20, "x0")
    state = MemoryState()
    first = state.add_knowledge("entity_fact", a, no_arbiter)
    built = state.add_knowledge("entity_fact", b, merge_arbiter)
    assert built.outcome is AddOutcome.MERGED
    old = state.records[built.record_id]
    assert old.merged_from == (first.record_id,)
    old_id, old_hash, old_created, old_updated = old.id, old.content_hash, old.created_at, old.updated_at
    result = state.add_knowledge("entity_fact", c, replace_arbiter)
    assert result.outcome is AddOutcome.REPLACED
    assert result.record_id == old_id
    assert len(state.records) == 2
    rec = state.records[old_id]
    assert rec.content == c
    assert rec.content_hash == content_hash(c)
    assert np.array_equal(rec.embedding, embed(c))
    assert rec.merged_from == (first.record_id,)
    assert rec.created_at == old_created
    assert rec.status == "active"
    assert rec.merged_into is None
    assert rec.updated_at > old_updated
    assert old_hash not in state.hash_index
    assert state.hash_index[rec.content_hash] == rec.id
    assert [r.id for r in state.active_records()] == [rec.id]


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
    assert state.to_snapshot().keys() == {"records", "profile", "counter"}
    assert state.to_snapshot()["counter"] == 3
    loaded = MemoryState.load(str(path))
    assert loaded.to_snapshot() == state.to_snapshot()
    assert loaded.hash_index == state.hash_index
    assert loaded.profile == state.profile
    # id allocation continues past the restored records
    fresh = loaded.add_knowledge("entity_fact", words("new", 4), no_arbiter)
    assert fresh.record_id not in state.records


def test_snapshot_round_trip_restores_every_field():
    state = MemoryState()
    for i in range(6):
        state.add_knowledge("entity_fact", words(f"e{i}x", 6), no_arbiter)
    state.add_knowledge("research_fact", words("r", 10), no_arbiter)
    state.add_knowledge("research_fact", words("r", 10, "more"), replace_arbiter)
    state.add_knowledge("research_fact", words("q", 10), no_arbiter)
    state.add_knowledge("research_fact", words("q", 10, "extra"), merge_arbiter)
    state.profile["name"] = "Ada"
    snapshot = state.to_snapshot()
    # Ids without the ``m`` prefix are kept as they are and leave the counter alone.
    snapshot["records"].insert(
        0,
        {
            "id": "legacy999999",
            "kind": "artifact",
            "content": "legacy topic\nbody",
            "content_hash": content_hash("legacy topic\nbody"),
            "created_at": (EPOCH + timedelta(days=2)).isoformat(),
            "updated_at": (EPOCH + timedelta(days=3)).isoformat(),
            "status": "active",
            "merged_into": None,
            "merged_from": [],
        },
    )
    records = state.records
    assert any(r.updated_at != r.created_at and r.status == "active" for r in records.values())
    assert any(r.merged_from for r in records.values()) and any(r.merged_into for r in records.values())

    restored = MemoryState.from_snapshot(snapshot)
    assert restored.to_snapshot() == snapshot
    assert restored._counter == state._counter
    assert restored.profile == state.profile
    assert restored.records.keys() == records.keys() | {"legacy999999"}
    for rid, record in records.items():
        assert restored.records[rid] == record
        assert restored.records[rid].embedding.tobytes() == record.embedding.tobytes()
    legacy = restored.records["legacy999999"]
    assert (legacy.created_at, legacy.updated_at) == (EPOCH + timedelta(days=2), EPOCH + timedelta(days=3))
    # Both of its vectors come from its content.
    assert legacy.embedding.tobytes() == embed(legacy.content).tobytes()
    topics = restored.artifact_topics()
    assert topics.search("legacy topic", 0.99, k=len(topics)) == [("legacy999999", 1.0)]
    assert restored.hash_index == {**state.hash_index, legacy.content_hash: "legacy999999"}
    assert restored.add_knowledge("entity_fact", "fresh text", no_arbiter).record_id == f"m{state._counter + 1:06d}"


def set_field(field, value):
    def mutate(snapshot):
        snapshot["records"][0][field] = value

    return mutate


def drop_field(key):
    def mutate(snapshot):
        del snapshot["records"][0][key]

    return mutate


class Replaced:
    """A case that restores ``value`` in place of the whole snapshot."""

    def __init__(self, value):
        self.value = value


# Values that older snapshots stored under ``embedding`` and ``topic``, by
# case id: the ``{buckets, counts}`` form, then hex of little-endian
# ``(uint16 bucket, uint32 count)`` pairs, well formed or not. A snapshot
# holds content and nothing else, so each is an unknown field.
LEGACY_VECTORS = {
    "old-form": {"buckets": [3, 7], "counts": [1, 2]},
    "torn-pair": "0300010000",
    "bucket": "030001000000000101000000",
    "zero-count": "030001000000070000000000",
    "descending": "070001000000030001000000",
    "repeated-bucket": "030001000000030002000000",
    "whitespace": "030001000000" + " " * 12,
    "not-hex": "zz" * 6,
}


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(Replaced([]), "snapshot is not an object", id="list-snapshot"),
        pytest.param(Replaced("x"), "snapshot is not an object", id="text-snapshot"),
        pytest.param(Replaced(None), "snapshot is not an object", id="null-snapshot"),
        pytest.param(lambda snapshot: snapshot.pop("records"), "no 'records' list", id="no-records"),
        pytest.param(lambda snapshot: snapshot.update(records={}), "no 'records' list", id="records-not-list"),
        pytest.param(
            lambda snapshot: snapshot["records"].append(["m000004"]), "record is not an object", id="record-not-object"
        ),
        pytest.param(lambda snapshot: snapshot.pop("counter"), "no integer 'counter'", id="no-counter"),
        pytest.param(lambda snapshot: snapshot.update(counter="2"), "no integer 'counter'", id="text-counter"),
        pytest.param(
            lambda snapshot: snapshot.update(profile=["persona"]),
            "'profile' is not an object of strings",
            id="profile-not-object",
        ),
        pytest.param(
            lambda snapshot: snapshot.update(profile={"age": 3}),
            "'profile' is not an object of strings",
            id="profile-not-strings",
        ),
        pytest.param(drop_field("merged_from"), "no 'merged_from' field", id="missing-field"),
        pytest.param(
            lambda snapshot: snapshot["records"][1].update(topic="030001000000"),
            "record 'm000002' has unknown field 'topic'",
            id="entity-fact-with-topic",
        ),
        pytest.param(set_field("note", "kept by hand"), "record 'm000001' has unknown field 'note'", id="note"),
        pytest.param(
            set_field("created_at", "yesterday"),
            "record 'm000001' created_at is not an ISO 8601 time with a UTC offset: 'yesterday'",
            id="created_at-not-iso",
        ),
        pytest.param(
            set_field("updated_at", "2026-01-01T00:00:00"),
            "record 'm000001' updated_at is not an ISO 8601 time with a UTC offset: '2026-01-01T00:00:00'",
            id="updated_at-naive",
        ),
        pytest.param(
            lambda snapshot: snapshot["records"][1].update(kind="bogus"), "unknown kind 'bogus'", id="bogus-kind"
        ),
        pytest.param(
            lambda snapshot: snapshot["records"][1].update(status="deleted"),
            "unknown status 'deleted'",
            id="bogus-status",
        ),
        pytest.param(
            lambda snapshot: snapshot["records"][2].update(id=snapshot["records"][1]["id"]),
            "holds a record id twice",
            id="repeated-id",
        ),
        pytest.param(
            lambda snapshot: snapshot["records"][2].update(content_hash=snapshot["records"][1]["content_hash"]),
            "holds one content_hash on two active records",
            id="repeated-hash",
        ),
        pytest.param(
            lambda snapshot: snapshot["records"][2].update(content_hash=content_hash("tampered")),
            "record 'm000003' has a content_hash that is not its content's",
            id="tampered-hash",
        ),
        pytest.param(
            lambda snapshot: snapshot["records"][2].update(content=["b0 b1"]),
            "record 'm000003' has a content_hash that is not its content's",
            id="content-not-text",
        ),
    ]
    + [
        pytest.param(
            set_field(field, value),
            re.escape(f"snapshot record {name} is not {expected}: {bad!r}"),
            id=f"{field}-{type(value).__name__}",
        )
        for field, value, name, expected, bad in (
            ("id", 2, "id", "a string", 2),
            ("content_hash", [1], "content_hash", "a string", [1]),
            ("created_at", 7, "created_at", "a string", 7),
            ("updated_at", 7, "updated_at", "a string", 7),
            ("merged_into", 7, "merged_into", "a string or null", 7),
            ("merged_from", 7, "merged_from", "a list", 7),
            ("merged_from", "m000009", "merged_from", "a list", "m000009"),
            ("merged_from", ["m000009", 7], "merged_from entry", "a string", 7),
        )
    ]
    + [
        pytest.param(set_field(field, value), f"record 'm000001' has unknown field '{field}'", id=prefix + case_id)
        for field, prefix in (("embedding", ""), ("topic", "topic-"))
        for case_id, value in LEGACY_VECTORS.items()
    ],
)
def test_from_snapshot_rejects_malformed_snapshots(mutate, message):
    state = MemoryState()
    state.add_knowledge("artifact", words("t", 3) + "\n" + words("body", 5), no_arbiter)
    state.add_knowledge("entity_fact", words("a", 5), no_arbiter)
    state.add_knowledge("entity_fact", words("b", 5), no_arbiter)
    snapshot = json.loads(json.dumps(state.to_snapshot()))
    assert snapshot["records"][0]["kind"] == "artifact"
    assert MemoryState.from_snapshot(snapshot).to_snapshot() == snapshot
    if isinstance(mutate, Replaced):
        snapshot = mutate.value
    else:
        mutate(snapshot)
    # First with the base of the unmutated snapshot kept, which a case that
    # only adds a key leaves the content of, so that restore hits it; then
    # with no base kept, so every restore misses.
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            MemoryState.from_snapshot(snapshot)
        memory_module._last_base = None


def test_from_snapshot_checks_the_hash_of_retired_records_too():
    state = MemoryState()
    state.add_knowledge("entity_fact", words("a", 8), no_arbiter)
    state.add_knowledge("entity_fact", words("a", 8, "more"), merge_arbiter)
    snapshot = json.loads(json.dumps(state.to_snapshot()))
    retired = snapshot["records"][0]
    assert retired["status"] == "merged"
    assert MemoryState.from_snapshot(snapshot).to_snapshot() == snapshot
    retired["content"] = words("a", 7)  # its stored hash is of the old text
    with pytest.raises(ValueError, match="record 'm000001' has a content_hash that is not its content's"):
        MemoryState.from_snapshot(snapshot)


def test_new_ids_skip_ids_a_low_counter_would_reuse():
    state = MemoryState()
    for i in range(3):
        state.add_knowledge("entity_fact", words(f"k{i}x", 5), no_arbiter)
    snapshot = state.to_snapshot()
    snapshot["counter"] = 1  # hand-edited: m000002 and m000003 exist
    restored = MemoryState.from_snapshot(snapshot)
    first = restored.add_knowledge("entity_fact", "fresh text", no_arbiter)
    second = restored.add_knowledge("entity_fact", "other fresh text here", no_arbiter)
    assert (first.record_id, second.record_id) == ("m000004", "m000005")
    for rid in ("m000002", "m000003"):
        assert restored.records[rid] == state.records[rid]
    assert len(restored.records) == 5


# 70,000 of one token: a count past the range of uint16.
MANY_OF_ONE = " ".join(["many"] * 70_000)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), many_active=st.booleans(), coverage=st.sampled_from((0.0, 0.5, 0.8)))
def test_snapshot_round_trips_through_json_text(data, many_active, coverage):
    # Both sides of SMALL_INDEX_ROWS active records: the original memory
    # searches its index matrix only above it, and the restored one, whose
    # embeddings view the matrix columns, at every size.
    if many_active:
        n_active = data.draw(st.integers(SMALL_INDEX_ROWS + 1, 3 * SMALL_INDEX_ROWS), label="n_active")
    else:
        n_active = data.draw(st.integers(0, SMALL_INDEX_ROWS), label="n_active")
    n_retired = data.draw(st.integers(max(1, 2 - n_active), 4), label="n_retired")
    vocab = [f"v{i}" for i in range(10)]
    text = st.lists(st.sampled_from(vocab), min_size=1, max_size=6).map(" ".join)
    others = [f"c{i} {data.draw(text, label='content')}" for i in range(n_active + n_retired - 2)]
    contents = data.draw(st.permutations(["!!!", MANY_OF_ONE] + others), label="order")
    # No near-duplicate checks, so every content is a record of its own.
    kwargs = {"near_dup_threshold": 1.01, "coverage_threshold": coverage}
    state = MemoryState(**kwargs)
    for content in contents:
        kind = data.draw(st.sampled_from(MEMORY_KINDS), label="kind")
        state.add_knowledge(kind, content, no_arbiter)
    for rid in data.draw(st.permutations(sorted(state.records)), label="retired")[:n_retired]:
        state._retire(state.records[rid], into=None)
    assert len(state.active_records()) == n_active

    snapshot = state.to_snapshot()
    text_form = json.dumps(snapshot, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    loaded = MemoryState.from_snapshot(json.loads(text_form), clock=state.clock, **kwargs)

    assert loaded._index._matrix is not None
    assert loaded.to_snapshot() == snapshot
    assert loaded.records == state.records
    for record in loaded.records.values():
        assert record.embedding.tobytes() == embed(record.content).tobytes()
    queries = ["!!!", "many", "many v1", "c0 v2 v3"] + data.draw(st.lists(text, min_size=1, max_size=3), label="queries")
    everything = len(state.records) + 1
    for query in queries:
        for k, threshold in ((everything, 0.0), (2, coverage)):
            assert [(r.id, s) for r, s in loaded.vector_search(query, k, threshold)] == [
                (r.id, s) for r, s in state.vector_search(query, k, threshold)
            ]
    assert loaded.coverage_check(queries[0], tuple(queries[1:])) == state.coverage_check(
        queries[0], tuple(queries[1:])
    )
    staleness = timedelta(seconds=data.draw(st.integers(0, len(contents) + n_retired), label="staleness"))
    now = state.clock.now()
    assert loaded.detect_gaps(now, staleness) == state.detect_gaps(now, staleness)


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
