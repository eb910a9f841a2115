"""Restores fork one kept base memory, and forks write only their own copies.

``MemoryState.from_snapshot`` keeps the last base it built with a private
copy of the snapshot content, and every call returns a fork of a base. These
tests check that a fork behaves as a memory of its own: on every unit of the
bench's ``long_memory`` workload, against an uncached restore; against edits
of the snapshot in place; and against writes to its origin.
"""

import collections
import dataclasses
import json
import sys
import threading
import weakref
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from foresight import harness
from foresight import memory as memory_module
from foresight.embedding import cosine, embed
from foresight.memory import AddOutcome, ArbiterVerdict, LogicalClock, MemoryRecord, MemoryState, content_hash

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def kept_base():
    return memory_module._last_base[2]


def verdict(action, merged_content=None):
    return lambda content, record: ArbiterVerdict(action, merged_content)


def test_every_long_memory_unit_forked_from_one_base_matches_an_uncached_restore(tmp_path):
    workload = workloads.LongMemory(workloads.LongMemory.default_seed, tmp_path)
    workload.setup()
    cfg = workload.cfg

    def restore():
        return MemoryState.from_snapshot(
            workload.snapshot,
            near_dup_threshold=cfg.near_dup_threshold,
            coverage_threshold=cfg.coverage_threshold,
            clock=LogicalClock(start=workload.clock_start),
        )

    def run(scenario, memory):
        outcome = harness.run_scenario(scenario, "directed_idle", cfg, memory=memory)
        return outcome.to_dict(), memory.to_snapshot()

    restore()
    base = kept_base()
    # The base searched its research facts: 5 have no support, and no fork
    # searches any again before it writes.
    assert not base._unchecked and len(base._weak) == 5
    forked = [run(scenario, restore()) for scenario in workload.scenarios]
    assert kept_base() is base
    assert base.to_snapshot() == workload.snapshot
    assert len(forked) == 45
    for scenario, (row, final) in zip(workload.scenarios, forked):
        memory_module._last_base = None
        assert run(scenario, restore()) == (row, final)
        assert kept_base() is not base
        assert final != workload.snapshot  # each unit wrote to its memory


def three_record_snapshot():
    state = MemoryState()
    state.add_knowledge("entity_fact", "a1 a2 a3 a4 a5 a6 a7 a8", verdict("skip"))
    state.add_knowledge("entity_fact", "a1 a2 a3 a4 a5 a6 a7 a8 a9", verdict("merge"))
    state.add_knowledge("research_fact", "zeta eta theta", verdict("skip"))
    state.profile["persona"] = "planner"
    snapshot = json.loads(json.dumps(state.to_snapshot()))
    assert [rd["status"] for rd in snapshot["records"]] == ["merged", "active", "active"]
    return snapshot


def test_an_edit_of_a_restored_snapshot_in_place_is_restored_next_time():
    snapshot = three_record_snapshot()
    first = MemoryState.from_snapshot(snapshot)
    assert first.to_snapshot() == snapshot
    base = kept_base()
    assert MemoryState.from_snapshot(snapshot).to_snapshot() == snapshot
    assert kept_base() is base

    # A record's content, with its hash.
    edited = snapshot["records"][2]
    text = "zeta eta iota kappa"
    edited.update(content=text, content_hash=content_hash(text))
    record = MemoryState.from_snapshot(snapshot).records[edited["id"]]
    assert record.content == text
    assert record.embedding.tobytes() == embed(text).tobytes()
    assert kept_base() is not base
    base = kept_base()

    # A list nested in a record.
    merged = snapshot["records"][1]
    merged["merged_from"].append("m000009")
    restored = MemoryState.from_snapshot(snapshot)
    assert restored.records[merged["id"]].merged_from == ("m000001", "m000009")
    assert kept_base() is not base
    base = kept_base()

    # The profile.
    snapshot["profile"]["persona"] = "traveller"
    assert MemoryState.from_snapshot(snapshot).profile == {"persona": "traveller"}
    assert kept_base() is not base

    # Each restore matches one from a fresh copy of the edited snapshot.
    assert first.to_snapshot() != snapshot
    assert MemoryState.from_snapshot(json.loads(json.dumps(snapshot))).to_snapshot() == snapshot


def test_other_thresholds_build_a_second_base():
    snapshot = three_record_snapshot()
    default = MemoryState.from_snapshot(snapshot)
    base = kept_base()
    strict = MemoryState.from_snapshot(snapshot, near_dup_threshold=0.5, coverage_threshold=0.5)
    second = kept_base()
    assert second is not base
    assert (second.near_dup_threshold, second.coverage_threshold) == (0.5, 0.5)
    assert (strict.near_dup_threshold, strict.coverage_threshold) == (0.5, 0.5)
    assert (default.near_dup_threshold, default.coverage_threshold) == (base.near_dup_threshold, base.coverage_threshold)
    MemoryState.from_snapshot(snapshot, near_dup_threshold=0.5, coverage_threshold=0.5)
    assert kept_base() is second


def test_a_hit_still_rejects_a_counter_that_is_not_an_integer():
    snapshot = three_record_snapshot()
    snapshot["counter"] = 1
    MemoryState.from_snapshot(snapshot)
    snapshot["counter"] = True  # equal to 1, and not an int
    with pytest.raises(ValueError, match="no integer 'counter'"):
        MemoryState.from_snapshot(snapshot)


class RecordList(list):
    pass


class Text(str):
    pass


@pytest.mark.parametrize(
    "alter, message",
    [
        (collections.OrderedDict, "snapshot is not an object"),
        (lambda snapshot: {**snapshot, "records": RecordList(snapshot["records"])}, "no 'records' list"),
        (
            lambda snapshot: {**snapshot, "profile": {"persona": Text("planner")}},
            "'profile' is not an object of strings",
        ),
    ],
    ids=["ordered_dict", "list_subclass", "str_subclass"],
)
def test_a_hit_raises_what_a_miss_raises(alter, message):
    snapshot = three_record_snapshot()
    MemoryState.from_snapshot(snapshot)
    base = kept_base()
    altered = alter(snapshot)
    assert altered == snapshot  # equal to the kept copy, and not plain
    with pytest.raises(ValueError, match=message) as on_hit:
        MemoryState.from_snapshot(altered)
    assert kept_base() is base
    memory_module._last_base = None
    with pytest.raises(ValueError, match=message) as on_miss:
        MemoryState.from_snapshot(altered)
    assert str(on_hit.value) == str(on_miss.value)


def writes(prefix):
    """As (kind, content, arbiter, outcome) steps: an add named by
    ``prefix``, its replace and its merge, then the shared memory's three
    in-place writes: a retire into an existing record (m000001 into
    m000002) and a replace (m000003)."""
    return [
        ("entity_fact", f"{prefix} one two three", verdict("skip"), AddOutcome.ADDED),
        ("entity_fact", f"{prefix} one two three four", verdict("replace"), AddOutcome.REPLACED),
        ("entity_fact", f"{prefix} one two three four five", verdict("merge"), AddOutcome.MERGED),
        ("entity_fact", "alpha beta gamma delta omega", verdict("merge", "zeta eta theta"), AddOutcome.MERGED),
        ("research_fact", "alpha beta gamma epsilon zeta", verdict("replace"), AddOutcome.REPLACED),
    ]


COMMON = [
    ("entity_fact", "alpha beta gamma delta", verdict("skip"), AddOutcome.ADDED),
    ("research_fact", "zeta eta theta", verdict("skip"), AddOutcome.ADDED),
    ("entity_fact", "alpha beta gamma epsilon", verdict("skip"), AddOutcome.ADDED),
    ("profile_attr", "lives in oslo near the fjord", verdict("skip"), AddOutcome.ADDED),
    ("entity_fact", "kappa lambda mu", verdict("skip"), AddOutcome.ADDED),
]
# A replace of m000004, a record the fork leaves alone.
ORIGIN_ONLY = [
    ("profile_attr", "lives in oslo near the fjord today", verdict("replace"), AddOutcome.REPLACED),
]


def apply(state, steps):
    for kind, content, arbiter, outcome in steps:
        assert state.add_knowledge(kind, content, arbiter).outcome is outcome
    return state


def test_a_fork_and_its_origin_each_write_their_own_copies():
    origin = apply(MemoryState(), COMMON)
    origin.profile["persona"] = "planner"
    fork = origin.fork()
    assert fork.to_snapshot() == origin.to_snapshot()
    assert all(fork.records[rid] is record for rid, record in origin.records.items())

    # The fork writes first, then its origin; each must end as if alone.
    apply(fork, writes("fork"))
    apply(origin, writes("origin") + ORIGIN_ONLY)
    fork.profile["persona"] = "traveller"

    for state, steps, persona in (
        (fork, writes("fork"), "traveller"),
        (origin, writes("origin") + ORIGIN_ONLY, "planner"),
    ):
        alone = apply(MemoryState(), COMMON + steps)
        alone.profile["persona"] = persona
        assert state.to_snapshot() == alone.to_snapshot()
        now = alone.clock.now()
        assert state.clock.now() == now
        assert state.detect_gaps(now, timedelta(0)) == alone.detect_gaps(now, timedelta(0))
    shared = [rid for rid, record in origin.records.items() if fork.records.get(rid) is record]
    assert shared == ["m000005"]


def test_threads_restoring_two_snapshots_at_once_each_get_a_memory_of_their_own():
    # Two snapshots in turn make threads swap the kept base while others
    # fork it; each fork then replaces a shared record and adds one.
    snapshots, expected = [], []
    for name in ("p", "q"):
        state = MemoryState()
        for i in range(6):
            state.add_knowledge("entity_fact", " ".join(f"{name}{i}w{j}" for j in range(9)), verdict("skip"))
        snapshots.append(json.loads(json.dumps(state.to_snapshot())))
        edit = apply(MemoryState.from_snapshot(snapshots[-1]), steps_of(name))
        expected.append(edit.to_snapshot())
    frozen = json.dumps(snapshots)
    failures = []

    def restore_and_write(worker):
        for i in range(40):
            which = (worker + i) % 2
            try:
                memory = apply(MemoryState.from_snapshot(snapshots[which]), steps_of("pq"[which]))
                if memory.to_snapshot() != expected[which]:
                    failures.append((worker, i))
            except Exception as exc:  # a thread's failure must fail the test
                failures.append((worker, i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=restore_and_write, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert json.dumps(snapshots) == frozen
    assert kept_base().to_snapshot() in snapshots


def steps_of(name):
    """A replace of the first record of ``name``'s snapshot, then an add."""
    return [
        ("entity_fact", " ".join(f"{name}0w{j}" for j in range(10)), verdict("replace"), AddOutcome.REPLACED),
        ("entity_fact", f"{name} fresh words", verdict("skip"), AddOutcome.ADDED),
    ]


def buffer(state):
    """The buffer that ``state``'s index matrix views."""
    return state._index._matrix.base


def same_as_alone(state, prefix):
    """Asserts that ``state``, restored from ``COMMON`` and given
    ``writes(prefix)``, reads as a memory that made all those writes alone."""
    alone = apply(MemoryState(), COMMON + writes(prefix))
    assert state.to_snapshot() == alone.to_snapshot()
    for query in (f"{prefix} one two three four", "alpha beta gamma", "first second"):
        assert [(r.id, score) for r, score in state.vector_search(query, k=9)] == [
            (r.id, score) for r, score in alone.vector_search(query, k=9)
        ]


def test_a_base_lends_a_released_copy_and_frees_a_second_idle_buffer():
    memory_module._last_base = None  # a fresh base: only its own matrix is idle
    origin = apply(MemoryState(), COMMON)
    snapshot = json.loads(json.dumps(origin.to_snapshot()))

    def restore():
        return MemoryState.from_snapshot(snapshot, clock=LogicalClock(start=origin.clock.now()))

    first = restore()
    base = kept_base()
    matrix, n, idle = base._index._matrix, len(base._index._keys), base._index._idle
    filled = matrix[:, :n].copy()
    assert buffer(first) is matrix and idle == []

    # While the first fork holds the base's own matrix, the next one copies it.
    second = restore()
    copied = weakref.ref(buffer(second))
    assert not np.shares_memory(second._index._matrix, matrix)
    apply(first, writes("first"))
    apply(second, writes("second"))
    same_as_alone(first, "first")
    same_as_alone(second, "second")

    # Once the borrower is gone, its buffer passes to the next fork, which
    # fills the same spare columns; the filled ones never change.
    del first
    assert [b is matrix for b in idle] == [True]
    third = restore()
    assert buffer(third) is matrix and idle == []
    apply(third, writes("third"))
    same_as_alone(third, "third")

    # A released copy is lent to the next fork in the same way.
    del second
    assert [b is copied() for b in idle] == [True]
    fourth = restore()
    assert buffer(fourth) is copied() and idle == []
    apply(fourth, writes("fourth"))
    same_as_alone(fourth, "fourth")

    # With both buffers held, a fifth fork copies again. Its copy is idle
    # once it is gone, so the copy given back next is freed.
    fifth = restore()
    extra = weakref.ref(buffer(fifth))
    assert extra() is not matrix and extra() is not copied()
    del fifth
    assert [b is extra() for b in idle] == [True]
    del fourth
    assert copied() is None
    assert [b is extra() for b in idle] == [True]
    # The base's own matrix goes back in place of the idle copy, which is
    # freed: the base keeps its matrix anyway.
    del third
    assert extra() is None
    assert [b is matrix for b in idle] == [True]
    assert matrix[:, :n].tobytes() == filled.tobytes()
    assert base.to_snapshot() == snapshot


def test_units_that_each_restore_while_the_last_is_alive_share_two_buffers():
    # As the bench's long_memory runs: a unit's memory lives until the next
    # unit's restore has returned and that unit has run.
    memory_module._last_base = None  # a fresh base: only its own matrix is idle
    origin = apply(MemoryState(), COMMON)
    snapshot = json.loads(json.dumps(origin.to_snapshot()))

    def restore():
        return MemoryState.from_snapshot(snapshot, clock=LogicalClock(start=origin.clock.now()))

    previous = None
    for unit in range(10):
        prefix = f"unit{unit}"
        memory = apply(restore(), writes(prefix))
        if previous is None:
            base = kept_base()
            own = base._index._matrix
            buffers = {id(own): own}
        assert kept_base() is base
        buffers.setdefault(id(buffer(memory)), buffer(memory))
        assert len(base._index._idle) <= 1
        # The same restore and writes with no base kept.
        slot, memory_module._last_base = memory_module._last_base, None
        uncached = apply(restore(), writes(prefix))
        assert kept_base() is not base
        memory_module._last_base = slot
        assert memory.to_snapshot() == uncached.to_snapshot()
        for query in (f"{prefix} one two three four", "alpha beta gamma", "kappa lambda mu"):
            assert [(r.id, score) for r, score in memory.vector_search(query, k=9)] == [
                (r.id, score) for r, score in uncached.vector_search(query, k=9)
            ]
        previous = memory
    # The base's own matrix and one copy of it; once every unit is gone,
    # the own matrix alone is idle.
    assert len(buffers) == 2
    del memory, previous
    assert [b is own for b in base._index._idle] == [True]


def test_no_record_is_written_after_it_is_stored(monkeypatch, tmp_path):
    # A frozen stand-in for MemoryRecord raises on any write of a stored
    # record's field, so a write would fail a unit or a step below.
    frozen = dataclasses.make_dataclass(
        "MemoryRecord",
        [
            (f.name, f.type, dataclasses.field(
                default=f.default, default_factory=f.default_factory, repr=f.repr, compare=f.compare,
            ))
            for f in dataclasses.fields(MemoryRecord)
        ],
        frozen=True,
        slots=True,
    )
    monkeypatch.setattr(memory_module, "MemoryRecord", frozen)
    monkeypatch.setattr(memory_module, "_last_base", None)

    workload = workloads.LongMemory(workloads.LongMemory.default_seed, tmp_path)
    workload.setup()
    rounds = [workload.round() for _ in range(2)]
    assert [result.failed for result in rounds] == [0, 0]
    assert rounds[0].rows == rounds[1].rows
    assert all(type(record) is frozen for record in kept_base().records.values())

    test_a_fork_and_its_origin_each_write_their_own_copies()
    test_a_base_lends_a_released_copy_and_frees_a_second_idle_buffer()
    test_units_that_each_restore_while_the_last_is_alive_share_two_buffers()


# -- the base's memoised answers -------------------------------------------------

# Record 0 is the one the forks rewrite; the others score 4/5, 3/5, 2/5 and
# less with it, so each threshold below splits them differently.
BASE_TEXTS = [
    "alpha beta gamma delta epsilon",
    "alpha beta gamma delta zeta",
    "alpha beta gamma eta theta",
    "alpha beta iota kappa lambda",
    "alpha mu nu xi omicron",
    "pi rho sigma tau upsilon",
    "phi chi psi omega vega",
]
QUERIES = [BASE_TEXTS[0], "alpha beta gamma", "pi rho sigma tau", "!!!"]
THRESHOLDS = (0.0, 0.3, 0.8, 0.88)
# Near record 0 (5 of its 6 tokens are record 0's), and no other.
REWRITE = "alpha beta gamma delta epsilon omega"


def memoised_snapshot():
    state = MemoryState()
    for text in BASE_TEXTS:
        assert state.add_knowledge("entity_fact", text, verdict("skip")).outcome is AddOutcome.ADDED
    return json.loads(json.dumps(state.to_snapshot()))


def brute_force(state, query, threshold, k):
    qvec = embed(query)
    scored = [(r.id, cosine(qvec, r.embedding)) for r in state.active_records()]
    return sorted([hit for hit in scored if hit[1] >= threshold], key=lambda hit: (-hit[1], hit[0]))[:k]


def assert_exact(state, queries=QUERIES):
    for query in queries:
        for threshold in THRESHOLDS:
            for k in (1, 2, len(state._index)):
                got = [(r.id, score) for r, score in state.vector_search(query, k=k, threshold=threshold)]
                assert got == brute_force(state, query, threshold, k), (query, threshold, k)


@pytest.mark.parametrize("action", ["replace", "merge"])
def test_a_fork_that_rewrote_a_base_row_first_leaves_it_to_the_next_fork(action):
    memory_module._last_base = None  # a fresh base with an empty memo
    snapshot = memoised_snapshot()
    first, second = MemoryState.from_snapshot(snapshot), MemoryState.from_snapshot(snapshot)
    memo = kept_base()._index._memo
    assert first._index._memo is second._index._memo is memo

    rid = first.vector_search(BASE_TEXTS[0], k=1)[0][0].id
    assert first.add_knowledge("entity_fact", REWRITE, verdict(action)).outcome.value == action + "d"
    # The fork that dropped the base row searches every query first, and
    # fills the memo; the other fork reads those entries and still finds it.
    assert_exact(first)
    assert (rid, 1.0) not in [(r.id, score) for r, score in first.vector_search(BASE_TEXTS[0], 9, 0.88)]
    # The rewrite's near-duplicate search, and each query with tokens at
    # each threshold above 0.
    assert len(memo._entries) == 1 + 3 * 3
    assert_exact(second)
    assert [(r.id, score) for r, score in second.vector_search(BASE_TEXTS[0], 1, 0.88)] == [(rid, 1.0)]


@pytest.mark.parametrize("action", ["replace", "merge"])
def test_a_fork_grown_past_its_spare_columns_scans_its_own_matrix(action):
    memory_module._last_base = None
    snapshot = memoised_snapshot()
    MemoryState.from_snapshot(snapshot).vector_search(BASE_TEXTS[1], k=1, threshold=0.3)  # memoised
    fork = MemoryState.from_snapshot(snapshot)
    lent = fork._index._matrix
    # Rewriting record 0 first moves its key behind every other base key, so
    # the grown matrix holds the base's rows in other columns.
    fork.add_knowledge("entity_fact", REWRITE, verdict(action))
    for i in range(lent.shape[1]):
        fork.add_knowledge("entity_fact", f"grow{i} words{i} here{i}", verdict("skip"))
    assert fork._index._matrix.base is not lent.base
    assert fork._index._memo is None
    assert_exact(fork, QUERIES + [BASE_TEXTS[1], "grow3 words3 here3"])


def memo_key(query, threshold):
    vec = embed(query)
    buckets = vec.nonzero()[0]
    return buckets.tobytes(), vec[buckets].tobytes(), threshold


def test_the_memo_keeps_at_most_its_cap_and_stays_exact(monkeypatch):
    monkeypatch.setattr(memory_module, "BASE_MEMO_SIZE", 3)
    memory_module._last_base = None
    snapshot = memoised_snapshot()
    fork = MemoryState.from_snapshot(snapshot)
    fork.add_knowledge("entity_fact", REWRITE, verdict("replace"))
    entries = kept_base()._index._memo._entries
    for query in BASE_TEXTS:
        fork.vector_search(query, k=2, threshold=0.3)
        assert len(entries) <= 3
    # The oldest went first: the last three queries are kept.
    assert list(entries) == [memo_key(query, 0.3) for query in BASE_TEXTS[-3:]]
    # Answers read again after their entries were evicted are still exact.
    assert_exact(fork, QUERIES + BASE_TEXTS)
    assert_exact(MemoryState.from_snapshot(snapshot), QUERIES + BASE_TEXTS)
    assert len(entries) == 3


def test_the_memo_is_freed_with_its_base():
    memory_module._last_base = None
    snapshot = memoised_snapshot()
    fork = MemoryState.from_snapshot(snapshot)
    fork.vector_search(BASE_TEXTS[0], k=1, threshold=0.3)
    base = kept_base()
    memos = [weakref.ref(base._index._memo), weakref.ref(base._topics._memo)]
    del base

    # Another snapshot takes the slot; the fork still holds the memo it reads.
    other = three_record_snapshot()
    MemoryState.from_snapshot(other)
    assert kept_base().to_snapshot() == other
    assert [memo() is not None for memo in memos] == [True, True]
    assert_exact(fork)
    del fork
    assert [memo() for memo in memos] == [None, None]


def test_forks_in_threads_share_one_memo_that_keeps_its_cap(monkeypatch):
    # More threads than cores, each with forks of one base, read a memo
    # too small for their queries, so entries are added and evicted at once.
    monkeypatch.setattr(memory_module, "BASE_MEMO_SIZE", 4)
    memory_module._last_base = None
    snapshot = memoised_snapshot()
    queries = BASE_TEXTS + ["alpha beta", "alpha gamma eta", "pi rho sigma", "beta gamma delta"]
    MemoryState.from_snapshot(snapshot)
    entries = kept_base()._index._memo._entries
    failures = []

    def search(worker):
        for i in range(300):
            fork = MemoryState.from_snapshot(snapshot)
            if (worker + i) % 2:
                fork.add_knowledge("entity_fact", REWRITE, verdict("replace"))
            for query in queries[i % 3 :: 2]:
                threshold = THRESHOLDS[1 + (worker + i) % 3]
                try:
                    got = [(r.id, score) for r, score in fork.vector_search(query, 9, threshold)]
                    if got != brute_force(fork, query, threshold, 9) or len(entries) > 4:
                        failures.append((worker, i, query))
                except Exception as exc:  # a thread's failure must fail the test
                    failures.append((worker, i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(entries) == 4
