"""Memory layer: deduplicated knowledge store with similarity recall.

Writes funnel through ``add_knowledge``, which applies a two-stage dedup:
an exact SHA-256 content hash check, then a nearest-neighbor similarity
check at a configurable threshold. Near-duplicates are arbitrated by a
pluggable backend into skip, replace, or merge. All mutations are atomic
with respect to arbitration failures: if the arbiter raises or returns an
unknown action, the store is left untouched.

Every similarity read (``vector_search``, ``coverage_check``, the
weak-support search in ``detect_gaps``, and the artifact topics read by
``prediction.filter_candidates``) is one ``SimilarityIndex.search``. The
index keeps every active record's token counts as one column of a
bucket-major float64 matrix, so a query's dot products with all of them are
one matrix-vector product over the query's nonzero buckets. Embeddings are
integer token counts, so the index computes the same exact score as
``cosine``, bit for bit: its answer is final, and reads return exactly what
a loop of ``cosine`` calls over every active record would.

The index writes each column once and never again, even when it grows into
a new matrix. That is what lets ``load`` / ``from_snapshot`` share it. They
return a ``fork`` of a base memory whose records and filled columns are
never written, and they keep the last base, so a batch of units that start
from one snapshot embeds it, checks it and searches its research facts
once. In a base, every record's content, active or retired, is embedded
straight into one index matrix, and each record's embedding is a read-only
view of its column, shared by every fork. The index drops the retired
records' rows as it drops any removed row. The base builds its artifact
topics index from the active artifacts' topics.

A fork copies the dicts, lists, sets, stamp heap and both index matrices of
its origin and shares the records. A fork of a base borrows an idle buffer
from each of the base's index free lists instead: the base's own matrix,
or a copy of it that an earlier fork made and gave back. It copies the
base's matrix only when no buffer is idle. A copy given back while another
buffer is idle is freed, and the base's own matrix, given back, takes the
place of an idle copy, so a base keeps at most one idle buffer, and a copy
only while its own matrix is lent. When each unit's memory lives until the
next unit's restore, two buffers take turns. No record is written after it
is stored, so a fork and its origin share every record safely: a replace,
a retire and a merge into an existing record each store a new record under
the same id.

A base's answers are memoised: each base index keeps, per query and
threshold, every one of its rows that qualifies, computed once and shared
by its forks. A fork's search with a threshold above 0 keeps the rows of
that answer it still holds and scores only the rows it wrote itself.

``detect_gaps`` scans no records. Each write keeps its three gap sources up
to date: the ids of active records whose content holds ``TBD``, a min-heap
of ``(updated_at, id)`` stamps, and, for each research fact not built by a
merge, an active record that supports it (its witness) or none. A write
marks a fact for a new search when the fact itself or its witness changes,
and tests its new vector only against the facts that are weak right now.

A snapshot holds each record's content and the fields around it, and
nothing else: no vector, since a restore embeds the content, and no key
outside ``_RECORD_KEYS``.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import itertools
import json
import logging
import operator
import threading
import weakref
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Optional

import numpy as np

from foresight.config import RunConfig
from foresight.embedding import DEFAULT_DIM, cosine, embed

logger = logging.getLogger(__name__)

MEMORY_KINDS = ("profile_attr", "entity_fact", "conversation_summary", "research_fact", "artifact")

# Up to this many records, scoring every one with ``cosine`` costs about as
# much as the index's fixed NumPy work per query, and leaving the matrix
# unbuilt saves its upkeep on every add.
SMALL_INDEX_ROWS = 4

# The fewest spare columns an index matrix gets. An eighth of a small index
# is no room at all, so without this floor a memory growing from empty would
# rebuild its matrix on nearly every add; from 64 rows on, the eighth rules.
MIN_SPARE_COLUMNS = 8

# The most queries a lending base memoises per index; past it the oldest
# entry goes first. A round of the bench's ``long_memory`` asks its base's
# main index 228-240 distinct queries (seeds 1-3) and its artifact topics
# index 116-121, the same ones every round, and an entry holds one hit or
# none, about 0.5 KB. Oldest-first eviction with fewer entries than a
# round's queries would drop each one before the next round reads it, so
# the cap is about twice the larger count: at most 0.25 MB per index.
BASE_MEMO_SIZE = 512

# A stored record's fields, in ``MemoryRecord`` order without the
# embedding; every one is required, and no other is allowed.
_RECORD_KEYS = (
    "id", "kind", "content", "content_hash",
    "created_at", "updated_at", "status", "merged_into", "merged_from",
)
_RECORD_FIELDS = operator.itemgetter(*_RECORD_KEYS)

# The fields whose type no other restore check settles, the types each may
# hold and their name in an error. An unknown ``kind`` or ``status`` is
# rejected by value, and a ``content`` that is not text fails its hash check.
_FIELD_TYPES = {
    "id": ({str}, "a string"),
    "content_hash": ({str}, "a string"),
    "created_at": ({str}, "a string"),
    "updated_at": ({str}, "a string"),
    "merged_into": ({str, type(None)}, "a string or null"),
    "merged_from": ({list}, "a list"),
    "merged_from entry": ({str}, "a string"),
}


class ArbitrationError(RuntimeError):
    """Arbiter backend failed or returned an out-of-vocabulary action."""


class AddOutcome(str, Enum):
    ADDED = "added"
    DUPLICATE = "duplicate"
    SKIPPED = "skipped"
    REPLACED = "replaced"
    MERGED = "merged"


def content_hash(content: str) -> str:
    """Lowercase hex SHA-256 of the UTF-8 content."""
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class MemoryRecord:
    id: str
    kind: str
    content: str
    content_hash: str
    embedding: np.ndarray = field(compare=False, repr=False)
    created_at: datetime = field(default_factory=lambda: datetime(2026, 1, 1, tzinfo=timezone.utc))
    updated_at: datetime = field(default_factory=lambda: datetime(2026, 1, 1, tzinfo=timezone.utc))
    status: str = "active"  # active | merged
    merged_into: Optional[str] = None
    merged_from: tuple[str, ...] = ()


@dataclass(frozen=True)
class ArbiterVerdict:
    """Arbitration result: action in {skip, replace, merge}; merge carries content."""

    action: str
    merged_content: Optional[str] = None


# Arbiter backends receive the incoming content and the conflicting record.
Arbiter = Callable[[str, MemoryRecord], ArbiterVerdict]


@dataclass(frozen=True)
class AddResult:
    outcome: AddOutcome
    record_id: Optional[str]


@dataclass(frozen=True)
class GapCandidate:
    topic: str
    reason: str  # stale | incomplete | weakly_supported | missing
    related_record_ids: tuple[str, ...]


@dataclass(frozen=True)
class CoverageReport:
    level: str  # high | partial | low
    missing_subtopics: tuple[str, ...]
    supporting_record_ids: tuple[str, ...]


def artifact_topic(record: MemoryRecord) -> str:
    """The topic of an artifact record: the first line of its content."""
    return record.content.split("\n", 1)[0]


def _embedding_of(record: MemoryRecord) -> np.ndarray:
    return record.embedding


def _topic_embedding_of(record: MemoryRecord) -> np.ndarray:
    return embed(artifact_topic(record))


class SimilarityIndex:
    """Exact cosine search over the records of a store.

    Keys are record ids; ``vector_of(record)`` gives a key's token counts.
    Once built, the index is one float64 matrix of shape
    ``(DEFAULT_DIM, capacity)`` with one row's vector per column, plus each
    row's squared norm. A query is scored from its nonzero buckets only: its
    dot products with every row are one product of those buckets' counts
    with the same rows of the matrix, and its squared norm is the sum of
    those counts' squares. Every sum is of integers below 2**53, exact in
    any order, so each score is ``cosine``'s exact value.

    Columns are written once:

    - ``add`` fills a column that was never used;
    - ``remove`` drops the key and sets its row's squared norm to NaN, so
      the row scores NaN and never qualifies, and leaves the column as it is;
    - when the columns run out, the live rows' vectors are written into a
      new matrix with room for more (``_with_room``), and the old matrix is
      never written again.

    So a read-only view of a column keeps its values for as long as it
    lives: ``MemoryState.from_snapshot`` fills a base's matrix itself and
    hands each restored record a view of its column as its embedding.

    A ``fork`` of the index gets a copy of the matrix with room of its own,
    unless the index adds no more rows and lends whole buffers (``_lend``):
    then the fork takes an idle buffer from its free list, which starts
    with the index's own matrix, or else a copy of that matrix that joins
    the list once its fork is done with it. A buffer's first ``n`` columns
    hold this index's rows and are never written; a borrower fills the
    columns past them as ``add`` fills any unused column. It gives the
    buffer back when it lets go of its view, by dying or by growing into a
    new matrix (``_give_back``): a copy goes back on the list only if no
    other buffer is idle, or else is freed, and the own matrix goes back in
    place of an idle copy. So at most one buffer is idle, and since nothing
    views a spare column, nothing reads what one borrower wrote before the
    next fills it again.

    A lending index memoises its answers for its forks (``_BaseMemo``),
    since its rows never change. A fork, and a fork of a fork, keeps that
    memo while its first columns are the base's. Its search with a
    threshold above 0 then takes the base's qualifying rows from the memo,
    drops those it has removed, and scores only its own rows, past the
    base's. Growing into a new matrix drops the memo, since the live rows
    then move to other columns. The base's own searches, searches at
    threshold 0 and every other index score every row.

    The matrix is built by the first query that finds more than
    ``SMALL_INDEX_ROWS`` keys, or by ``from_snapshot`` whatever the number
    of keys, and kept up to date from then on. Until then each
    query scores every key with ``cosine``, handing it the query's squared
    norm, computed once per search, and the row's, computed by the first
    search after its ``add`` and kept for as long as the row lives. Either
    way a score is the same exact value.
    """

    __slots__ = ("_records", "_vector_of", "_row", "_keys", "_matrix", "_sq", "_idle", "_memo")

    def __init__(self, records: dict[str, MemoryRecord], vector_of: Callable[[MemoryRecord], np.ndarray]) -> None:
        self._records = records
        self._vector_of = vector_of
        self._keys: list[str] = []  # row -> key, removed rows included
        self._row: dict[str, int] = {}  # key -> row, live keys only
        self._matrix: Optional[np.ndarray] = None  # None until built
        # Squared norm per row: 1.0 for a row without tokens, whose dot
        # product is 0, so it scores 0.0 as ``cosine`` says; NaN for a
        # removed row. A list until the matrix is built, where a row's entry
        # is None until the first search after its add; then an array.
        self._sq: list[Optional[float]] | np.ndarray = []
        # The free list: the idle buffers a fork may borrow, at most one;
        # None for an index that may still add rows.
        self._idle: Optional[list[np.ndarray]] = None
        # The answers of the lending base whose first columns this index
        # holds, shared by the base and its forks; None for any other index.
        self._memo: Optional[_BaseMemo] = None

    def __len__(self) -> int:
        return len(self._row)

    def _build(self) -> None:
        """Writes every live row's vector into a new matrix with room for more."""
        keys = list(self._row)
        vectors = [self._vector_of(self._records[key]) for key in keys]
        # Let go of a full matrix first: unless an embedding views it, it is
        # freed before the new one is allocated.
        self._matrix = None
        matrix = _with_room(len(keys) + 1)
        filled = matrix[:, : len(keys)]
        if vectors:
            np.stack(vectors, axis=1, out=filled)
        self._adopt(keys, matrix, np.einsum("ij,ij->j", filled, filled))

    def _adopt(self, keys: list[str], matrix: np.ndarray, sq: np.ndarray) -> None:
        """Makes ``matrix`` the index: its first columns hold the vectors of
        ``keys``, in order, and ``sq`` their squared norms."""
        self._keys = keys
        self._row = dict(zip(keys, range(len(keys))))
        self._matrix = matrix
        self._memo = None  # the base's columns are not the first ones now
        self._sq = np.empty(matrix.shape[1])
        self._sq[: len(keys)] = np.where(sq == 0.0, 1.0, sq)

    def add(self, key: str) -> None:
        if self._matrix is not None and len(self._keys) == self._matrix.shape[1]:
            self._build()
        row = len(self._keys)
        self._keys.append(key)
        self._row[key] = row
        if self._matrix is None:
            self._sq.append(None)
        else:
            vec = self._vector_of(self._records[key])
            self._matrix[:, row] = vec
            self._sq[row] = vec.dot(vec) or 1.0

    def remove(self, key: str) -> None:
        self._sq[self._row.pop(key)] = np.nan

    def fork(self, records: dict[str, MemoryRecord]) -> "SimilarityIndex":
        """A copy of this index over ``records``, a copy of its records.

        Its matrix has room for more: a buffer from this index's free list,
        when it lends buffers, or else a copy with room of its own. It
        shares this index's memo of a base's answers, if any, so its
        searches score only the rows it writes.
        """
        twin = SimilarityIndex(records, self._vector_of)
        twin._keys = self._keys.copy()
        twin._row = self._row.copy()
        twin._memo = self._memo
        if self._matrix is None:
            twin._sq = self._sq.copy()
            return twin
        n = len(self._keys)
        if self._idle is None:
            twin._matrix = _with_room(n)
            twin._matrix[:, :n] = self._matrix[:, :n]
        else:
            try:
                buffer = self._idle.pop()
            except IndexError:
                buffer = self._matrix.copy()
            # The buffer comes back when the borrower lets go of this view.
            twin._matrix = buffer.view()
            weakref.finalize(twin._matrix, _give_back, self._idle, buffer, self._matrix)
        twin._sq = np.empty(twin._matrix.shape[1])
        twin._sq[:n] = self._sq[:n]
        return twin

    def _lend(self) -> None:
        """Lets forks borrow whole buffers of the matrix's shape.

        Only for an index that adds no more rows, such as a restored base's:
        it never writes the columns past its rows, and a borrower writes
        them only in a buffer no other fork holds. Its forks share its
        memoised answers (``_BaseMemo``).
        """
        self._idle = [self._matrix]
        self._memo = _BaseMemo(self._matrix, self._sq[: len(self._keys)])

    def search(self, query: np.ndarray, threshold: float, k: int) -> list[tuple[str, float]]:
        """``(key, cosine)`` of the ``k`` best rows at or above ``threshold``,
        best first, ties by ascending key."""
        if self._matrix is None and len(self._row) <= SMALL_INDEX_ROWS:
            records, vector_of, sq, qq = self._records, self._vector_of, self._sq, float(query.dot(query))
            hits = []
            for key, row in self._row.items():
                vec = vector_of(records[key])
                vv = sq[row]
                if vv is None:
                    vv = sq[row] = float(vec.dot(vec)) or 1.0
                score = cosine(query, vec, qq, vv)
                if score >= threshold:
                    hits.append((key, score))
        elif self._memo is not None and self._idle is None and threshold > 0:
            hits = self._fork_hits(query, threshold)
        else:
            scores = self._scores(query)
            rows = (scores >= threshold).nonzero()[0]
            if 0 < k < len(rows):
                # Rows below the k-th best score cannot be among the k best.
                passing = scores[rows]
                rows = rows[passing >= np.partition(passing, len(rows) - k)[len(rows) - k]]
            keys = self._keys
            hits = zip([keys[row] for row in rows.tolist()], scores[rows].tolist())
        return sorted(hits, key=lambda hit: (-hit[1], hit[0]))[:k]

    def _scores(self, query: np.ndarray) -> np.ndarray:
        """Every row's score: ``cosine`` with ``query``, NaN for removed rows."""
        if self._matrix is None:
            self._build()
        n = len(self._keys)
        sq = self._sq[:n]
        buckets = query.nonzero()[0]
        if not len(buckets):
            return sq * 0.0  # 0.0 for every live row, as ``cosine`` says
        counts = query[buckets]
        return _cosines(counts, self._matrix[buckets, :n], sq)

    def _fork_hits(self, query: np.ndarray, threshold: float) -> list[tuple[str, float]]:
        """``(key, cosine)`` of every live row at or above ``threshold > 0``,
        for a fork of a lending base: the base's memoised rows that this
        fork still holds, and this fork's own rows, scored here."""
        buckets = query.nonzero()[0]
        if not len(buckets):
            return []  # every row scores 0.0
        counts = query[buckets]
        keys, row_of, memo = self._keys, self._row, self._memo
        hits = [
            (keys[row], score)
            for row, score in memo.answers(buckets, counts, threshold)
            if row_of.get(keys[row]) == row
        ]
        n_base, n = memo.n, len(keys)
        if n > n_base:
            scores = _cosines(counts, self._matrix[buckets, n_base:n], self._sq[n_base:n])
            rows = (scores >= threshold).nonzero()[0]
            hits += zip([keys[n_base + row] for row in rows.tolist()], scores[rows].tolist())
        return hits


class _BaseMemo:
    """The answers of a lending base's index, shared by its forks.

    For a query's nonzero buckets and counts and a threshold, each entry
    holds every ``(row, score)`` of the base's rows at or above the
    threshold, in row order: not only the best ``k``, so a row that a fork
    removed cannot hide one it still holds. An entry is computed once, from
    the base's own columns and squared norms, which no index writes, so it
    holds for every fork whatever the fork wrote. At most
    ``BASE_MEMO_SIZE`` entries are kept, and the oldest goes first.
    Forks in several threads share it: entries are added and evicted under
    a lock, and a query that two threads miss at once is computed twice,
    to the same entry.
    """

    __slots__ = ("n", "_columns", "_sq", "_entries", "_lock", "__weakref__")

    def __init__(self, matrix: np.ndarray, sq: np.ndarray) -> None:
        self.n = len(sq)  # the base's rows, the first columns of its forks
        self._columns = matrix[:, : self.n]
        self._sq = sq
        self._entries: dict[tuple, list[tuple[int, float]]] = {}
        self._lock = threading.Lock()

    def answers(self, buckets: np.ndarray, counts: np.ndarray, threshold: float) -> list[tuple[int, float]]:
        """Every ``(row, score)`` of the base at or above ``threshold`` for
        the query whose nonzero ``buckets`` hold ``counts``."""
        key = (buckets.tobytes(), counts.tobytes(), threshold)
        entries = self._entries
        hits = entries.get(key)
        if hits is None:
            scores = _cosines(counts, self._columns[buckets], self._sq)
            rows = (scores >= threshold).nonzero()[0]
            hits = list(zip(rows.tolist(), scores[rows].tolist()))
            with self._lock:
                while len(entries) >= BASE_MEMO_SIZE:
                    del entries[next(iter(entries))]  # the oldest
                entries[key] = hits
        return hits


def _cosines(counts: np.ndarray, columns: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """``cosine`` of a query with each of ``columns``, the query's bucket
    rows of some index columns, whose squared norms are ``sq``; ``counts``
    are the query's nonzero counts."""
    return counts @ columns / np.sqrt(sq * float(counts.dot(counts)))


def _give_back(idle: list[np.ndarray], buffer: np.ndarray, own: np.ndarray) -> None:
    """Puts a lent ``buffer`` back on the free list ``idle`` of the index
    whose matrix is ``own``.

    A copy goes back only while no other buffer is idle; else nothing keeps
    it and it is freed. ``own`` always goes back, in place of an idle copy,
    which is freed: the index keeps its own matrix anyway."""
    if buffer is own:
        idle[:] = [own]
    elif not idle:
        idle.append(buffer)


def _with_room(columns: int) -> np.ndarray:
    """A zero index matrix for ``columns`` vectors plus an eighth, and at
    least ``MIN_SPARE_COLUMNS``, for later additions."""
    return np.zeros((DEFAULT_DIM, columns + max(columns // 8, MIN_SPARE_COLUMNS)))


class LogicalClock:
    """Deterministic timestamp source: fixed epoch, fixed step per tick."""

    def __init__(self, start: Optional[datetime] = None, step_seconds: float = 1.0) -> None:
        self._now = start or datetime(2026, 1, 1, tzinfo=timezone.utc)
        self._step = timedelta(seconds=step_seconds)

    def now(self) -> datetime:
        return self._now

    def tick(self) -> datetime:
        current = self._now
        self._now = self._now + self._step
        return current


class MemoryState:
    """Single-writer memory for one conversation run; ``fork`` gives each
    run a memory of its own. No record is written after it is stored, so a
    fork and its origin share every record safely.

    ``coverage_threshold`` is read-only: the gap sources kept on write hold
    the research facts' support at that threshold.
    """

    def __init__(
        self,
        near_dup_threshold: float = RunConfig.near_dup_threshold,
        coverage_threshold: float = RunConfig.coverage_threshold,
        clock: Optional[LogicalClock] = None,
    ) -> None:
        self.near_dup_threshold = near_dup_threshold
        self._coverage_threshold = coverage_threshold
        self.clock = clock or LogicalClock()
        self.records: dict[str, MemoryRecord] = {}
        self.hash_index: dict[str, str] = {}  # digest -> record id, active records only
        self.profile: dict[str, str] = {}
        self._counter = 0
        self._index = SimilarityIndex(self.records, _embedding_of)
        self._topics = SimilarityIndex(self.records, _topic_embedding_of)
        # Gap sources, kept on write. A stamp counts while its record is
        # active and still carries it; ``detect_gaps`` drops the others when
        # they come off the heap.
        self._stamps: list[tuple[datetime, str]] = []
        self._incomplete: set[str] = set()  # active ids whose content holds "TBD"
        # Each research fact not built by a merge is in exactly one of these.
        self._unchecked: set[str] = set()  # to search for support on the next detect_gaps
        self._weak: set[str] = set()  # no other active record supports it
        self._witness: dict[str, str] = {}  # fact id -> an active record that supports it

    @property
    def coverage_threshold(self) -> float:
        return self._coverage_threshold

    # -- identity ---------------------------------------------------------

    def _new_id(self) -> str:
        """The next ``m``-numbered id that no record holds."""
        while True:
            self._counter += 1
            rid = f"m{self._counter:06d}"
            if rid not in self.records:
                return rid

    def active_records(self) -> list[MemoryRecord]:
        return [r for r in self.records.values() if r.status == "active"]

    # -- write path -------------------------------------------------------

    def add_knowledge(self, kind: str, content: str, arbiter: Arbiter) -> AddResult:
        """Deduplicated insert. See module docstring for the full protocol."""
        if kind not in MEMORY_KINDS:
            raise ValueError(f"unknown memory kind {kind!r}")
        if not content:
            raise ValueError("content must be non-empty")

        digest = content_hash(content)
        if digest in self.hash_index:
            return AddResult(AddOutcome.DUPLICATE, self.hash_index[digest])

        neighbors = self.vector_search(content, k=1, threshold=self.near_dup_threshold)
        if not neighbors:
            record = self._store_new(self._new_id(), kind, content, digest)
            return AddResult(AddOutcome.ADDED, record.id)

        neighbor, _sim = neighbors[0]
        try:
            verdict = arbiter(content, neighbor)
        except ArbitrationError:
            raise
        except Exception as exc:  # arbiter backend fault: state must not change
            raise ArbitrationError(f"arbiter backend failed: {exc}") from exc
        if verdict.action not in ("skip", "replace", "merge"):
            raise ArbitrationError(f"arbiter returned unknown action {verdict.action!r}")

        if verdict.action == "skip":
            return AddResult(AddOutcome.SKIPPED, neighbor.id)

        if verdict.action == "replace":
            # Same id, new content; step 1 guarantees the new digest is unindexed.
            del self.hash_index[neighbor.content_hash]
            self._unindex(neighbor)
            record = MemoryRecord(
                neighbor.id, neighbor.kind, content, digest, embed(content), neighbor.created_at,
                self.clock.tick(), neighbor.status, neighbor.merged_into, neighbor.merged_from,
            )
            self.records[record.id] = record
            self.hash_index[digest] = record.id
            self._reindex(record)
            return AddResult(AddOutcome.REPLACED, record.id)

        merged_content = verdict.merged_content if verdict.merged_content else f"{neighbor.content}\n{content}"
        merged_digest = content_hash(merged_content)
        existing_id = self.hash_index.get(merged_digest)
        if existing_id is not None and existing_id != neighbor.id:
            # Merged text already present on another active record: reuse it
            # as the merge target instead of violating hash uniqueness.
            self._retire(neighbor, into=existing_id)
            old = self.records[existing_id]
            target = MemoryRecord(
                old.id, old.kind, old.content, old.content_hash, old.embedding, old.created_at,
                self.clock.tick(), old.status, old.merged_into, old.merged_from + (neighbor.id,),
            )
            self.records[target.id] = target
            self._forget_fact(target.id)  # a merge built it now
            heapq.heappush(self._stamps, (target.updated_at, target.id))
            return AddResult(AddOutcome.MERGED, target.id)

        merged_id = self._new_id()
        self._retire(neighbor, into=merged_id)
        self._store_new(merged_id, kind, merged_content, merged_digest, merged_from=(neighbor.id,))
        return AddResult(AddOutcome.MERGED, merged_id)

    def _store_new(
        self, rid: str, kind: str, content: str, digest: str, merged_from: tuple[str, ...] = ()
    ) -> MemoryRecord:
        stamp = self.clock.tick()
        record = MemoryRecord(
            id=rid,
            kind=kind,
            content=content,
            content_hash=digest,
            embedding=embed(content),
            created_at=stamp,
            updated_at=stamp,
            merged_from=merged_from,
        )
        self.records[record.id] = record
        self.hash_index[digest] = record.id
        self._reindex(record)
        return record

    def _retire(self, record: MemoryRecord, into: str) -> None:
        """Stores ``record`` again, merged into ``into``."""
        self.records[record.id] = MemoryRecord(
            record.id, record.kind, record.content, record.content_hash, record.embedding,
            record.created_at, self.clock.tick(), "merged", into, record.merged_from,
        )
        self.hash_index.pop(record.content_hash, None)
        self._unindex(record)

    # -- indexes and gap sources -------------------------------------------

    def _reindex(self, record: MemoryRecord) -> None:
        """Indexes an active record's current content and stamp."""
        rid = record.id
        self._index.add(rid)
        if record.kind == "artifact":
            self._topics.add(rid)
        heapq.heappush(self._stamps, (record.updated_at, rid))
        if "TBD" in record.content:
            self._incomplete.add(rid)
        if record.kind == "research_fact" and not record.merged_from:
            self._unchecked.add(rid)
        # Only a weak fact can lose its gap to a new vector; every other
        # fact is supported already or searched again anyway.
        if self._weak:
            threshold, records, vec = self.coverage_threshold, self.records, record.embedding
            vv = float(vec.dot(vec))
            supported = [fact for fact in self._weak if cosine(vec, records[fact].embedding, vv) >= threshold]
            for fact in supported:
                self._weak.remove(fact)
                self._witness[fact] = rid

    def _unindex(self, record: MemoryRecord) -> None:
        """Drops what ``_reindex`` kept of a record's content."""
        rid = record.id
        self._index.remove(rid)
        if record.kind == "artifact":
            self._topics.remove(rid)
        self._incomplete.discard(rid)
        self._forget_fact(rid)
        lost = [fact for fact, witness in self._witness.items() if witness == rid]
        for fact in lost:
            del self._witness[fact]
            self._unchecked.add(fact)

    def _forget_fact(self, rid: str) -> None:
        """Stops checking ``rid``'s support, until ``_reindex`` marks it again."""
        self._unchecked.discard(rid)
        self._weak.discard(rid)
        self._witness.pop(rid, None)

    # -- read paths -------------------------------------------------------

    def vector_search(
        self, query: str, k: int = 5, threshold: float = 0.0
    ) -> list[tuple[MemoryRecord, float]]:
        """Top-k active records by ``cosine(embed(query), record.embedding)``
        at or above ``threshold``, best first, ties by ascending id."""
        records = self.records
        return [(records[rid], score) for rid, score in self._index.search(embed(query), threshold, k)]

    def artifact_topics(self) -> SimilarityIndex:
        """Index of ``embed(artifact_topic(record))`` by id over active artifacts.

        Kept up to date by every write, and built by ``from_snapshot`` from
        the restored contents.
        """
        return self._topics

    def coverage_check(self, retrieval_query: str, subtopics: tuple[str, ...] = ()) -> CoverageReport:
        """How much of a retrieval plan existing memory already covers."""
        if not retrieval_query:
            raise ValueError("retrieval_query must be non-empty")
        plan = tuple(subtopics) if subtopics else (retrieval_query,)
        missing: list[str] = []
        supporting: list[str] = []
        for subtopic in plan:
            hits = self.vector_search(subtopic, k=1, threshold=self.coverage_threshold)
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

    # -- gap detection ------------------------------------------------------

    def _search_unchecked(self) -> None:
        """Gives each marked research fact a witness, or puts it in the weak set."""
        records, threshold = self.records, self.coverage_threshold
        for fact in self._unchecked:
            # The fact itself is one of the two best hits if it qualifies.
            hits = self._index.search(records[fact].embedding, threshold, k=2)
            witness = next((rid for rid, _ in hits if rid != fact), None)
            if witness is None:
                self._weak.add(fact)
            else:
                self._witness[fact] = witness
        self._unchecked.clear()

    def detect_gaps(self, now: datetime, staleness: timedelta) -> list[GapCandidate]:
        """Conservative gaps: stale, marked, or weakly supported content.

        Gaps come by ascending record id, and for one record in that order:
        ``stale`` when ``now - updated_at > staleness``, ``incomplete`` when
        its content holds ``TBD``, ``weakly_supported`` for a research fact
        not built by a merge that no other active record reaches
        ``coverage_threshold`` with by ``cosine``.

        Nothing here walks the records: the writes keep the sources, and
        only the facts a write marked since the last call are searched.
        """
        self._search_unchecked()
        records = self.records

        # Stale stamps are the oldest, so they come off the heap first; the
        # ones that still count go back on.
        stamps, stale = self._stamps, {}
        while stamps and now - stamps[0][0] > staleness:
            stamp, rid = heapq.heappop(stamps)
            record = records[rid]
            if record.status == "active" and record.updated_at == stamp:
                stale[rid] = stamp
        for rid, stamp in stale.items():
            heapq.heappush(stamps, (stamp, rid))

        flagged = sorted(
            [(rid, 0, "stale") for rid in stale]
            + [(rid, 1, "incomplete") for rid in self._incomplete]
            + [(rid, 2, "weakly_supported") for rid in self._weak]
        )
        return [
            GapCandidate(topic=records[rid].content, reason=reason, related_record_ids=(rid,))
            for rid, _, reason in flagged
        ]

    # -- persistence --------------------------------------------------------

    def to_snapshot(self) -> dict:
        records = [
            {
                "id": record.id,
                "kind": record.kind,
                "content": record.content,
                "content_hash": record.content_hash,
                "created_at": record.created_at.isoformat(),
                "updated_at": record.updated_at.isoformat(),
                "status": record.status,
                "merged_into": record.merged_into,
                "merged_from": list(record.merged_from),
            }
            for record in sorted(self.records.values(), key=lambda r: r.id)
        ]
        return {"records": records, "profile": dict(self.profile), "counter": self._counter}

    def save(self, path: str) -> None:
        """Writes the snapshot as one line of compact JSON with sorted keys."""
        text = json.dumps(self.to_snapshot(), ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def from_snapshot(
        cls,
        snapshot: dict,
        near_dup_threshold: float = RunConfig.near_dup_threshold,
        coverage_threshold: float = RunConfig.coverage_threshold,
        clock: Optional[LogicalClock] = None,
    ) -> "MemoryState":
        """The memory that ``to_snapshot`` gave ``snapshot``, with ``clock``.

        Every call returns a ``fork`` of a base memory, whose records and
        filled columns are never written. The last base is kept with the
        two thresholds and a private deep copy of the records, counter and
        profile of the snapshot it came from. A call with equal thresholds
        and a snapshot whose parts pass the type checks of ``_plain_parts``
        and compare equal to that copy forks it again, with no other check;
        any other call checks the snapshot in full, builds a new base and
        keeps it instead. So a batch of units that start from one snapshot
        embeds and checks it once, a hit raises what a miss would, and a
        snapshot edited in place since it was last restored is restored
        anew.

        A snapshot holds content and nothing else. Any other form raises
        ``ValueError`` naming the problem: a snapshot that is not an object,
        has no ``records`` list or no integer ``counter``, or whose
        ``profile`` is not an object of strings; a record that is not an
        object, lacks a field of ``_RECORD_KEYS`` or holds any other (such
        as the ``embedding`` or ``topic`` of older snapshots), holds a value
        of the wrong type, a time that is not ISO 8601 with a UTC offset, or
        an unknown ``kind`` or ``status``; a record id held twice, two active
        records with one ``content_hash``, or a ``content_hash`` that is not
        the SHA-256 of its record's content.

        Once every record's ``content_hash`` checks out, a base embeds
        record i's content into column i of its index matrix, and the
        record's embedding is a read-only view of that column, which the
        records of every fork share. It builds its topics index from the
        active artifacts' topics. Each index then drops the rows of the
        retired records, and lends whole buffers from a free list that
        starts with its own matrix: a fork borrows the idle buffer, or
        copies the matrix when none is idle, and gives the buffer back when
        done. At most one buffer stays idle: a copy given back while another
        buffer is idle is freed, and the own matrix takes the place of an
        idle copy. A base runs the support searches of its research facts,
        so a fork starts with every fact settled.
        """
        global _last_base
        key = (cls, near_dup_threshold, coverage_threshold)
        parts = _plain_parts(snapshot)
        slot = _last_base
        if slot is None or slot[0] != key or parts is None or parts != slot[1]:
            base = cls._base(_snapshot_content(snapshot), near_dup_threshold, coverage_threshold)
            # Strings are shared, every container is copied: an edit of the
            # snapshot in place makes the next comparison fail.
            slot = _last_base = (key, copy.deepcopy(parts), base)
        return slot[2].fork(clock)

    @classmethod
    def _base(cls, stored: tuple, near_dup_threshold: float, coverage_threshold: float) -> "MemoryState":
        """The memory that ``stored``, a ``_snapshot_content``, holds, its
        research facts searched, lending buffers of its index matrices.
        No record is written after it is stored, so its forks share every
        record safely."""
        rows, counter, profile = stored
        _check_types(rows)
        state = cls(near_dup_threshold, coverage_threshold)
        # Embeddings are read-only views, so nothing writes through one
        # record's embedding into another's or into the index; a replaced
        # record gets the shared vector from ``embed``. No index writes a
        # filled column of the base's matrix.
        columns = _with_room(len(rows))
        view = columns.view()
        view.flags.writeable = False
        records, hash_index = state.records, state.hash_index
        stamps, incomplete, unchecked = state._stamps, state._incomplete, state._unchecked
        retired: list[str] = []
        for (rid, kind, content, digest, created, updated, status, into, sources), embedding in zip(rows, view.T):
            if kind not in MEMORY_KINDS:
                raise ValueError(f"snapshot record has unknown kind {kind!r}")
            created_at = _parse_time(rid, "created_at", created)
            # Datetimes are immutable, so an unchanged record shares one.
            updated_at = created_at if updated == created else _parse_time(rid, "updated_at", updated)
            records[rid] = MemoryRecord(
                rid, kind, content, digest, embedding, created_at, updated_at, status, into, tuple(sources)
            )
            if status == "active":
                hash_index[digest] = rid
                stamps.append((updated_at, rid))
                if "TBD" in content:
                    incomplete.add(rid)
                if kind == "research_fact" and not sources:
                    unchecked.add(rid)
            elif status == "merged":
                retired.append(rid)
            else:
                raise ValueError(f"snapshot record has unknown status {status!r}")
        if len(records) != len(rows):
            raise ValueError("snapshot holds a record id twice")
        if len(hash_index) != len(rows) - len(retired):
            raise ValueError("snapshot holds one content_hash on two active records")
        for rid, _, content, digest, *_ in rows:
            if not isinstance(content, str) or content_hash(content) != digest:
                raise ValueError(f"snapshot record {rid!r} has a content_hash that is not its content's")
        for column, row in enumerate(rows):
            columns[:, column] = embed(row[2])
        heapq.heapify(stamps)
        filled = columns[:, : len(rows)]
        index, topics = state._index, state._topics
        index._adopt([row[0] for row in rows], columns, np.einsum("ij,ij->j", filled, filled))
        for rid in retired:
            index.remove(rid)
        for record in records.values():
            if record.kind == "artifact" and record.status == "active":
                topics.add(record.id)
        topics._build()
        state._counter = counter
        state.profile = dict(profile)
        state._search_unchecked()
        index._lend()
        topics._lend()
        return state

    def fork(self, clock: Optional[LogicalClock] = None) -> "MemoryState":
        """A memory equal to this one that writes nothing this one reads,
        nor the other way round.

        The fork copies the dicts, lists, sets, stamp heap and both index
        matrices, each with room for more (or, from a base, borrows an idle
        buffer of each, copying the base's matrix only when none is idle),
        and shares the records: no record is written after it is stored, so
        a fork and its origin share every record safely. A fork of a base
        shares the base's memoised answers, and its searches score only
        the rows it wrote. The
        fork keeps time with ``clock``, or with a copy of this memory's
        clock.
        """
        twin = copy.copy(self)
        twin.clock = copy.copy(self.clock) if clock is None else clock
        twin.records = dict(self.records)
        twin.hash_index = dict(self.hash_index)
        twin.profile = dict(self.profile)
        twin._index = self._index.fork(twin.records)
        twin._topics = self._topics.fork(twin.records)
        twin._stamps = self._stamps.copy()
        twin._incomplete = set(self._incomplete)
        twin._unchecked = set(self._unchecked)
        twin._weak = set(self._weak)
        twin._witness = dict(self._witness)
        return twin

    @classmethod
    def load(cls, path: str, **kwargs) -> "MemoryState":
        with open(path, encoding="utf-8") as fh:
            return cls.from_snapshot(json.load(fh), **kwargs)


def _snapshot_content(snapshot: dict) -> tuple:
    """All that ``snapshot`` holds, since a snapshot holds content and
    nothing else: each record's fields in ``MemoryRecord`` order without
    the embedding, the id counter and the profile.

    Raises ``ValueError`` unless the snapshot is an object whose
    ``records`` are objects that each hold the fields of ``_RECORD_KEYS``
    and no other, whose counter is an integer and whose profile is an
    object of strings."""
    if type(snapshot) is not dict:
        raise ValueError("snapshot is not an object")
    stored = snapshot.get("records")
    if type(stored) is not list:
        raise ValueError("snapshot has no 'records' list")
    try:
        rows = list(map(_RECORD_FIELDS, stored))
    except KeyError as exc:
        raise ValueError(f"snapshot record has no {exc} field") from None
    except TypeError:
        raise ValueError("snapshot record is not an object") from None
    if max(map(len, stored), default=0) > len(_RECORD_KEYS):
        # Every record holds all of _RECORD_KEYS, so a longer one holds another key.
        rid, name = next((rd["id"], name) for rd in stored for name in rd if name not in _RECORD_KEYS)
        raise ValueError(f"snapshot record {rid!r} has unknown field {name!r}")
    counter = snapshot.get("counter")
    if type(counter) is not int:
        raise ValueError("snapshot has no integer 'counter'")
    profile = snapshot.get("profile", {})
    if not _is_profile(profile):
        raise ValueError("snapshot 'profile' is not an object of strings")
    return rows, counter, profile


def _plain_parts(snapshot: dict) -> Optional[tuple]:
    """``snapshot``'s records, counter and profile, or None unless the
    snapshot is a ``dict``, its records a ``list``, its counter an ``int``
    and its profile passes ``_is_profile``.

    These are the checks of ``_snapshot_content`` that an equal comparison
    with the parts of a snapshot that passed them all does not repeat: an
    ``OrderedDict``, a ``list`` subclass, a ``str`` subclass or ``True``
    compares equal to the plain value it stands for."""
    if type(snapshot) is not dict:
        return None
    parts = snapshot.get("records"), snapshot.get("counter"), snapshot.get("profile", {})
    if type(parts[0]) is not list or type(parts[1]) is not int or not _is_profile(parts[2]):
        return None
    return parts


def _is_profile(profile: object) -> bool:
    """Whether ``profile`` is a ``dict`` of ``str`` to ``str``."""
    return type(profile) is dict and all(type(k) is str and type(v) is str for k, v in profile.items())


def _check_types(rows: list) -> None:
    """Raises ``ValueError`` naming the field when a row of ``rows``, each
    a record's fields in ``_RECORD_KEYS`` order, holds a value of a type
    that ``_FIELD_TYPES`` does not allow."""
    columns = dict(zip(_RECORD_KEYS, zip(*rows)))
    for name, (types, expected) in _FIELD_TYPES.items():
        if name == "merged_from entry":  # checked after every merged_from
            values = tuple(itertools.chain.from_iterable(columns.get("merged_from", ())))
        else:
            values = columns.get(name, ())
        if not types.issuperset(map(type, values)):
            bad = next(value for value in values if type(value) not in types)
            raise ValueError(f"snapshot record {name} is not {expected}: {bad!r}")


def _parse_time(rid: str, name: str, text: str) -> datetime:
    """The time that ``text``, record ``rid``'s field ``name``, holds;
    ``ValueError`` naming both unless it is ISO 8601 with a UTC offset."""
    try:
        moment = datetime.fromisoformat(text)
    except ValueError:
        moment = None
    if moment is None or moment.tzinfo is None:
        raise ValueError(f"snapshot record {rid!r} {name} is not an ISO 8601 time with a UTC offset: {text!r}")
    return moment


# The last base ``MemoryState.from_snapshot`` built: its class and
# thresholds, a private copy of its snapshot's records, counter and profile,
# and the base. It is swapped as one tuple, so concurrent restores each read
# a whole slot.
_last_base: Optional[tuple[tuple, tuple, MemoryState]] = None


__all__ = [
    "AddOutcome",
    "AddResult",
    "ArbitrationError",
    "Arbiter",
    "ArbiterVerdict",
    "CoverageReport",
    "GapCandidate",
    "LogicalClock",
    "MEMORY_KINDS",
    "MemoryRecord",
    "MemoryState",
    "SMALL_INDEX_ROWS",
    "SimilarityIndex",
    "artifact_topic",
    "content_hash",
]
