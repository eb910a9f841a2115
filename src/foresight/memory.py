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
a new matrix. That is what lets ``load`` / ``from_snapshot`` share it: every
record's stored counts, active or retired, go straight into one index
matrix, and each record's embedding is a read-only view of its column. The
index drops the retired records' rows as it drops any removed row. The
artifact topics index is restored the same way from each artifact's stored
topic counts, so a restored memory embeds no artifact topic until the index
grows.

``detect_gaps`` scans no records. Each write keeps its three gap sources up
to date: the ids of active records whose content holds ``TBD``, a min-heap
of ``(updated_at, id)`` stamps, and, for each research fact not built by a
merge, an active record that supports it (its witness) or none. A write
marks a fact for a new search when the fact itself or its witness changes,
and tests its new vector only against the facts that are weak right now.

A snapshot stores each embedding as one hex string of packed little-endian
``(uint16 bucket, uint32 count)`` pairs, nonzero buckets only, ascending, and
the id counter next to the records. Each artifact record also stores the
embedding of its topic, ``embed(artifact_topic(record))``, in the same form.
A restore decodes every embedding's pairs with one ``bytes.fromhex``, and
every topic's with another, and rejects a snapshot in any other form with a
``ValueError``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import operator
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

# One stored (bucket, count) pair of an embedding: 6 bytes, 12 hex digits.
_PAIR = np.dtype([("bucket", "<u2"), ("count", "<u4")])
_PAIR_HEX = 2 * _PAIR.itemsize

# A stored record's fields, in ``MemoryRecord`` order; every one is required.
_RECORD_FIELDS = operator.itemgetter(
    "id", "kind", "content", "content_hash", "embedding",
    "created_at", "updated_at", "status", "merged_into", "merged_from",
)


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


def _sparse(vec: np.ndarray) -> str:
    """A snapshot's form of an embedding: the hex of its nonzero buckets,
    ascending, each packed with its count as a little-endian
    ``(uint16 bucket, uint32 count)`` pair."""
    buckets = vec.nonzero()[0]
    pairs = np.empty(len(buckets), _PAIR)
    pairs["bucket"] = buckets
    pairs["count"] = vec[buckets]
    return pairs.tobytes().hex()


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
    lives: ``MemoryState.from_snapshot`` fills the matrix itself and hands
    each restored record a view of its column as its embedding.

    The matrix is built by the first query that finds more than
    ``SMALL_INDEX_ROWS`` keys, or adopted from ``from_snapshot`` whatever
    the number of keys, and kept up to date from then on. Until then each
    query scores every key with ``cosine``, handing it the query's squared
    norm, computed once per search, and the row's, computed by the first
    search after its ``add`` and kept for as long as the row lives. Either
    way a score is the same exact value.
    """

    __slots__ = ("_records", "_vector_of", "_row", "_keys", "_matrix", "_sq")

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

    def search(self, query: np.ndarray, threshold: float, k: Optional[int] = None) -> list[tuple[str, float]]:
        """``(key, cosine)`` of the ``k`` best rows at or above ``threshold``.

        Best first, ties by ascending key; every row that qualifies when
        ``k`` is None.
        """
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
        else:
            scores = self._scores(query)
            rows = (scores >= threshold).nonzero()[0]
            if k is not None and 0 < k < len(rows):
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
        dots = counts @ self._matrix[buckets, :n]
        return dots / np.sqrt(sq * float(counts.dot(counts)))


def _with_room(columns: int) -> np.ndarray:
    """A zero index matrix for ``columns`` vectors plus an eighth, and at
    least ``MIN_SPARE_COLUMNS``, for later additions."""
    return np.zeros((DEFAULT_DIM, columns + max(columns // 8, MIN_SPARE_COLUMNS)))


def _scatter(
    columns: int, column: np.ndarray, buckets: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A ``_with_room(columns)`` matrix holding each pair's count at its
    ``(bucket, column)``, and the first ``columns`` columns' squared norms."""
    matrix = _with_room(columns)
    matrix[buckets, column] = counts
    return matrix, np.bincount(column, weights=counts * counts, minlength=columns)


def _decode_pairs(hexes: list, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ``(owner, bucket, count)`` stored in ``hexes``, one snapshot
    field's packed pair hex per record, decoded with one ``bytes.fromhex``.

    ``owner`` is the position in ``hexes`` a pair came from and ``count`` a
    float64. Raises ``ValueError``, naming the field ``name``, unless each
    value is a string of whole pairs with buckets below ``DEFAULT_DIM``,
    strictly ascending, and nonzero counts.
    """
    try:
        text = "".join(hexes)
    except TypeError:
        raise ValueError(
            f"snapshot {name} must be a hex string of (bucket, count) pairs;"
            " the old {buckets, counts} form is not loaded"
        ) from None
    lengths, odd = np.divmod(np.fromiter(map(len, hexes), dtype=np.intp, count=len(hexes)), _PAIR_HEX)
    if odd.any():
        raise ValueError(f"snapshot {name} hex length is not a multiple of {_PAIR_HEX}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"snapshot {name} hex: {exc}") from None
    if 2 * len(raw) != len(text):  # fromhex skips whitespace
        raise ValueError(f"snapshot {name} hex holds whitespace")
    pairs = np.frombuffer(raw, _PAIR)
    buckets, counts = pairs["bucket"], pairs["count"]
    if (buckets >= DEFAULT_DIM).any():
        raise ValueError(f"snapshot {name} bucket is not below {DEFAULT_DIM}")
    if not counts.all():
        raise ValueError(f"snapshot {name} count is zero")
    owner = np.repeat(np.arange(len(hexes)), lengths)
    # Increasing exactly when each record's buckets are strictly ascending.
    if (np.diff(owner * DEFAULT_DIM + buckets) <= 0).any():
        raise ValueError(f"snapshot {name} buckets are not strictly ascending")
    return owner, buckets, counts.astype(np.float64)


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
    """Single-writer memory for one conversation run.

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
            record = self._store_new(kind, content, digest)
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
            # In-place rewrite; step 1 guarantees the new digest is unindexed.
            del self.hash_index[neighbor.content_hash]
            self._unindex(neighbor)
            neighbor.content = content
            neighbor.content_hash = digest
            neighbor.embedding = embed(content)
            neighbor.updated_at = self.clock.tick()
            self.hash_index[digest] = neighbor.id
            self._reindex(neighbor)
            return AddResult(AddOutcome.REPLACED, neighbor.id)

        merged_content = verdict.merged_content if verdict.merged_content else f"{neighbor.content}\n{content}"
        merged_digest = content_hash(merged_content)
        existing_id = self.hash_index.get(merged_digest)
        if existing_id is not None and existing_id != neighbor.id:
            # Merged text already present on another active record: reuse it
            # as the merge target instead of violating hash uniqueness.
            target = self.records[existing_id]
            self._retire(neighbor, into=target.id)
            target.merged_from = tuple(list(target.merged_from) + [neighbor.id])
            target.updated_at = self.clock.tick()
            self._forget_fact(target.id)  # a merge built it now
            heapq.heappush(self._stamps, (target.updated_at, target.id))
            return AddResult(AddOutcome.MERGED, target.id)

        self._retire(neighbor, into=None)  # merged_into patched after the new id exists
        merged = self._store_new(kind, merged_content, merged_digest, merged_from=(neighbor.id,))
        neighbor.merged_into = merged.id
        return AddResult(AddOutcome.MERGED, merged.id)

    def _store_new(
        self, kind: str, content: str, digest: str, merged_from: tuple[str, ...] = ()
    ) -> MemoryRecord:
        stamp = self.clock.tick()
        record = MemoryRecord(
            id=self._new_id(),
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

    def _retire(self, record: MemoryRecord, into: Optional[str]) -> None:
        record.status = "merged"
        record.merged_into = into
        record.updated_at = self.clock.tick()
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

        Kept up to date by every write, and filled by ``from_snapshot`` from
        the stored topics, whose counts it scores until it grows.
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
        records = []
        for record in sorted(self.records.values(), key=lambda r: r.id):
            stored = {
                "id": record.id,
                "kind": record.kind,
                "content": record.content,
                "content_hash": record.content_hash,
                "embedding": _sparse(record.embedding),
                "created_at": record.created_at.isoformat(),
                "updated_at": record.updated_at.isoformat(),
                "status": record.status,
                "merged_into": record.merged_into,
                "merged_from": list(record.merged_from),
            }
            if record.kind == "artifact":
                stored["topic"] = _sparse(_topic_embedding_of(record))
            records.append(stored)
        return {"records": records, "profile": dict(self.profile), "counter": self._counter}

    def save(self, path: str) -> None:
        """Writes the snapshot as one line of compact JSON with sorted keys."""
        text = json.dumps(self.to_snapshot(), ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def from_snapshot(cls, snapshot: dict, **kwargs) -> "MemoryState":
        """The memory that ``to_snapshot`` gave ``snapshot``.

        Every record's embedding pairs are decoded together, with one
        ``bytes.fromhex``, and so are every artifact's topic pairs. A
        snapshot in any other form, such as the old
        ``{"buckets": [...], "counts": [...]}`` embeddings, an artifact
        without ``topic``, a record of an unknown ``kind`` or ``status``, a
        record id held twice, two active records with one ``content_hash``,
        or one without ``counter``, raises ``ValueError`` naming the problem.

        Record i's stored counts become column i of the index matrix, and
        its embedding a read-only view of that column; artifact i's stored
        topic becomes column i of the topics index. Each index then drops
        the rows of the retired records.

        An artifact's ``topic`` is a cache: its content is the source of
        truth, and ``topic`` must be ``embed(artifact_topic(record))``.
        The restore does not check that, since checking would embed every
        artifact's topic, which is the work the field saves. Whatever the
        number of artifacts, the restored topics index scores the stored
        counts until it grows, and from then on embeds each topic from the
        content. ``to_snapshot`` writes each topic from the content.
        """
        stored = snapshot["records"]
        try:
            rows = list(map(_RECORD_FIELDS, stored))
        except KeyError as exc:
            raise ValueError(f"snapshot record has no {exc} field") from None
        owner, buckets, counts = _decode_pairs([row[4] for row in rows], "embedding")
        artifact = [row[1] == "artifact" for row in rows]
        has_topic = ["topic" in rd for rd in stored]
        if has_topic != artifact:
            kind = next(row[1] for row, topic, is_artifact in zip(rows, has_topic, artifact) if topic != is_artifact)
            if kind == "artifact":
                raise ValueError("snapshot artifact record has no 'topic' field")
            raise ValueError(f"snapshot {kind} record has a 'topic' field, which only artifacts have")
        topic_owner, topic_buckets, topic_counts = _decode_pairs(
            [rd["topic"] for rd, is_artifact in zip(stored, artifact) if is_artifact], "topic"
        )
        counter = snapshot.get("counter")
        if type(counter) is not int:
            raise ValueError("snapshot has no integer 'counter'")

        state = cls(**kwargs)
        # Embeddings are read-only views, so nothing writes through one
        # record's embedding into another's or into the index; a replaced
        # record gets the shared vector from ``embed``. The index never
        # rewrites a column, so a view keeps its record's counts.
        columns, columns_sq = _scatter(len(rows), owner, buckets, counts)
        view = columns.view()
        view.flags.writeable = False
        records, hash_index = state.records, state.hash_index
        stamps, incomplete, unchecked = state._stamps, state._incomplete, state._unchecked
        retired: list[str] = []
        for (rid, kind, content, digest, _, created, updated, status, into, sources), embedding in zip(rows, view.T):
            if kind not in MEMORY_KINDS:
                raise ValueError(f"snapshot record has unknown kind {kind!r}")
            created_at = datetime.fromisoformat(created)
            # Datetimes are immutable, so an unchanged record shares one.
            updated_at = created_at if updated == created else datetime.fromisoformat(updated)
            records[rid] = MemoryRecord(
                rid,
                kind,
                content,
                digest,
                embedding,
                created_at,
                updated_at,
                status,
                into,
                tuple(sources),
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
        heapq.heapify(stamps)
        index, topics = state._index, state._topics
        index._adopt([row[0] for row in rows], columns, columns_sq)
        artifacts = [row[0] for row, is_artifact in zip(rows, artifact) if is_artifact]
        topics._adopt(artifacts, *_scatter(len(artifacts), topic_owner, topic_buckets, topic_counts))
        for rid in retired:
            index.remove(rid)
            if records[rid].kind == "artifact":
                topics.remove(rid)
        state._counter = counter
        state.profile = dict(snapshot.get("profile", {}))
        return state

    @classmethod
    def load(cls, path: str, **kwargs) -> "MemoryState":
        with open(path, encoding="utf-8") as fh:
            return cls.from_snapshot(json.load(fh), **kwargs)


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
