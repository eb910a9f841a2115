"""Memory layer: deduplicated knowledge store with similarity recall.

Writes funnel through ``add_knowledge``, which applies a two-stage dedup:
an exact SHA-256 content hash check, then a nearest-neighbor similarity
check at a configurable threshold. Near-duplicates are arbitrated by a
pluggable backend into skip, replace, or merge. All mutations are atomic
with respect to arbitration failures: if the arbiter raises or returns an
unknown action, the store is left untouched.

Every similarity read (``vector_search``, ``coverage_check``, the
weak-support scan in ``detect_gaps``, and the artifact topics read by
``prediction.filter_candidates``) is one ``SimilarityIndex.search``, which
scores all active records in one NumPy pass. Embeddings are integer token
counts, so the index computes the same exact score as ``cosine``, bit for
bit: its answer is final, and reads return exactly what a loop of
``cosine`` calls over every active record would.

``load`` / ``from_snapshot`` restore in one pass over the stored sparse
counts: every record's embedding becomes a read-only row of one matrix,
and when more than ``SMALL_INDEX_ROWS`` records are active the index
arrays are filled straight from the stored buckets, as the first query
would otherwise build them.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from foresight.embedding import DEFAULT_DIM, cosine, embed

logger = logging.getLogger(__name__)

MEMORY_KINDS = ("profile_attr", "entity_fact", "conversation_summary", "research_fact", "artifact")

DEFAULT_NEAR_DUP_THRESHOLD = 0.88
DEFAULT_COVERAGE_THRESHOLD = 0.80

# Building the index handles this many vectors per NumPy call, keeping each
# temporary block small (64 KB at the default dimension).
BLOCK_ROWS = 32

# Up to this many records, scoring every one with ``cosine`` costs about as
# much as the index's fixed NumPy work per query, and leaving the arrays
# unbuilt saves their upkeep on every add.
SMALL_INDEX_ROWS = 4


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


@dataclass
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


def _sparse(vec: np.ndarray) -> dict:
    """A snapshot's form of an embedding: its nonzero buckets, ascending, and their counts."""
    buckets = np.flatnonzero(vec)
    return {"buckets": buckets.tolist(), "counts": vec[buckets].astype(np.int64).tolist()}


def _embedding_of(record: MemoryRecord) -> np.ndarray:
    return record.embedding


def _topic_embedding_of(record: MemoryRecord) -> np.ndarray:
    return embed(artifact_topic(record))


class SimilarityIndex:
    """Exact cosine search over the records of a store.

    Rows are keyed by record id, in insertion order; ``vector_of(record)``
    gives a row's token counts. Each vector is kept as its nonzero buckets
    and their counts in flat (row, bucket, count) arrays, since a hashed
    bag-of-tokens embedding fills a few dozen of its buckets at most, plus
    each row's squared norm. One weighted ``np.bincount`` gives a query's
    dot product with every row; every sum is of integers, so each score is
    ``cosine``'s exact value.

    The arrays are built in one pass by the first query that finds more
    than ``SMALL_INDEX_ROWS`` rows, or filled by ``MemoryState.from_snapshot``,
    and kept up to date from then on. Until then the index holds only the
    keys and scores each row with ``cosine``.
    """

    __slots__ = ("_records", "_vector_of", "_keys", "_rows", "_buckets", "_counts", "_size", "_sq")

    # Shared by every index until it reserves room: nothing writes into
    # an array of length zero.
    _NO_INTS = np.empty(0, dtype=np.intp)
    _NO_FLOATS = np.empty(0, dtype=np.float64)

    def __init__(
        self,
        records: dict[str, MemoryRecord],
        vector_of: Callable[[MemoryRecord], np.ndarray],
        keys: Sequence[str] = (),
    ) -> None:
        self._records = records
        self._vector_of = vector_of
        self._keys: list[str] = list(keys)  # row -> key
        self._rows: Optional[np.ndarray] = None  # None until built
        self._buckets = self._NO_INTS
        self._counts = self._NO_FLOATS
        self._size = 0  # entries in use; the arrays hold spare room after them
        # Squared norm per row, 1.0 for a row without tokens: its dot
        # product is 0, so it scores 0.0 as ``cosine`` says.
        self._sq = self._NO_FLOATS

    def __len__(self) -> int:
        return len(self._keys)

    def _build(self) -> None:
        records, vector_of, keys = self._records, self._vector_of, self._keys
        parts = []
        for first in range(0, len(keys), BLOCK_ROWS):
            block = np.stack([vector_of(records[key]) for key in keys[first : first + BLOCK_ROWS]])
            flat = np.flatnonzero(block)
            row, bucket = np.divmod(flat, block.shape[1])
            parts.append((row + first, bucket, block.ravel()[flat]))
        self._fill(*(np.concatenate(column) for column in zip(*parts)))

    def _fill(self, rows: np.ndarray, buckets: np.ndarray, counts: np.ndarray) -> None:
        """Fills the arrays from each row's nonzero buckets and their counts, ascending by row."""
        size = len(counts)
        self._rows = _room(self._NO_INTS, 0, size)
        self._buckets = _room(self._NO_INTS, 0, size)
        self._counts = _room(self._NO_FLOATS, 0, size)
        self._rows[:size] = rows
        self._buckets[:size] = buckets
        self._counts[:size] = counts
        self._size = size
        self._sq = np.bincount(rows, weights=counts * counts, minlength=len(self._keys))
        self._sq[self._sq == 0.0] = 1.0

    def add(self, key: str) -> None:
        self._keys.append(key)
        if self._rows is None:
            return
        row = len(self._keys) - 1
        vec = self._vector_of(self._records[key])
        buckets = np.flatnonzero(vec)
        start, end = self._size, self._size + len(buckets)
        self._rows, self._buckets, self._counts = (
            _room(a, start, end) for a in (self._rows, self._buckets, self._counts)
        )
        self._rows[start:end] = row
        self._buckets[start:end] = buckets
        self._counts[start:end] = vec[buckets]
        self._size = end
        self._sq = _room(self._sq, row, row + 1)
        self._sq[row] = vec.dot(vec) or 1.0

    def remove(self, key: str) -> None:
        row = self._keys.index(key)
        del self._keys[row]
        if self._rows is None:
            return
        # Rows ascend along the entries, so the row's entries are [lo, hi).
        size = self._size
        lo, hi = np.searchsorted(self._rows[:size], (row, row + 1))
        end = size - (hi - lo)
        for a in (self._rows, self._buckets, self._counts):
            a[lo:end] = a[hi:size]
        self._rows[lo:end] -= 1
        self._size = end
        n = len(self._keys)
        self._sq[row:n] = self._sq[row + 1 : n + 1]

    def search(self, query: np.ndarray, threshold: float, k: Optional[int] = None) -> list[tuple[str, float]]:
        """``(key, cosine)`` of the ``k`` best rows at or above ``threshold``.

        Best first, ties by ascending key; every row that qualifies when
        ``k`` is None.
        """
        keys = self._keys
        if self._rows is None and len(keys) <= SMALL_INDEX_ROWS:
            records, vector_of = self._records, self._vector_of
            scored = [(key, cosine(query, vector_of(records[key]))) for key in keys]
            hits = [hit for hit in scored if hit[1] >= threshold]
        else:
            scores = self._scores(query)
            rows = np.flatnonzero(scores >= threshold)
            if k is not None and 0 < k < len(rows):
                # Rows below the k-th best score cannot be among the k best.
                passing = scores[rows]
                rows = rows[passing >= np.partition(passing, len(rows) - k)[len(rows) - k]]
            hits = zip([keys[row] for row in rows.tolist()], scores[rows].tolist())
        return sorted(hits, key=lambda hit: (-hit[1], hit[0]))[:k]

    def _scores(self, query: np.ndarray) -> np.ndarray:
        if self._rows is None:
            self._build()
        n = len(self._keys)
        qq = float(query.dot(query))
        if qq == 0.0:
            return np.zeros(n)
        size = self._size
        weights = query[self._buckets[:size]]
        weights *= self._counts[:size]
        dots = np.bincount(self._rows[:size], weights=weights, minlength=n)
        return dots / np.sqrt(self._sq[:n] * qq)


def _room(array: np.ndarray, used: int, size: int) -> np.ndarray:
    """``array`` if it holds ``size`` items, else a copy of its first ``used``
    items with room for ``size`` plus an eighth for later additions."""
    if size <= len(array):
        return array
    grown = np.empty(size + size // 8, dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


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
    """Single-writer memory for one conversation run."""

    def __init__(
        self,
        near_dup_threshold: float = DEFAULT_NEAR_DUP_THRESHOLD,
        coverage_threshold: float = DEFAULT_COVERAGE_THRESHOLD,
        clock: Optional[LogicalClock] = None,
    ) -> None:
        self.near_dup_threshold = near_dup_threshold
        self.coverage_threshold = coverage_threshold
        self.clock = clock or LogicalClock()
        self.records: dict[str, MemoryRecord] = {}
        self.hash_index: dict[str, str] = {}  # digest -> record id, active records only
        self.profile: dict[str, str] = {}
        self._counter = 0
        self._index = SimilarityIndex(self.records, _embedding_of)
        self._topics: Optional[SimilarityIndex] = None  # built on first use

    # -- identity ---------------------------------------------------------

    def _new_id(self) -> str:
        self._counter += 1
        return f"m{self._counter:06d}"

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

    # -- similarity indexes -----------------------------------------------

    def _reindex(self, record: MemoryRecord) -> None:
        self._index.add(record.id)
        if self._topics is not None and record.kind == "artifact":
            self._topics.add(record.id)

    def _unindex(self, record: MemoryRecord) -> None:
        self._index.remove(record.id)
        if self._topics is not None and record.kind == "artifact":
            self._topics.remove(record.id)

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

        Built on first use and kept up to date from then on.
        """
        if self._topics is None:
            artifacts = [r.id for r in self.active_records() if r.kind == "artifact"]
            self._topics = SimilarityIndex(self.records, _topic_embedding_of, artifacts)
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
        """Conservative gap scan: stale, weakly supported, or marked content.

        Records are scanned by ascending id. A research fact not built by a
        merge is weakly supported unless another active record reaches
        ``coverage_threshold`` by ``cosine`` with it.
        """
        gaps: list[GapCandidate] = []
        threshold = self.coverage_threshold
        for record in sorted(self.active_records(), key=lambda r: r.id):
            if now - record.updated_at > staleness:
                gaps.append(GapCandidate(topic=record.content, reason="stale", related_record_ids=(record.id,)))
            if "TBD" in record.content:
                gaps.append(GapCandidate(topic=record.content, reason="incomplete", related_record_ids=(record.id,)))
            if record.kind == "research_fact" and not record.merged_from:
                # The record itself is one of the two best hits if it qualifies.
                hits = self._index.search(record.embedding, threshold, k=2)
                if all(rid == record.id for rid, _ in hits):
                    gaps.append(
                        GapCandidate(topic=record.content, reason="weakly_supported", related_record_ids=(record.id,))
                    )
        return gaps

    # -- persistence --------------------------------------------------------

    def to_snapshot(self) -> dict:
        records = []
        for record in sorted(self.records.values(), key=lambda r: r.id):
            records.append(
                {
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
            )
        return {"records": records, "profile": dict(self.profile)}

    def save(self, path: str) -> None:
        """Writes the snapshot as one line of compact JSON with sorted keys."""
        text = json.dumps(self.to_snapshot(), ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def from_snapshot(cls, snapshot: dict, **kwargs) -> "MemoryState":
        state = cls(**kwargs)
        stored = snapshot["records"]
        n = len(stored)
        sparse = [rd["embedding"] for rd in stored]
        lengths = np.fromiter((len(e["buckets"]) for e in sparse), dtype=np.intp, count=n)
        total = int(lengths.sum())
        buckets = np.fromiter(chain.from_iterable(e["buckets"] for e in sparse), dtype=np.intp, count=total)
        counts = np.fromiter(chain.from_iterable(e["counts"] for e in sparse), dtype=np.float64, count=total)
        rows = np.repeat(np.arange(n), lengths)
        # One row per record. Read-only, so nothing writes through one
        # record's embedding into another's; a replaced record gets a
        # fresh array from ``embed``.
        matrix = np.zeros((n, DEFAULT_DIM))
        matrix[rows, buckets] = counts
        matrix.flags.writeable = False
        active = np.zeros(n, dtype=bool)
        highest = 0
        actives: list[str] = []
        for i, rd in enumerate(stored):
            record = MemoryRecord(
                id=rd["id"],
                kind=rd["kind"],
                content=rd["content"],
                content_hash=rd["content_hash"],
                embedding=matrix[i],
                created_at=datetime.fromisoformat(rd["created_at"]),
                updated_at=datetime.fromisoformat(rd["updated_at"]),
                status=rd["status"],
                merged_into=rd.get("merged_into"),
                merged_from=tuple(rd.get("merged_from", ())),
            )
            state.records[record.id] = record
            if record.status == "active":
                state.hash_index[record.content_hash] = record.id
                actives.append(record.id)
                active[i] = True
            digits = record.id.lstrip("m")
            if digits.isdigit():
                highest = max(highest, int(digits))
        state._index = SimilarityIndex(state.records, _embedding_of, actives)
        if len(actives) > SMALL_INDEX_ROWS:
            if len(actives) < n:
                # Drop retired rows' entries and renumber the rest.
                keep = active[rows]
                rows = (np.cumsum(active) - 1)[rows[keep]]
                buckets, counts = buckets[keep], counts[keep]
            state._index._fill(rows, buckets, counts)
        state._counter = highest
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
