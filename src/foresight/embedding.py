"""Deterministic text embeddings.

Hashed bag-of-tokens vectors: each lowercase alphanumeric token is hashed
into one of ``DEFAULT_DIM`` buckets and the vector holds each bucket's
occurrence count. The construction is order-free, has no model dependency,
and gives cosine 1.0 for identical token multisets and near 0 for disjoint
ones (up to rare bucket collisions).

Counts are small integers, so every dot product and squared norm is an
integer sum, exact in float64 in any summation order. ``cosine`` rounds
only in its square root and its division, both correctly rounded under
IEEE 754, so a score is exact and the same on every machine. For the same
reason a caller scoring one vector against many may compute its squared
norm once and hand it to ``cosine``: the cached value is the same exact
integer the call would compute, so the score keeps its bits.

``embed`` is memoised per text in a process-wide LRU of
``EMBED_MEMO_SIZE`` (256) entries, about 0.5 MB of vectors, so every caller
shares one vector per text. Shared vectors are read-only: writing into one
raises ``ValueError``. A unit embeds the same texts (candidate topics,
retrieval queries, contents it stores) again from window to window, and a
batch runs each scenario under every condition in a row. The memo is a
cache, not a store: a restore copies each record's vector into its index
matrix, so no restored memory holds on to a memo entry.

``query_form`` keeps, beside it, each text's sparse form as an index
search reads it: the nonzero buckets of ``embed(text)``, their counts, the
squared norm and a key naming the form, in an LRU of its own with
``EMBED_MEMO_SIZE`` entries. Only the matrix and fork paths of
``memory.SimilarityIndex`` read it, so a text searched again skips the
nonzero scan, the gather, the norm and the key bytes, and a memory too
small for a matrix builds no form. Its arrays are read-only, like
``embed``'s vectors. A form is built by a search's first miss, not with
the vector, so a text that is embedded but never searched pays nothing
for it.

``token_counts`` is memoised the same way, in an LRU of its own with
``EMBED_MEMO_SIZE`` entries: each text's token multiset as a read-only
mapping shared by every caller, so writing into one raises ``TypeError``.
The oracle arbiter reads both texts of a near-duplicate from it, and the
same texts come back to it across a batch's units and conditions. ``embed``
tokenises its misses directly: a memory being set up embeds many texts
once each and arbitrates none, so sending them through this memo would
only add its upkeep.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from collections import Counter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

import numpy as np

DEFAULT_DIM = 256

# Sized by the texts a scenario's units embed again. Over one round of the
# bench's seed-1 ``suite_small`` (about 22,700 calls) the memo misses 4,653
# times at 128 entries, 2,713 at 256 and 2,255 at 512; past 256 every entry
# is another 2 KB of resident memory for few more hits. ``long_memory``
# misses about as often at 128 as at 256.
EMBED_MEMO_SIZE = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@functools.lru_cache(maxsize=EMBED_MEMO_SIZE)
def token_counts(text: str) -> Mapping[str, int]:
    """Each token of ``text`` with its number of occurrences, as a
    read-only mapping shared by every caller that asks for the same text."""
    return MappingProxyType(Counter(tokenize(text)))


@functools.lru_cache(maxsize=1 << 14)
def _token_hash(token: str) -> int:
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big")


def _bucket(token: str) -> int:
    return _token_hash(token) % DEFAULT_DIM


@functools.lru_cache(maxsize=EMBED_MEMO_SIZE)
def embed(text: str) -> np.ndarray:
    """The token counts of ``text`` in ``DEFAULT_DIM`` hashed buckets, as a
    read-only float64 vector shared by every caller that embeds the same text."""
    vec = np.zeros(DEFAULT_DIM, dtype=np.float64)
    for token in tokenize(text):
        vec[_bucket(token)] += 1.0
    vec.flags.writeable = False
    return vec


class QueryForm(NamedTuple):
    """The sparse form of ``embed(text)``: its nonzero ``buckets``, in
    ascending order, and their ``counts``, both read-only; ``sq``, the
    vector's squared norm; and ``key``, bytes that two texts share exactly
    when their vectors are equal."""

    buckets: np.ndarray
    counts: np.ndarray
    sq: float
    key: bytes


@functools.lru_cache(maxsize=EMBED_MEMO_SIZE)
def query_form(text: str) -> QueryForm:
    """The ``QueryForm`` of ``text``, shared by every caller that asks for
    the same text."""
    vec = embed(text)
    buckets = vec.nonzero()[0]
    counts = vec[buckets]
    buckets.flags.writeable = False
    counts.flags.writeable = False
    # Equal lengths split the key, so equal keys mean equal vectors.
    key = buckets.tobytes() + counts.tobytes()
    return QueryForm(buckets, counts, float(counts.dot(counts)), key)


def cosine(u: np.ndarray, v: np.ndarray, uu: Optional[float] = None, vv: Optional[float] = None) -> float:
    """``u.v / sqrt((u.u) * (v.v))`` for count vectors, or 0.0 when either is zero.

    One square root of the product, not a product of two roots: for two
    5-token texts sharing 4 tokens this gives exactly 0.8, where
    ``dot / (sqrt(na) * sqrt(nb))`` gives 0.7999999999999998.

    ``uu`` and ``vv`` are ``u.u`` and ``v.v`` when the caller already holds
    them, so a loop scoring one vector against many computes its squared
    norm once. A squared norm is an exact integer sum, so a cached one has
    the bits this call would compute, and the score is the same.
    """
    nn = (float(u.dot(u)) if uu is None else uu) * (float(v.dot(v)) if vv is None else vv)
    if nn == 0.0:
        return 0.0
    return float(u.dot(v)) / math.sqrt(nn)


__all__ = ["DEFAULT_DIM", "QueryForm", "cosine", "embed", "query_form", "token_counts", "tokenize"]
