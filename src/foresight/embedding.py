"""Deterministic text embeddings.

Hashed bag-of-tokens vectors: each lowercase alphanumeric token is hashed
into one of ``dim`` buckets, occurrence counts are accumulated, and the
vector is L2-normalized. The construction is order-free, has no model
dependency, and gives cosine 1.0 for identical token multisets and near 0
for disjoint ones (up to rare bucket collisions).
"""

from __future__ import annotations

import functools
import hashlib
import math
import re

import numpy as np

DEFAULT_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@functools.lru_cache(maxsize=1 << 14)
def _token_hash(token: str) -> int:
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big")


def _bucket(token: str, dim: int) -> int:
    return _token_hash(token) % dim


def embed(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed ``text`` into a normalized float64 vector of length ``dim``."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        vec[_bucket(token, dim)] += 1.0
    norm = math.sqrt(vec.dot(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with a 0.0 guard for zero vectors."""
    nu = math.sqrt(u.dot(u))
    nv = math.sqrt(v.dot(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


__all__ = ["DEFAULT_DIM", "cosine", "embed", "tokenize"]
