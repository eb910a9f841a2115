import functools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foresight.embedding import DEFAULT_DIM, EMBED_MEMO_SIZE, _bucket, cosine, embed, token_counts, tokenize
from foresight.memory import SMALL_INDEX_ROWS, MemoryState, SimilarityIndex
from foresight.prediction import CandidateNeed, filter_candidates


def test_tokenize_lowercases_and_splits_on_nonalnum():
    assert tokenize("The Apex HYSA pays 4.50% APY!") == ["the", "apex", "hysa", "pays", "4", "50", "apy"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("---") == []


@pytest.mark.parametrize("text", ["hello world", "a b c d e", "routers route packets", "a a b a"])
def test_embed_returns_integer_token_counts(text):
    vec = embed(text)
    assert vec.shape == (DEFAULT_DIM,) and vec.dtype == np.float64
    counts = Counter(_bucket(token, DEFAULT_DIM) for token in tokenize(text))
    assert {int(b): int(vec[b]) for b in np.flatnonzero(vec)} == counts
    assert np.array_equal(vec, np.round(vec))


def test_embed_empty_is_zero_vector():
    vec = embed("")
    assert float(np.linalg.norm(vec)) == 0.0


def test_embed_order_free():
    # bag-of-tokens: permutations embed identically
    a = embed("alpha beta gamma delta")
    b = embed("delta gamma beta alpha")
    assert np.array_equal(a, b)


def test_identical_multisets_have_cosine_one():
    assert cosine(embed("the plan costs 42 credits"), embed("the plan costs 42 credits")) == pytest.approx(1.0)


def test_disjoint_token_sets_have_low_cosine():
    # collisions in 256 buckets are possible but 4-token texts stay far apart
    sim = cosine(embed("alpha beta gamma delta"), embed("epsilon zeta eta theta"))
    assert sim < 0.5


def test_cosine_zero_guard():
    assert cosine(embed(""), embed("anything")) == 0.0
    assert cosine(embed("anything"), embed("")) == 0.0


def test_repeated_tokens_change_weighting_not_direction_of_singleton():
    one = embed("quartz")
    many = embed("quartz quartz quartz")
    assert cosine(one, many) == pytest.approx(1.0)


def test_brute_force_cosine_agreement():
    """cosine() matches a from-scratch dot/norm computation on random pairs."""
    rng = random.Random(7)
    words = ["w%d" % i for i in range(30)]
    for _ in range(50):
        a = " ".join(rng.choices(words, k=rng.randint(1, 12)))
        b = " ".join(rng.choices(words, k=rng.randint(1, 12)))
        u, v = embed(a), embed(b)
        expected = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert cosine(u, v) == pytest.approx(expected, abs=1e-12)


# Reference scores from pure-Python ``int`` counts, with no NumPy reduction:
# ``cosine`` and the index must give these bits on every machine.


@functools.lru_cache(maxsize=None)
def reference_counts(text):
    return Counter(_bucket(token, DEFAULT_DIM) for token in tokenize(text))


def reference_cosine(a, b):
    ca, cb = reference_counts(a), reference_counts(b)
    na = sum(c * c for c in ca.values())
    nb = sum(c * c for c in cb.values())
    if na == 0 or nb == 0:
        return 0.0
    dot = sum(c * cb[bucket] for bucket, c in ca.items())
    return dot / math.sqrt(na * nb)


def same_bits(x, y):
    return type(x) is float and x.hex() == y.hex()


# "q1 a1" and "q2 a2" tie exactly against "q1 q2"; "!!!" has no tokens.
# One token repeated thousands of times makes dot products and squared
# norms of millions, so BLAS sums of large integers are checked too.
TOKENS = ["w%d" % i for i in range(12)] + ["q1", "q2", "a1", "a2", "The", "4.50%", "!!"]
TEXTS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join),
    st.sampled_from(("q1 a1", "q2 a2", "q1 q2", "!!!")),
    st.tuples(st.sampled_from(TOKENS), st.integers(2000, 5000), st.sampled_from(TOKENS)).map(
        lambda t: " ".join([t[0]] * t[1] + [t[2]])
    ),
)


@given(a=TEXTS, b=TEXTS)
def test_cosine_is_the_exact_integer_score(a, b):
    assert same_bits(cosine(embed(a), embed(b)), reference_cosine(a, b))


@given(a=TEXTS, b=TEXTS)
def test_cosine_with_cached_squared_norms_keeps_its_bits(a, b):
    u, v = embed(a), embed(b)
    uu, vv = float(u.dot(u)), float(v.dot(v))
    want = cosine(u, v)
    assert same_bits(want, reference_cosine(a, b))
    for given_norms in ({"uu": uu}, {"vv": vv}, {"uu": uu, "vv": vv}):
        assert same_bits(cosine(u, v, **given_norms), want)


def test_zero_query_scores_every_row_zero_on_both_paths():
    records = {f"k{i:02d}": f"w{i} w{i + 1}" for i in range(2 * SMALL_INDEX_ROWS)}
    records["empty"] = "!!"
    keys = sorted(records)
    index = SimilarityIndex(records, embed)
    for key in keys[:SMALL_INDEX_ROWS]:
        index.add(key)
    # At most SMALL_INDEX_ROWS keys: scored with ``cosine``, no matrix.
    assert index.search(embed("!!!"), 0.0) == [(key, 0.0) for key in keys[:SMALL_INDEX_ROWS]]
    assert index._matrix is None
    for key in keys[SMALL_INDEX_ROWS:]:
        index.add(key)
    index.remove(keys[0])
    # Past it: the built matrix, where a removed row scores NaN and is left out.
    hits = index.search(embed("!!!"), 0.0)
    assert index._matrix is not None
    assert hits == [(key, 0.0) for key in keys[1:]]
    assert all(same_bits(score, 0.0) for _, score in hits)
    assert index.search(embed("!!!"), 1e-300) == []


@settings(deadline=None)
@given(
    texts=st.lists(TEXTS, max_size=3 * SMALL_INDEX_ROWS),
    queries=st.lists(TEXTS, min_size=1, max_size=4),
    data=st.data(),
)
def test_index_scores_are_the_exact_integer_score(texts, queries, data):
    # Small and built indexes, rows added after the build, rows removed, and
    # removed keys added back.
    records = {f"k{i:02d}": text for i, text in enumerate(texts + ["q1 a1", "q2 a2", "!!!"])}
    keys = sorted(records)
    split = data.draw(st.integers(0, len(keys)), label="split")
    index = SimilarityIndex(records, embed)
    for key in keys[:split]:
        index.add(key)
    live = set(keys[:split])

    def check():
        for query in queries + ["q1 q2", "!!!"]:
            hits = index.search(embed(query), 0.0)
            assert sorted(key for key, _ in hits) == sorted(live)
            for key, score in hits:
                assert same_bits(score, reference_cosine(query, records[key]))
            want = sorted(hits, key=lambda hit: (-reference_cosine(query, records[hit[0]]), hit[0]))
            assert hits == want

    check()
    for key in keys[split:]:
        index.add(key)
    live.update(keys)
    check()
    removed = data.draw(st.lists(st.sampled_from(keys), unique=True), label="removed")
    for key in removed:
        index.remove(key)
        live.remove(key)
    check()
    # Adding the removed keys back takes new rows, past any room left.
    for key in removed:
        index.add(key)
        live.add(key)
    check()


def test_index_grows_after_every_row_was_removed():
    records = {f"k{i:02d}": f"w{i} w{i + 1}" for i in range(3 * SMALL_INDEX_ROWS)}
    keys = sorted(records)
    live = keys[: SMALL_INDEX_ROWS + 1]
    index = SimilarityIndex(records, embed)
    for key in live:
        index.add(key)
    index.search(embed("w1"), 0.0)  # builds the matrix
    # Each new key replaces every live one, so the matrix fills up with
    # removed rows and grows while no row is live.
    for key in keys[SMALL_INDEX_ROWS + 1 :]:
        for old in live:
            index.remove(old)
        index.add(key)
        live = [key]
        assert index.search(embed("!!!"), 0.0) == [(key, 0.0)]
        assert index.search(embed(records[key]), 0.0) == [(key, 1.0)]


# ``embed`` is memoised: these check that the memo changes no bit and hands
# out vectors nobody can write into.


def loop_embed(text):
    """``embed`` without the memo: a fresh count vector per call."""
    vec = np.zeros(DEFAULT_DIM, dtype=np.float64)
    for token in tokenize(text):
        vec[_bucket(token, DEFAULT_DIM)] += 1.0
    return vec


@given(text=TEXTS)
def test_memoised_embed_is_the_uncached_loop(text):
    want = loop_embed(text).tobytes()
    embed.cache_clear()
    first = embed(text)
    assert first.tobytes() == want
    assert embed(text) is first
    # Every other text is distinct from ``text``: TOKENS has no "evict".
    for i in range(EMBED_MEMO_SIZE + 1):
        embed(f"evict {i}")
    misses = embed.cache_info().misses
    again = embed(text)
    assert embed.cache_info().misses == misses + 1
    assert again.tobytes() == want


def test_embed_vectors_are_read_only():
    vec = embed("alpha beta gamma")
    with pytest.raises(ValueError):
        vec[0] = 1.0
    with pytest.raises(ValueError):
        vec += 1.0
    assert vec.tobytes() == loop_embed("alpha beta gamma").tobytes()


@given(text=TEXTS)
def test_token_counts_are_shared_read_only_counters(text):
    counts = token_counts(text)
    assert counts == Counter(tokenize(text))
    assert token_counts(text) is counts
    with pytest.raises(TypeError):
        counts["w1"] = 1
    assert counts == Counter(tokenize(text))


def _reject(content, record):
    raise AssertionError("arbiter must not be consulted")


@pytest.mark.parametrize("artifacts", range(1, SMALL_INDEX_ROWS + 1))
def test_repeated_filter_embeds_no_new_text(artifacts):
    # Up to SMALL_INDEX_ROWS artifacts the topics index scores every row
    # from ``embed(artifact_topic(record))`` on each search.
    memory = MemoryState()
    for i in range(artifacts):
        memory.add_knowledge("artifact", f"topic{i} alpha{i} beta{i}\nbody {i}", _reject)
    raw = [
        CandidateNeed(topic=topic, need="n", reason="r", confidence=0.9, retrieval_query=topic)
        for topic in ("topic0 alpha0 beta0", "gamma delta", "gamma delta epsilon", "zeta eta")
    ]
    first = filter_candidates(raw, memory)
    misses = embed.cache_info().misses
    assert filter_candidates(raw, memory) == first
    assert embed.cache_info().misses == misses
