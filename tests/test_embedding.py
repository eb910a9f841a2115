import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from foresight.embedding import DEFAULT_DIM, _bucket, cosine, embed, tokenize


def test_tokenize_lowercases_and_splits_on_nonalnum():
    assert tokenize("The Apex HYSA pays 4.50% APY!") == ["the", "apex", "hysa", "pays", "4", "50", "apy"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("---") == []


@pytest.mark.parametrize("text", ["hello world", "a b c d e", "routers route packets"])
def test_embed_is_unit_norm(text):
    vec = embed(text)
    assert vec.shape == (DEFAULT_DIM,)
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-12


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


# Copies of ``embed`` and ``cosine`` as they were written with
# ``np.linalg.norm``; the library computes the norm as ``sqrt(v . v)``.


def embed_with_linalg_norm(text):
    vec = np.zeros(DEFAULT_DIM, dtype=np.float64)
    for token in tokenize(text):
        vec[_bucket(token, DEFAULT_DIM)] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def cosine_with_linalg_norm(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


words = st.lists(st.sampled_from(["w%d" % i for i in range(40)] + ["!!", "The", "4.50%"]), max_size=30)
vectors = arrays(
    np.float64,
    DEFAULT_DIM,
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    fill=st.sampled_from((0.0, 1.0, 0.25)),
)


@given(a=words, b=words, u=vectors, v=vectors)
def test_norm_is_the_same_float_as_linalg_norm(a, b, u, v):
    a, b = " ".join(a), " ".join(b)
    assert embed(a).tobytes() == embed_with_linalg_norm(a).tobytes()
    pairs = [(embed(a), embed(b)), (u, v), (u, embed(a)), (u, u), (np.zeros(DEFAULT_DIM), v)]
    for x, y in pairs:
        got = cosine(x, y)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(cosine_with_linalg_norm(x, y)).tobytes()
