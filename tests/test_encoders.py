"""Tests for text encoders (BoW, TF-IDF, hashing)."""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import load_dataset
from repro.text import encoders
from repro.text.encoders import BagOfWordsEncoder, HashingEncoder, TfidfEncoder

DOCS = [
    "graph mining with llms",
    "llms for graph tasks",
    "token pruning saves tokens",
    "query boosting uses pseudo labels",
]


class TestBagOfWords:
    def test_shape_and_dtype(self):
        x = BagOfWordsEncoder(dim=16).fit_transform(DOCS)
        assert x.shape == (4, 16) and x.dtype == np.float32

    def test_binary_entries(self):
        x = BagOfWordsEncoder(dim=16, binary=True).fit_transform(["a a a b"])
        assert set(np.unique(x)) <= {0.0, 1.0}

    def test_count_mode(self):
        enc = BagOfWordsEncoder(dim=4, binary=False).fit(["a a a b"])
        x = enc.transform(["a a b"])
        assert x[0, enc.vocabulary_["a"]] == 2.0

    def test_unknown_words_ignored(self):
        enc = BagOfWordsEncoder(dim=8).fit(DOCS)
        x = enc.transform(["entirely novel vocabulary"])
        assert x.sum() == 0

    def test_vocabulary_truncated_to_dim(self):
        enc = BagOfWordsEncoder(dim=3).fit(DOCS)
        assert len(enc.vocabulary_) == 3

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            BagOfWordsEncoder(dim=4).transform(DOCS)

    def test_deterministic_vocab(self):
        a = BagOfWordsEncoder(dim=8).fit(DOCS).vocabulary_
        b = BagOfWordsEncoder(dim=8).fit(DOCS).vocabulary_
        assert a == b


class TestTfidf:
    def test_rows_are_unit_norm(self):
        x = TfidfEncoder(dim=16).fit_transform(DOCS)
        norms = np.linalg.norm(x, axis=1)
        assert np.allclose(norms[norms > 0], 1.0, atol=1e-5)

    def test_rare_words_weigh_more(self):
        docs = ["common rare", "common", "common", "common"]
        enc = TfidfEncoder(dim=4).fit(docs)
        x = enc.transform(["common rare"])
        assert x[0, enc.vocabulary_["rare"]] > x[0, enc.vocabulary_["common"]]

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TfidfEncoder(dim=4).transform(DOCS)


class TestHashing:
    def test_stateless_fit(self):
        enc = HashingEncoder(dim=32)
        assert enc.fit(DOCS) is enc

    def test_deterministic(self):
        a = HashingEncoder(dim=32).transform(DOCS)
        b = HashingEncoder(dim=32).transform(DOCS)
        assert np.array_equal(a, b)

    def test_seed_changes_hashing(self):
        a = HashingEncoder(dim=32, seed=0).transform(DOCS)
        b = HashingEncoder(dim=32, seed=1).transform(DOCS)
        assert not np.array_equal(a, b)

    def test_rows_unit_norm(self):
        x = HashingEncoder(dim=32).transform(DOCS)
        norms = np.linalg.norm(x, axis=1)
        assert np.allclose(norms[norms > 0], 1.0, atol=1e-5)

    @given(st.integers(min_value=1, max_value=64))
    def test_any_dim_works(self, dim):
        x = HashingEncoder(dim=dim).transform(["a b c"])
        assert x.shape == (1, dim)


@pytest.mark.parametrize("encoder_cls", [BagOfWordsEncoder, TfidfEncoder, HashingEncoder])
class TestCommonBehaviour:
    def test_rejects_nonpositive_dim(self, encoder_cls):
        with pytest.raises(ValueError):
            encoder_cls(dim=0)

    def test_empty_documents(self, encoder_cls):
        x = encoder_cls(dim=8).fit_transform(["", ""])
        assert x.shape == (2, 8)
        assert x.sum() == 0


# ---------------------------------------------------------------- oracle
#
# The per-word loops below are the encoders' earlier ``fit``/``transform``,
# kept verbatim as the reference the one-bincount-per-row transforms must
# match bit for bit.


def reference_vocabulary(tokenizer, documents, dim):
    counts: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    for doc in documents:
        words = tokenizer.words(doc)
        counts.update(words)
        doc_freq.update(set(words))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:dim]
    vocabulary = {word: i for i, (word, _) in enumerate(ranked)}
    n_docs = max(1, len(documents))
    idf = np.zeros(dim, dtype=np.float32)
    for word, i in vocabulary.items():
        idf[i] = np.log((1.0 + n_docs) / (1.0 + doc_freq[word])) + 1.0
    return vocabulary, idf


def reference_bow_transform(encoder, documents):
    out = np.zeros((len(documents), encoder.dim), dtype=np.float32)
    for row, doc in enumerate(documents):
        for word in encoder.tokenizer.words(doc):
            col = encoder.vocabulary_.get(word)
            if col is not None:
                if encoder.binary:
                    out[row, col] = 1.0
                else:
                    out[row, col] += 1.0
    return out


def reference_tfidf_transform(encoder, documents):
    out = np.zeros((len(documents), encoder.dim), dtype=np.float32)
    for row, doc in enumerate(documents):
        for word in encoder.tokenizer.words(doc):
            col = encoder.vocabulary_.get(word)
            if col is not None:
                out[row, col] += 1.0
    out *= encoder.idf_[None, :]
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


#: Repeated words (some non-ASCII, some differing only in case) so that
#: vocabularies fill, truncate at ``dim`` and count words more than once.
WORD_POOL = ["graph", "Graph", "node", "llm", "token", "ünïcode", "数据", "a1", "x", "ß", ",", "!"]

documents = st.lists(
    st.one_of(
        st.just(""),
        st.text(max_size=40),
        st.lists(st.sampled_from(WORD_POOL), max_size=25).map(" ".join),
    ),
    max_size=8,
)


def _same_matrix(fresh, reference):
    assert fresh.dtype == np.float32
    assert fresh.shape == reference.shape
    assert np.array_equal(fresh, reference)


class TestBincountOracle:
    @settings(max_examples=200, deadline=None)
    @given(documents, documents, st.integers(min_value=1, max_value=12), st.booleans())
    def test_bag_of_words_matches_per_word_loop(self, fit_docs, docs, dim, binary):
        enc = BagOfWordsEncoder(dim=dim, binary=binary).fit(fit_docs)
        vocabulary, _ = reference_vocabulary(enc.tokenizer, fit_docs, dim)
        assert enc.vocabulary_ == vocabulary
        _same_matrix(enc.transform(docs), reference_bow_transform(enc, docs))
        _same_matrix(enc.transform(fit_docs), reference_bow_transform(enc, fit_docs))

    @settings(max_examples=200, deadline=None)
    @given(documents, documents, st.integers(min_value=1, max_value=12))
    def test_tfidf_matches_per_word_loop(self, fit_docs, docs, dim):
        enc = TfidfEncoder(dim=dim).fit(fit_docs)
        vocabulary, idf = reference_vocabulary(enc.tokenizer, fit_docs, dim)
        assert enc.vocabulary_ == vocabulary
        assert enc.idf_.dtype == np.float32 and np.array_equal(enc.idf_, idf)
        _same_matrix(enc.transform(docs), reference_tfidf_transform(enc, docs))
        _same_matrix(enc.transform(fit_docs), reference_tfidf_transform(enc, fit_docs))

    def test_documents_without_vocabulary_words_encode_to_zero(self):
        for enc in (BagOfWordsEncoder(dim=4, binary=False), TfidfEncoder(dim=4)):
            enc.fit(DOCS)
            x = enc.transform(["", "数据 ünïcode", "!!! ,,,"])
            assert x.dtype == np.float32 and not x.any()

    def test_cora_features_match_recorded_digest(self):
        """The cora replica's TF-IDF matrix, byte for byte.

        The digest was recorded with the per-word transform above; any
        change to tokenizing, vocabulary ranking or row encoding moves it.
        """
        features = load_dataset("cora").graph.features
        assert features.shape == (2708, 1433) and features.dtype == np.float32
        digest = hashlib.sha256(np.ascontiguousarray(features).tobytes()).hexdigest()
        assert digest == "1a7049472f6b4f71f1db90616de90355d895d8c22d4bb9f0d80c55486c5d616a"


BLOCK = encoders._NORM_BLOCK_ROWS


class TestRowNormOracle:
    """The blocked row normalisation equals dividing by ``np.linalg.norm``."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
        | st.integers(0, 3 * BLOCK),
        cols=st.integers(1, 7),
        scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e15]),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_linalg_norm(self, rows, cols, scale, zero_share, seed):
        rng = np.random.default_rng(seed)
        matrix = (rng.standard_normal((rows, cols)) * scale).astype(np.float32)
        matrix[rng.random(rows) < zero_share] = 0.0  # all-zero rows stay zero
        expected = matrix.copy()
        norms = np.linalg.norm(expected, axis=1, keepdims=True)
        np.divide(expected, norms, out=expected, where=norms > 0)
        encoders._normalize_rows(matrix)
        assert matrix.dtype == np.float32
        assert np.array_equal(matrix, expected, equal_nan=True)
