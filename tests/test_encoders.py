"""Tests for text encoders (BoW, TF-IDF, LSA, hashing)."""

from __future__ import annotations

import hashlib
import re
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import load_dataset
from repro.text import encoders
from repro.text.encoders import BagOfWordsEncoder, HashingEncoder, LSAEncoder, TfidfEncoder
from repro.text.tokenizer import Tokenizer

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

    def test_documents_may_be_a_one_pass_iterator(self, encoder_cls):
        expected = encoder_cls(dim=8).fit_transform(DOCS)
        _same_matrix(encoder_cls(dim=8).fit_transform(iter(DOCS)), expected)
        fitted = encoder_cls(dim=8).fit(DOCS)
        _same_matrix(fitted.transform(iter(DOCS)), fitted.transform(DOCS))


# ---------------------------------------------------------------- oracle
#
# The encoders' earlier two-pass ``fit``/``transform``: a per-word ``Counter``
# fit, then a second tokenize per document to write its row.  They are kept
# verbatim as the reference the one-tokenize, word-id encoders must match
# bit for bit.

TOKENIZER = Tokenizer()


def reference_vocabulary_counts(vocabulary, doc, dim):
    cols = array("q", map(vocabulary.get, TOKENIZER.words(doc), repeat(dim)))
    return np.bincount(np.frombuffer(cols, dtype=np.int64), minlength=dim + 1)[:dim]


def reference_fit(documents, dim):
    """BoW/TF-IDF fit: the vocabulary and the float32 idf."""
    counts: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    for doc in documents:
        words = TOKENIZER.words(doc)
        counts.update(words)
        doc_freq.update(set(words))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:dim]
    vocabulary = {word: i for i, (word, _) in enumerate(ranked)}
    n_docs = max(1, len(documents))
    idf = np.zeros(dim, dtype=np.float32)
    for word, i in vocabulary.items():
        idf[i] = np.log((1.0 + n_docs) / (1.0 + doc_freq[word])) + 1.0
    return vocabulary, idf


def reference_bow_transform(vocabulary, documents, dim, binary):
    out = np.zeros((len(documents), dim), dtype=np.float32)
    for row, doc in enumerate(documents):
        counts = reference_vocabulary_counts(vocabulary, doc, dim)
        out[row] = counts > 0 if binary else counts
    return out


def reference_tfidf_transform(vocabulary, idf, documents, dim):
    out = np.zeros((len(documents), dim), dtype=np.float32)
    for row, doc in enumerate(documents):
        out[row] = reference_vocabulary_counts(vocabulary, doc, dim)
    out *= idf[None, :]
    encoders._normalize_rows(out)
    return out


def reference_lsa_tfidf(state, documents, fitting, min_df=3, max_vocab=8192):
    """LSA's sparse TF-IDF; ``state`` carries ``vocabulary``/``idf``."""
    if fitting:
        counts: Counter[str] = Counter()
        doc_freq: Counter[str] = Counter()
        for doc in documents:
            words = TOKENIZER.words(doc)
            counts.update(words)
            doc_freq.update(set(words))
        ranked = sorted(
            (kv for kv in counts.items() if doc_freq[kv[0]] >= min_df),
            key=lambda kv: (-kv[1], kv[0]),
        )[:max_vocab]
        state["vocabulary"] = {word: i for i, (word, _) in enumerate(ranked)}
        n_docs = max(1, len(documents))
        idf = np.zeros(len(state["vocabulary"]), dtype=np.float64)
        for word, i in state["vocabulary"].items():
            idf[i] = np.log((1.0 + n_docs) / (1.0 + doc_freq[word])) + 1.0
        state["idf"] = idf
    rows, cols, vals = [], [], []
    for r, doc in enumerate(documents):
        local: Counter[str] = Counter(TOKENIZER.words(doc))
        for word, count in local.items():
            c = state["vocabulary"].get(word)
            if c is not None:
                rows.append(r)
                cols.append(c)
                vals.append(float(count) * state["idf"][c])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(documents), len(state["vocabulary"])))
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
    norms[norms == 0] = 1.0
    return sp.diags(1.0 / norms) @ matrix


def reference_lsa_fit_transform(state, documents, dim, min_df, max_vocab):
    matrix = reference_lsa_tfidf(state, documents, True, min_df, max_vocab)
    if not state["vocabulary"]:
        raise ValueError(f"no word appears in >= {min_df} documents; corpus too small for LSA")
    k = min(dim, min(matrix.shape) - 1)
    if k < 1:
        raise ValueError("corpus too small for LSA")
    gram = np.asarray((matrix.T @ matrix).todense(), dtype=np.float64)
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, top].T
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    state["components"] = components
    return reference_lsa_project(matrix, components, dim)


def reference_lsa_transform(state, documents, dim):
    matrix = reference_lsa_tfidf(state, documents, False)
    return reference_lsa_project(matrix, state["components"], dim)


def reference_lsa_project(matrix, components, dim):
    out = np.asarray(matrix @ components.T, dtype=np.float32)
    if out.shape[1] < dim:
        out = np.pad(out, ((0, 0), (0, dim - out.shape[1])))
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

#: Chunk sizes that put chunk edges inside the small corpora above, and id
#: widths that widen the id arrays before the first word, mid-corpus, or
#: (``1 << 16``, the real width) never.
chunking = st.tuples(
    st.sampled_from([1, 2, 3, encoders._CHUNK_DOCS]), st.sampled_from([1, 4, 1 << 16])
)


@contextmanager
def chunked(chunk_docs, short_ids):
    with mock.patch.object(encoders, "_CHUNK_DOCS", chunk_docs), mock.patch.object(
        encoders, "_SHORT_IDS", short_ids
    ):
        yield


def _same_matrix(fresh, reference):
    assert fresh.dtype == np.float32
    assert fresh.shape == reference.shape
    assert np.array_equal(fresh, reference)


class TestBincountOracle:
    """The word-id encoders equal the two-pass reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(documents, documents, st.integers(min_value=1, max_value=12), st.booleans(), chunking)
    def test_bag_of_words_matches_per_word_loop(self, fit_docs, docs, dim, binary, chunks):
        vocabulary, _ = reference_fit(fit_docs, dim)
        with chunked(*chunks):
            enc = BagOfWordsEncoder(dim=dim, binary=binary).fit(fit_docs)
            assert enc.vocabulary_ == vocabulary
            _same_matrix(enc.transform(docs), reference_bow_transform(vocabulary, docs, dim, binary))
            both = BagOfWordsEncoder(dim=dim, binary=binary)
            fitted = both.fit_transform(fit_docs)
        assert both.vocabulary_ == vocabulary
        _same_matrix(fitted, reference_bow_transform(vocabulary, fit_docs, dim, binary))

    @settings(max_examples=200, deadline=None)
    @given(documents, documents, st.integers(min_value=1, max_value=12), chunking)
    def test_tfidf_matches_per_word_loop(self, fit_docs, docs, dim, chunks):
        vocabulary, idf = reference_fit(fit_docs, dim)
        with chunked(*chunks):
            enc = TfidfEncoder(dim=dim).fit(fit_docs)
            assert enc.vocabulary_ == vocabulary
            assert enc.idf_.dtype == np.float32 and np.array_equal(enc.idf_, idf)
            _same_matrix(enc.transform(docs), reference_tfidf_transform(vocabulary, idf, docs, dim))
            both = TfidfEncoder(dim=dim)
            fitted = both.fit_transform(fit_docs)
        assert both.vocabulary_ == vocabulary and np.array_equal(both.idf_, idf)
        _same_matrix(fitted, reference_tfidf_transform(vocabulary, idf, fit_docs, dim))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(WORD_POOL), max_size=12).map(" ".join), max_size=10),
        documents,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        chunking,
    )
    def test_lsa_matches_reference(self, fit_docs, docs, dim, min_df, extra_vocab, chunks):
        state: dict = {}
        try:
            expected = reference_lsa_fit_transform(state, fit_docs, dim, min_df, dim + extra_vocab)
        except ValueError as exc:
            with chunked(*chunks), pytest.raises(ValueError, match=re.escape(str(exc))):
                LSAEncoder(dim=dim, min_df=min_df, max_vocab=dim + extra_vocab).fit_transform(fit_docs)
            return
        with chunked(*chunks):
            enc = LSAEncoder(dim=dim, min_df=min_df, max_vocab=dim + extra_vocab)
            fitted = enc.fit_transform(fit_docs)
            projected = enc.transform(docs)
        assert enc.vocabulary_ == state["vocabulary"]
        assert enc.idf_.dtype == np.float64 and np.array_equal(enc.idf_, state["idf"])
        assert np.array_equal(enc.components_, state["components"])
        _same_matrix(fitted, expected)
        _same_matrix(projected, reference_lsa_transform(state, docs, dim))

    def test_documents_without_vocabulary_words_encode_to_zero(self):
        for enc in (BagOfWordsEncoder(dim=4, binary=False), TfidfEncoder(dim=4)):
            enc.fit(DOCS)
            x = enc.transform(["", "数据 ünïcode", "!!! ,,,"])
            assert x.dtype == np.float32 and not x.any()

    def test_corpus_spanning_chunks_matches_reference(self):
        """Real chunk size: a corpus whose last chunk is partly filled."""
        rng = np.random.default_rng(7)
        pool = [f"w{i}" for i in range(300)]
        docs = [
            " ".join(rng.choice(pool, size=rng.integers(0, 30)))
            for _ in range(2 * encoders._CHUNK_DOCS + 5)
        ]
        vocabulary, idf = reference_fit(docs, 64)
        _same_matrix(
            TfidfEncoder(dim=64).fit_transform(docs),
            reference_tfidf_transform(vocabulary, idf, docs, 64),
        )
        _same_matrix(
            BagOfWordsEncoder(dim=64, binary=False).fit_transform(docs),
            reference_bow_transform(vocabulary, docs, 64, False),
        )

    def test_corpus_past_two_byte_ids_matches_reference(self):
        """70,000 distinct words: the id arrays widen past ``"H"``'s range."""
        docs = [
            " ".join(f"w{i}" for i in range(start, start + 7_000))
            for start in range(0, 70_000, 7_000)
        ]
        docs.append("w69999 w3 w3 w69999 w69999")
        corpus = encoders.WordIdCorpus.from_documents(docs)
        assert len(corpus.words) == 70_000
        assert [ids.typecode for _, ids in corpus.chunks] == ["i"]
        vocabulary, idf = reference_fit(docs, 16)
        _same_matrix(TfidfEncoder(dim=16).fit_transform(docs), reference_tfidf_transform(vocabulary, idf, docs, 16))
        with chunked(4, 1 << 16):
            corpus = encoders.WordIdCorpus.from_documents(docs)
            assert [ids.typecode for _, ids in corpus.chunks] == ["H"] * 2 + ["i"]
            enc = BagOfWordsEncoder(dim=16, binary=False)
            _same_matrix(enc.fit_transform(docs), reference_bow_transform(vocabulary, docs, 16, False))

    @pytest.mark.parametrize("distinct, typecode", [(65_536, "H"), (65_537, "i")])
    def test_ids_widen_exactly_past_two_bytes(self, distinct, typecode):
        """65,536 distinct words fill ``"H"``; one more widens the chunk."""
        docs = [" ".join(f"w{i}" for i in range(65_535)), " ".join(f"w{i}" for i in range(65_535, distinct))]
        corpus = encoders.WordIdCorpus.from_documents(docs)
        assert len(corpus.words) == distinct
        assert [ids.typecode for _, ids in corpus.chunks] == [typecode]
        vocabulary, _ = reference_fit(docs, 8)
        _same_matrix(
            BagOfWordsEncoder(dim=8, binary=False).fit_transform(docs),
            reference_bow_transform(vocabulary, docs, 8, False),
        )

    @pytest.mark.parametrize(
        "name, scale, features_digest, texts_digest",
        [
            pytest.param(
                "cora",
                None,
                "1a7049472f6b4f71f1db90616de90355d895d8c22d4bb9f0d80c55486c5d616a",
                "ceae15bb9df90a43652922335c94dbf1117c6f13a1eee4d63c2f72f6c03c974d",
                id="cora",
            ),
            pytest.param(
                "citeseer",
                None,
                "099a39fd88a18e69f7fdc5ecde625d91351e943f526e019fdd08513b7d4e291f",
                "57ebf5b267dd3526c9c1f4f8ecf16dc79b17d036fe92cfc57deb83cf4350b93d",
                id="citeseer",
            ),
            pytest.param(
                "pubmed",
                0.5,
                "47089279c54c749ad8b869c5558fddfa9c7db1417b2bb5a7b0a6f77d658eb8b3",
                "9bb5671e18ef3c6d8fa0d03d9d103516be532a2ab3b6d7c01a571f970f4497a8",
                id="pubmed-0.5",
            ),
            pytest.param(
                "ogbn-arxiv",
                0.01,
                "241c2cd5cf38959d97373d861c8f07fa90f33dc3f3da6c917b5cca686de13b7c",
                "30163d47e9c71a74d0aa9b3c2507a8593babb23285f1558b8af0fa2f78be1176",
                id="arxiv-0.01-lsa",
            ),
            pytest.param(
                "ogbn-products",
                0.001,
                "54ccc81c707a513ac4f8b662cdaedf2c73c951a3209a123b6adc7d949e9a8fc8",
                "bdd92e15fd9171ff648bec08e0a79e0cf70145e6052a67379b1777489411b2d3",
                id="products-0.001-lsa",
            ),
        ],
    )
    def test_replica_matches_recorded_digest(self, name, scale, features_digest, texts_digest):
        """A replica's features and texts, byte for byte.

        The digests were recorded with the two-pass encoders above and the
        reference text synthesis of ``test_corpus.py`` and word making of
        ``test_vocabulary.py``; any change to word making, text synthesis,
        tokenizing, vocabulary ranking or row encoding moves them.
        """
        graph = load_dataset(name, scale=scale).graph
        assert graph.features.dtype == np.float32
        features = hashlib.sha256(np.ascontiguousarray(graph.features).tobytes()).hexdigest()
        texts = hashlib.sha256("\n".join(t.full for t in graph.texts).encode()).hexdigest()
        assert (features, texts) == (features_digest, texts_digest)


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
