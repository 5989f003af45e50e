"""A replica's features from the synthesizer's word ids equal those from its texts.

``generate_tag`` never splits a text into words: each node's drawn word-table
indices and link-term ids go straight into the encoder's
:class:`~repro.text.encoders.WordIdCorpus`.  These properties hold that path
to the string path (``fit``/``fit_transform`` on ``NodeText.full``) over
random vocabularies and synthesizer settings, with link terms injected:

* a node's ids, read through the word table, are ``words(text.full)``;
* every encoder fits the same matrix, ``vocabulary_``, ``idf_`` and LSA
  components from the ids as from the strings.

Small corpora over large vocabularies leave table words no document uses;
feature widths run past the number of distinct words; and the chunk size and
id width are shrunk so chunk edges and widened id arrays fall inside them.
"""

from __future__ import annotations

import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    GeneratorConfig,
    _make_encoder,
    _node_texts,
    _sample_clarity,
    _sample_edges,
    _sample_labels,
)
from repro.text import encoders
from repro.text.encoders import LSAEncoder, WordIdCorpus
from repro.text.tokenizer import words
from repro.text.vocabulary import ClassVocabulary
from repro.utils.rng import spawn_rng

from tests.test_encoders import chunked

ENCODERS = ("bow", "tfidf", "lsa", "hashing")


@st.composite
def vocabularies(draw) -> ClassVocabulary:
    """Short random ``[a-z]+`` words, so that counts often tie."""
    k = draw(st.integers(2, 4))
    pool = draw(
        st.lists(
            st.text("abcdefgh", min_size=1, max_size=3),
            min_size=k + 1,
            max_size=60,
            unique=True,
        )
    )
    cuts = sorted(draw(st.lists(st.integers(1, len(pool) - 1), min_size=k, max_size=k, unique=True)))
    groups = [pool[a:b] for a, b in zip([0] + cuts, cuts + [len(pool)])]
    return ClassVocabulary([f"C{i}" for i in range(k)], groups[:k], groups[k])


@st.composite
def replicas(draw):
    vocabulary = draw(vocabularies())
    config = GeneratorConfig(
        class_names=tuple(vocabulary.class_names),
        num_nodes=draw(st.integers(len(vocabulary.class_names), 40)),
        num_edges=draw(st.integers(1, 80)),
        sibling_confusion=draw(st.sampled_from([0.0, 0.5])),
        title_clarity_shift=draw(st.sampled_from([0.0, -0.4])),
        link_token_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        link_tokens_per_node_cap=draw(st.integers(0, 4)),
        feature_dim=draw(st.integers(1, 120)),
        title_words=draw(st.integers(1, 6)),
        abstract_words=draw(st.integers(1, 30)),
    )
    return config, vocabulary, draw(st.integers(0, 2**32 - 1))


def build(config, vocabulary, seed):
    labels = _sample_labels(config, spawn_rng(seed, "labels"))
    edges = _sample_edges(config, labels, spawn_rng(seed, "edges"))
    clarity = _sample_clarity(config, spawn_rng(seed, "clarity"))
    texts = _node_texts(config, labels, clarity, edges, vocabulary, seed)
    return texts, texts.corpus


def doc_ids(corpus: WordIdCorpus) -> list[list[int]]:
    """Each document's ids, read from the chunks."""
    out = []
    for lengths, ids in corpus.chunks:
        ids = ids.tolist()
        for n in lengths:
            out.append(ids[:n])
            ids = ids[n:]
    return out


def fit_both(name, dim, corpus, documents):
    """The encoder ``name`` fitted on ``corpus`` and on ``documents``, with
    the matrix each returned, or the error each raised."""
    config = GeneratorConfig(class_names=("a", "b"), num_nodes=2, num_edges=1, encoder=name, feature_dim=dim)
    results = []
    for source in (corpus, documents):
        encoder = _make_encoder(config)
        try:
            results.append((encoder, encoder.fit_transform(source)))
        except ValueError as exc:
            results.append((encoder, str(exc)))
    return results


@settings(max_examples=120, deadline=None)
@given(
    replicas(),
    st.tuples(st.sampled_from([1, 2, 3, encoders._CHUNK_DOCS]), st.sampled_from([1, 8, 1 << 16])),
)
def test_ids_fit_what_the_texts_fit(replica, chunks):
    config, vocabulary, seed = replica
    with chunked(*chunks):
        texts, corpus = build(config, vocabulary, seed)
        table = corpus.words
        ids = doc_ids(corpus)
        assert len(ids) == corpus.n_docs == config.num_nodes
        for text, doc in zip(texts, ids):
            assert [table[i] for i in doc] == words(text.full)
        if len(table) > chunks[1]:
            assert {chunk.typecode for _, chunk in corpus.chunks} == {"i"}
        documents = [t.full for t in texts]
        for name in ENCODERS:
            (from_ids, x_ids), (from_text, x_text) = fit_both(
                name, config.feature_dim, copy.deepcopy(corpus), documents
            )
            if isinstance(x_text, str):
                assert x_ids == x_text
                continue
            assert x_ids.dtype == x_text.dtype == np.float32
            assert np.array_equal(x_ids, x_text)
            for attr in ("vocabulary_", "idf_", "components_"):
                a, b = getattr(from_ids, attr, None), getattr(from_text, attr, None)
                assert type(a) is type(b)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                else:
                    assert a == b


@pytest.mark.parametrize("name", ENCODERS)
def test_unused_table_words_stay_out_of_the_vocabulary(name):
    """Two nodes over 200 words a class: most of the table is unused, and
    ``dim`` is above the number of distinct words the texts hold."""
    vocabulary = ClassVocabulary.build(["a", "b"], seed=3, words_per_class=200, background_size=300)
    config = GeneratorConfig(
        class_names=("a", "b"), num_nodes=4, num_edges=3, feature_dim=500, encoder=name,
        title_words=3, abstract_words=12,
    )
    texts, corpus = build(config, vocabulary, 11)
    used = {w for t in texts for w in words(t.full)}
    assert len(used) < config.feature_dim < len(corpus.words)
    (from_ids, x_ids), (from_text, x_text) = fit_both(name, config.feature_dim, corpus, [t.full for t in texts])
    if isinstance(x_text, str):
        assert re.search("too small", x_text) and x_ids == x_text
        return
    assert np.array_equal(x_ids, x_text)
    if name in ("bow", "tfidf"):
        assert set(from_ids.vocabulary_) == used
        assert from_ids.vocabulary_ == from_text.vocabulary_


def test_lsa_from_ids_matches_strings_with_enough_documents():
    """A corpus large enough for LSA's ``min_df``: components, idf and
    vocabulary all fit from the ids as from the strings."""
    vocabulary = ClassVocabulary.build(["a", "b", "c"], seed=5, words_per_class=30, background_size=60)
    config = GeneratorConfig(class_names=("a", "b", "c"), num_nodes=60, num_edges=120, feature_dim=16)
    texts, corpus = build(config, vocabulary, 2)
    ids, text = LSAEncoder(dim=16), LSAEncoder(dim=16)
    assert np.array_equal(ids.fit_transform(corpus), text.fit_transform(t.full for t in texts))
    assert ids.vocabulary_ == text.vocabulary_
    assert np.array_equal(ids.idf_, text.idf_)
    assert np.array_equal(ids.components_, text.components_)
