"""A replica's node text, held as word ids, reads as the strings it replaces.

``generate_tag`` keeps each node's text as the word ids its encoder counted
(:class:`~repro.text.corpus.WordIdTexts` over a
:class:`~repro.text.encoders.WordIdCorpus`) and joins words only on read.
These properties hold that store to the string path (``synthesize`` joins
the drawn title and abstract, and the link terms are appended as strings)
over random vocabularies and synthesizer settings, with link terms:

* every ``graph.texts[i]`` equals the string path's ``NodeText``;
* every title-only read, ``graph.title(i)``, equals its ``.title``.

Some cases draw from a word table of more than 65,536 words, so their ids
are four bytes wide; chunk sizes are shrunk so chunk edges fall inside the
small corpora.  A guard bounds the pubmed 0.5 store by its own byte
count: two bytes per word id plus a fixed overhead per node.
"""

from __future__ import annotations

import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import load_dataset
from repro.graph.generators import (
    GeneratorConfig,
    _link_words,
    _node_texts,
    _sample_clarity,
    _sample_edges,
    _sample_labels,
    sibling_map,
)
from repro.graph.tag import TextAttributedGraph
from repro.text import encoders
from repro.text.corpus import NodeText, TextSynthesizer, WordIdTexts
from repro.text.vocabulary import ClassVocabulary
from repro.utils.rng import spawn_rng

from tests.test_encoders import chunked
from tests.test_replica_word_ids import vocabularies

#: Background words that push the word table past two-byte ids.
WIDE_BACKGROUND = 66_000


def _letters(i: int) -> str:
    """``i`` in base 26 over ``a``-``z``: distinct words for distinct ``i``."""
    word = ""
    while True:
        i, digit = divmod(i, 26)
        word += chr(ord("a") + digit)
        if i == 0:
            return word


def wide_vocabulary() -> ClassVocabulary:
    """Three classes of 20 keywords over 66,000 background words."""
    words = [_letters(i) for i in range(60 + WIDE_BACKGROUND)]
    return ClassVocabulary(["C0", "C1", "C2"], [words[0:20], words[20:40], words[40:60]], words[60:])


_WIDE = wide_vocabulary()


@st.composite
def replicas(draw):
    vocabulary = draw(st.one_of(vocabularies(), st.just(_WIDE)))
    config = GeneratorConfig(
        class_names=tuple(vocabulary.class_names),
        num_nodes=draw(st.integers(len(vocabulary.class_names), 40)),
        num_edges=draw(st.integers(1, 80)),
        sibling_confusion=draw(st.sampled_from([0.0, 0.5])),
        title_clarity_shift=draw(st.sampled_from([0.0, -0.4])),
        link_token_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        link_tokens_per_node_cap=draw(st.integers(0, 4)),
        title_words=draw(st.integers(1, 6)),
        abstract_words=draw(st.integers(1, 30)),
    )
    return config, vocabulary, draw(st.integers(0, 2**32 - 1))


def string_texts(config, labels, clarity, edges, vocabulary, seed) -> list[NodeText]:
    """Every node's text as strings: joined as drawn, link terms appended."""
    text_rng = spawn_rng(seed, "texts", config.name)
    synthesizer = TextSynthesizer(
        vocabulary, title_words=config.title_words, abstract_words=config.abstract_words
    )
    link_words, node_links = _link_words(config, edges, vocabulary, seed, first_id=0)
    siblings = sibling_map(len(config.class_names))
    use_sibling = text_rng.random(config.num_nodes) < config.sibling_confusion
    texts = []
    for i in range(config.num_nodes):
        text = synthesizer.synthesize(
            int(labels[i]),
            float(clarity[i]),
            text_rng,
            title_clarity_shift=config.title_clarity_shift,
            confuser=int(siblings[labels[i]]) if use_sibling[i] else None,
        )
        links = [link_words[j] for j in node_links.get(i, ())]
        texts.append(NodeText(text.title, " ".join([text.abstract, *links])))
    return texts


@settings(max_examples=60, deadline=None)
@given(replicas(), st.sampled_from([1, 2, 3, encoders._CHUNK_DOCS]))
def test_word_id_texts_read_as_the_strings(replica, chunk_docs):
    config, vocabulary, seed = replica
    labels = _sample_labels(config, spawn_rng(seed, "labels"))
    edges = _sample_edges(config, labels, spawn_rng(seed, "edges"))
    clarity = _sample_clarity(config, spawn_rng(seed, "clarity"))
    expected = string_texts(config, labels, clarity, edges, vocabulary, seed)
    with chunked(chunk_docs, 1 << 16):
        texts = _node_texts(config, labels, clarity, edges, vocabulary, seed)
        wide = len(texts.corpus.words) > 1 << 16
        assert {ids.typecode for _, ids in texts.corpus.chunks} == {"i" if wide else "H"}
        graph = TextAttributedGraph.from_edges(
            num_nodes=config.num_nodes,
            edges=edges,
            labels=labels,
            texts=texts,
            features=np.zeros((config.num_nodes, 1), dtype=np.float32),
            class_names=list(config.class_names),
        )
        assert len(graph.texts) == len(expected)
        for i, text in enumerate(expected):
            assert graph.texts[i] == text
            assert graph.title(i) == text.title
        assert graph.texts == expected and expected == graph.texts
        assert list(graph.texts) == expected
        assert graph.texts[-1] == expected[-1] and graph.texts[1::2] == expected[1::2]


def test_reads_past_either_end_raise():
    config = GeneratorConfig(class_names=("a", "b"), num_nodes=3, num_edges=2)
    vocabulary = ClassVocabulary.build(["a", "b"], seed=1, words_per_class=5, background_size=9)
    labels = np.array([0, 1, 1])
    texts = _node_texts(config, labels, np.full(3, 0.9), np.array([[0, 1], [1, 2]]), vocabulary, 4)
    for index in (3, -4):
        with pytest.raises(IndexError):
            texts[index]
        with pytest.raises(IndexError):
            texts.title(index)
    assert texts != texts[:2] and texts != "".join(t.full for t in texts)


def store_bytes(corpus) -> int:
    """Bytes allocated to every array ``corpus`` holds: each chunk's word
    counts and ids, and its per-document offsets."""
    arrays = [a for chunk in corpus.chunks for a in chunk]
    arrays += [value for value in vars(corpus).values() if isinstance(value, array)]
    return sum(map(sys.getsizeof, arrays))


def test_pubmed_store_holds_two_bytes_a_word():
    """Pubmed 0.5's texts cost two bytes per word id plus at most
    ``PER_NODE`` bytes a node, counted from the store's own arrays.

    Per node the store keeps a word count, a start offset and a title length
    (four bytes each) and the unused tail its growing chunk arrays
    over-allocate (about a sixteenth of a node's ids).  The same texts as
    strings take about 2.8 kB a node.
    """
    PER_NODE = 48
    graph = load_dataset("pubmed", scale=0.5).graph
    assert isinstance(graph.texts, WordIdTexts)
    corpus = graph.texts.corpus
    word_ids = sum(len(ids) for _, ids in corpus.chunks)
    assert {ids.typecode for _, ids in corpus.chunks} == {"H"}
    assert store_bytes(corpus) <= 2 * word_ids + PER_NODE * graph.num_nodes
