"""Text substrate: tokenization, synthetic vocabularies and corpora, encoders.

This package stands in for the text tooling the paper relies on (tiktoken
token counting, raw paper text, SimCSE sentence embeddings).  Everything is
deterministic given a seed so experiments are exactly reproducible.
"""

from repro.text.encoders import BagOfWordsEncoder, HashingEncoder, TfidfEncoder
from repro.text.similarity import cosine_similarity, pairwise_cosine, top_k_similar
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import ClassVocabulary, WordFactory
from repro.text.corpus import NodeText, TextSynthesizer

__all__ = [
    "Tokenizer",
    "WordFactory",
    "ClassVocabulary",
    "TextSynthesizer",
    "NodeText",
    "BagOfWordsEncoder",
    "TfidfEncoder",
    "HashingEncoder",
    "cosine_similarity",
    "pairwise_cosine",
    "top_k_similar",
]
