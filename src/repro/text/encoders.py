"""Text-to-feature encoders (BoW, TF-IDF, LSA, feature hashing).

These replace the shallow encoders the paper's datasets ship with (Cora's
1433-dim bag-of-words, Pubmed's TF-IDF, OGB's fixed-width embeddings).  Every
encoder maps documents to a dense ``(n_docs, dim)`` float32 matrix, which
feeds both the surrogate MLP classifier of the token-pruning strategy and the
similarity ranking of the SNS neighbor selector.

Every encoder counts one :class:`WordIdCorpus`: word ids into one word
table, in one compact ``array`` per :data:`_CHUNK_DOCS` documents, two bytes
a word while the table has at most 65,536 words.  Word lists would cost a
pointer a word plus the list, and doubled pubmed's peak RSS.  The replica
generator hands the encoder the word-table indices its synthesizer drew, so
a replica build splits no text into words; ``fit``, ``transform`` and
``fit_transform`` on strings split each document once into the same kind of
corpus, so both inputs share one counting core.  The vocabulary ranking is a
bincount over the ids; the encoders then map ids to feature columns with one
lookup array and count each chunk's rows with one bincount.  Encoding reads
the chunks without consuming them: the replica graph keeps the corpus it
counted as its node text, one copy of the ids (strings of every text cost
six to seven times their ids).  Since each string document is read once,
string documents may be any iterable.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import repeat
from typing import Iterable

import numpy as np

from repro.text.tokenizer import words

#: Documents per chunk of word ids.  A chunk's rows are counted with one
#: bincount into a ``(_CHUNK_DOCS, dim + 1)`` int64 buffer: 0.7 MiB at
#: cora's 1,433 columns.  256-document chunks made that buffer 2.8 MiB and
#: raised boost-cora-durable's peak RSS by 7 MB (10%).
_CHUNK_DOCS = 64

#: Provisional ids below this fit the two-byte ``array`` typecode ``"H"``;
#: a chunk that would pass it is widened to four-byte ``"i"``.
_SHORT_IDS = 1 << 16


class WordIdCorpus:
    """One corpus held as word ids into one word table.

    ``words[i]`` is the word with id ``i``.  ``chunks`` holds one
    ``(lengths, ids)`` pair per :data:`_CHUNK_DOCS` documents: each
    document's word count, and the ids of those words in order.  The
    replica generator builds a corpus over its synthesizer's word table and
    adds each node's drawn title and abstract indices with :meth:`add`, so
    no replica text is split into words; :meth:`from_documents` splits
    strings into one, numbering words in first-seen order.  Encoders read
    the chunks without consuming them, so a replica graph keeps the corpus
    its features were counted from as its node text
    (:class:`repro.text.corpus.WordIdTexts`), and :meth:`span` finds one
    document's title and abstract ids in it.  Words of the table that no
    document uses never enter a fitted vocabulary.
    """

    def __init__(self, words: list[str]):
        self.words = words
        self.n_docs = 0
        self.chunks: list[tuple[array, array]] = []
        # Per document: where its ids start in its chunk's ids, and how many
        # of them are its title (none for split strings).
        self._starts = array("i")
        self._title_lengths = array("i")

    def _open(self, bound: int, title_length: int = 0) -> tuple[array, array]:
        """The chunk arrays for one more document, whose ids are below ``bound``."""
        if self.n_docs % _CHUNK_DOCS == 0:
            self.chunks.append((array("i"), array("H")))
        lengths, ids = self.chunks[-1]
        if ids.typecode == "H" and bound > _SHORT_IDS:
            ids = array("i", ids)
            self.chunks[-1] = (lengths, ids)
        self._starts.append(len(ids))
        self._title_lengths.append(title_length)
        self.n_docs += 1
        return lengths, ids

    def add(self, title: np.ndarray, abstract: np.ndarray) -> None:
        """Append one document: its title's word ids, then its abstract's.

        Every id must be below ``len(self.words)``.
        """
        lengths, ids = self._open(len(self.words), len(title))
        lengths.append(len(title) + len(abstract))
        dtype = _ID_DTYPES[ids.typecode]
        for part in (title, abstract):
            ids.frombytes(np.asarray(part, dtype=dtype).tobytes())

    def span(self, doc: int) -> tuple[array, int, int, int]:
        """Document ``doc``'s chunk ids, and the offsets in them where its
        title starts, its abstract starts and the document ends."""
        lengths, ids = self.chunks[doc // _CHUNK_DOCS]
        start = self._starts[doc]
        return ids, start, start + self._title_lengths[doc], start + lengths[doc % _CHUNK_DOCS]

    @classmethod
    def from_documents(cls, documents: Iterable[str]) -> "WordIdCorpus":
        """Split each of ``documents`` into words once and number the words."""
        word_ids: defaultdict[str, int] = defaultdict()
        word_ids.default_factory = word_ids.__len__
        id_of = word_ids.__getitem__
        corpus = cls([])
        for doc in documents:
            doc_words = words(doc)
            lengths, ids = corpus._open(len(word_ids) + len(doc_words))
            lengths.append(len(doc_words))
            ids.extend(map(id_of, doc_words))
        corpus.words = list(word_ids)
        return corpus

    def totals(self) -> np.ndarray:
        """Occurrences of each id across the corpus."""
        totals = np.zeros(len(self.words), dtype=np.int64)
        for _, ids in self.chunks:
            totals += np.bincount(np.frombuffer(ids, dtype=ids.typecode), minlength=len(totals))
        return totals

    def doc_freq(self) -> np.ndarray:
        """Number of documents each id occurs in."""
        n = len(self.words)
        doc_freq = np.zeros(n, dtype=np.int64)
        for lengths, ids in self.chunks:
            cells = _doc_rows(lengths) * n + np.frombuffer(ids, dtype=ids.typecode)
            doc_freq += np.bincount(np.unique(cells) % n, minlength=n)
        return doc_freq

    def columns(self, vocabulary: dict[str, int], spare: int) -> np.ndarray:
        """Feature column of each id; ``spare`` for words outside ``vocabulary``."""
        return np.fromiter(
            map(vocabulary.get, self.words, repeat(spare)), dtype=np.intp, count=len(self.words)
        )


#: The NumPy dtype of each id ``array`` typecode.
_ID_DTYPES = {"H": np.uint16, "i": np.int32}


def _corpus(documents: Iterable[str] | WordIdCorpus) -> WordIdCorpus:
    """``documents`` as a corpus: split into words unless already one."""
    if isinstance(documents, WordIdCorpus):
        return documents
    return WordIdCorpus.from_documents(documents)


def _doc_rows(lengths: array) -> np.ndarray:
    """Chunk-local document index of every word of a chunk."""
    return np.repeat(np.arange(len(lengths)), np.frombuffer(lengths, dtype=np.int32))


def _fit_vocabulary(
    corpus: WordIdCorpus, size: int, eligible: np.ndarray | None = None
) -> tuple[list[int], dict[str, int]]:
    """The ``size`` most frequent words of ``corpus`` as its vocabulary.

    Words rank by ``(-frequency, word)`` for a deterministic vocabulary.
    Only ids where ``eligible`` is true take part, by default those the
    corpus uses: a word table may hold words no document has.  Returns the
    ranked ids and the ``word -> column`` vocabulary.
    """
    totals = corpus.totals()
    candidates = np.flatnonzero(totals > 0 if eligible is None else eligible).tolist()
    totals = totals.tolist()
    words_ = corpus.words
    ranked = sorted(candidates, key=lambda i: (-totals[i], words_[i]))[:size]
    return ranked, {words_[i]: col for col, i in enumerate(ranked)}


def _chunk_words(corpus: WordIdCorpus, cols: np.ndarray):
    """Yield ``(start, n, rows, columns)`` per chunk of ``corpus``.

    ``rows`` and ``columns`` give each word's chunk-local document and its
    feature column under the lookup ``cols``.
    """
    start = 0
    for lengths, ids in corpus.chunks:
        n = len(lengths)
        yield start, n, _doc_rows(lengths), cols[np.frombuffer(ids, dtype=ids.typecode)]
        start += n


def _chunk_counts(corpus: WordIdCorpus, cols: np.ndarray, dim: int):
    """Yield ``(start, counts)`` per chunk: its ``(n, dim)`` int64 matrix of
    vocabulary-word counts.  Words in column ``dim`` are not counted."""
    for start, n, rows, columns in _chunk_words(corpus, cols):
        counts = np.bincount(rows * (dim + 1) + columns, minlength=n * (dim + 1))
        yield start, counts.reshape(n, dim + 1)[:, :dim]


def _idf(doc_freq: list[int], n_docs: int, size: int, dtype) -> np.ndarray:
    """Smoothed idf, ``log((1 + n) / (1 + df)) + 1``, of each vocabulary column.

    Computed one scalar at a time, as the vocabulary's words were; columns
    past ``len(doc_freq)`` stay zero.
    """
    idf = np.zeros(size, dtype=dtype)
    n_docs = max(1, n_docs)
    for i, df in enumerate(doc_freq):
        idf[i] = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    return idf


#: Rows squared per block by :func:`_normalize_rows`.
_NORM_BLOCK_ROWS = 256


def _normalize_rows(out: np.ndarray) -> None:
    """Scale ``out``'s rows to unit L2 norm in place; all-zero rows stay zero.

    Bit for bit ``out / np.linalg.norm(out, axis=1, keepdims=True)``, which
    squares the whole matrix into a temporary of its size (14.8 MiB on
    cora); here one ``_NORM_BLOCK_ROWS``-row buffer is reused instead.
    """
    norms = np.empty((len(out), 1), dtype=out.dtype)
    squares = np.empty((min(len(out), _NORM_BLOCK_ROWS), out.shape[1]), dtype=out.dtype)
    for start in range(0, len(out), _NORM_BLOCK_ROWS):
        block = out[start : start + _NORM_BLOCK_ROWS]
        buf = squares[: len(block)]
        np.multiply(block, block, out=buf)
        np.add.reduce(buf, axis=1, out=norms[start : start + len(block), 0])
    np.sqrt(norms, out=norms)
    np.divide(out, norms, out=out, where=norms > 0)


class BagOfWordsEncoder:
    """Binary/count bag-of-words over the ``dim`` most frequent words.

    Parameters
    ----------
    dim:
        Feature dimensionality (vocabulary is truncated to the ``dim`` most
        frequent corpus words, ties broken alphabetically for determinism).
    binary:
        If true (the default, matching Cora-style features), entries are 0/1;
        otherwise raw counts.
    """

    def __init__(self, dim: int, binary: bool = True):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.binary = binary
        self.vocabulary_: dict[str, int] | None = None

    def _fit(self, corpus: WordIdCorpus) -> np.ndarray:
        """Learn the vocabulary; return ``corpus``'s id -> column lookup."""
        _, self.vocabulary_ = _fit_vocabulary(corpus, self.dim)
        return corpus.columns(self.vocabulary_, self.dim)

    def _encode(self, corpus: WordIdCorpus, cols: np.ndarray) -> np.ndarray:
        out = np.zeros((corpus.n_docs, self.dim), dtype=np.float32)
        for start, counts in _chunk_counts(corpus, cols, self.dim):
            out[start : start + len(counts)] = counts > 0 if self.binary else counts
        return out

    def fit(self, documents: Iterable[str] | WordIdCorpus) -> "BagOfWordsEncoder":
        """Learn the truncated vocabulary from ``documents``."""
        self._fit(_corpus(documents))
        return self

    def transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        """Encode ``documents`` into a ``(n, dim)`` float32 matrix."""
        if self.vocabulary_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        corpus = _corpus(documents)
        return self._encode(corpus, corpus.columns(self.vocabulary_, self.dim))

    def fit_transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        corpus = _corpus(documents)
        return self._encode(corpus, self._fit(corpus))


class TfidfEncoder:
    """TF-IDF over the ``dim`` most frequent words, L2-normalized rows."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    def _fit(self, corpus: WordIdCorpus) -> np.ndarray:
        """Learn the vocabulary; return ``corpus``'s id -> column lookup."""
        _, self.vocabulary_ = _fit_vocabulary(corpus, self.dim)
        return corpus.columns(self.vocabulary_, self.dim)

    def _counts(self, corpus: WordIdCorpus, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw vocabulary-word counts of ``corpus`` and each column's document
        frequency, taken from the rows as they are written."""
        out = np.zeros((corpus.n_docs, self.dim), dtype=np.float32)
        doc_freq = np.zeros(self.dim, dtype=np.int64)
        for start, counts in _chunk_counts(corpus, cols, self.dim):
            out[start : start + len(counts)] = counts
            doc_freq += np.count_nonzero(counts, axis=0)
        return out, doc_freq

    def _weigh(self, out: np.ndarray) -> np.ndarray:
        out *= self.idf_[None, :]
        _normalize_rows(out)
        return out

    def _learn_idf(self, n_docs: int, doc_freq: np.ndarray) -> None:
        self.idf_ = _idf(doc_freq[: len(self.vocabulary_)].tolist(), n_docs, self.dim, np.float32)

    def fit(self, documents: Iterable[str] | WordIdCorpus) -> "TfidfEncoder":
        corpus = _corpus(documents)
        cols = self._fit(corpus)
        doc_freq = np.zeros(self.dim, dtype=np.int64)
        for _, counts in _chunk_counts(corpus, cols, self.dim):
            doc_freq += np.count_nonzero(counts, axis=0)
        self._learn_idf(corpus.n_docs, doc_freq)
        return self

    def transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        if self.vocabulary_ is None or self.idf_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        corpus = _corpus(documents)
        out, _ = self._counts(corpus, corpus.columns(self.vocabulary_, self.dim))
        return self._weigh(out)

    def fit_transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        corpus = _corpus(documents)
        out, doc_freq = self._counts(corpus, self._fit(corpus))
        self._learn_idf(corpus.n_docs, doc_freq)
        return self._weigh(out)


class LSAEncoder:
    """Latent semantic analysis: TF-IDF over the full vocabulary, then
    truncated SVD down to ``dim`` components.

    This is the closest offline stand-in for the dense embedding features
    the OGB datasets ship (averaged word embeddings): a low-dimensional
    topical projection that preserves class structure far better than
    feature hashing at the same dimensionality.

    Parameters
    ----------
    dim:
        Output dimensionality.
    min_df:
        Minimum document frequency for a word to enter the vocabulary.
        Rare words (idiosyncratic jargon, typos) carry no topical structure
        but would blow the decomposition up quadratically; 3 drops them.
    max_vocab:
        Hard cap on vocabulary size (most-frequent-first), bounding the
        dense gram matrix the decomposition runs on.
    """

    def __init__(self, dim: int, min_df: int = 3, max_vocab: int = 8192):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        if max_vocab < dim:
            raise ValueError("max_vocab must be >= dim")
        self.dim = dim
        self.min_df = min_df
        self.max_vocab = max_vocab
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None
        self.components_: np.ndarray | None = None

    def _tfidf_sparse(self, documents: Iterable[str], fitting: bool):
        import scipy.sparse as sp

        corpus = _corpus(documents)
        if fitting:
            doc_freq = corpus.doc_freq()
            ranked, self.vocabulary_ = _fit_vocabulary(
                corpus, self.max_vocab, eligible=doc_freq >= self.min_df
            )
            self.idf_ = _idf(doc_freq[ranked].tolist(), corpus.n_docs, len(ranked), np.float64)
        width = len(self.vocabulary_)
        cols = corpus.columns(self.vocabulary_, width)
        rows, columns, vals = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
        # One entry per (document, vocabulary word), in row-major order: the
        # order the CSR conversion sorts entries into anyway.
        for start, _, doc_rows, doc_cols in _chunk_words(corpus, cols):
            known = doc_cols < width
            cells, counts = np.unique(doc_rows[known] * width + doc_cols[known], return_counts=True)
            rows.append(start + cells // max(width, 1))
            columns.append(cells % max(width, 1))
            vals.append(counts * self.idf_[columns[-1]])
        matrix = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(columns))),
            shape=(corpus.n_docs, width),
        )
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        norms[norms == 0] = 1.0
        return sp.diags(1.0 / norms) @ matrix

    def fit_transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        matrix = self._tfidf_sparse(documents, fitting=True)
        if not self.vocabulary_:
            raise ValueError(
                f"no word appears in >= {self.min_df} documents; corpus too small for LSA"
            )
        k = min(self.dim, min(matrix.shape) - 1)
        if k < 1:
            raise ValueError("corpus too small for LSA")
        # Deterministic LSA via the (m, m) gram matrix: the top-k
        # eigenvectors of XᵀX are the right singular vectors of X.  (svds
        # would be faster but is start-vector dependent run to run.)
        gram = np.asarray((matrix.T @ matrix).todense(), dtype=np.float64)
        eigvals, eigvecs = np.linalg.eigh(gram)
        top = np.argsort(eigvals)[::-1][:k]
        components = eigvecs[:, top].T
        # Fix each component's sign so encoding is unambiguous.
        for row in components:
            pivot = np.argmax(np.abs(row))
            if row[pivot] < 0:
                row *= -1.0
        self.components_ = components
        out = np.asarray(matrix @ components.T, dtype=np.float32)
        if out.shape[1] < self.dim:
            out = np.pad(out, ((0, 0), (0, self.dim - out.shape[1])))
        return out

    def fit(self, documents: Iterable[str] | WordIdCorpus) -> "LSAEncoder":
        self.fit_transform(documents)
        return self

    def transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        if self.components_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        matrix = self._tfidf_sparse(documents, fitting=False)
        out = np.asarray(matrix @ self.components_.T, dtype=np.float32)
        if out.shape[1] < self.dim:
            out = np.pad(out, ((0, 0), (0, self.dim - out.shape[1])))
        return out


class HashingEncoder:
    """Stateless feature hashing into ``dim`` buckets with sign hashing.

    Needs no fit pass, so it suits large corpora (the Ogbn-scale replicas)
    where building an explicit vocabulary would be wasteful.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.seed = seed

    def _bucket(self, word: str) -> tuple[int, float]:
        from repro.utils.rng import stable_hash

        h = stable_hash(self.seed, word)
        return h % self.dim, 1.0 if (h >> 32) & 1 else -1.0

    def transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        corpus = _corpus(documents)
        dim = self.dim
        # Each word is hashed once.  Its column is its bucket, plus ``dim``
        # when its sign is negative, so one bincount counts a chunk's +1s
        # and -1s apart; their difference is each cell's ±1 sum, exact in
        # float32 as a word-by-word loop's is.
        cols = np.zeros(len(corpus.words), dtype=np.intp)
        for i, word in enumerate(corpus.words):
            bucket, sign = self._bucket(word)
            cols[i] = bucket if sign > 0 else bucket + dim
        out = np.zeros((corpus.n_docs, dim), dtype=np.float32)
        for start, n, rows, columns in _chunk_words(corpus, cols):
            counts = np.bincount(rows * (2 * dim) + columns, minlength=n * 2 * dim)
            counts = counts.reshape(n, 2 * dim)
            out[start : start + n] = counts[:, :dim] - counts[:, dim:]
        _normalize_rows(out)
        return out

    def fit(self, documents: Iterable[str] | WordIdCorpus) -> "HashingEncoder":
        """No-op, for API parity with the fitted encoders."""
        return self

    def fit_transform(self, documents: Iterable[str] | WordIdCorpus) -> np.ndarray:
        return self.transform(documents)
