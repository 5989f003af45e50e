"""Text-to-feature encoders (BoW, TF-IDF, feature hashing).

These replace the shallow encoders the paper's datasets ship with (Cora's
1433-dim bag-of-words, Pubmed's TF-IDF, OGB's fixed-width embeddings).  Every
encoder maps a list of documents to a dense ``(n_docs, dim)`` float32 matrix,
which feeds both the surrogate MLP classifier of the token-pruning strategy
and the similarity ranking of the SNS neighbor selector.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import repeat

import numpy as np

from repro.text.tokenizer import Tokenizer


def _vocabulary_counts(tokenizer: Tokenizer, vocabulary: dict[str, int], doc: str, dim: int):
    """``doc``'s vocabulary-word counts as a length-``dim`` row of integers.

    Counts below 2**24 are exact in float32, so the row equals one ``+= 1.0``
    per word.  Unknown words count in a spare column ``dim``.  The ids go in
    an ``array``: NumPy caches freed blocks under 1 KiB, and one index array
    per row fragmented the heap (+15 MB peak RSS on boost-cora-durable).
    """
    cols = array("q", map(vocabulary.get, tokenizer.words(doc), repeat(dim)))
    return np.bincount(np.frombuffer(cols, dtype=np.int64), minlength=dim + 1)[:dim]


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
        self.tokenizer = Tokenizer()
        self.vocabulary_: dict[str, int] | None = None

    def fit(self, documents: list[str]) -> "BagOfWordsEncoder":
        """Learn the truncated vocabulary from ``documents``."""
        counts: Counter[str] = Counter()
        for doc in documents:
            counts.update(self.tokenizer.words(doc))
        # Sort by (-frequency, word) for a deterministic vocabulary.
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: self.dim]
        self.vocabulary_ = {word: i for i, (word, _) in enumerate(ranked)}
        return self

    def transform(self, documents: list[str]) -> np.ndarray:
        """Encode ``documents`` into a ``(n, dim)`` float32 matrix."""
        if self.vocabulary_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        out = np.zeros((len(documents), self.dim), dtype=np.float32)
        for row, doc in enumerate(documents):
            counts = _vocabulary_counts(self.tokenizer, self.vocabulary_, doc, self.dim)
            out[row] = counts > 0 if self.binary else counts
        return out

    def fit_transform(self, documents: list[str]) -> np.ndarray:
        return self.fit(documents).transform(documents)


class TfidfEncoder:
    """TF-IDF over the ``dim`` most frequent words, L2-normalized rows."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.tokenizer = Tokenizer()
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None

    def fit(self, documents: list[str]) -> "TfidfEncoder":
        counts: Counter[str] = Counter()
        doc_freq: Counter[str] = Counter()
        for doc in documents:
            words = self.tokenizer.words(doc)
            counts.update(words)
            doc_freq.update(set(words))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: self.dim]
        self.vocabulary_ = {word: i for i, (word, _) in enumerate(ranked)}
        n_docs = max(1, len(documents))
        idf = np.zeros(self.dim, dtype=np.float32)
        for word, i in self.vocabulary_.items():
            idf[i] = np.log((1.0 + n_docs) / (1.0 + doc_freq[word])) + 1.0
        self.idf_ = idf
        return self

    def transform(self, documents: list[str]) -> np.ndarray:
        if self.vocabulary_ is None or self.idf_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        out = np.zeros((len(documents), self.dim), dtype=np.float32)
        for row, doc in enumerate(documents):
            out[row] = _vocabulary_counts(self.tokenizer, self.vocabulary_, doc, self.dim)
        out *= self.idf_[None, :]
        _normalize_rows(out)
        return out

    def fit_transform(self, documents: list[str]) -> np.ndarray:
        return self.fit(documents).transform(documents)


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
        self.tokenizer = Tokenizer()
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: np.ndarray | None = None
        self.components_: np.ndarray | None = None

    def _tfidf_sparse(self, documents: list[str], fitting: bool):
        import scipy.sparse as sp

        if fitting:
            counts: Counter[str] = Counter()
            doc_freq: Counter[str] = Counter()
            for doc in documents:
                words = self.tokenizer.words(doc)
                counts.update(words)
                doc_freq.update(set(words))
            ranked = sorted(
                (kv for kv in counts.items() if doc_freq[kv[0]] >= self.min_df),
                key=lambda kv: (-kv[1], kv[0]),
            )[: self.max_vocab]
            self.vocabulary_ = {word: i for i, (word, _) in enumerate(ranked)}
            n_docs = max(1, len(documents))
            idf = np.zeros(len(self.vocabulary_), dtype=np.float64)
            for word, i in self.vocabulary_.items():
                idf[i] = np.log((1.0 + n_docs) / (1.0 + doc_freq[word])) + 1.0
            self.idf_ = idf
        rows, cols, vals = [], [], []
        for r, doc in enumerate(documents):
            local: Counter[str] = Counter(self.tokenizer.words(doc))
            for word, count in local.items():
                c = self.vocabulary_.get(word)
                if c is not None:
                    rows.append(r)
                    cols.append(c)
                    vals.append(float(count) * self.idf_[c])
        matrix = sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(documents), len(self.vocabulary_))
        )
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        norms[norms == 0] = 1.0
        return sp.diags(1.0 / norms) @ matrix

    def fit_transform(self, documents: list[str]) -> np.ndarray:
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

    def fit(self, documents: list[str]) -> "LSAEncoder":
        self.fit_transform(documents)
        return self

    def transform(self, documents: list[str]) -> np.ndarray:
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
        self.tokenizer = Tokenizer()

    def _bucket(self, word: str) -> tuple[int, float]:
        from repro.utils.rng import stable_hash

        h = stable_hash(self.seed, word)
        return h % self.dim, 1.0 if (h >> 32) & 1 else -1.0

    def transform(self, documents: list[str]) -> np.ndarray:
        out = np.zeros((len(documents), self.dim), dtype=np.float32)
        for row, doc in enumerate(documents):
            for word in self.tokenizer.words(doc):
                col, sign = self._bucket(word)
                out[row, col] += sign
        _normalize_rows(out)
        return out

    def fit(self, documents: list[str]) -> "HashingEncoder":
        """No-op, for API parity with the fitted encoders."""
        return self

    def fit_transform(self, documents: list[str]) -> np.ndarray:
        return self.transform(documents)
