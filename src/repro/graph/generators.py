"""Synthetic TAG generator.

Builds graphs that match the *statistics that matter* for the paper's
experiments: node/edge/class counts, label homophily, heavy-tailed degrees,
and — through the text synthesizer — a controllable fraction of nodes whose
text alone suffices to classify them (the saturated nodes of Definition 2).

Edges are drawn with a weighted homophilous attachment process: every node
gets a Pareto "attractiveness" weight (heavy-tailed degrees, like citation
and co-purchase graphs), and each edge endpoint is completed with a
same-class partner with probability ``homophily`` and a uniform-class partner
otherwise.

Node texts are drawn as indices into the synthesizer's word table, extended
by the rare terms that linked nodes share.  Those indices are also the
encoder's word ids (:class:`repro.text.encoders.WordIdCorpus`): the features
are counted from them, and no text is split into words during a build.  The
graph keeps the same corpus as its texts
(:class:`repro.text.corpus.WordIdTexts`), so no text is joined into a string
during a build either: a node's words are joined when the node is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.tag import TextAttributedGraph
from repro.text.corpus import TextSynthesizer, WordIdTexts
from repro.text.encoders import (
    BagOfWordsEncoder,
    HashingEncoder,
    LSAEncoder,
    TfidfEncoder,
    WordIdCorpus,
)
from repro.text.vocabulary import ClassVocabulary, WordFactory
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one synthetic TAG.

    Attributes
    ----------
    class_names:
        Label names; their count fixes the number of classes.
    num_nodes, num_edges:
        Target sizes.  The generator may fall slightly short of
        ``num_edges`` if duplicate avoidance exhausts its retry budget.
    homophily:
        Probability that an edge endpoint is completed within the same class.
    clear_fraction:
        Fraction of nodes drawn from the high-clarity regime (the knob that
        sets the saturated-node proportion of paper Table V).
    clear_clarity, ambiguous_clarity:
        ``(low, high)`` clarity ranges for the two regimes.
    title_clarity_shift:
        Added to the clarity of *titles* only (see
        :meth:`repro.text.corpus.TextSynthesizer.draw`); negative in
        domains whose titles index poorly onto classes (Pubmed, Ogbn-Arxiv).
    sibling_confusion:
        Probability that a node's confuser class is its label's fixed
        *sibling* class rather than a uniform other class.  Fine-grained
        taxonomies (the 40 arXiv CS areas, the diabetes subtypes) confuse
        toward related classes, which concentrates adverse neighbor votes —
        the structure behind neighbor text being net noise on those datasets.
    link_token_rate:
        Probability that an edge's endpoints share a unique rare term in
        their abstracts.  Linked papers/products genuinely share specific
        terminology beyond their class topic; this is the textual signal the
        link-prediction task (paper Sec. VI-J) exploits.
    link_tokens_per_node_cap:
        Maximum shared rare terms appended to one node's abstract, so hub
        nodes' texts are not flooded.
    triangle_closure:
        Fraction of the edge budget created by closing wedges (u-v, v-w ⇒
        u-w).  Citation and co-purchase graphs are strongly clustered; the
        resulting common-neighbor structure is the cue the link-prediction
        Base configuration exploits.
    feature_dim:
        Dimensionality of the encoded features.
    encoder:
        ``"bow"`` (binary bag of words, Cora/Citeseer), ``"tfidf"``
        (Pubmed), ``"lsa"`` (TF-IDF projected by truncated SVD, the stand-in
        for the OGB embeddings of Ogbn-Arxiv and Ogbn-Products) or
        ``"hashing"`` (signed feature hashing).
    title_words, abstract_words:
        Mean text lengths handed to :class:`TextSynthesizer`.
    degree_tail:
        Pareto shape of the attractiveness weights; smaller = heavier tail.
    """

    class_names: tuple[str, ...]
    num_nodes: int
    num_edges: int
    homophily: float = 0.82
    clear_fraction: float = 0.7
    clear_clarity: tuple[float, float] = (0.72, 0.95)
    ambiguous_clarity: tuple[float, float] = (0.35, 0.58)
    title_clarity_shift: float = 0.0
    sibling_confusion: float = 0.0
    link_token_rate: float = 0.55
    link_tokens_per_node_cap: int = 6
    triangle_closure: float = 0.15
    feature_dim: int = 512
    encoder: str = "bow"
    title_words: int = 10
    abstract_words: int = 110
    degree_tail: float = 2.2
    words_per_class: int = 60
    background_words: int = 400
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if len(self.class_names) < 2:
            raise ValueError("need at least two classes")
        check_positive("num_nodes", self.num_nodes)
        check_positive("num_edges", self.num_edges)
        if self.num_nodes < len(self.class_names):
            raise ValueError("num_nodes must be at least the number of classes")
        check_fraction("homophily", self.homophily)
        check_fraction("clear_fraction", self.clear_fraction)
        check_positive("feature_dim", self.feature_dim)
        if self.encoder not in ("bow", "tfidf", "hashing", "lsa"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
        for rng_name, (lo, hi) in (
            ("clear_clarity", self.clear_clarity),
            ("ambiguous_clarity", self.ambiguous_clarity),
        ):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{rng_name} must satisfy 0 <= low <= high <= 1")
        check_fraction("link_token_rate", self.link_token_rate)
        if self.link_tokens_per_node_cap < 0:
            raise ValueError("link_tokens_per_node_cap must be >= 0")
        check_fraction("triangle_closure", self.triangle_closure)


@dataclass
class GeneratedTag:
    """A generated graph plus generation-side ground truth.

    ``clarity`` is kept for diagnostics and calibration tests only — no
    strategy code may look at it (the paper's methods never see this).
    """

    graph: TextAttributedGraph
    vocabulary: ClassVocabulary
    clarity: np.ndarray = field(repr=False)


def sibling_map(num_classes: int) -> np.ndarray:
    """Fixed sibling pairing of classes: (0,1), (2,3), ...

    With an odd class count the last class pairs with class 0.  Used by the
    sibling-confusion mechanism; exposed for tests and diagnostics.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    siblings = np.arange(num_classes)
    siblings[0::2] += 1
    siblings[1::2] -= 1
    if num_classes % 2 == 1:
        siblings[-1] = 0
    siblings = np.clip(siblings, 0, num_classes - 1)
    return siblings


def _sample_labels(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """Class assignment with mildly skewed priors (real datasets are uneven)."""
    k = len(config.class_names)
    priors = rng.dirichlet(np.full(k, 8.0))
    labels = rng.choice(k, size=config.num_nodes, p=priors)
    # Guarantee every class is populated so per-class splits are well defined.
    for c in range(k):
        if not (labels == c).any():
            labels[rng.integers(config.num_nodes)] = c
    # The loop above may overwrite a class's only member.  Each class it
    # left empty takes a node from a class with members to spare; when it
    # left none empty, these are the labels it drew.
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0).tolist():
        spare = np.flatnonzero(counts[labels] > 1)
        node = int(spare[rng.integers(len(spare))])
        counts[labels[node]] -= 1
        counts[c] += 1
        labels[node] = c
    return labels.astype(np.int64)


def _sample_edges(
    config: GeneratorConfig, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw unique undirected edges with homophilous weighted attachment.

    Cross-class endpoints land in the label's *sibling* class with
    probability ``sibling_confusion`` (citations cross into related areas,
    not arbitrary ones) and uniformly otherwise.
    """
    n = config.num_nodes
    total_target = min(config.num_edges, n * (n - 1) // 2)
    target = total_target - int(round(total_target * config.triangle_closure))
    weights = rng.pareto(config.degree_tail, size=n) + 1.0
    global_p = weights / weights.sum()
    class_pools: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for c in np.unique(labels):
        pool = np.flatnonzero(labels == c)
        w = weights[pool]
        class_pools[int(c)] = (pool, w / w.sum())
    siblings = sibling_map(len(config.class_names))

    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    max_rounds = 60
    for _ in range(max_rounds):
        need = target - len(edges)
        if need <= 0:
            break
        batch = max(1024, int(need * 1.3))
        u = rng.choice(n, size=batch, p=global_p)
        same_class = rng.random(batch) < config.homophily
        to_sibling = (~same_class) & (rng.random(batch) < config.sibling_confusion)
        v = np.full(batch, -1, dtype=np.int64)
        # Partners grouped by target class for vectorized choice.
        for c, (pool, pool_p) in class_pools.items():
            mask = (same_class & (labels[u] == c)) | (to_sibling & (siblings[labels[u]] == c))
            cnt = int(mask.sum())
            if cnt:
                v[mask] = rng.choice(pool, size=cnt, p=pool_p)
        cross = ~same_class & ~to_sibling
        cnt = int(cross.sum())
        if cnt:
            v[cross] = rng.choice(n, size=cnt, p=global_p)
        if (v < 0).any():
            raise ValueError("an edge endpoint's partner class has no nodes")
        for a, b in zip(u.tolist(), v.tolist()):
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            if len(edges) >= target:
                break

    _close_triangles(edges, seen, total_target, rng)
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _close_triangles(
    edges: list[tuple[int, int]],
    seen: set[tuple[int, int]],
    total_target: int,
    rng: np.random.Generator,
) -> None:
    """Append wedge-closing edges in place until ``total_target`` edges.

    Each closure picks a random existing edge endpoint's wedge (u-v, v-w)
    and adds u-w, producing the clustered structure of real citation and
    co-purchase graphs.
    """
    if not edges or total_target <= len(edges):
        return
    adjacency: dict[int, list[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    max_attempts = (total_target - len(edges)) * 30
    attempts = 0
    while len(edges) < total_target and attempts < max_attempts:
        attempts += 1
        base_u, base_v = edges[int(rng.integers(len(edges)))]
        pivot = base_v if rng.random() < 0.5 else base_u
        nbrs = adjacency[pivot]
        if len(nbrs) < 2:
            continue
        i, j = rng.integers(len(nbrs)), rng.integers(len(nbrs))
        u, w = int(nbrs[i]), int(nbrs[j])
        if u == w:
            continue
        key = (u, w) if u < w else (w, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
        adjacency.setdefault(u, []).append(w)
        adjacency.setdefault(w, []).append(u)


def _sample_clarity(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    clear = rng.random(config.num_nodes) < config.clear_fraction
    lo_c, hi_c = config.clear_clarity
    lo_a, hi_a = config.ambiguous_clarity
    clarity = np.where(
        clear,
        rng.uniform(lo_c, hi_c, size=config.num_nodes),
        rng.uniform(lo_a, hi_a, size=config.num_nodes),
    )
    return clarity


def _link_words(
    config: GeneratorConfig,
    edges: np.ndarray,
    vocabulary: ClassVocabulary,
    seed: int,
    first_id: int,
) -> tuple[list[str], dict[int, list[int]]]:
    """Draw a unique shared rare term for both endpoints of some edges.

    The term never collides with class or background vocabulary, so node
    classification is unaffected; only pairwise text comparison can see it.
    Returns the terms in the order made, and each node's terms (appended to
    its abstract) as ids: the ``j``-th term made has id ``first_id + j``.
    """
    if config.link_token_rate == 0.0 or config.link_tokens_per_node_cap == 0:
        return [], {}
    rng = spawn_rng(seed, "link-tokens", config.name)
    factory = WordFactory(int(rng.integers(1 << 62)), min_syllables=4, max_syllables=5)
    known = set(vocabulary.background_words)
    for words in vocabulary.class_words:
        known.update(words)
    made: list[str] = []
    links: dict[int, list[int]] = {}
    counts = np.zeros(config.num_nodes, dtype=np.int64)
    cap = config.link_tokens_per_node_cap
    order = rng.permutation(edges.shape[0])
    share = rng.random(edges.shape[0]) < config.link_token_rate
    for idx in order:
        if not share[idx]:
            continue
        u, v = int(edges[idx, 0]), int(edges[idx, 1])
        if counts[u] >= cap or counts[v] >= cap:
            continue
        word = factory.make_word()
        while word in known:
            word = factory.make_word()
        links.setdefault(u, []).append(first_id + len(made))
        links.setdefault(v, []).append(first_id + len(made))
        made.append(word)
        counts[u] += 1
        counts[v] += 1
    return made, links


def _make_encoder(config: GeneratorConfig):
    if config.encoder == "bow":
        return BagOfWordsEncoder(dim=config.feature_dim)
    if config.encoder == "tfidf":
        return TfidfEncoder(dim=config.feature_dim)
    if config.encoder == "lsa":
        return LSAEncoder(dim=config.feature_dim)
    return HashingEncoder(dim=config.feature_dim)


def _node_texts(
    config: GeneratorConfig,
    labels: np.ndarray,
    clarity: np.ndarray,
    edges: np.ndarray,
    vocabulary: ClassVocabulary,
    seed: int,
) -> WordIdTexts:
    """Every node's text, held as the encoder's word ids.

    The link terms extend the synthesizer's word table.  Each node's drawn
    title indices, and its abstract indices followed by its link terms' ids,
    go straight into the corpus as the node is made: they are exactly the
    words of its title and abstract, in order, so no text is split into
    words or joined from them.
    """
    text_rng = spawn_rng(seed, "texts", config.name)
    synthesizer = TextSynthesizer(
        vocabulary,
        title_words=config.title_words,
        abstract_words=config.abstract_words,
    )
    link_words, node_links = _link_words(
        config, edges, vocabulary, seed, first_id=len(synthesizer.words)
    )
    corpus = WordIdCorpus(synthesizer.words + link_words)
    siblings = sibling_map(len(config.class_names))
    use_sibling = text_rng.random(config.num_nodes) < config.sibling_confusion
    for i in range(config.num_nodes):
        title, abstract = synthesizer.draw(
            int(labels[i]),
            float(clarity[i]),
            text_rng,
            title_clarity_shift=config.title_clarity_shift,
            confuser=int(siblings[labels[i]]) if use_sibling[i] else None,
        )
        links = node_links.get(i)
        if links:
            abstract = np.concatenate((abstract, links))
        corpus.add(title, abstract)
    return WordIdTexts(corpus)


def generate_tag(config: GeneratorConfig, seed: int = 0) -> GeneratedTag:
    """Generate a synthetic TAG from ``config``, fully determined by ``seed``."""
    label_rng = spawn_rng(seed, "labels", config.name)
    edge_rng = spawn_rng(seed, "edges", config.name)
    clarity_rng = spawn_rng(seed, "clarity", config.name)

    labels = _sample_labels(config, label_rng)
    edges = _sample_edges(config, labels, edge_rng)
    clarity = _sample_clarity(config, clarity_rng)

    vocabulary = ClassVocabulary.build(
        list(config.class_names),
        seed=int(spawn_rng(seed, "vocab", config.name).integers(1 << 62)),
        words_per_class=config.words_per_class,
        background_size=config.background_words,
    )
    texts = _node_texts(config, labels, clarity, edges, vocabulary, seed)
    features = _make_encoder(config).fit_transform(texts.corpus)

    graph = TextAttributedGraph.from_edges(
        num_nodes=config.num_nodes,
        edges=edges,
        labels=labels,
        texts=texts,
        features=features,
        class_names=list(config.class_names),
        name=config.name,
    )
    return GeneratedTag(graph=graph, vocabulary=vocabulary, clarity=clarity)
