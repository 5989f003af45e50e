"""Tests for the synthetic TAG generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import DATASET_SPECS
from repro.graph.generators import (
    GeneratorConfig,
    _sample_edges,
    _sample_labels,
    generate_tag,
    sibling_map,
)
from repro.graph.homophily import edge_homophily
from repro.utils.rng import spawn_rng


class TestSiblingMap:
    def test_even_pairs(self):
        assert list(sibling_map(4)) == [1, 0, 3, 2]

    def test_odd_last_pairs_with_zero(self):
        assert list(sibling_map(5)) == [1, 0, 3, 2, 0]

    def test_never_self_for_k_ge_2(self):
        for k in range(2, 12):
            sib = sibling_map(k)
            assert all(sib[i] != i for i in range(k))

    def test_invalid(self):
        with pytest.raises(ValueError):
            sibling_map(0)


class TestGeneratorConfig:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            GeneratorConfig(class_names=("only",), num_nodes=10, num_edges=10)

    def test_rejects_bad_clarity_range(self):
        with pytest.raises(ValueError):
            GeneratorConfig(
                class_names=("a", "b"),
                num_nodes=10,
                num_edges=10,
                ambiguous_clarity=(0.7, 0.4),
            )

    def test_rejects_fewer_nodes_than_classes(self):
        with pytest.raises(ValueError, match="number of classes"):
            GeneratorConfig(class_names=("a", "b", "c"), num_nodes=2, num_edges=1)

    def test_rejects_unknown_encoder(self):
        with pytest.raises(ValueError, match="encoder"):
            GeneratorConfig(class_names=("a", "b"), num_nodes=10, num_edges=10, encoder="bert")


class TestGenerateTag:
    def test_shapes(self, tiny_tag, tiny_config):
        g = tiny_tag.graph
        assert g.num_nodes == tiny_config.num_nodes
        assert g.feature_dim == tiny_config.feature_dim
        assert len(g.texts) == g.num_nodes
        assert tiny_tag.clarity.shape == (g.num_nodes,)

    def test_edge_count_close_to_target(self, tiny_tag, tiny_config):
        assert tiny_tag.graph.num_edges >= int(tiny_config.num_edges * 0.95)
        assert tiny_tag.graph.num_edges <= tiny_config.num_edges

    def test_every_class_populated(self, tiny_tag):
        g = tiny_tag.graph
        assert set(np.unique(g.labels)) == set(range(g.num_classes))

    def test_deterministic(self, tiny_config):
        a = generate_tag(tiny_config, seed=1)
        b = generate_tag(tiny_config, seed=1)
        assert np.array_equal(a.graph.labels, b.graph.labels)
        assert np.array_equal(a.graph.indices, b.graph.indices)
        assert a.graph.texts[0].full == b.graph.texts[0].full

    def test_seed_changes_output(self, tiny_config):
        a = generate_tag(tiny_config, seed=1)
        b = generate_tag(tiny_config, seed=2)
        assert not np.array_equal(a.graph.indices, b.graph.indices)

    def test_homophily_matches_config(self, tiny_tag, tiny_config):
        assert edge_homophily(tiny_tag.graph) >= tiny_config.homophily - 0.05

    def test_clarity_within_ranges(self, tiny_tag, tiny_config):
        lo = min(tiny_config.ambiguous_clarity[0], tiny_config.clear_clarity[0])
        hi = max(tiny_config.ambiguous_clarity[1], tiny_config.clear_clarity[1])
        assert (tiny_tag.clarity >= lo).all() and (tiny_tag.clarity <= hi).all()

    def test_clear_fraction_roughly_honored(self, tiny_tag, tiny_config):
        threshold = (tiny_config.ambiguous_clarity[1] + tiny_config.clear_clarity[0]) / 2
        observed = float((tiny_tag.clarity > threshold).mean())
        assert abs(observed - tiny_config.clear_fraction) < 0.12

    def test_sibling_confusion_shapes_edges(self):
        config = GeneratorConfig(
            class_names=("a", "b", "c", "d"),
            num_nodes=400,
            num_edges=1200,
            homophily=0.5,
            sibling_confusion=1.0,
            feature_dim=16,
            name="sibling-test",
        )
        tag = generate_tag(config, seed=0)
        g = tag.graph
        sib = sibling_map(4)
        edges = g.edge_array()
        cross = edges[g.labels[edges[:, 0]] != g.labels[edges[:, 1]]]
        # With sibling_confusion=1 every cross-class edge joins sibling classes.
        for u, v in cross:
            lu, lv = int(g.labels[u]), int(g.labels[v])
            assert sib[lu] == lv or sib[lv] == lu


def reference_sample_labels(config, rng):
    """The label draw before empty classes were repaired: its "guarantee"
    loop may overwrite the only member of a class it already filled."""
    k = len(config.class_names)
    priors = rng.dirichlet(np.full(k, 8.0))
    labels = rng.choice(k, size=config.num_nodes, p=priors)
    for c in range(k):
        if not (labels == c).any():
            labels[rng.integers(config.num_nodes)] = c
    return labels.astype(np.int64)


class TestEveryClassPopulated:
    @pytest.mark.parametrize("scale, seed", [(0.001, 43), (0.0005, 44)])
    def test_arxiv_draws_that_emptied_a_class_now_generate(self, scale, seed):
        """These draws left one of arXiv's 40 classes empty; the replica
        then failed with an out-of-bounds edge endpoint."""
        config = DATASET_SPECS["ogbn-arxiv"].generator_config(scale)
        labels = _sample_labels(config, spawn_rng(seed, "labels", config.name))
        assert np.bincount(labels, minlength=40).min() >= 1
        graph = generate_tag(config, seed=seed).graph
        assert np.bincount(graph.labels, minlength=40).min() >= 1

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 12),
        extra=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_keeps_the_draws_when_every_class_was_filled(self, k, extra, seed):
        config = GeneratorConfig(
            class_names=tuple(f"c{i}" for i in range(k)), num_nodes=k + extra, num_edges=1
        )
        fixed = _sample_labels(config, np.random.default_rng(seed))
        reference = reference_sample_labels(config, np.random.default_rng(seed))
        assert np.bincount(fixed, minlength=k).min() >= 1
        if np.bincount(reference, minlength=k).min() >= 1:
            assert np.array_equal(fixed, reference)
        else:
            # Only the nodes moved into the empty classes change.
            moved = fixed != reference
            empty = np.flatnonzero(np.bincount(reference, minlength=k) == 0)
            assert sorted(fixed[moved].tolist()) == sorted(empty.tolist())

    def test_a_partner_in_an_empty_class_raises(self):
        """No pool writes a partner routed to an empty sibling class."""
        config = GeneratorConfig(
            class_names=("a", "b", "c", "d"),
            num_nodes=40,
            num_edges=60,
            homophily=0.0,
            sibling_confusion=1.0,
        )
        labels = np.zeros(40, dtype=np.int64)  # class 1, 0's sibling, is empty
        labels[20:] = 2
        with pytest.raises(ValueError, match="partner class has no nodes"):
            _sample_edges(config, labels, np.random.default_rng(0))
