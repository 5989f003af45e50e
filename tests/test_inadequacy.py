"""Tests for the text-inadequacy measure."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.inadequacy import TextInadequacyScorer
from repro.ml.mlp import MLPClassifier


def _fit_tiny_scorer(graph, split, builder, tag) -> TextInadequacyScorer:
    from repro.llm.simulated import SimulatedLLM

    scorer = TextInadequacyScorer(
        surrogate=MLPClassifier(hidden_sizes=(), epochs=100, learning_rate=0.05),
        calibration_per_class=8,
        seed=1,
    )
    llm = SimulatedLLM(tag.vocabulary, name="gpt-3.5", seed=5)
    return scorer.fit(graph, split.labeled, llm, builder)


@pytest.fixture(scope="module")
def fitted_scorer(tiny_graph, tiny_split, tiny_builder, tiny_tag):
    return _fit_tiny_scorer(tiny_graph, tiny_split, tiny_builder, tiny_tag)


class TestFit:
    def test_components_fitted(self, fitted_scorer, tiny_graph):
        assert fitted_scorer.final_model_ is not None
        assert fitted_scorer.final_model_.weights_ is not None
        assert fitted_scorer.final_model_.num_classes_ == tiny_graph.num_classes
        assert fitted_scorer.regressor_ is not None
        assert fitted_scorer.bias_ratios_.shape == (tiny_graph.num_classes,)

    def test_calibration_subset_size(self, fitted_scorer, tiny_graph, tiny_split):
        cal = fitted_scorer.calibration_nodes_
        assert cal.size <= 8 * tiny_graph.num_classes
        assert np.isin(cal, tiny_split.labeled).all()

    def test_bias_ratios_are_fractions(self, fitted_scorer):
        assert ((fitted_scorer.bias_ratios_ >= 0) & (fitted_scorer.bias_ratios_ <= 1)).all()

    def test_fits_one_surrogate_plus_one_per_fold(
        self, monkeypatch, tiny_graph, tiny_split, tiny_builder, tiny_tag
    ):
        """``final_model_`` plus ``cv_folds`` out-of-fold fits, and no others.

        ``D(t_i)`` reads nothing else, so the scores must equal, byte for
        byte, the ones recorded when the scorer also trained three unread
        per-fold models.
        """
        fits = []
        real_fit = MLPClassifier.fit

        def counting_fit(model, *args, **kwargs):
            fits.append(model.seed)
            return real_fit(model, *args, **kwargs)

        monkeypatch.setattr(MLPClassifier, "fit", counting_fit)
        scorer = _fit_tiny_scorer(tiny_graph, tiny_split, tiny_builder, tiny_tag)
        assert len(fits) == 1 + scorer.cv_folds
        scores = scorer.score(tiny_split.queries)
        assert scores.dtype == np.float64
        digest = hashlib.sha256(scores.tobytes()).hexdigest()
        assert digest == "b3692f77f135b08d3c729391d2af99155e9bcb39e364fc31fc3590ae152eabb4"

    def test_requires_enough_labeled(self, tiny_graph, tiny_builder, tiny_tag):
        from repro.llm.simulated import SimulatedLLM

        scorer = TextInadequacyScorer(seed=0)
        with pytest.raises(ValueError, match="labeled"):
            scorer.fit(tiny_graph, np.array([0, 1]), SimulatedLLM(tiny_tag.vocabulary), tiny_builder)


class TestScore:
    def test_scores_shape(self, fitted_scorer, tiny_split):
        scores = fitted_scorer.score(tiny_split.queries)
        assert scores.shape == (tiny_split.num_queries,)
        assert np.isfinite(scores).all()

    def test_channels_exposed(self, fitted_scorer, tiny_split):
        channels = fitted_scorer.channels(tiny_split.queries)
        assert channels.entropy.shape == channels.bias.shape == channels.score.shape
        assert (channels.entropy >= 0).all()

    def test_separates_saturated_nodes(
        self, fitted_scorer, make_tiny_engine, tiny_split
    ):
        """Mean D of zero-shot-correct queries < mean D of incorrect ones."""
        engine = make_tiny_engine(method="vanilla")
        run = engine.run(tiny_split.queries)
        correct = np.array([r.node for r in run.records if r.correct])
        wrong = np.array([r.node for r in run.records if not r.correct])
        assert correct.size and wrong.size
        assert fitted_scorer.score(correct).mean() < fitted_scorer.score(wrong).mean()

    def test_unfitted_raises(self, tiny_split):
        with pytest.raises(RuntimeError):
            TextInadequacyScorer().score(tiny_split.queries)

    def test_proba_rows_are_distributions(self, fitted_scorer, tiny_split):
        probs = fitted_scorer.predict_proba(tiny_split.queries[:5])
        assert probs.shape[0] == 5
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestValidation:
    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            TextInadequacyScorer(calibration_per_class=0)
        with pytest.raises(ValueError):
            TextInadequacyScorer(cv_folds=1)
