"""Multi-layer perceptron classifier on numpy.

This is the surrogate classifier ``f_θ1`` of the token-pruning strategy
(paper Sec. V-A1): it maps text-encoded node features to class probabilities
whose entropy measures how ambiguous a node's text is.  A ``hidden_sizes=()``
instance is the "linear MLP" the paper uses on the small datasets; deeper
configurations cover the hyperparameter search it runs on the OGB datasets.
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import softmax
from repro.ml.optim import Adam
from repro.ml.preprocessing import one_hot
from repro.utils.rng import spawn_rng


class MLPClassifier:
    """Feed-forward softmax classifier with ReLU hidden layers.

    Parameters
    ----------
    hidden_sizes:
        Hidden layer widths; empty tuple = multinomial logistic regression.
    learning_rate, weight_decay:
        Adam settings.  Weight decay is coupled L2 on weights only:
        ``weight_decay * W`` joins each weight gradient before the Adam step.
    epochs, batch_size:
        Training loop settings; ``batch_size=None`` uses full-batch steps.
    seed:
        Controls initialization and shuffling.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (),
        learning_rate: float = 0.01,
        weight_decay: float = 0.0,
        epochs: int = 200,
        batch_size: int | None = None,
        seed: int = 0,
    ):
        if any(h < 1 for h in hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {batch_size}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.hidden_sizes = tuple(hidden_sizes)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.weights_: list[np.ndarray] | None = None
        self.biases_: list[np.ndarray] | None = None
        self.num_classes_: int | None = None

    # ------------------------------------------------------------------ fit

    def _init_params(self, in_dim: int, num_classes: int, rng: np.random.Generator) -> None:
        sizes = [in_dim, *self.hidden_sizes, num_classes]
        self.weights_ = []
        self.biases_ = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights_.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases_.append(np.zeros(fan_out))

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return (logits, activations per layer input)."""
        activations = [x]
        h = x
        for layer, (w, b) in enumerate(zip(self.weights_, self.biases_)):
            z = h @ w + b
            if layer < len(self.weights_) - 1:
                h = np.maximum(z, 0.0)
                activations.append(h)
            else:
                return z, activations
        raise AssertionError("unreachable: network has at least one layer")

    def fit(self, x: np.ndarray, y: np.ndarray, num_classes: int | None = None) -> "MLPClassifier":
        """Train on features ``x`` and integer labels ``y``.

        ``num_classes`` may exceed ``y.max()+1`` so that cross-validation
        folds missing a class still produce full-width probability vectors.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError("y must be 1-D and aligned with x")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        observed = int(y.max()) + 1
        if num_classes is None:
            num_classes = observed
        elif num_classes < observed:
            raise ValueError(f"num_classes={num_classes} < observed classes {observed}")
        self.num_classes_ = num_classes
        rng = spawn_rng(self.seed, "mlp-init")
        shuffle_rng = spawn_rng(self.seed, "mlp-shuffle")
        self._init_params(x.shape[1], num_classes, rng)
        optimizer = Adam(self.learning_rate)
        y_onehot = one_hot(y, num_classes)
        n = x.shape[0]
        batch = n if self.batch_size is None else min(self.batch_size, n)
        for _ in range(self.epochs):
            order = shuffle_rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb, yb = x[idx], y_onehot[idx]
                logits, activations = self._forward(xb)
                grads_w, grads_b = self._backward(
                    xb.shape[0], softmax(logits) - yb, activations
                )
                optimizer.step([*self.weights_, *self.biases_], [*grads_w, *grads_b])
        return self

    def _backward(
        self,
        batch_size: int,
        delta: np.ndarray,
        activations: list[np.ndarray],
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        grads_w: list[np.ndarray] = [None] * len(self.weights_)  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * len(self.biases_)  # type: ignore[list-item]
        delta = delta / batch_size
        for layer in range(len(self.weights_) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta + self.weight_decay * self.weights_[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights_[layer].T
                delta *= (activations[layer] > 0).astype(delta.dtype)
        return grads_w, grads_b

    # -------------------------------------------------------------- predict

    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise RuntimeError("classifier is not fitted; call fit() first")

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class logits for ``x``."""
        self._check_fitted()
        x = np.asarray(x, dtype=np.float64)
        logits, _ = self._forward(x)
        return logits

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probability matrix ``p_i`` for each row of ``x``."""
        return softmax(self.predict_logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most likely class per row."""
        return self.predict_logits(x).argmax(axis=1)

    def clone(self) -> "MLPClassifier":
        """Fresh unfitted copy with identical hyperparameters."""
        return MLPClassifier(
            hidden_sizes=self.hidden_sizes,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )
