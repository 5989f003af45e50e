"""Machine-learning substrate implemented on numpy.

Provides the models the token-pruning strategy trains: the surrogate MLP
classifier ``f_θ1`` (Eq. 8), the linear-regression combiner ``g_θ2``
(Eq. 10), plus the k-fold cross-validation and metrics used around them.
"""

from repro.ml.metrics import accuracy, entropy, softmax
from repro.ml.mlp import MLPClassifier
from repro.ml.linear import LinearRegression, LogisticRegression
from repro.ml.optim import Adam
from repro.ml.crossval import cross_val_proba, kfold_indices
from repro.ml.preprocessing import one_hot

__all__ = [
    "MLPClassifier",
    "LinearRegression",
    "LogisticRegression",
    "Adam",
    "cross_val_proba",
    "kfold_indices",
    "accuracy",
    "entropy",
    "softmax",
    "one_hot",
]
