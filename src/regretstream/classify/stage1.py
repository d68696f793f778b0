"""Stage-1 sparse-text classifiers: multinomial naive Bayes and a linear
SVM trained by deterministic primal subgradient descent.

Both consume L2-normalized TF-IDF rows in CSR form and expose a scalar
decision value; the signed distance from the SVM boundary (or the NB
log-odds) becomes the derived open-text feature for stage 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.typing import NDArray

from ..codec import Ranged, ranged
from ..errors import ConfigError, ValidationError


@dataclass
class SparseRows:
    """Minimal CSR container for the sparse text block."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def subset(self, rows) -> "SparseRows":
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.concatenate(
            [self.indices[self.indptr[r]: self.indptr[r + 1]] for r in rows]
        ) if len(rows) else np.zeros(0, dtype=np.int64)
        data = np.concatenate(
            [self.data[self.indptr[r]: self.indptr[r + 1]] for r in rows]
        ) if len(rows) else np.zeros(0, dtype=np.float64)
        return SparseRows(indptr, indices, data, self.n_cols)

    @classmethod
    def from_feature_matrix(cls, m) -> "SparseRows":
        return cls(m.sparse_indptr, m.sparse_indices, m.sparse_data, m.vocab_size)


def _check_binary_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValidationError("stage-1 training needs both classes present")
    if not set(classes.tolist()) <= {0, 1}:
        raise ValidationError(f"labels must be 0/1, got {classes}")
    return y.astype(np.int8)


@dataclass
class NaiveBayesModel(Ranged):
    """Multinomial NB with additive smoothing over term weights."""

    algorithm: ClassVar[str] = "multinomial_nb"
    # The field each config hyperparameter key sets, and so its default.
    hyper_keys: ClassVar[dict[str, str]] = {"nb_alpha": "alpha"}
    alpha: float = ranged(0.1, 0, above=True)
    class_log_prior: NDArray[np.float64] | None = None
    feature_log_prob: NDArray[np.float64] | None = None  # (2, V)

    def fit(self, X: SparseRows, y: np.ndarray) -> "NaiveBayesModel":
        y = _check_binary_labels(y)
        n = len(X)
        row_of = np.repeat(np.arange(n), np.diff(X.indptr))
        v = X.n_cols
        counts = np.zeros((2, v), dtype=np.float64)
        for c in (0, 1):
            sel = y[row_of] == c
            if np.any(sel):
                counts[c] = np.bincount(
                    X.indices[sel], weights=X.data[sel], minlength=v
                )
        totals = counts.sum(axis=1)
        self.feature_log_prob = np.log(counts + self.alpha) - np.log(
            totals[:, None] + self.alpha * v
        )
        n_per_class = np.array([(y == 0).sum(), (y == 1).sum()], dtype=np.float64)
        self.class_log_prior = np.log(n_per_class) - np.log(n)
        return self

    def log_odds(self, X: SparseRows) -> np.ndarray:
        """log P(1|x) - log P(0|x) up to the shared normalizer."""
        out = np.full(len(X), self.class_log_prior[1] - self.class_log_prior[0])
        delta = self.feature_log_prob[1] - self.feature_log_prob[0]
        for i in range(len(X)):
            idx, vals = X.row(i)
            out[i] += float(np.dot(vals, delta[idx]))
        return out

    def decision_values(self, X: SparseRows) -> np.ndarray:
        return self.log_odds(X)

    def predict(self, X: SparseRows) -> np.ndarray:
        return (self.decision_values(X) > 0).astype(np.int8)


@dataclass
class LinearSvmModel(Ranged):
    """Linear SVM minimizing 0.5*||w||^2 + C * sum hinge.

    Trained as Pegasos-style subgradient descent with lambda = 1/(n*C),
    step 1/(lambda*t), a fixed epoch count, and a seeded per-epoch shuffle.
    The bias rides along as an augmented always-on coordinate.
    """

    algorithm: ClassVar[str] = "linear_svm"
    hyper_keys: ClassVar[dict[str, str]] = {"svm_c": "c", "svm_epochs": "epochs"}
    c: float = ranged(1e-6, 0, above=True)
    epochs: int = ranged(30, 1)
    seed: int = 0
    weights: NDArray[np.float64] | None = None  # (V+1,), last entry is the bias

    def fit(self, X: SparseRows, y: np.ndarray) -> "LinearSvmModel":
        y = _check_binary_labels(y)
        ypm = (y.astype(np.float64) * 2.0 - 1.0).tolist()
        n = len(X)
        v = X.n_cols
        lam = 1.0 / (n * self.c)
        # Each row's (indices, data) slice, taken once per fit; the bias
        # w[v] is kept as a Python float and scaled and stepped with the
        # same float64 arithmetic, so the weights are bit-identical to
        # updating it in place.
        bounds = X.indptr.tolist()
        rows = [(X.indices[lo:hi], X.data[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        w = np.zeros(v + 1, dtype=np.float64)
        b = 0.0
        rng = np.random.default_rng(self.seed)
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(n).tolist():
                t += 1
                eta = 1.0 / (lam * t)
                idx, vals = rows[i]
                yi = ypm[i]
                margin = yi * (float(np.dot(vals, w[idx])) + b)
                scale = 1.0 - eta * lam
                w *= scale
                b *= scale
                if margin < 1.0:
                    w[idx] += eta * yi * vals
                    b += eta * yi
        w[v] = b
        self.weights = w
        return self

    def decision_values(self, X: SparseRows) -> np.ndarray:
        w = self.weights
        v = len(w) - 1
        out = np.full(len(X), w[v])
        for i in range(len(X)):
            idx, vals = X.row(i)
            out[i] += float(np.dot(vals, w[idx]))
        return out

    def predict(self, X: SparseRows) -> np.ndarray:
        return (self.decision_values(X) > 0).astype(np.int8)


# The model class of each stage-1 algorithm, in the order messages list them.
STAGE1_MODELS = {m.algorithm: m for m in (NaiveBayesModel, LinearSvmModel)}


def model_class(models: dict, algorithm, field: str):
    """The class ``models`` maps ``algorithm`` to, else a ConfigError naming ``field``."""
    if not isinstance(algorithm, str) or algorithm not in models:
        raise ConfigError(f"invalid {field}: {algorithm!r} (not one of {', '.join(models)})")
    return models[algorithm]


def build_model(models: dict, algorithm: str, hyper: dict | None, field: str):
    """A model of the class ``models`` maps ``algorithm`` to, set from ``hyper``."""
    cls = model_class(models, algorithm, field)
    return cls(**{name: hyper[key] for key, name in cls.hyper_keys.items() if key in (hyper or {})})


def train_stage1(X: SparseRows, y, algorithm: str, hyper: dict | None = None, seed: int = 0):
    """Train the sparse-text stage; ``hyper`` overrides the defaults."""
    model = build_model(STAGE1_MODELS, algorithm, hyper, "stage1_algorithm")
    if hasattr(model, "seed"):  # the linear SVM shuffles its rows each epoch
        model.seed = seed
    return model.fit(X, y)


def derived_feature(model, X: SparseRows) -> np.ndarray:
    """Scalar open-text feature per row.

    Linear SVM: signed distance (w.x + b)/||w|| (invariant under positive
    rescaling of (w, b)). Naive Bayes fallback: class log-odds.
    """
    if isinstance(model, LinearSvmModel):
        w = model.weights
        norm = float(np.linalg.norm(w[:-1]))
        if norm == 0.0:
            raise ValidationError("derived feature undefined: zero SVM weight vector")
        return model.decision_values(X) / norm
    if isinstance(model, NaiveBayesModel):
        return model.log_odds(X)
    raise ValidationError(f"unsupported stage-1 model {type(model).__name__}")
