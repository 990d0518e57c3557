"""From-scratch classifiers used as wrapper objectives.

The MLP is a single-hidden-layer network (sigmoid hidden units, softmax
output, cross-entropy loss) trained by online back-propagation with a
momentum term: one epoch is one pass of per-sample updates in seeded
shuffled order, with v <- momentum*v - lr*grad and w <- w + v.

The k-NN classifier is a fully deterministic Euclidean majority vote used
as a fast objective in tests and desk-scale experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class MlpConfig:
    """Hyperparameters of the backprop MLP.

    hidden_neurons=None resolves at training time to
    ceil((n_features + n_classes) / 2).
    """

    hidden_neurons: int | None = None
    learning_rate: float = 0.3
    momentum: float = 0.4
    epochs: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_neurons is not None and self.hidden_neurons < 1:
            raise ValueError(f"hidden_neurons must be >= 1, got {self.hidden_neurons}")
        # learning_rate 0 is tolerated so a no-op training pass stays testable
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class KnnConfig:
    """Euclidean k-nearest-neighbour vote; odd k avoids vote ties."""

    k_neighbors: int = 1

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Weights of a trained (or freshly initialized) one-hidden-layer MLP."""

    w_hidden: np.ndarray  # (n_features, hidden)
    b_hidden: np.ndarray  # (hidden,)
    w_out: np.ndarray     # (hidden, n_classes)
    b_out: np.ndarray     # (n_classes,)

    def __post_init__(self) -> None:
        n_in, hidden = self.w_hidden.shape
        hidden2, n_out = self.w_out.shape
        if hidden2 != hidden or self.b_hidden.shape != (hidden,) or self.b_out.shape != (n_out,):
            raise ValueError("inconsistent layer shapes")
        for arr in (self.w_hidden, self.b_hidden, self.w_out, self.b_out):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model weights must be finite")

    @property
    def n_features(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[1]

    @property
    def hidden_neurons(self) -> int:
        return self.w_hidden.shape[1]

    @classmethod
    def initialize(cls, n_features: int, hidden_neurons: int, n_classes: int,
                   seed: int) -> "MlpModel":
        """Seeded uniform [-0.5, 0.5] weight initialization."""
        return cls._draw(np.random.default_rng(seed), n_features, hidden_neurons, n_classes)

    @classmethod
    def _draw(cls, rng: np.random.Generator, n_features: int, hidden_neurons: int,
              n_classes: int) -> "MlpModel":
        return cls(
            w_hidden=rng.uniform(-0.5, 0.5, size=(n_features, hidden_neurons)),
            b_hidden=rng.uniform(-0.5, 0.5, size=hidden_neurons),
            w_out=rng.uniform(-0.5, 0.5, size=(hidden_neurons, n_classes)),
            b_out=rng.uniform(-0.5, 0.5, size=n_classes),
        )


@dataclass(frozen=True, eq=False)
class MlpGradients:
    """Gradient of the per-sample cross-entropy w.r.t. every parameter."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = _sigmoid(x @ model.w_hidden + model.b_hidden)
    probs = _softmax(hidden @ model.w_out + model.b_out)
    return hidden, probs


def _backprop(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
              x: np.ndarray, label: int) -> tuple[np.ndarray, ...]:
    """One sample's forward pass and cross-entropy gradients.

    Returns (probs, d_w1, d_b1, d_w2, d_b2): the step mlp_train applies and
    mlp_gradient reports.
    """
    hidden = _sigmoid(x @ w1 + b1)
    probs = _softmax(hidden @ w2 + b2)
    d_logits = probs.copy()
    d_logits[label] -= 1.0
    d_hidden = (w2 @ d_logits) * hidden * (1.0 - hidden)
    return probs, np.outer(x, d_hidden), d_hidden, np.outer(hidden, d_logits), d_logits


def default_hidden_neurons(n_features: int, n_classes: int) -> int:
    return math.ceil((n_features + n_classes) / 2)


def mlp_train(train: Dataset, cfg: MlpConfig) -> MlpModel:
    """Train by online backprop with momentum; deterministic given cfg.seed.

    Raises TrainingDivergedError naming the epoch if the epoch loss stops
    being finite.
    """
    if train.n_classes < 2:
        raise ValueError(f"need >= 2 classes to train, got {train.n_classes}")
    hidden_n = cfg.hidden_neurons or default_hidden_neurons(train.n_features, train.n_classes)
    # one generator: weight init first, epoch shuffles continue the stream
    rng = np.random.default_rng(cfg.seed)
    model = MlpModel._draw(rng, train.n_features, hidden_n, train.n_classes)
    w1 = model.w_hidden.copy()
    b1 = model.b_hidden.copy()
    w2 = model.w_out.copy()
    b2 = model.b_out.copy()
    v1, vb1 = np.zeros_like(w1), np.zeros_like(b1)
    v2, vb2 = np.zeros_like(w2), np.zeros_like(b2)

    X, y = train.features, train.labels
    lr, mom = cfg.learning_rate, cfg.momentum
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for i in rng.permutation(train.n_samples):
            probs, g1, gb1, g2, gb2 = _backprop(w1, b1, w2, b2, X[i], y[i])
            with np.errstate(divide="ignore"):
                epoch_loss += -np.log(probs[y[i]])

            v2 = mom * v2 - lr * g2
            vb2 = mom * vb2 - lr * gb2
            v1 = mom * v1 - lr * g1
            vb1 = mom * vb1 - lr * gb1
            w2 += v2
            b2 += vb2
            w1 += v1
            b1 += vb1
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"training loss became non-finite at epoch {epoch}"
            )
    return MlpModel(w1, b1, w2, b2)


def mlp_predict(model: MlpModel, samples: Dataset) -> np.ndarray:
    """Class ids by softmax argmax; ties resolve to the lowest class id."""
    if samples.n_features != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {samples.n_features}"
        )
    _, probs = _forward(model, samples.features)
    return np.argmax(probs, axis=1).astype(np.int64)


def mlp_probabilities(model: MlpModel, samples: Dataset) -> np.ndarray:
    """Softmax class probabilities per sample (rows sum to 1)."""
    if samples.n_features != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {samples.n_features}"
        )
    _, probs = _forward(model, samples.features)
    return probs


def mlp_gradient(model: MlpModel, sample: np.ndarray, label: int) -> MlpGradients:
    """Analytic cross-entropy gradient for one sample.

    Exposed so the backprop step mlp_train applies can be checked against
    central finite differences.
    """
    x = np.asarray(sample, dtype=np.float64)
    _, d_w1, d_b1, d_w2, d_b2 = _backprop(
        model.w_hidden, model.b_hidden, model.w_out, model.b_out, x, label)
    return MlpGradients(w_hidden=d_w1, b_hidden=d_b1, w_out=d_w2, b_out=d_b2)


def mlp_loss(model: MlpModel, sample: np.ndarray, label: int) -> float:
    """Per-sample cross-entropy, the quantity mlp_gradient differentiates."""
    _, probs = _forward(model, np.asarray(sample, dtype=np.float64))
    return float(-np.log(probs[label]))


# query rows per block are sized so the (q, t, f) difference tensor holds
# about this many float64 values (2 MiB), whatever the number of queries
_BLOCK_VALUES = 1 << 18


def _knn_vote(train_x: np.ndarray, train_y: np.ndarray, n_classes: int,
              queries: np.ndarray, k: int, skip_self: bool = False) -> np.ndarray:
    """The one kNN rule: class ids voted by the k nearest training rows.

    Squared Euclidean distances come from direct differences. Equal
    distances favour the lower training-row index and tied votes the lowest
    class id. skip_self=True is leave-one-out: queries are the training rows
    themselves, and query i never counts training row i among its neighbours.
    """
    n_queries = queries.shape[0]
    rows = max(1, _BLOCK_VALUES // train_x.size)
    out = np.empty(n_queries, dtype=np.int64)
    for start in range(0, n_queries, rows):
        block = queries[start:start + rows]
        q = block.shape[0]
        diffs = block[:, None, :] - train_x[None, :, :]
        sq_dist = np.einsum("qtf,qtf->qt", diffs, diffs)
        # stable sort keeps lower train index first among exact distance ties
        order = np.argsort(sq_dist, axis=1, kind="stable")
        if skip_self:
            own = np.arange(start, start + q)[:, None]
            order = order[order != own].reshape(q, -1)
        votes = train_y[order[:, :k]]
        # one bincount over (query, class) cells; argmax takes the lowest tied class
        cells = np.arange(q)[:, None] * n_classes + votes
        counts = np.bincount(cells.ravel(), minlength=q * n_classes)
        out[start:start + q] = np.argmax(counts.reshape(q, n_classes), axis=1)
    return out


def knn_predict(train: Dataset, cfg: KnnConfig, samples: Dataset) -> np.ndarray:
    """Majority vote over the k nearest training rows by Euclidean distance.

    Deterministic: equal distances favour the lower training-row index and
    vote ties favour the lower class id.
    """
    if samples.n_features != train.n_features:
        raise ValueError(
            f"train has {train.n_features} features, queries have {samples.n_features}"
        )
    k = min(cfg.k_neighbors, train.n_samples)
    return _knn_vote(train.features, train.labels, train.n_classes, samples.features, k)
