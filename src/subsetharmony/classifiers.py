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
from collections.abc import Sequence
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
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
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never overflows
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def _forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = _sigmoid(x @ model.w_hidden + model.b_hidden)
    probs = _softmax(hidden @ model.w_out + model.b_out)
    return hidden, probs


def _flatten(model: MlpModel) -> np.ndarray:
    """One network's parameters as one vector, in _layers order."""
    return np.concatenate([model.w_hidden.ravel(), model.b_hidden,
                           model.w_out.ravel(), model.b_out])


def _layers(flat: np.ndarray, dims: tuple[int, int, int]) -> list[np.ndarray]:
    """Views of stacked (B, P) parameter rows as w1 (B, f, h), b1 (B, 1, h),
    w2 (B, h, c) and b2 (B, 1, c), for dims = (f, h, c)."""
    f, h, c = dims
    views, start = [], 0
    for rows, cols in ((f, h), (1, h), (h, c), (1, c)):
        views.append(flat[:, start:start + rows * cols].reshape(-1, rows, cols))
        start += rows * cols
    return views


def _backprop(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
              x: np.ndarray, target: np.ndarray, grads: list[np.ndarray],
              probs: np.ndarray) -> None:
    """Forward pass and cross-entropy gradients of B stacked networks, one sample each.

    The weights are _layers views; samples are row vectors (B, 1, f) with
    one-hot targets (B, 1, c). Writes the softmax output into probs and the
    gradients into grads (_layers views shaped like the weights): the step
    training applies and, at B=1, what mlp_gradient reports.
    """
    hidden = _sigmoid(x @ w1 + b1)
    _softmax(hidden @ w2 + b2, out=probs)
    d_w1, d_b1, d_w2, d_b2 = grads
    np.subtract(probs, target, out=d_b2)
    np.multiply((w2 @ d_b2.swapaxes(1, 2)).swapaxes(1, 2) * hidden, 1.0 - hidden, out=d_b1)
    np.multiply(x.swapaxes(1, 2), d_b1, out=d_w1)
    np.multiply(hidden.swapaxes(1, 2), d_b2, out=d_w2)


def _head(w: np.ndarray, v: np.ndarray, g: np.ndarray, k: int,
          dims: tuple[int, int, int]) -> tuple:
    """The first k networks of stacked weights w, momentum v and gradients g, as views."""
    w, v, g = w[:k], v[:k], g[:k]
    return w, v, g, _layers(w, dims), _layers(g, dims)


def _sgd_step(head: tuple, x: np.ndarray, target: np.ndarray, probs: np.ndarray,
              lr: float, momentum: float) -> None:
    """One online step of the networks in head: v <- momentum*v - lr*grad, w <- w + v.

    The gradients are scaled by lr in place, which gives the bits of lr * g
    without a (B, P) temporary; _backprop overwrites them on the next step.
    """
    w, v, g, w_layers, g_layers = head
    _backprop(*w_layers, x, target, g_layers, probs)
    np.multiply(v, momentum, out=v)
    np.multiply(g, lr, out=g)
    v -= g
    w += v


def default_hidden_neurons(n_features: int, n_classes: int) -> int:
    return math.ceil((n_features + n_classes) / 2)


def mlp_train_many(trains: Sequence[Dataset], cfg: MlpConfig) -> list[MlpModel]:
    """Train one network per dataset, all in lockstep; deterministic given cfg.seed.

    Each network is bit for bit the one mlp_train gives on its dataset alone:
    it draws its initial weights and then one shuffle per epoch from its own
    default_rng(cfg.seed) stream, and takes one online step per row. The
    networks are stacked as (B, ...) arrays so that each numpy call steps all
    of them. A network with fewer rows sits out the last steps of each epoch,
    its weights and momentum untouched.

    Raises TrainingDivergedError naming the earliest epoch at which any
    network's epoch loss stops being finite.
    """
    n_features, n_classes = trains[0].n_features, trains[0].n_classes
    if n_classes < 2:
        raise ValueError(f"need >= 2 classes to train, got {n_classes}")
    if any(t.n_features != n_features or t.n_classes != n_classes for t in trains):
        raise ValueError("networks trained in lockstep need equal feature and class counts")
    dims = (n_features, cfg.hidden_neurons or default_hidden_neurons(n_features, n_classes),
            n_classes)
    # longest first, so the networks still stepping at any step are a prefix
    order = sorted(range(len(trains)), key=lambda b: -trains[b].n_samples)
    sizes = [trains[b].n_samples for b in order]
    # one generator per network: weight init first, epoch shuffles continue the stream
    rngs = [np.random.default_rng(cfg.seed) for _ in order]
    w = np.stack([_flatten(MlpModel._draw(rng, *dims)) for rng in rngs])
    v, g = np.zeros_like(w), np.zeros_like(w)
    live = [sum(n > t for n in sizes) for t in range(sizes[0])]
    heads = {k: _head(w, v, g, k, dims) for k in set(live)}

    # one epoch's shuffled rows, labels and softmax outputs, indexed (step, network, ...)
    x = np.zeros((sizes[0], len(order), 1, n_features))
    labels = np.zeros((sizes[0], len(order)), dtype=np.int64)
    probs = np.ones((sizes[0], len(order), 1, n_classes))
    one_hot = np.eye(n_classes)
    for epoch in range(cfg.epochs):
        for slot, (b, rng) in enumerate(zip(order, rngs)):
            perm = rng.permutation(sizes[slot])
            x[:sizes[slot], slot, 0] = trains[b].features[perm]
            labels[:sizes[slot], slot] = trains[b].labels[perm]
        target = one_hot[labels][:, :, None]
        for t, k in enumerate(live):
            _sgd_step(heads[k], x[t, :k], target[t, :k], probs[t, :k],
                      cfg.learning_rate, cfg.momentum)
        # a sum of -log p(label) is finite iff every p(label) > 0; skipped
        # steps keep p = 1
        if not ((probs * target).sum(axis=-1) > 0).all():
            raise TrainingDivergedError(
                f"training loss became non-finite at epoch {epoch}"
            )
    w1, b1, w2, b2 = _layers(w, dims)
    models = [None] * len(order)
    for slot, b in enumerate(order):
        models[b] = MlpModel(w1[slot], b1[slot, 0], w2[slot], b2[slot, 0])
    return models


def mlp_train(train: Dataset, cfg: MlpConfig) -> MlpModel:
    """Train by online backprop with momentum; deterministic given cfg.seed.

    The one-network case of mlp_train_many. Raises TrainingDivergedError
    naming the epoch if the epoch loss stops being finite; when
    mlp_train_many trains several networks, the error names the earliest
    epoch at which any of them diverges.
    """
    return mlp_train_many([train], cfg)[0]


def mlp_predict(model: MlpModel, samples: Dataset) -> np.ndarray:
    """Class ids by softmax argmax; ties resolve to the lowest class id."""
    if samples.n_features != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {samples.n_features}"
        )
    _, probs = _forward(model, samples.features)
    return np.argmax(probs, axis=1).astype(np.int64)


def mlp_gradient(model: MlpModel, sample: np.ndarray, label: int) -> MlpGradients:
    """Analytic cross-entropy gradient for one sample.

    Exposed so the backprop step mlp_train applies can be checked against
    central finite differences: it is that step at B=1.
    """
    dims = (model.n_features, model.hidden_neurons, model.n_classes)
    w = _flatten(model)[None]
    g = np.empty_like(w)
    x = np.asarray(sample, dtype=np.float64).reshape(1, 1, -1)
    target = np.eye(model.n_classes)[[[label]]]
    _backprop(*_layers(w, dims), x, target, _layers(g, dims), np.empty_like(target))
    d_w1, d_b1, d_w2, d_b2 = _layers(g, dims)
    return MlpGradients(w_hidden=d_w1[0], b_hidden=d_b1[0, 0], w_out=d_w2[0], b_out=d_b2[0, 0])


def mlp_loss(model: MlpModel, sample: np.ndarray, label: int) -> float:
    """Per-sample cross-entropy, the quantity mlp_gradient differentiates."""
    _, probs = _forward(model, np.asarray(sample, dtype=np.float64))
    return float(-np.log(probs[label]))


# query rows per block are sized so one (q, t) distance plane holds about
# this many float64 values (256 KiB, which stays in L2), whatever the number
# of queries
_BLOCK_VALUES = 1 << 15


def _knn_vote(train_x: np.ndarray, train_y: np.ndarray, n_classes: int,
              queries: np.ndarray, k: int, skip_self: bool = False) -> np.ndarray:
    """The one kNN rule: class ids voted by the k nearest training rows.

    The squared Euclidean distance of a query to a training row is the sum of
    the squared feature differences, added left to right in column order: one
    contiguous (q, t) plane of differences per feature, squared in place and
    added to the running sum. The neighbours are the rows at or below each
    query's k-th distance, found by partition; where that distance is shared by
    more rows than fit, the lower training-row indices win, and tied votes go
    to the lowest class id. k beyond the rows available takes them all.
    skip_self=True is leave-one-out: queries are the training rows themselves,
    and query i never counts training row i among its neighbours.
    """
    n_queries = queries.shape[0]
    n_train = train_x.shape[0]
    k = min(k, n_train - skip_self)
    rows = max(1, _BLOCK_VALUES // n_train)
    out = np.zeros(n_queries, dtype=np.int64)
    if k < 1:
        return out
    # one contiguous row per feature, so each plane reads two contiguous columns
    train_cols = np.ascontiguousarray(train_x.T)
    plane = np.empty((min(rows, n_queries), n_train))
    for start in range(0, n_queries, rows):
        block = np.ascontiguousarray(queries[start:start + rows].T)
        q = block.shape[1]
        sq_dist = np.subtract.outer(block[0], train_cols[0])
        np.square(sq_dist, out=sq_dist)
        for query_col, train_col in zip(block[1:], train_cols[1:]):
            diff = np.subtract.outer(query_col, train_col, out=plane[:q])
            sq_dist += np.square(diff, out=diff)
        if skip_self:
            # nan fails both comparisons below, so no query picks its own row
            sq_dist[np.arange(q), np.arange(start, start + q)] = np.nan
        kth = np.partition(sq_dist, k - 1, axis=1)[:, k - 1:k]
        chosen = sq_dist <= kth
        # rows whose k-th distance is shared past k keep the lowest-index ties
        over = np.flatnonzero(np.count_nonzero(chosen, axis=1) > k)
        if over.size:
            dist, cut = sq_dist[over], kth[over]
            tied = dist == cut
            room = k - np.count_nonzero(dist < cut, axis=1)
            chosen[over] &= ~tied | (np.cumsum(tied, axis=1) <= room[:, None])
        # one bincount over (query, class) cells; argmax takes the lowest tied class
        query, neighbour = np.divmod(np.flatnonzero(chosen), chosen.shape[1])
        counts = np.bincount(query * n_classes + train_y[neighbour], minlength=q * n_classes)
        out[start:start + q] = np.argmax(counts.reshape(q, n_classes), axis=1)
    return out


def knn_predict(train: Dataset, cfg: KnnConfig, samples: Dataset) -> np.ndarray:
    """Majority vote over the k nearest training rows by Euclidean distance.

    Deterministic and exact (_knn_vote's top-k rule): the squared distance is
    a column-order sum of per-feature squared differences, equal distances
    favour the lower training-row index and vote ties favour the lower class
    id; k beyond the training rows takes them all.
    """
    if samples.n_features != train.n_features:
        raise ValueError(
            f"train has {train.n_features} features, queries have {samples.n_features}"
        )
    return _knn_vote(train.features, train.labels, train.n_classes, samples.features,
                     cfg.k_neighbors)
