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
import threading
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


@dataclass(frozen=True, eq=False)
class MlpGradients:
    """Gradient of the per-sample cross-entropy w.r.t. every parameter."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray


# 0-d operands for the step's ufunc calls: numpy takes them faster than Python
# floats, which it converts on every call (0.9 against 1.3 us per call on
# (12, 1, 3) arrays, 2-vCPU Xeon VM)
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid of z, written into out if given; work is scratch shaped like z."""
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never overflows
    num = np.exp(np.minimum(z, _ZERO, out=work), work)
    den = np.exp(np.negative(np.abs(z, out), out), out)
    np.add(den, _ONE, den)
    return np.divide(num, den, den)


def _softmax(logits: np.ndarray, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, written into out if given; overwrites logits.

    work is scratch with the last axis of logits reduced to length 1.
    """
    np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True, out=work), logits)
    np.exp(logits, logits)
    return np.divide(logits, np.add.reduce(logits, axis=-1, keepdims=True, out=work), out)


def _forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = _sigmoid(x @ model.w_hidden + model.b_hidden)
    probs = _softmax(hidden @ model.w_out + model.b_out)
    return hidden, probs


def _layers(flat: np.ndarray, n: int, k: int,
            dims: tuple[int, int, int]) -> list[np.ndarray]:
    """Views of the first k of n networks stacked layer-major in flat.

    flat holds [w1 of all n | b1 of all n | w2 | b2]. Each view is one
    contiguous block: w1 (k, f, h), b1 (k, 1, h), w2 (k, h, c) and
    b2 (k, 1, c), for dims = (f, h, c).
    """
    f, h, c = dims
    views, start = [], 0
    for rows, cols in ((f, h), (1, h), (h, c), (1, c)):
        views.append(flat[start:start + k * rows * cols].reshape(k, rows, cols))
        start += n * rows * cols
    return views


class _Head:
    """The first k of n networks in lockstep, and the buffers of their step.

    Holds contiguous layer views of the weights w and gradients g, the
    triples the momentum update runs over (the whole flat w, v and g when
    k = n, else each layer's prefix), and the hidden, logit and backprop
    intermediates of one step, allocated once.
    """

    def __init__(self, w: np.ndarray, v: np.ndarray, g: np.ndarray, n: int, k: int,
                 dims: tuple[int, int, int]) -> None:
        _, h, c = dims
        self.w = _layers(w, n, k, dims)
        self.g = _layers(g, n, k, dims)
        self.updates = ([(w, v, g)] if k == n
                        else list(zip(self.w, _layers(v, n, k, dims), self.g)))
        self.d_out_t = self.g[3].swapaxes(1, 2)
        self.hidden = np.empty((k, 1, h))
        self.hidden_t = self.hidden.swapaxes(1, 2)
        self.work = np.empty((k, 1, h))
        self.logits = np.empty((k, 1, c))
        self.row = np.empty((k, 1, 1))
        self.back = np.empty((k, h, 1))
        self.back_t = self.back.swapaxes(1, 2)


def _sgd_step(head: _Head, x: np.ndarray, x_t: np.ndarray, target: np.ndarray,
              probs: np.ndarray, lr: np.ndarray, momentum: np.ndarray) -> None:
    """One online step of the head's networks, one sample each: the only step kernel.

    Samples are row vectors x (k, 1, f), with x_t their (k, f, 1) transpose,
    and targets are one-hot (k, 1, c). Writes the softmax output into probs
    and lr times the cross-entropy gradients into head.g, then steps
    v <- momentum*v - lr*grad, w <- w + v. Scaling g in place gives the
    bits of lr * g without a temporary; at lr = 1 and k = 1, head.g is what
    mlp_gradient reports.
    """
    w1, b1, w2, b2 = head.w
    d_w1, d_b1, d_w2, d_b2 = head.g
    hidden, work = head.hidden, head.work
    _sigmoid(np.add(np.matmul(x, w1, hidden), b1, hidden), hidden, work)
    logits = np.add(np.matmul(hidden, w2, head.logits), b2, head.logits)
    _softmax(logits, probs, head.row)
    np.subtract(probs, target, d_b2)
    np.matmul(w2, head.d_out_t, head.back)
    np.multiply(head.back_t, hidden, work)
    np.multiply(work, np.subtract(_ONE, hidden, d_b1), d_b1)
    np.multiply(x_t, d_b1, d_w1)
    np.multiply(head.hidden_t, d_b2, d_w2)
    for w, v, g in head.updates:
        np.multiply(v, momentum, v)
        np.multiply(g, lr, g)
        np.subtract(v, g, v)
        np.add(w, v, w)


def default_hidden_neurons(n_features: int, n_classes: int) -> int:
    return math.ceil((n_features + n_classes) / 2)


# a lockstep pass holds as many networks as keep its weight, momentum and
# gradient arrays (3 x 8 bytes per parameter) under this many bytes (1 MiB,
# which stays in L2); a network alone always gets a pass
_BATCH_BYTES = 1 << 20


def mlp_train_many(trains: Sequence[Dataset], cfg: MlpConfig) -> list[MlpModel]:
    """Train one network per dataset, in lockstep passes; deterministic given cfg.seed.

    The datasets are grouped by feature and class count, in list order, and
    each group is cut in order into passes of as many networks as fit
    _BATCH_BYTES. Each network is bit for bit the one mlp_train gives on its
    dataset alone: it draws its initial weights and then one shuffle per epoch
    from its own default_rng(cfg.seed) stream, and takes one online step per
    row. Within a pass, weights, momentum and gradients are each one flat
    layer-major array ([w1 of all networks | b1 of all | w2 | b2]), so every
    layer is one contiguous (B, rows, cols) block and each numpy call steps
    all networks. A network with fewer rows sits out the last steps of each
    epoch, its weights and momentum untouched.

    Raises ValueError on an empty list or a dataset of fewer than 2 classes,
    and TrainingDivergedError naming the earliest epoch at which any network
    of the first diverging pass has an epoch loss that stops being finite.
    """
    if not trains:
        raise ValueError("mlp_train_many needs at least one dataset to train on")
    groups: dict[tuple[int, int], list[int]] = {}
    for i, train in enumerate(trains):
        if train.n_classes < 2:
            raise ValueError(f"need >= 2 classes to train, got {train.n_classes}")
        groups.setdefault((train.n_features, train.n_classes), []).append(i)
    models: list = [None] * len(trains)
    for (f, c), group in groups.items():
        h = cfg.hidden_neurons or default_hidden_neurons(f, c)
        size = max(1, _BATCH_BYTES // (3 * 8 * ((f + 1) * h + (h + 1) * c)))
        for start in range(0, len(group), size):
            batch = group[start:start + size]
            for i, model in zip(batch, _train_pass([trains[i] for i in batch], cfg, (f, h, c))):
                models[i] = model
    return models


def _train_pass(trains: list[Dataset], cfg: MlpConfig,
                dims: tuple[int, int, int]) -> list[MlpModel]:
    """One lockstep pass of mlp_train_many over networks of one shape, dims = (f, h, c)."""
    f, h, c = dims
    n = len(trains)
    # longest first, so the networks still stepping at any step are a prefix
    order = sorted(range(n), key=lambda b: -trains[b].n_samples)
    sizes = [trains[b].n_samples for b in order]
    # one generator per network: the initial weights, uniform in [-0.5, 0.5] and
    # drawn w1, b1, w2, b2, then the epoch shuffles
    rngs = [np.random.default_rng(cfg.seed) for _ in order]
    w = np.empty(n * (f * h + h + h * c + c))
    init = _layers(w, n, n, dims)
    for slot, rng in enumerate(rngs):
        for layer in init:
            layer[slot] = rng.uniform(-0.5, 0.5, size=layer.shape[1:])
    v, g = np.zeros_like(w), np.zeros_like(w)
    # the first live[t] networks take step t of an epoch
    live = [sum(size > t for size in sizes) for t in range(sizes[0])]
    heads = {k: _Head(w, v, g, n, k, dims) for k in set(live)}

    # one epoch's shuffled rows, labels, one-hot targets and softmax outputs,
    # indexed (step, network, ...), and each step's views of them, made once
    x = np.zeros((sizes[0], n, 1, f))
    labels = np.zeros((sizes[0], n), dtype=np.int64)
    one_hot = np.eye(c)
    target = np.empty((sizes[0], n, 1, c))
    probs = np.ones((sizes[0], n, 1, c))
    steps = [(heads[k], x[t, :k], x[t, :k].swapaxes(1, 2), target[t, :k], probs[t, :k])
             for t, k in enumerate(live)]
    lr, momentum = np.array(cfg.learning_rate), np.array(cfg.momentum)
    for epoch in range(cfg.epochs):
        for slot, (b, rng) in enumerate(zip(order, rngs)):
            perm = rng.permutation(sizes[slot])
            x[:sizes[slot], slot, 0] = trains[b].features[perm]
            labels[:sizes[slot], slot] = trains[b].labels[perm]
        np.take(one_hot, labels, axis=0, out=target[:, :, 0])
        for step in steps:
            _sgd_step(*step, lr, momentum)
        # a sum of -log p(label) is finite iff every p(label) > 0; skipped
        # steps keep p = 1
        if not ((probs * target).sum(axis=-1) > 0).all():
            raise TrainingDivergedError(
                f"training loss became non-finite at epoch {epoch}"
            )
    w1, b1, w2, b2 = _layers(w, n, n, dims)
    models = [None] * n
    for slot, b in enumerate(order):
        models[b] = MlpModel(w1[slot], b1[slot, 0], w2[slot], b2[slot, 0])
    return models


def mlp_train(train: Dataset, cfg: MlpConfig) -> MlpModel:
    """Train by online backprop with momentum; deterministic given cfg.seed.

    The one-network case of mlp_train_many. Raises TrainingDivergedError
    naming the epoch if the epoch loss stops being finite.
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
    central finite differences: it runs that step kernel on a copy of the
    weights at B = 1, learning rate 1 and momentum 0, and reads its gradients.
    """
    dims = (model.n_features, model.hidden_neurons, model.n_classes)
    w = np.concatenate([np.ravel(a) for a in
                        (model.w_hidden, model.b_hidden, model.w_out, model.b_out)])
    head = _Head(w, np.zeros_like(w), np.empty_like(w), 1, 1, dims)
    x = np.asarray(sample, dtype=np.float64).reshape(1, 1, -1)
    target = np.eye(model.n_classes)[[[label]]]
    _sgd_step(head, x, x.swapaxes(1, 2), target, np.empty_like(target), _ONE, _ZERO)
    d_w1, d_b1, d_w2, d_b2 = head.g
    return MlpGradients(w_hidden=d_w1[0], b_hidden=d_b1[0, 0], w_out=d_w2[0], b_out=d_b2[0, 0])


def mlp_loss(model: MlpModel, sample: np.ndarray, label: int) -> float:
    """Per-sample cross-entropy, the quantity mlp_gradient differentiates."""
    _, probs = _forward(model, np.asarray(sample, dtype=np.float64))
    return float(-np.log(probs[label]))


# query rows per block are sized so one (q, t) distance plane holds about
# this many float64 values (256 KiB, which stays in L2), whatever the number
# of queries
_BLOCK_VALUES = 1 << 15

# the vote's distance sum, plane and partition copy, one set per thread,
# reused by every call on that thread and grown on demand to the largest block
# seen (_BLOCK_VALUES values, or one query row when the training set is larger)
_VOTE_BUFFERS = threading.local()


def _vote_buffer(role: str, q: int, t: int) -> np.ndarray:
    """A (q, t) view of this thread's reused buffer for role; its contents are stale."""
    buf = getattr(_VOTE_BUFFERS, role, None)
    if buf is None or buf.size < q * t:
        buf = np.empty(q * t)
        setattr(_VOTE_BUFFERS, role, buf)
    return buf[:q * t].reshape(q, t)


def _left_operands(x: np.ndarray) -> np.ndarray:
    """(f, n, 2): for each feature j, the (n, 2) matrix [x[:, j], 1]."""
    out = np.ones((x.shape[1], x.shape[0], 2))
    out[:, :, 0] = x.T
    return out


def _right_operands(x: np.ndarray) -> np.ndarray:
    """(f, 2, n): for each feature j, the (2, n) matrix [1; -x[:, j]]."""
    out = np.ones((x.shape[1], 2, x.shape[0]))
    np.negative(x.T, out=out[:, 1])
    return out


def _knn_vote(train_x: np.ndarray, train_y: np.ndarray, n_classes: int,
              queries: np.ndarray, k: int, skip_self: bool = False) -> np.ndarray:
    """The one kNN rule: class ids voted by the k nearest training rows.

    The squared Euclidean distance of a query to a training row is the sum of
    the squared feature differences, added left to right in column order: one
    contiguous (q, t) plane of differences per feature, squared in place and
    added to the running sum. Feature j's plane is one K=2 matrix product,
    [a, 1] @ [1; -b] with a the block's query column and b the training
    column. Both products a*1 and 1*(-b) are exact, so each element is their
    sum rounded once, fl(a - b), with or without FMA and in either order; only
    a zero's sign can differ from a subtraction's, and squaring drops it. This
    is not the Gram expansion |a|^2 + |b|^2 - 2ab, which rounds differently
    and so can break or make distance ties. The product runs through BLAS,
    which writes the plane without numpy's broadcast loop.

    The neighbours are the rows at or below each query's k-th distance, found
    by partition; where that distance is shared by more rows than fit, the
    lower training-row indices win, and tied votes go to the lowest class id.
    k beyond the rows available takes them all. skip_self=True is
    leave-one-out: queries are the training rows themselves, and query i
    never counts training row i among its neighbours.

    The blocks' (q, t) arrays live in per-thread buffers reused across
    calls, so their pages are not faulted in afresh; votes on different
    threads never share them.
    """
    n_queries = queries.shape[0]
    n_train = train_x.shape[0]
    k = min(k, n_train - skip_self)
    rows = max(1, _BLOCK_VALUES // n_train)
    out = np.zeros(n_queries, dtype=np.int64)
    if k < 1:
        return out
    right = _right_operands(train_x)
    for start in range(0, n_queries, rows):
        left = _left_operands(queries[start:start + rows])
        q = left.shape[1]
        sq_dist, plane, part = (_vote_buffer(role, q, n_train)
                                for role in ("sum", "plane", "partition"))
        np.matmul(left[0], right[0], out=sq_dist)
        np.square(sq_dist, out=sq_dist)
        for query_op, train_op in zip(left[1:], right[1:]):
            diff = np.matmul(query_op, train_op, out=plane)
            sq_dist += np.square(diff, out=diff)
        if skip_self:
            # nan fails both comparisons below, so no query picks its own row
            sq_dist[np.arange(q), np.arange(start, start + q)] = np.nan
        np.copyto(part, sq_dist)
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1:k]
        chosen = sq_dist <= kth
        # every row chooses at least k, so one total count says whether any row
        # shares its k-th distance past k; those rows keep the lowest-index ties
        if np.count_nonzero(chosen) > q * k:
            over = np.flatnonzero(np.count_nonzero(chosen, axis=1) > k)
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
