"""Reference views of the MLP for tests: its initial weights, and the per-sample
cross-entropy with its analytic gradient, read from the production step kernel."""

from dataclasses import dataclass

import numpy as np

from subsetharmony.classifiers import MlpModel, _forward, _Head, _sgd_step


def initial_model(n_features: int, hidden: int, n_classes: int, rng) -> MlpModel:
    """Uniform [-0.5, 0.5] weights drawn w1, b1, w2, b2 from rng, a seed or a Generator.

    A Generator is drawn from in place, so its stream goes on from there.
    """
    rng = np.random.default_rng(rng)
    shapes = ((n_features, hidden), hidden, (hidden, n_classes), n_classes)
    return MlpModel(*(rng.uniform(-0.5, 0.5, size=shape) for shape in shapes))


@dataclass(frozen=True, eq=False)
class MlpGradients:
    """Gradient of the per-sample cross-entropy w.r.t. every parameter."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray


def mlp_gradient(model: MlpModel, sample: np.ndarray, label: int) -> MlpGradients:
    """Analytic cross-entropy gradient for one sample.

    Runs the step kernel training applies (classifiers._sgd_step) on a copy
    of the weights at B = 1, learning rate 1 and momentum 0, and reads its
    gradients, so a finite-difference check of this checks that kernel.
    """
    dims = (model.n_features, model.hidden_neurons, model.n_classes)
    w = np.concatenate([np.ravel(a) for a in
                        (model.w_hidden, model.b_hidden, model.w_out, model.b_out)])
    head = _Head(w, np.zeros_like(w), np.empty_like(w), 1, 1, dims)
    x = np.asarray(sample, dtype=np.float64).reshape(1, 1, -1)
    target = np.eye(model.n_classes)[[[label]]]
    _sgd_step(head, x, x.swapaxes(1, 2), target, np.empty_like(target),
              np.array(1.0), np.array(0.0))
    d_w1, d_b1, d_w2, d_b2 = head.g
    return MlpGradients(w_hidden=d_w1[0], b_hidden=d_b1[0, 0], w_out=d_w2[0], b_out=d_b2[0, 0])


def mlp_loss(model: MlpModel, sample: np.ndarray, label: int) -> float:
    """Per-sample cross-entropy, the quantity mlp_gradient differentiates."""
    _, probs = _forward(model, np.asarray(sample, dtype=np.float64))
    return float(-np.log(probs[label]))
