"""The MLP's initial weights, drawn the way training draws them, for reference checks."""

import numpy as np

from subsetharmony.classifiers import MlpModel


def initial_model(n_features: int, hidden: int, n_classes: int, rng) -> MlpModel:
    """Uniform [-0.5, 0.5] weights drawn w1, b1, w2, b2 from rng, a seed or a Generator.

    A Generator is drawn from in place, so its stream goes on from there.
    """
    rng = np.random.default_rng(rng)
    shapes = ((n_features, hidden), hidden, (hidden, n_classes), n_classes)
    return MlpModel(*(rng.uniform(-0.5, 0.5, size=shape) for shape in shapes))
