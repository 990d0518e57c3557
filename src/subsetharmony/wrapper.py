"""Wrapper objective: cross-validated classifier accuracy of a feature subset.

Every candidate subset is scored by stratified k-fold cross validation on
the projected columns, with standardization fitted per training fold. The
reported accuracy is micro-averaged: pooled correct count over pooled
sample count across folds. Evaluations are memoized under the canonical
(sorted) subset key, since the same feature set reappears constantly
during a search.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .classifiers import KnnConfig, MlpConfig, _knn_vote, knn_predict, mlp_predict, mlp_train_many
# not called here: perfbench/tracing.py still resolves and patches wrapper.mlp_train
from .classifiers import mlp_train  # noqa: F401
from .dataset import Dataset, project, standardize, stratified_kfold, take_rows
from .subsets import FeatureSubset


def accuracy(correct: int, total: int) -> float:
    """Classification accuracy percent: 100 * correct / total."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if not 0 <= correct <= total:
        raise ValueError(f"correct={correct} outside [0, {total}]")
    return 100.0 * correct / total


def confidence_interval(p_hat: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well behaved at extreme accuracies: contains p_hat and stays in [0, 1].
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must be in [0,1], got {p_hat}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class EvaluationResult:
    """Cross-validated score of one feature subset."""

    accuracy_percent: float
    per_fold_accuracy: tuple[float, ...]
    correct_count: int
    total_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy_percent <= 100.0:
            raise ValueError(f"accuracy {self.accuracy_percent} outside [0,100]")
        if not 0 <= self.correct_count <= self.total_count:
            raise ValueError("correct_count outside [0, total_count]")
        object.__setattr__(self, "per_fold_accuracy", tuple(self.per_fold_accuracy))


@dataclass(frozen=True)
class ObjectiveConfig:
    """Which classifier scores a subset, and how the folds are built.

    fold_average=False pools correct counts over all folds (micro average);
    True averages the per-fold accuracies instead, for comparison.
    """

    classifier: str = "mlp"
    mlp: MlpConfig = field(default_factory=MlpConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    folds: int = 3
    fold_seed: int = 0
    standardize: bool = True
    fold_average: bool = False

    def __post_init__(self) -> None:
        if self.classifier not in ("mlp", "knn"):
            raise ValueError(f"classifier must be 'mlp' or 'knn', got {self.classifier!r}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


def cross_validate(
    d: Dataset,
    cfg: ObjectiveConfig,
    transform: Callable[[Dataset, Dataset], tuple[Dataset, Dataset]] | None = None,
) -> EvaluationResult:
    """Stratified k-fold CV accuracy of the configured classifier on d.

    The fold assignment depends only on the labels and cfg.fold_seed, so
    every caller is scored against the same folds. Standardization and then
    `transform(train, test)`, if given, are fitted per fold on the training
    part only. The MLP folds train in lockstep (mlp_train_many), each to
    the bits it would reach alone.
    """
    pairs = []
    for train_rows, test_rows in stratified_kfold(d, cfg.folds, cfg.fold_seed):
        train = take_rows(d, train_rows)
        test = take_rows(d, test_rows)
        if cfg.standardize:
            train, test = standardize(train, test)
        if transform is not None:
            train, test = transform(train, test)
        pairs.append((train, test))
    if cfg.classifier == "mlp":
        models = mlp_train_many([train for train, _ in pairs], cfg.mlp)
        predictions = [mlp_predict(model, test) for model, (_, test) in zip(models, pairs)]
    else:
        predictions = [knn_predict(train, cfg.knn, test) for train, test in pairs]
    return _result([int((predicted == test.labels).sum())
                    for predicted, (_, test) in zip(predictions, pairs)],
                   [test.n_samples for _, test in pairs], cfg.fold_average)


def _result(correct: list[int], total: list[int], fold_average: bool) -> EvaluationResult:
    """Result of per-fold counts: pooled, or the mean fold accuracy if fold_average."""
    per_fold = tuple(accuracy(c, t) for c, t in zip(correct, total))
    overall = float(np.mean(per_fold)) if fold_average else accuracy(sum(correct), sum(total))
    return EvaluationResult(accuracy_percent=overall, per_fold_accuracy=per_fold,
                            correct_count=sum(correct), total_count=sum(total))


def evaluate_subset(d: Dataset, s: FeatureSubset, cfg: ObjectiveConfig) -> EvaluationResult:
    """Stratified k-fold CV accuracy of the classifier on the subset's columns.

    The columns are taken in ascending index order, so a feature set scores
    the same whatever the order of its slots.
    """
    return cross_validate(project(d, FeatureSubset(s.key)), cfg)


class SubsetObjective:
    """Callable objective f(subset) -> accuracy percent, with memoization.

    The callable form is what the optimizers consume; `evaluate` exposes the
    full per-fold result. Results are cached under the canonical (sorted)
    subset key and returned verbatim on re-query of the same feature set in
    any order. `calls` counts objective invocations including cache hits;
    `unique_evaluations` counts actual scoring runs.
    """

    def __init__(self, dataset: Dataset, config: ObjectiveConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.cache: dict[tuple[int, ...], EvaluationResult] = {}
        self.calls = 0

    def __call__(self, subset: FeatureSubset) -> float:
        return self.evaluate(subset).accuracy_percent

    def evaluate(self, subset: FeatureSubset) -> EvaluationResult:
        self.calls += 1
        result = self.cache.get(subset.key)
        if result is None:
            result = self._score(subset)
            self.cache[subset.key] = result
        return result

    def _score(self, subset: FeatureSubset) -> EvaluationResult:
        """Score one subset on a cache miss; subclasses replace only this."""
        return evaluate_subset(self.dataset, subset, self.config)

    @property
    def unique_evaluations(self) -> int:
        return len(self.cache)

    def reset_cache(self) -> None:
        self.cache.clear()
        self.calls = 0


def loo_knn_accuracy(d: Dataset, subset: FeatureSubset, k_neighbors: int = 1) -> float:
    """Leave-one-out kNN accuracy percent on the chosen columns.

    Fully deterministic: no folds, no RNG. Each row is predicted by
    knn_predict's rule from the other n-1 rows, with k clamped to n-1
    (equidistant neighbors prefer the lower sample index, tied votes the
    lowest class id), so exhaustive-search oracles are exactly repeatable.
    """
    return LeaveOneOutObjective(d, k_neighbors).evaluate(subset).accuracy_percent


class LeaveOneOutObjective(SubsetObjective):
    """Deterministic LOO-kNN objective with the SubsetObjective interface.

    Only the scoring step differs; `config` names the kNN, and consumers
    that cross-validate on their own (pca_run) read its fold settings.
    """

    def __init__(self, dataset: Dataset, k_neighbors: int = 1) -> None:
        super().__init__(dataset, ObjectiveConfig(classifier="knn",
                                                  knn=KnnConfig(k_neighbors)))

    def _score(self, subset: FeatureSubset) -> EvaluationResult:
        """Leave-one-out as one fold of all n rows."""
        sub = project(self.dataset, FeatureSubset(subset.key))
        x = sub.features
        k = min(self.config.knn.k_neighbors, sub.n_samples - 1)
        predicted = _knn_vote(x, sub.labels, sub.n_classes, x, k, skip_self=True)
        return _result([int((predicted == sub.labels).sum())], [sub.n_samples], False)
