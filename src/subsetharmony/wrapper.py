"""Wrapper objective: cross-validated classifier accuracy of a feature subset.

Every candidate subset is scored by stratified k-fold cross validation on
its columns. The folds of a dataset, standardized at full width on each
training part, are built once per dataset and fold setting (its fold plan);
scoring a subset projects each fold's train and test part onto the subset's
columns and hands those pairs to cross_validate, which scores whatever
(train, test) pairs it is given. The reported accuracy is micro-averaged:
pooled correct count over pooled sample count across folds. Evaluations
are memoized under the canonical (sorted) subset key, since the same
feature set reappears constantly during a search.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from statistics import NormalDist

from .classifiers import (
    KnnConfig,
    MlpConfig,
    TrainingDivergedError,
    _knn_vote,
    knn_predict,
    mlp_predict,
    mlp_train_many,
)
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


CI_LEVEL = 0.95


def confidence_interval(p_hat: float, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at coverage CI_LEVEL.

    Well behaved at extreme accuracies: contains p_hat and stays in [0, 1].
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must be in [0,1], got {p_hat}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = NormalDist().inv_cdf((1.0 + CI_LEVEL) / 2.0)
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


# the classifiers an objective can wrap
CLASSIFIERS = ("mlp", "knn")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Which classifier scores a subset, and how the folds are built."""

    classifier: str = "mlp"
    mlp: MlpConfig = field(default_factory=MlpConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    folds: int = 3
    fold_seed: int = 0

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"classifier must be {' or '.join(map(repr, CLASSIFIERS))}, "
                             f"got {self.classifier!r}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


FoldPairs = tuple[tuple[Dataset, Dataset], ...]

# each dataset's fold plans by (folds, fold_seed). A plan is a pure function of
# an immutable Dataset, so sharing it changes no result; the entry goes when the
# dataset does.
_PLANS: weakref.WeakKeyDictionary[Dataset, dict[tuple, FoldPairs]] = weakref.WeakKeyDictionary()


def fold_plan(d: Dataset, cfg: ObjectiveConfig) -> FoldPairs:
    """The (train, test) parts of every fold of d at full width, built once.

    The fold assignment depends only on the labels and cfg.fold_seed, so
    every caller is scored against the same folds. Each pair holds z-scores
    fitted on the training part over all columns: that full-width
    standardization is the reference a subset's columns are cut from, so a
    column that overflows raises DatasetError here, whichever subset is asked
    for. The plan lives as long as d does.
    """
    plans = _PLANS.setdefault(d, {})
    key = (cfg.folds, cfg.fold_seed)
    if key not in plans:
        pairs = [(take_rows(d, train_rows), take_rows(d, test_rows))
                 for train_rows, test_rows in stratified_kfold(d, cfg.folds, cfg.fold_seed)]
        plans[key] = tuple(standardize(*pair) for pair in pairs)
    return plans[key]


def cross_validate(members: Sequence[FoldPairs], cfg: ObjectiveConfig) -> list[EvaluationResult]:
    """Accuracy of the configured classifier on each member's (train, test) pairs.

    Each pair trains on its train part and predicts its test part; a
    member's counts are pooled over its pairs. Whatever was fitted to build a
    pair (z-scores, a PCA) should be fitted on its train part only, so the
    test part stays unseen. The MLP pairs of all members train through one
    mlp_train_many call, each to the bits it would reach alone; if any
    training diverges, it raises TrainingDivergedError and scores nothing.
    """
    if cfg.classifier == "mlp":
        models = iter(mlp_train_many([train for pairs in members for train, _ in pairs],
                                     cfg.mlp))
        predictions = [[mlp_predict(next(models), test) for _, test in pairs]
                       for pairs in members]
    else:
        predictions = [[knn_predict(train, cfg.knn, test) for train, test in pairs]
                       for pairs in members]
    return [_result([int((predicted == test.labels).sum())
                     for predicted, (_, test) in zip(member_predictions, pairs)],
                    [test.n_samples for _, test in pairs])
            for member_predictions, pairs in zip(predictions, members)]


def _result(correct: list[int], total: list[int]) -> EvaluationResult:
    """Result of per-fold counts, scored by the pooled count over all folds."""
    per_fold = tuple(accuracy(c, t) for c, t in zip(correct, total))
    return EvaluationResult(accuracy_percent=accuracy(sum(correct), sum(total)),
                            per_fold_accuracy=per_fold,
                            correct_count=sum(correct), total_count=sum(total))


def evaluate_subset(d: Dataset, s: FeatureSubset, cfg: ObjectiveConfig) -> EvaluationResult:
    """Stratified k-fold CV accuracy of the classifier on the subset's columns.

    cross_validate scores the folds of fold_plan(d, cfg), each projected
    onto the columns in ascending index order, so a feature set scores the
    same whatever the order of its slots.
    """
    return cross_validate([_projected(fold_plan(d, cfg), s.key)], cfg)[0]


def _projected(pairs: FoldPairs, key: tuple[int, ...]) -> FoldPairs:
    """The pairs with both parts cut to the key's columns, ascending."""
    cols = FeatureSubset(key)
    return tuple((project(train, cols), project(test, cols)) for train, test in pairs)


class SubsetObjective:
    """Callable objective f(subset) -> accuracy percent, with memoization.

    The callable form is what the optimizers consume; `evaluate` exposes the
    full per-fold result. Results are cached under the canonical (sorted)
    subset key and returned verbatim on re-query of the same feature set in
    any order. `calls` counts objective invocations including cache hits;
    `unique_evaluations` counts the distinct subsets evaluate has returned.
    `prefetch` scores MLP misses ahead of time in one lockstep batch; they
    wait in `pending` and count only once evaluate asks for them, so every
    count and result is the one scoring on demand gives. `batches` says
    whether prefetch does anything, which is what hs_run reads before it
    improvises candidates ahead. The first miss builds the
    dataset's fold plan (fold_plan); reset_cache keeps it. A miss whose
    training diverges raises TrainingDivergedError naming the subset.
    """

    def __init__(self, dataset: Dataset, config: ObjectiveConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.cache: dict[tuple[int, ...], EvaluationResult] = {}
        self.pending: dict[tuple[int, ...], EvaluationResult] = {}
        self.calls = 0

    def __call__(self, subset: FeatureSubset) -> float:
        return self.evaluate(subset).accuracy_percent

    def evaluate(self, subset: FeatureSubset) -> EvaluationResult:
        self.calls += 1
        result = self.cache.get(subset.key)
        if result is None:
            result = self.pending.pop(subset.key, None)
            if result is None:
                try:
                    result = self._score(subset)
                except TrainingDivergedError as err:
                    raise TrainingDivergedError(f"subset {subset.key}: {err}") from err
            self.cache[subset.key] = result
        return result

    def _score(self, subset: FeatureSubset) -> EvaluationResult:
        """Score one subset on a cache miss; subclasses replace only this."""
        return evaluate_subset(self.dataset, subset, self.config)

    def prefetch(self, subsets: Iterable[FeatureSubset]) -> None:
        """Score the subsets neither cached nor pending through one cross_validate call.

        The results, the bits evaluate_subset gives, wait in `pending` until
        evaluate first asks for them; one never asked for never counts. Only
        MLP training gains from a batch, so unless `batches` (a kNN
        objective, leave-one-out included) it prefetches nothing. If the
        batch diverges nothing is stored: each subset is scored when it is
        asked for, and only a diverging one raises.
        """
        if not self.batches:
            return
        keys = [key for key in dict.fromkeys(s.key for s in subsets)
                if key not in self.cache and key not in self.pending]
        if not keys:
            return
        plan = fold_plan(self.dataset, self.config)
        try:
            results = cross_validate([_projected(plan, key) for key in keys], self.config)
        except TrainingDivergedError:
            return
        self.pending.update(zip(keys, results))

    @property
    def batches(self) -> bool:
        """Whether prefetch scores misses in one batch: only for the MLP."""
        return self.config.classifier == "mlp"

    @property
    def unique_evaluations(self) -> int:
        return len(self.cache)

    def reset_cache(self) -> None:
        self.cache.clear()
        self.pending.clear()
        self.calls = 0


class LeaveOneOutObjective(SubsetObjective):
    """Deterministic LOO-kNN objective with the SubsetObjective interface.

    No folds and no RNG: each row is predicted by knn_predict's rule from
    the other n-1 rows, with k clamped to n-1 (equidistant neighbors prefer
    the lower sample index, tied votes the lowest class id), so
    exhaustive-search oracles are exactly repeatable. Only the scoring step
    differs; `config` names the kNN, and its fold settings are unused: pca_run,
    which scores with folds of its own, refuses this objective.
    """

    def __init__(self, dataset: Dataset, k_neighbors: int = 1) -> None:
        super().__init__(dataset, ObjectiveConfig(classifier="knn",
                                                  knn=KnnConfig(k_neighbors)))

    def _score(self, subset: FeatureSubset) -> EvaluationResult:
        """Leave-one-out as one fold of all n rows."""
        sub = project(self.dataset, FeatureSubset(subset.key))
        x = sub.features
        predicted = _knn_vote(x, sub.labels, sub.n_classes, x, self.config.knn.k_neighbors,
                              skip_self=True)
        return _result([int((predicted == sub.labels).sum())], [sub.n_samples])
