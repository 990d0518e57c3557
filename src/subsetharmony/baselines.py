"""Baseline optimizers over the same subset space and objective.

The GA and binary PSO share the harmony-search solution encoding (fixed-k
distinct-index subsets) so fitness values are directly comparable; PCA is
the statistical dimensionality-reduction baseline, scored downstream by
the same cross-validated wrapper on its transformed features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import _sigmoid
# benchmark tracing patches take_rows, standardize and stratified_kfold here, so they
# stay imported
from .dataset import Dataset, standardize, stratified_kfold, take_rows  # noqa: F401
from .harmony import Harmony, RunHistory, RunLog, random_subset, speculate
from .subsets import FeatureSubset, check_subset_size
from .wrapper import EvaluationResult, ObjectiveConfig, SubsetObjective, cross_validate, fold_plan

# binary PSO velocity bound: sigmoid(4) ~ 0.982 keeps every dimension flippable
VELOCITY_CLAMP = 4.0


@dataclass(frozen=True)
class GaConfig:
    """Genetic algorithm parameters (fixed-k subset chromosomes)."""

    n_features: int
    subset_size: int
    population: int = 20
    generations: int = 100
    crossover_rate: float = 1.0
    mutation_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_subset_size(self.n_features, self.subset_size)
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {rate}")


@dataclass(frozen=True)
class PsoConfig:
    """Binary PSO parameters (sigmoid transfer, repair to exactly k)."""

    n_features: int
    subset_size: int
    particles: int = 20
    iterations: int = 100
    c1: float = 2.0
    c2: float = 2.0
    inertia: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        check_subset_size(self.n_features, self.subset_size)
        if self.particles < 2:
            raise ValueError(f"particles must be >= 2, got {self.particles}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not all(math.isfinite(c) and c >= 0.0 for c in (self.c1, self.c2)):
            raise ValueError(f"c1 and c2 must be finite and >= 0, got {self.c1}, {self.c2}")
        # zero inertia tolerated so the degenerate no-memory swarm stays testable
        if not (math.isfinite(self.inertia) and self.inertia >= 0.0):
            raise ValueError(f"inertia must be finite and >= 0, got {self.inertia}")


@dataclass(frozen=True)
class PcaConfig:
    """PCA baseline: fixed component count, or None to sweep and keep the best."""

    components: int | None = None

    def __post_init__(self) -> None:
        if self.components is not None and self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components}")


def _repair_duplicates(genes: list[int], rng: np.random.Generator, n_features: int) -> list[int]:
    """Replace duplicate genes with uniform random unused indices."""
    seen: set[int] = set()
    dup_slots: list[int] = []
    for slot, g in enumerate(genes):
        if g in seen:
            dup_slots.append(slot)
        else:
            seen.add(g)
    if dup_slots:
        unused = [i for i in range(n_features) if i not in seen]
        for slot in dup_slots:
            pick = int(rng.integers(len(unused)))
            genes[slot] = unused.pop(pick)
    return genes


def ga_run(cfg: GaConfig, objective) -> tuple[Harmony, RunHistory]:
    """Generational GA: tournament(2) selection, single-point crossover on
    sorted index lists with duplicate repair, per-gene mutation, elitism 1.

    The initial population and each generation's children are whole lists
    before any of them is scored, so each is handed to the objective's
    prefetch (RunLog.prefetch) first: one batch per generation, with the
    calls, counts and results of scoring them one at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    k, n = cfg.subset_size, cfg.n_features
    log = RunLog(objective)

    population = [random_subset(n, k, rng) for _ in range(cfg.population)]
    log.prefetch(population)
    fitnesses = [log(s) for s in population]

    def tournament() -> FeatureSubset:
        i = int(rng.integers(cfg.population))
        j = int(rng.integers(cfg.population))
        return population[i] if fitnesses[i] >= fitnesses[j] else population[j]

    for _ in range(cfg.generations):
        # the run's best is always the population's first fittest member
        elite = log.best
        children: list[FeatureSubset] = []
        while len(children) < cfg.population - 1:
            p1 = tournament()
            p2 = tournament()
            if k >= 2 and rng.random() < cfg.crossover_rate:
                cut = int(rng.integers(1, k))
                genes = list(sorted(p1.indices)[:cut]) + list(sorted(p2.indices)[cut:])
                genes = _repair_duplicates(genes, rng, n)
            else:
                genes = list(p1.indices)
            for slot in range(k):
                if rng.random() < cfg.mutation_rate:
                    unused = [i for i in range(n) if i not in genes]
                    if unused:
                        genes[slot] = int(unused[rng.integers(len(unused))])
            children.append(FeatureSubset(tuple(genes)))
        population = [elite.subset] + children
        log.prefetch(children)
        fitnesses = [elite.fitness] + [log(c) for c in children]
        log.end_iteration(min(fitnesses), log.best is not elite)
    return log.result()


def _repair_to_k(selected: np.ndarray, prob: np.ndarray, k: int) -> np.ndarray:
    """Force a sampled inclusion mask to exactly k ones.

    Surplus drops the lowest-probability selected dims; deficit adds the
    highest-probability unselected dims. Probability ties resolve to the
    lower dimension index.
    """
    n = len(selected)
    mask = selected.copy()
    count = int(mask.sum())
    if count > k:
        dims = np.flatnonzero(mask)
        keep = dims[np.lexsort((dims, -prob[dims]))][:k]
        mask = np.zeros(n, dtype=bool)
        mask[keep] = True
    elif count < k:
        dims = np.flatnonzero(~mask)
        add = dims[np.lexsort((dims, -prob[dims]))][: k - count]
        mask[add] = True
    return mask


def pso_run(cfg: PsoConfig, objective) -> tuple[Harmony, RunHistory]:
    """Binary PSO over inclusion masks, repaired to exactly k features.

    Velocities follow the classic update v <- w*v + c1*r1*(pbest-x) +
    c2*r2*(gbest-x), clamped to +/- VELOCITY_CLAMP; sigmoid(v) is the
    per-dimension inclusion probability. gbest is the run's best, updated
    as soon as any particle improves on it.

    The initial swarm is handed to the objective's prefetch (RunLog.prefetch)
    as one batch, and every sweep is speculative and exact (speculate). A
    particle's move depends only on the rng state, its own velocity,
    position and pbest, and gbest, which changes only with the run's best;
    so the moves of the rest of the sweep are computed against the current
    gbest and prefetched as one batch, then committed in order up to and
    including the first that improves gbest. Objective calls, their order
    and every result are those of moving and scoring one particle at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    k, n = cfg.subset_size, cfg.n_features
    log = RunLog(objective)

    positions = np.zeros((cfg.particles, n), dtype=bool)
    for p in range(cfg.particles):
        positions[p, rng.choice(n, size=k, replace=False)] = True
    velocities = np.zeros((cfg.particles, n))

    def subset(mask: np.ndarray) -> FeatureSubset:
        return FeatureSubset(tuple(int(i) for i in np.flatnonzero(mask)))

    pbest_pos = positions.copy()
    log.prefetch([subset(mask) for mask in positions])
    pbest_fit = np.array([log(subset(mask)) for mask in positions])
    gbest = log.best
    gbest_pos = pbest_pos[int(np.argmax(pbest_fit))].copy()
    iter_fits = np.empty(cfg.particles)

    def propose(p: int) -> tuple[FeatureSubset, tuple[np.ndarray, np.ndarray]]:
        r1 = rng.random(n)
        r2 = rng.random(n)
        x = positions[p].astype(float)
        velocity = (
            cfg.inertia * velocities[p]
            + cfg.c1 * r1 * (pbest_pos[p].astype(float) - x)
            + cfg.c2 * r2 * (gbest_pos.astype(float) - x)
        )
        np.clip(velocity, -VELOCITY_CLAMP, VELOCITY_CLAMP, out=velocity)
        prob = _sigmoid(velocity)
        mask = _repair_to_k(rng.random(n) < prob, prob, k)
        return subset(mask), (velocity, mask)

    def accept(p: int, move: tuple[np.ndarray, np.ndarray], fit: float) -> bool:
        nonlocal gbest, gbest_pos
        velocities[p], positions[p] = move
        iter_fits[p] = fit
        if fit > pbest_fit[p]:
            pbest_fit[p] = fit
            pbest_pos[p] = positions[p]
        if log.best is gbest:
            return False
        gbest, gbest_pos = log.best, positions[p].copy()
        return True

    for _ in range(cfg.iterations):
        start_best = log.best
        speculate(log, rng, cfg.particles, cfg.particles, propose, accept)
        log.end_iteration(float(iter_fits.min()), log.best is not start_best)
    return log.result()


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Orthonormal principal components with their explained variances."""

    components: np.ndarray   # (n_features, r), orthonormal columns
    eigenvalues: np.ndarray  # (r,), non-negative, non-increasing
    means: np.ndarray        # (n_features,)

    def __post_init__(self) -> None:
        n, r = self.components.shape
        if self.eigenvalues.shape != (r,) or self.means.shape != (n,):
            raise ValueError("inconsistent PCA model shapes")
        gram = self.components.T @ self.components
        if np.abs(gram - np.eye(r)).max() > 1e-8:
            raise ValueError("components must be orthonormal")
        if (self.eigenvalues < 0).any() or (np.diff(self.eigenvalues) > 0).any():
            raise ValueError("eigenvalues must be non-negative and non-increasing")

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


def pca_fit(d: Dataset, r: int) -> PcaModel:
    """Top-r eigenvectors of the mean-centered covariance matrix.

    Sign convention: the largest-magnitude entry of each component is made
    positive, so the decomposition is reproducible.
    """
    if not 1 <= r <= min(d.n_samples, d.n_features):
        raise ValueError(
            f"components must be in [1, {min(d.n_samples, d.n_features)}], got {r}"
        )
    means = d.features.mean(axis=0)
    centered = d.features - means
    cov = np.cov(centered, rowvar=False, ddof=1) if d.n_samples > 1 else np.zeros(
        (d.n_features, d.n_features)
    )
    cov = np.atleast_2d(cov)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:r]
    values = np.clip(eigenvalues[order], 0.0, None)
    vectors = eigenvectors[:, order]
    for j in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, j]))
        if vectors[lead, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return PcaModel(components=vectors, eigenvalues=values, means=means)


def pca_transform(model: PcaModel, d: Dataset) -> Dataset:
    """Project a dataset onto the principal components."""
    if d.n_features != model.means.shape[0]:
        raise ValueError(
            f"model expects {model.means.shape[0]} features, got {d.n_features}"
        )
    projected = (d.features - model.means) @ model.components
    names = tuple(f"pc{j + 1}" for j in range(model.n_components))
    return Dataset(projected, d.labels, names, d.class_names)


def evaluate_components(d: Dataset, r: int, cfg: ObjectiveConfig) -> EvaluationResult:
    """Cross-validated accuracy with per-fold PCA to r dimensions.

    The subset objective's CV loop, with PCA fitted on the standardized
    training part of each fold only.
    """
    def reduce(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
        model = pca_fit(train, r)
        return pca_transform(model, train), pca_transform(model, test)

    return cross_validate(d, cfg, [reduce])[0]


@dataclass(frozen=True)
class PcaSweepResult:
    """Best component count found by the PCA baseline."""

    components: int
    accuracy_percent: float
    evaluated: tuple[tuple[int, float], ...]


def pca_run(cfg: PcaConfig, objective: SubsetObjective) -> PcaSweepResult:
    """Score the PCA baseline against the objective's dataset and folds.

    With components=None every feasible dimensionality is tried and the
    best accuracy wins (ties to the smaller count).
    """
    d = objective.dataset
    obj_cfg = objective.config
    max_r = min(d.n_features, min(train.n_samples for train, _ in fold_plan(d, obj_cfg)))
    if cfg.components is not None:
        if cfg.components > max_r:
            raise ValueError(
                f"components={cfg.components} exceeds feasible maximum {max_r}"
            )
        candidates = [cfg.components]
    else:
        candidates = list(range(1, max_r + 1))
    evaluated = []
    for r in candidates:
        result = evaluate_components(d, r, obj_cfg)
        evaluated.append((r, result.accuracy_percent))
    best_r, best_acc = max(evaluated, key=lambda pair: (pair[1], -pair[0]))
    return PcaSweepResult(
        components=best_r,
        accuracy_percent=best_acc,
        evaluated=tuple(evaluated),
    )
