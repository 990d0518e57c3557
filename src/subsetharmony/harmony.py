"""Discrete harmony search over fixed-size feature subsets.

A solution ("harmony") is a set of k distinct feature indices, read as one
inclusion bit per feature. New candidates are improvised by binary memory
consideration (Diao & Shen 2012; Ramos et al. 2011): with probability HMCR
a feature takes its bit from a random memory row, flipped with probability
PAR; otherwise the bit is drawn true with probability k/n. The mask is
repaired to exactly k features by how many memory rows include each one,
the repair the binary PSO uses too. A candidate replaces the worst memory
entry only on strict fitness improvement.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .subsets import FeatureSubset, check_subset_size

# candidates hs_run improvises ahead against an unchanged memory and scores
# as one batch (RunLog.score)
DEPTH = 4


@dataclass(frozen=True)
class Harmony:
    """An evaluated subset: the encoding plus its accuracy-percent fitness."""

    subset: FeatureSubset
    fitness: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fitness <= 100.0:
            raise ValueError(f"fitness {self.fitness} outside [0,100]")


@dataclass(frozen=True)
class HsConfig:
    """Harmony search parameters.

    hmcr is the probability a feature's inclusion bit is drawn from the
    memory, and par the probability such a bit is flipped (improvise).
    """

    n_features: int
    subset_size: int
    hms: int = 20
    hmcr: float = 0.7
    par: float = 0.3
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        check_subset_size(self.n_features, self.subset_size)
        if self.hms < 1:
            raise ValueError(f"hms must be >= 1, got {self.hms}")
        if not 0.0 <= self.hmcr <= 1.0:
            raise ValueError(f"hmcr must be in [0,1], got {self.hmcr}")
        if not 0.0 <= self.par <= 1.0:
            raise ValueError(f"par must be in [0,1], got {self.par}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class RunHistory:
    """Per-iteration trace of one optimizer run."""

    best_fitness: tuple[float, ...]
    replaced: tuple[bool, ...]
    evaluations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "best_fitness", tuple(self.best_fitness))
        object.__setattr__(self, "replaced", tuple(self.replaced))
        seq = self.best_fitness
        if any(later < earlier for earlier, later in zip(seq, seq[1:])):
            raise ValueError("best-fitness sequence must be non-decreasing")


class RunLog:
    """The one record of an optimizer run; HS, GA and PSO score only through it.

    Calling the log scores a subset with the objective, counts the call, and
    keeps the first subset that reaches the highest fitness seen. score is
    the one way a run scores a batch: it hands the list to the objective's
    prefetch, if any (SubsetObjective.prefetch), then yields the fitnesses
    in list order, each scored and counted only when read; so a loop that
    stops at the first accepted state change (an HS lookahead round, a PSO
    sweep) scores no more.
    end_iteration appends one history row: the best fitness so far and the
    optimizer's replaced/improved flag.
    `batches` is the objective's own flag (SubsetObjective.batches), False
    for a plain callable: whether a batch scores faster than its members
    one at a time. hs_run is its only reader: it improvises ahead only then.
    """

    def __init__(self, objective) -> None:
        self._objective = objective
        self._prefetch = getattr(objective, "prefetch", None)
        self.batches = bool(getattr(objective, "batches", False))
        self.calls = 0
        self.best: Harmony | None = None
        self._rows: list[tuple[float, bool]] = []

    def __call__(self, subset: FeatureSubset) -> float:
        fitness = float(self._objective(subset))
        self.calls += 1
        if self.best is None or fitness > self.best.fitness:
            self.best = Harmony(subset, fitness)
        return fitness

    def score(self, subsets: list[FeatureSubset]) -> Iterator[float]:
        if self._prefetch is not None:
            self._prefetch(subsets)
        return map(self, subsets)

    def end_iteration(self, flag: bool) -> None:
        self._rows.append((self.best.fitness, flag))

    def result(self) -> tuple[Harmony, RunHistory]:
        best_fitness, flags = zip(*self._rows)
        return self.best, RunHistory(best_fitness, flags, self.calls)


def improvise(memory: list[Harmony], cfg: HsConfig, rng: np.random.Generator) -> FeatureSubset:
    """Construct one new candidate subset from per-feature inclusion bits.

    Feature j's bit is, with probability hmcr, its bit in a uniformly drawn
    memory row, flipped with probability par; otherwise it is true with
    probability k/n. The mask is then repaired to exactly k features
    (_repair_to_k), ranked by how many memory rows include each feature,
    with ties broken at random from rng. So with hmcr = 1 and par = 0 every
    chosen feature lies in the union of the memory rows: each bit is some
    row's bit, and the union, which holds at least k features, outranks the
    rest. An empty memory, or one whose subsets do not fit cfg's
    subset_size or n_features, is a ValueError.
    """
    rows = [h.subset.indices for h in memory]
    if not rows:
        raise ValueError("harmony memory must not be empty")
    for row in rows:
        if len(row) != cfg.subset_size:
            raise ValueError(f"memory holds {len(row)}-feature subsets, "
                             f"config has subset_size={cfg.subset_size}")
    members = np.array(rows)
    if members.max() >= cfg.n_features:
        raise ValueError(f"memory holds feature index {members.max()}, "
                         f"config has n_features={cfg.n_features}")
    n, k = cfg.n_features, cfg.subset_size
    masks = np.zeros((len(rows), n), dtype=bool)
    masks[np.arange(len(rows))[:, None], members] = True
    recalled = rng.random(n) < cfg.hmcr
    bits = masks[rng.integers(len(rows), size=n), np.arange(n)] ^ (rng.random(n) < cfg.par)
    mask = np.where(recalled, bits, rng.random(n) < k / n)
    return mask_subset(_repair_to_k(mask, masks.sum(axis=0) + rng.random(n), k))


def random_subset(n_features: int, k: int, rng: np.random.Generator) -> FeatureSubset:
    """Uniformly random distinct-index subset of size k."""
    indices = rng.choice(n_features, size=k, replace=False)
    return FeatureSubset(tuple(int(i) for i in indices))


def mask_subset(mask: np.ndarray) -> FeatureSubset:
    """The subset of a boolean inclusion mask's true positions, in index order."""
    return FeatureSubset(tuple(np.flatnonzero(mask).tolist()))


def _repair_to_k(selected: np.ndarray, priority: np.ndarray, k: int) -> np.ndarray:
    """Force inclusion masks to exactly k ones along the last axis; HS and the PSO share it.

    Each mask keeps its first k dims ranked selected first, then higher
    priority, then lower index: a surplus drops the lowest-priority selected
    dims and a deficit adds the highest-priority unselected ones. A 2-D
    array is repaired row by row.
    """
    # lexsort is stable, so equal keys keep index order
    first = np.lexsort((-priority, ~selected), axis=-1)[..., :k]
    mask = np.zeros(selected.shape, dtype=bool)
    np.put_along_axis(mask, first, True, axis=-1)
    return mask


def initialize_memory(cfg: HsConfig, log: RunLog, rng: np.random.Generator) -> list[Harmony]:
    """The harmony memory: hms random subsets, scored through the run's log.

    The draws do not depend on any score, so all hms subsets are drawn
    first and scored in draw order as one batch (RunLog.score). Whole-subset
    duplicates across rows are allowed; the evaluation cache makes
    re-scoring them free.
    """
    subsets = [random_subset(cfg.n_features, cfg.subset_size, rng) for _ in range(cfg.hms)]
    fitnesses = log.score(subsets)
    return [Harmony(s, f) for s, f in zip(subsets, fitnesses)]


def replace_worst(memory: list[Harmony], candidate: Harmony) -> bool:
    """Replace the worst memory row (the first, on ties) iff the candidate strictly beats it."""
    worst = min(range(len(memory)), key=lambda i: memory[i].fitness)
    if candidate.fitness > memory[worst].fitness:
        memory[worst] = candidate
        return True
    return False


def hs_run(cfg: HsConfig, objective) -> tuple[Harmony, RunHistory]:
    """Full harmony search: initialize, improvise/evaluate/replace, report.

    `objective` maps a FeatureSubset to an accuracy percent. Deterministic
    given cfg.seed; issues exactly hms + max_iterations objective calls.

    A candidate depends only on the rng state and the memory, and the
    memory changes only on replacement. So when the objective batches
    (log.batches), each round improvises up to DEPTH candidates against the
    unchanged memory, saving the rng state before each, and scores them as
    one batch (RunLog.score). They are accepted in order up to and including
    the first replacement; the rest are dropped unscored and the rng goes
    back to the state saved before the first dropped one. Otherwise a
    dropped candidate would be wasted work, so a round holds one.
    Objective calls, their order and every result are those of improvising,
    scoring and replacing one candidate at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    log = RunLog(objective)
    memory = initialize_memory(cfg, log, rng)
    depth = DEPTH if log.batches else 1
    step = 0
    while step < cfg.max_iterations:
        states, subsets = [], []
        for _ in range(min(depth, cfg.max_iterations - step)):
            states.append(rng.bit_generator.state)
            subsets.append(improvise(memory, cfg, rng))
        for j, fitness in enumerate(log.score(subsets)):
            step += 1
            replaced = replace_worst(memory, Harmony(subsets[j], fitness))
            log.end_iteration(replaced)
            if replaced:
                if j + 1 < len(subsets):
                    rng.bit_generator.state = states[j + 1]
                break
    return log.result()
