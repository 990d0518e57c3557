"""Discrete harmony search over fixed-size feature subsets.

A solution ("harmony") assigns one distinct feature index to each of k
slots ("musicians"). New candidates are improvised slot by slot: with
probability HMCR the slot copies a value stored at the same slot across
the harmony memory, optionally nudged to a neighbouring feature index
with probability PAR; otherwise the slot draws a fresh random feature.
Already-chosen values are excluded throughout, so every improvisation is
a valid distinct-index subset. A candidate replaces the worst memory
entry only on strict fitness improvement.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

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

    hmcr is the probability a slot draws from the memory, par the
    probability a memory draw is pitch-adjusted to a neighbouring feature
    index (pitch_adjust), bandwidth the scale of that move in indices.
    """

    n_features: int
    subset_size: int
    hms: int = 20
    hmcr: float = 0.7
    par: float = 0.3
    bandwidth: float = 1.0
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
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be finite and positive, got {self.bandwidth}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


class HarmonyMemory:
    """Fixed-capacity pool of evaluated harmonies."""

    def __init__(self, harmonies: list[Harmony]) -> None:
        if not harmonies:
            raise ValueError("harmony memory must not be empty")
        k = harmonies[0].subset.k
        if any(h.subset.k != k for h in harmonies):
            raise ValueError("all harmonies must share one subset size")
        self._harmonies = list(harmonies)

    @property
    def harmonies(self) -> tuple[Harmony, ...]:
        return tuple(self._harmonies)

    @property
    def subset_size(self) -> int:
        return self._harmonies[0].subset.k

    def column(self, slot: int) -> list[int]:
        """Values stored at one slot across all memory rows (with repeats)."""
        return [h.subset.indices[slot] for h in self._harmonies]

    def column_union(self) -> set[int]:
        return {i for h in self._harmonies for i in h.subset.indices}

    def worst_index(self) -> int:
        fitnesses = [h.fitness for h in self._harmonies]
        return int(np.argmin(fitnesses))

    def worst(self) -> Harmony:
        return self._harmonies[self.worst_index()]

    def replace(self, index: int, harmony: Harmony) -> None:
        self._harmonies[index] = harmony


@dataclass(frozen=True)
class RunHistory:
    """Per-iteration trace of one optimizer run."""

    best_fitness: tuple[float, ...]
    worst_fitness: tuple[float, ...]
    replaced: tuple[bool, ...]
    evaluations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "best_fitness", tuple(self.best_fitness))
        object.__setattr__(self, "worst_fitness", tuple(self.worst_fitness))
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
    stops at the first accepted state change (speculate) scores no more.
    end_iteration appends one history row: the best fitness so far, the
    iteration's worst fitness, and the optimizer's replaced/improved flag.
    `batches` is the objective's own flag (SubsetObjective.batches), False
    for a plain callable: whether a batch scores faster than its members
    one at a time, and so whether speculate proposes ahead.
    """

    def __init__(self, objective) -> None:
        self._objective = objective
        self._prefetch = getattr(objective, "prefetch", None)
        self.batches = bool(getattr(objective, "batches", False))
        self.calls = 0
        self.best: Harmony | None = None
        self._rows: list[tuple[float, float, bool]] = []

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

    def end_iteration(self, worst: float, flag: bool) -> None:
        self._rows.append((self.best.fitness, worst, flag))

    def result(self) -> tuple[Harmony, RunHistory]:
        best_fitness, worst_fitness, flags = zip(*self._rows)
        return self.best, RunHistory(best_fitness, worst_fitness, flags, self.calls)


def speculate(log: RunLog, rng: np.random.Generator, steps: int, depth: int,
              propose: Callable[[int], tuple[FeatureSubset, Any]],
              accept: Callable[[int, Any, float], bool]) -> None:
    """Take steps 0..steps-1 of a search, proposing up to depth of them ahead.

    propose(i) draws step i's move from rng and the search state without
    changing that state, and returns the subset to score and the move.
    accept(i, move, fitness) applies the scored move and reports whether it
    changed the state that later proposals read.

    Each round proposes up to depth steps against the unchanged state,
    saving the rng state before each, and scores their subsets as one batch
    (RunLog.score). They are accepted in order up to and including the first
    that changes the state; the rest are dropped unscored, and the rng goes
    back to the state saved before the first dropped one.
    Objective calls, their order and every result are those of proposing,
    scoring and accepting one step at a time. Unless log.batches, a batch
    scores no faster than its members and a dropped proposal is wasted work,
    so depth is then 1.
    """
    if not log.batches:
        depth = 1
    step = 0
    while step < steps:
        states, proposals = [], []
        for i in range(step, min(step + depth, steps)):
            states.append(rng.bit_generator.state)
            proposals.append(propose(i))
        fitnesses = log.score([subset for subset, _ in proposals])
        for j, ((_, move), fitness) in enumerate(zip(proposals, fitnesses)):
            changed = accept(step, move, fitness)
            step += 1
            if changed:
                if j + 1 < len(proposals):
                    rng.bit_generator.state = states[j + 1]
                break


def pitch_adjust(value: int, band: float, eps: float, forbidden: set[int], n_features: int) -> int:
    """Move a feature index to a nearby free one on the line range(n_features).

    The step is round(band * eps) indices, or one index in eps's direction
    where that rounds to zero, so left and right are equally likely under
    symmetric eps. From the clamped candidate, a forbidden index or value
    itself probes outward (+1, -1, +2, -2, ...) to the nearest free index;
    with none free, value is returned. A bad eps or value is a ValueError.
    """
    if not -1.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [-1,1], got {eps}")
    if value not in range(n_features):
        raise ValueError(f"value {value} not in range({n_features})")
    step = int(np.rint(band * eps))
    if step == 0 and eps != 0.0:
        step = 1 if eps > 0 else -1
    candidate = min(max(value + step, 0), n_features - 1)
    for probe in (candidate + sign * delta for delta in range(n_features + 1) for sign in (1, -1)):
        if 0 <= probe < n_features and probe != value and probe not in forbidden:
            return probe
    return value


def improvise(memory: HarmonyMemory, cfg: HsConfig, rng: np.random.Generator) -> FeatureSubset:
    """Construct one new candidate subset, slot by slot.

    Each slot draws from its own memory column (values already chosen at
    earlier slots are inadmissible) with probability hmcr, else uniformly
    from all unchosen features. Memory draws are pitch-adjusted along the
    feature-index line with probability par (pitch_adjust). An exhausted
    column (every stored value already chosen) falls back to a random
    unchosen feature from the memory, so that pure memory consideration
    never invents indices the memory cannot justify; one is always left, as
    every row holds subset_size distinct features and fewer are chosen
    before the last slot. A memory whose subsets do not fit cfg's
    subset_size or n_features is rejected.
    """
    if memory.subset_size != cfg.subset_size:
        raise ValueError(f"memory holds {memory.subset_size}-feature subsets, "
                         f"config has subset_size={cfg.subset_size}")
    top = max(memory.column_union())
    if top >= cfg.n_features:
        raise ValueError(f"memory holds feature index {top}, "
                         f"config has n_features={cfg.n_features}")
    chosen: list[int] = []
    chosen_set: set[int] = set()
    for slot in range(cfg.subset_size):
        m1 = rng.random()
        value: int | None = None
        if m1 < cfg.hmcr:
            column = memory.column(slot)
            admissible = [v for v in column if v not in chosen_set]
            if admissible:
                value = int(admissible[rng.integers(len(admissible))])
                m2 = rng.random()
                if m2 < cfg.par:
                    eps = float(rng.uniform(-1.0, 1.0))
                    value = pitch_adjust(value, cfg.bandwidth, eps, chosen_set, cfg.n_features)
            else:
                pool = sorted(memory.column_union() - chosen_set)
                value = int(pool[rng.integers(len(pool))])
        else:
            pool = [i for i in range(cfg.n_features) if i not in chosen_set]
            value = int(pool[rng.integers(len(pool))])
        chosen.append(value)
        chosen_set.add(value)
    return FeatureSubset(tuple(chosen))


def random_subset(n_features: int, k: int, rng: np.random.Generator) -> FeatureSubset:
    """Uniformly random distinct-index subset of size k."""
    indices = rng.choice(n_features, size=k, replace=False)
    return FeatureSubset(tuple(int(i) for i in indices))


def initialize_memory(cfg: HsConfig, log: RunLog, rng: np.random.Generator) -> HarmonyMemory:
    """Fill the memory with hms random subsets, scored through the run's log.

    The draws do not depend on any score, so all hms subsets are drawn
    first and scored in draw order as one batch (RunLog.score). Whole-subset
    duplicates across rows are allowed; the evaluation cache makes
    re-scoring them free.
    """
    subsets = [random_subset(cfg.n_features, cfg.subset_size, rng) for _ in range(cfg.hms)]
    fitnesses = log.score(subsets)
    return HarmonyMemory([Harmony(s, f) for s, f in zip(subsets, fitnesses)])


def replace_worst(memory: HarmonyMemory, candidate: Harmony) -> bool:
    """Replace the worst memory entry iff the candidate strictly beats it."""
    worst_idx = memory.worst_index()
    if candidate.fitness > memory.harmonies[worst_idx].fitness:
        memory.replace(worst_idx, candidate)
        return True
    return False


def hs_run(cfg: HsConfig, objective) -> tuple[Harmony, RunHistory]:
    """Full harmony search: initialize, improvise/evaluate/replace, report.

    `objective` maps a FeatureSubset to an accuracy percent. Deterministic
    given cfg.seed; issues exactly hms + max_iterations objective calls.

    The search is speculative and exact (speculate). A candidate depends
    only on the rng state and the memory, and the memory changes only on
    replacement, so up to DEPTH candidates are improvised against the
    unchanged memory and scored as one batch (RunLog.score).
    Objective calls, their order and every result are those of improvising,
    scoring and replacing one candidate at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    log = RunLog(objective)
    memory = initialize_memory(cfg, log, rng)

    def propose(_: int) -> tuple[FeatureSubset, FeatureSubset]:
        subset = improvise(memory, cfg, rng)
        return subset, subset

    def accept(_: int, subset: FeatureSubset, fitness: float) -> bool:
        replaced = replace_worst(memory, Harmony(subset, fitness))
        log.end_iteration(memory.worst().fitness, replaced)
        return replaced

    speculate(log, rng, cfg.max_iterations, DEPTH, propose, accept)
    return log.result()
