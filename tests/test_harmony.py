from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetharmony import (
    FeatureSubset,
    GaConfig,
    Harmony,
    HsConfig,
    LeaveOneOutObjective,
    MlpConfig,
    ObjectiveConfig,
    PsoConfig,
    RunHistory,
    SubsetObjective,
    ga_run,
    hs_run,
    pso_run,
)
from subsetharmony import baselines, harmony
from subsetharmony.baselines import VELOCITY_CLAMP
from subsetharmony.classifiers import _sigmoid
from subsetharmony.harmony import (
    RunLog,
    _repair_to_k,
    improvise,
    initialize_memory,
    random_subset,
    replace_worst,
)
from subsetharmony.synth import planted_dataset


class _ReferenceMemory:
    """The harmony memory as a class, as written before it became a plain list."""

    def __init__(self, harmonies):
        if not harmonies:
            raise ValueError("harmony memory must not be empty")
        k = harmonies[0].subset.k
        if any(h.subset.k != k for h in harmonies):
            raise ValueError("all harmonies must share one subset size")
        self._harmonies = list(harmonies)

    @property
    def harmonies(self):
        return tuple(self._harmonies)

    def worst_index(self):
        return int(np.argmin([h.fitness for h in self._harmonies]))

    def replace(self, index, harmony):
        self._harmonies[index] = harmony


def _reference_replace_worst(memory, candidate):
    """replace_worst over _ReferenceMemory, as written before the memory became a list."""
    worst_idx = memory.worst_index()
    if candidate.fitness > memory.harmonies[worst_idx].fitness:
        memory.replace(worst_idx, candidate)
        return True
    return False


def _memory(*rows):
    return [Harmony(FeatureSubset(s), f) for s, f in rows]


class TestTypes:
    def test_harmony_fitness_range(self):
        Harmony(FeatureSubset((0,)), 0.0)
        Harmony(FeatureSubset((0,)), 100.0)
        with pytest.raises(ValueError):
            Harmony(FeatureSubset((0,)), 100.5)
        with pytest.raises(ValueError):
            Harmony(FeatureSubset((0,)), -0.1)

    def test_config_validation(self):
        HsConfig(n_features=10, subset_size=10)  # k == n is legal
        cases = [
            dict(n_features=0, subset_size=1),
            dict(n_features=5, subset_size=6),
            dict(n_features=5, subset_size=0),
            dict(n_features=5, subset_size=2, hms=0),
            dict(n_features=5, subset_size=2, hmcr=1.0001),
            dict(n_features=5, subset_size=2, par=-0.1),
            dict(n_features=5, subset_size=2, max_iterations=0),
        ]
        for kw in cases:
            with pytest.raises(ValueError):
                HsConfig(**kw)

    def test_run_history_rejects_decreasing_best(self):
        with pytest.raises(ValueError):
            RunHistory((5.0, 4.0), (False, False), 2)


class TestImprovise:
    def test_pure_memory_single_row_is_identity(self):
        m = _memory(((4, 1, 7), 50.0))
        cfg = HsConfig(n_features=10, subset_size=3, hms=1, hmcr=1.0, par=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert improvise(m, cfg, rng).key == (1, 4, 7)

    def test_hmcr_zero_draws_beyond_the_memory(self):
        m = _memory(((0, 1), 50.0))
        cfg = HsConfig(n_features=12, subset_size=2, hms=1, hmcr=0.0, par=0.0)
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(400):
            s = improvise(m, cfg, rng)
            assert s.k == 2
            assert all(0 <= i < 12 for i in s.indices)
            seen.update(s.indices)
        assert seen == set(range(12))  # well beyond the memory's {0, 1}

    def test_memory_consideration_rate(self):
        # k=1, every row holds feature 4, n=10, hmcr=0.5: bit 4 is on with
        # p = 0.5 + 0.5/10 and each other bit with q = 0.5/10; the repair keeps
        # 4 when its bit is on or no bit is, so P(4) = p + (1 - p)(1 - q)^9
        m = _memory(((4,), 50.0), ((4,), 50.0), ((4,), 50.0))
        cfg = HsConfig(n_features=10, subset_size=1, hms=3, hmcr=0.5, par=0.0)
        rng = np.random.default_rng(5)
        hits = sum(improvise(m, cfg, rng).indices[0] == 4 for _ in range(20_000))
        p, q = 0.55, 0.05
        assert abs(hits - 20_000 * (p + (1 - p) * (1 - q) ** 9)) <= 250

    def test_par_one_flips_every_recalled_bit(self):
        # hmcr=1, par=1: every bit but 4's is on, so 4 is never kept and the
        # repair picks among the other eight at random
        m = _memory(((4,), 50.0))
        cfg = HsConfig(n_features=9, subset_size=1, hms=1, hmcr=1.0, par=1.0)
        rng = np.random.default_rng(6)
        counts = Counter(improvise(m, cfg, rng).indices[0] for _ in range(16_000))
        assert set(counts) == set(range(9)) - {4}
        assert all(1_700 <= c <= 2_300 for c in counts.values())

    def test_repair_ties_are_broken_at_random(self):
        # k=1 over four distinct one-feature rows: each row's feature has the
        # same memory count, so each is chosen about a quarter of the time (a
        # lower-index tie rule would choose feature 1 more than half the time)
        m = _memory(((7,), 10.0), ((1,), 20.0), ((5,), 30.0), ((3,), 40.0))
        cfg = HsConfig(n_features=10, subset_size=1, hms=4, hmcr=1.0, par=0.0)
        rng = np.random.default_rng(10)
        counts = Counter(improvise(m, cfg, rng).indices[0] for _ in range(20_000))
        assert set(counts) == {1, 3, 5, 7}
        assert all(4_700 <= c <= 5_300 for c in counts.values())

    def test_pure_memory_closure(self):
        m = _memory(((0, 3, 6), 10.0), ((1, 4, 6), 20.0), ((2, 5, 8), 30.0))
        union = {0, 1, 2, 3, 4, 5, 6, 8}
        cfg = HsConfig(n_features=30, subset_size=3, hms=3, hmcr=1.0, par=0.0)
        rng = np.random.default_rng(8)
        for _ in range(1_000):
            assert set(improvise(m, cfg, rng).indices) <= union

    @pytest.mark.parametrize("rows, subset_size, par, match", [
        ([((0, 1), 50.0)], 3, 0.0, "2-feature subsets, config has subset_size=3"),
        ([((0, 9), 50.0)], 2, 0.0, "feature index 9, config has n_features=8"),
        ([((0, 9), 50.0)], 2, 1.0, "feature index 9, config has n_features=8"),
        ([], 2, 0.0, "harmony memory must not be empty"),
        # mixed sizes: a later row that does not fit is found as well as the first
        ([((0, 1), 10.0), ((2,), 20.0)], 2, 0.0, "1-feature subsets, config has subset_size=2"),
        ([((0, 1), 10.0), ((2,), 20.0)], 1, 0.0, "2-feature subsets, config has subset_size=1"),
        ([((0, 1), 50.0), ((8, 2), 10.0)], 2, 0.0, "feature index 8, config has n_features=8"),
    ])
    def test_memory_that_does_not_fit_the_config_is_rejected(self, rows, subset_size,
                                                             par, match):
        cfg = HsConfig(n_features=8, subset_size=subset_size, hms=1, hmcr=1.0, par=par)
        with pytest.raises(ValueError, match=match):
            improvise(_memory(*rows), cfg, np.random.default_rng(0))

    def test_deterministic_given_rng_state(self):
        m = _memory(((0, 3, 6), 10.0), ((1, 4, 6), 20.0), ((2, 5, 8), 30.0))
        cfg = HsConfig(n_features=12, subset_size=3, hms=3)
        first = [improvise(m, cfg, np.random.default_rng(4)).indices for _ in range(5)]
        assert len(set(first)) == 1  # a fresh rng in the same state, the same subset
        rng = np.random.default_rng(4)
        draws = [improvise(m, cfg, rng).indices for _ in range(50)]
        assert len(set(draws)) > 1  # one rng carried across calls moves on

    def test_memory_is_not_mutated(self):
        m = _memory(((0, 3, 6), 10.0), ((1, 4, 6), 20.0), ((2, 5, 8), 30.0))
        before = list(m)
        cfg = HsConfig(n_features=12, subset_size=3, hms=3, hmcr=0.9, par=0.5)
        rng = np.random.default_rng(9)
        for _ in range(100):
            improvise(m, cfg, rng)
        assert m == before

    @pytest.mark.parametrize("hmcr, par", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.7, 0.3)])
    def test_k_equal_to_n_returns_every_feature(self, hmcr, par):
        m = _memory(((0, 1, 2, 3, 4), 50.0), ((4, 3, 2, 1, 0), 60.0))
        cfg = HsConfig(n_features=5, subset_size=5, hms=2, hmcr=hmcr, par=par)
        rng = np.random.default_rng(12)
        for _ in range(50):
            assert improvise(m, cfg, rng).key == (0, 1, 2, 3, 4)

    def test_par_is_ignored_when_nothing_is_recalled(self):
        # par flips only bits drawn from memory, so at hmcr = 0 it changes nothing
        m = _memory(((0, 3), 10.0), ((5, 7), 20.0))
        draws = {}
        for par in (0.0, 0.4, 1.0):
            cfg = HsConfig(n_features=10, subset_size=2, hms=2, hmcr=0.0, par=par)
            rng = np.random.default_rng(21)
            draws[par] = [improvise(m, cfg, rng).key for _ in range(200)]
        assert draws[0.0] == draws[0.4] == draws[1.0]

    def test_repairs_once_by_memory_counts(self, monkeypatch):
        # one repair per candidate, ranked by each feature's memory count with
        # a tie-breaking fraction in [0, 1) that never reorders unequal counts
        calls = []

        def recording(selected, priority, k):
            calls.append((selected.copy(), priority.copy(), k))
            return _repair_to_k(selected, priority, k)

        monkeypatch.setattr(harmony, "_repair_to_k", recording)
        m = _memory(((0, 3, 6), 10.0), ((1, 3, 6), 20.0), ((3, 5, 8), 30.0))
        cfg = HsConfig(n_features=10, subset_size=3, hms=3)
        rng = np.random.default_rng(13)
        for _ in range(30):
            improvise(m, cfg, rng)
        assert len(calls) == 30
        counts = np.array([1, 1, 0, 3, 0, 1, 2, 0, 1, 0])
        for selected, priority, k in calls:
            assert k == 3 and selected.shape == (10,) and selected.dtype == bool
            assert np.array_equal(np.floor(priority), counts)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_feature_in_every_row_is_always_kept(self, data):
        # with hmcr 1 and par 0 a feature in every row has its bit on and the
        # highest count, so no repair drops it
        n = data.draw(st.integers(2, 30), label="n")
        k = data.draw(st.integers(1, n), label="k")
        hms = data.draw(st.integers(1, 8), label="hms")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        shared = int(rng.integers(n))
        rows = []
        for _ in range(hms):
            rest = rng.choice(np.delete(np.arange(n), shared), size=k - 1, replace=False)
            rows.append(((shared, *rest.tolist()), 50.0))
        cfg = HsConfig(n_features=n, subset_size=k, hms=hms, hmcr=1.0, par=0.0)
        for _ in range(20):
            assert shared in improvise(_memory(*rows), cfg, rng).indices

    def test_fuzz_output_always_valid(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(3, 31))
            k = int(rng.integers(1, min(6, n) + 1))
            hms = int(rng.integers(1, 6))
            cfg = HsConfig(
                n_features=n, subset_size=k, hms=hms,
                hmcr=float(rng.random()), par=float(rng.random()),
            )
            rows = [Harmony(random_subset(n, k, rng), float(rng.uniform(0, 100)))
                    for _ in range(hms)]
            s = improvise(rows, cfg, rng)
            assert s.k == k
            assert len(set(s.indices)) == k
            assert all(0 <= i < n for i in s.indices)


class TestMemoryUpdates:
    def test_initialize_memory(self):
        cfg = HsConfig(n_features=15, subset_size=4, hms=7, seed=3)
        mem = initialize_memory(cfg, RunLog(lambda s: float(sum(s.indices))),
                                np.random.default_rng(cfg.seed))
        assert len(mem) == 7
        assert all(h.subset.k == 4 for h in mem)
        assert all(h.fitness == sum(h.subset.indices) for h in mem)
        again = initialize_memory(cfg, RunLog(lambda s: float(sum(s.indices))),
                                  np.random.default_rng(cfg.seed))
        assert again == mem

    def test_replace_worst_strictly_better_only(self):
        m = _memory(((0,), 10.0), ((1,), 30.0))
        assert replace_worst(m, Harmony(FeatureSubset((2,)), 10.0)) is False
        assert m == _memory(((0,), 10.0), ((1,), 30.0))
        assert replace_worst(m, Harmony(FeatureSubset((2,)), 9.0)) is False
        assert replace_worst(m, Harmony(FeatureSubset((2,)), 10.5)) is True
        assert m == _memory(((2,), 10.5), ((1,), 30.0))

    def test_ties_replace_the_first_worst_row(self):
        m = _memory(((0,), 50.0), ((1,), 20.0), ((2,), 50.0), ((3,), 20.0))
        assert replace_worst(m, Harmony(FeatureSubset((4,)), 30.0)) is True
        assert m == _memory(((0,), 50.0), ((4,), 30.0), ((2,), 50.0), ((3,), 20.0))
        assert replace_worst(m, Harmony(FeatureSubset((5,)), 60.0)) is True
        assert m == _memory(((0,), 50.0), ((4,), 30.0), ((2,), 50.0), ((5,), 60.0))
        tied = _memory(((0,), 50.0), ((1,), 50.0), ((2,), 50.0))
        assert replace_worst(tied, Harmony(FeatureSubset((3,)), 51.0)) is True
        assert tied == _memory(((3,), 51.0), ((1,), 50.0), ((2,), 50.0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_list_memory_matches_class_reference(self, data):
        n = data.draw(st.integers(1, 12), label="n_features")
        k = data.draw(st.integers(1, n), label="subset_size")
        hms = data.draw(st.integers(1, 6), label="hms")
        # few distinct fitnesses, so worst-row ties are common
        fitness = st.sampled_from([0.0, 20.0, 50.0, 100.0])
        rows = [Harmony(FeatureSubset(data.draw(st.permutations(range(n)))[:k]),
                        data.draw(fitness)) for _ in range(hms)]
        cfg = HsConfig(n_features=n, subset_size=k, hms=hms,
                       hmcr=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="hmcr"),
                       par=data.draw(st.floats(0.0, 1.0), label="par"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        memory, reference = list(rows), _ReferenceMemory(rows)
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            candidate = Harmony(improvise(memory, cfg, rng), data.draw(fitness))
            before, worst = list(memory), reference.worst_index()
            replaced = replace_worst(memory, candidate)
            assert replaced == _reference_replace_worst(reference, candidate)
            assert [i for i, h in enumerate(memory) if h is not before[i]] == (
                [worst] if replaced else [])
            assert memory == list(reference.harmonies)


# optimizer -> (run function, config, objective calls, history rows)
BUDGETS = {
    "hs": (hs_run, HsConfig(n_features=25, subset_size=4, hms=6, max_iterations=40, seed=11),
           6 + 40, 40),
    "ga": (ga_run, GaConfig(n_features=25, subset_size=4, population=6, generations=8,
                            seed=11), 6 + 8 * 5, 8),
    "pso": (pso_run, PsoConfig(n_features=25, subset_size=4, particles=6, iterations=8,
                               seed=11), 6 * (8 + 1), 8),
}


class TestHsRun:
    @pytest.mark.parametrize("name", sorted(BUDGETS))
    def test_evaluation_budget_and_monotone_trace(self, name):
        run, cfg, budget, rows = BUDGETS[name]
        calls = []

        def score(key):
            return float(sum(key) % 97)

        def spy(s):
            calls.append(s.key)
            return score(s.key)

        best, hist = run(cfg, spy)
        assert hist.evaluations == budget == len(calls)
        assert len(hist.best_fitness) == rows
        assert all(b2 >= b1 for b1, b2 in zip(hist.best_fitness,
                                              hist.best_fitness[1:]))
        assert hist.best_fitness[-1] == best.fitness
        # the run's best is at least every fitness it ever saw
        assert best.fitness == max(score(k) for k in calls)
        # and it is the first subset scored at that fitness
        assert best.subset.key == next(k for k in calls if score(k) == best.fitness)

    def test_deterministic_given_seed(self, tiny8):
        cfg = HsConfig(n_features=8, subset_size=3, hms=5, max_iterations=30,
                       seed=4)
        b1, h1 = hs_run(cfg, LeaveOneOutObjective(tiny8))
        b2, h2 = hs_run(cfg, LeaveOneOutObjective(tiny8))
        assert b1.subset.key == b2.subset.key
        assert h1.best_fitness == h2.best_fitness
        assert h1.replaced == h2.replaced

    def test_memory_size_constant_and_best_dominates(self, tiny8):
        obj = LeaveOneOutObjective(tiny8)
        cfg = HsConfig(n_features=8, subset_size=3, hms=6, max_iterations=50,
                       seed=2)
        rng = np.random.default_rng(cfg.seed)
        memory = initialize_memory(cfg, RunLog(obj), rng)
        best = max(memory, key=lambda h: h.fitness)
        for _ in range(cfg.max_iterations):
            subset = improvise(memory, cfg, rng)
            candidate = Harmony(subset, float(obj(subset)))
            replace_worst(memory, candidate)
            if candidate.fitness > best.fitness:
                best = candidate
            assert len(memory) == cfg.hms
            assert all(h.subset.k == 3 for h in memory)
        assert all(best.fitness >= h.fitness for h in memory)

    def test_finds_exhaustive_optimum_on_small_problem(self, tiny8, tiny8_scores):
        best_key = max(tiny8_scores, key=tiny8_scores.get)
        best_score = tiny8_scores[best_key]
        assert best_key == (0, 5, 7)
        for seed in (0, 1, 2):
            cfg = HsConfig(n_features=8, subset_size=3, hms=10,
                           max_iterations=500, seed=seed)
            found, _ = hs_run(cfg, LeaveOneOutObjective(tiny8))
            assert found.subset.key == best_key
            assert found.fitness == pytest.approx(best_score)


def _sequential_hs_run(cfg: HsConfig, objective):
    """Reference: one candidate improvised, scored and accepted at a time."""
    rng = np.random.default_rng(cfg.seed)
    log = RunLog(objective)
    harmonies = []
    for _ in range(cfg.hms):
        subset = random_subset(cfg.n_features, cfg.subset_size, rng)
        harmonies.append(Harmony(subset, log(subset)))
    for _ in range(cfg.max_iterations):
        subset = improvise(harmonies, cfg, rng)
        replaced = replace_worst(harmonies, Harmony(subset, log(subset)))
        log.end_iteration(replaced)
    return log.result()


class _Spy:
    """Records the subsets an objective is asked to score, in order."""

    def __init__(self, objective: SubsetObjective) -> None:
        self.objective = objective
        self.asked: list[tuple[int, ...]] = []
        self.batch_sizes: list[int] = []

    def __call__(self, subset: FeatureSubset) -> float:
        self.asked.append(subset.indices)
        return self.objective(subset)

    @property
    def batches(self) -> bool:
        return self.objective.batches

    def prefetch(self, subsets) -> None:
        self.batch_sizes.append(len(subsets))
        self.objective.prefetch(subsets)


_SPECULATION_DATA = planted_dataset(36, 6, n_informative=2, seed=3)[0]


class TestSpeculativeHs:
    @settings(max_examples=40, deadline=None)
    @given(depth=st.integers(1, 6), seed=st.integers(0, 2**16), hms=st.integers(1, 6),
           iterations=st.integers(1, 14), subset_size=st.integers(1, 3),
           hmcr=st.sampled_from([0.0, 0.7, 1.0]))
    def test_equals_sequential_reference(self, depth, seed, hms, iterations, subset_size,
                                         hmcr):
        cfg = HsConfig(n_features=6, subset_size=subset_size, hms=hms, hmcr=hmcr,
                       max_iterations=iterations, seed=seed)
        obj_cfg = ObjectiveConfig(mlp=MlpConfig(epochs=1, seed=seed), folds=2)
        reference = _Spy(SubsetObjective(_SPECULATION_DATA, obj_cfg))
        speculative = _Spy(SubsetObjective(_SPECULATION_DATA, obj_cfg))
        expected = _sequential_hs_run(cfg, reference)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harmony, "DEPTH", depth)
            got = hs_run(cfg, speculative)
        assert got == expected
        assert speculative.asked == reference.asked
        assert (speculative.objective.calls, speculative.objective.unique_evaluations) == (
            reference.objective.calls, reference.objective.unique_evaluations)
        assert speculative.objective.cache == reference.objective.cache
        assert speculative.batch_sizes[:2] == [hms, min(depth, iterations)]


def _sequential_pso_run(cfg: PsoConfig, objective):
    """Reference: one particle moved, scored and committed at a time."""
    rng = np.random.default_rng(cfg.seed)
    k, n = cfg.subset_size, cfg.n_features
    log = RunLog(objective)
    positions = np.zeros((cfg.particles, n), dtype=bool)
    for p in range(cfg.particles):
        positions[p, rng.choice(n, size=k, replace=False)] = True
    velocities = np.zeros((cfg.particles, n))

    def score(mask):
        return log(FeatureSubset(tuple(int(i) for i in np.flatnonzero(mask))))

    pbest_pos = positions.copy()
    pbest_fit = np.array([score(mask) for mask in positions])
    gbest_pos = pbest_pos[int(np.argmax(pbest_fit))].copy()
    for _ in range(cfg.iterations):
        start_best = log.best
        for p in range(cfg.particles):
            r1 = rng.random(n)
            r2 = rng.random(n)
            x = positions[p].astype(float)
            velocities[p] = (cfg.inertia * velocities[p]
                             + cfg.c1 * r1 * (pbest_pos[p].astype(float) - x)
                             + cfg.c2 * r2 * (gbest_pos.astype(float) - x))
            np.clip(velocities[p], -VELOCITY_CLAMP, VELOCITY_CLAMP, out=velocities[p])
            prob = _sigmoid(velocities[p])
            positions[p] = _repair_to_k(rng.random(n) < prob, prob, k)
            gbest = log.best
            fit = score(positions[p])
            if fit > pbest_fit[p]:
                pbest_fit[p] = fit
                pbest_pos[p] = positions[p]
            if log.best is not gbest:
                gbest_pos = positions[p].copy()
        log.end_iteration(log.best is not start_best)
    return log.result()


class TestSpeculativePso:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), particles=st.integers(2, 6),
           iterations=st.integers(1, 8), subset_size=st.integers(1, 3))
    def test_equals_sequential_reference(self, seed, particles, iterations, subset_size):
        cfg = PsoConfig(n_features=6, subset_size=subset_size, particles=particles,
                        iterations=iterations, seed=seed)
        obj_cfg = ObjectiveConfig(mlp=MlpConfig(epochs=1, seed=seed), folds=2)
        reference = _Spy(SubsetObjective(_SPECULATION_DATA, obj_cfg))
        speculative = _Spy(SubsetObjective(_SPECULATION_DATA, obj_cfg))
        expected = _sequential_pso_run(cfg, reference)
        got = pso_run(cfg, speculative)
        assert got == expected
        assert speculative.asked == reference.asked
        assert (speculative.objective.calls, speculative.objective.unique_evaluations) == (
            reference.objective.calls, reference.objective.unique_evaluations)
        assert speculative.objective.cache == reference.objective.cache
        # the initial swarm, then the whole first sweep, each go out as one batch
        assert speculative.batch_sizes[:2] == [particles, particles]


class TestPsoGenerator:
    def test_ends_in_the_sequential_runs_state(self, tiny8, monkeypatch):
        # a surplus draw after the last score changes no result; only the
        # generator's final state shows it
        made = []
        real = np.random.default_rng

        def capturing(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", capturing)
        for seed in range(3):
            cfg = PsoConfig(n_features=8, subset_size=3, particles=5, iterations=6, seed=seed)
            made.clear()
            _sequential_pso_run(cfg, LeaveOneOutObjective(tiny8))
            pso_run(cfg, LeaveOneOutObjective(tiny8))
            assert len(made) == 2
            assert made[0].bit_generator.state == made[1].bit_generator.state


class TestBatchedGa:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), population=st.integers(2, 6),
           generations=st.integers(1, 6), subset_size=st.integers(1, 3))
    def test_equals_unbatched_run(self, seed, population, generations, subset_size):
        cfg = GaConfig(n_features=6, subset_size=subset_size, population=population,
                       generations=generations, seed=seed)
        obj_cfg = ObjectiveConfig(mlp=MlpConfig(epochs=1, seed=seed), folds=2)
        batched = _Spy(SubsetObjective(_SPECULATION_DATA, obj_cfg))
        plain_objective = SubsetObjective(_SPECULATION_DATA, obj_cfg)
        asked = []

        def plain(subset: FeatureSubset) -> float:
            # no prefetch and no batches: every member is scored on its own
            asked.append(subset.indices)
            return plain_objective(subset)

        assert ga_run(cfg, batched) == ga_run(cfg, plain)
        assert batched.asked == asked
        assert (batched.objective.calls, batched.objective.unique_evaluations) == (
            plain_objective.calls, plain_objective.unique_evaluations)
        assert batched.objective.cache == plain_objective.cache
        # the first population, then each generation's children, as one batch each
        assert batched.batch_sizes == [population] + [population - 1] * generations


class TestDepthOne:
    """An objective that does not batch is scored one candidate at a time."""

    def test_hs_improvises_once_per_iteration(self, tiny8, monkeypatch):
        improvised = []
        real = harmony.improvise

        def counting(*args):
            improvised.append(real(*args))
            return improvised[-1]

        monkeypatch.setattr(harmony, "improvise", counting)
        cfg = HsConfig(n_features=8, subset_size=3, hms=5, max_iterations=60, seed=3)
        _, history = hs_run(cfg, LeaveOneOutObjective(tiny8))
        assert any(history.replaced)
        assert len(improvised) == cfg.max_iterations

    def test_pso_moves_each_particle_once_per_sweep(self, tiny8, monkeypatch):
        # one repair moves a whole sweep; an in-sweep gbest improvement
        # repairs the particles after it again, from the same draws
        repaired_rows = []

        def counting(selected, priority, k):
            repaired_rows.append(len(selected))
            return _repair_to_k(selected, priority, k)

        monkeypatch.setattr(baselines, "_repair_to_k", counting)
        objective = LeaveOneOutObjective(tiny8)
        fitnesses = []

        def recording(subset: FeatureSubset) -> float:
            fitnesses.append(objective(subset))
            return fitnesses[-1]

        cfg = PsoConfig(n_features=8, subset_size=3, particles=7, iterations=12, seed=3)
        _, history = pso_run(cfg, recording)
        assert any(history.replaced)
        assert len(fitnesses) == cfg.particles * (cfg.iterations + 1)
        expected, best = [], max(fitnesses[:cfg.particles])
        for sweep in range(1, cfg.iterations + 1):
            expected.append(cfg.particles)
            for p in range(cfg.particles):
                fit = fitnesses[sweep * cfg.particles + p]
                if fit > best:
                    best = fit
                    if p + 1 < cfg.particles:
                        expected.append(cfg.particles - p - 1)
        assert len(expected) > cfg.iterations  # some sweep is moved again
        assert repaired_rows == expected


class TestRepairToK:
    def test_mask_of_size_k_is_kept_and_not_aliased(self):
        selected = np.array([True, False, True, False])
        out = _repair_to_k(selected, np.array([0.0, 9.0, 0.0, 9.0]), 2)
        assert out.tolist() == [True, False, True, False]
        out[0] = False
        assert selected[0]  # a copy, not the caller's mask

    def test_surplus_drops_the_lowest_priority(self):
        selected = np.array([True, True, True, True, False])
        priority = np.array([0.4, 0.9, 0.1, 0.6, 5.0])
        out = _repair_to_k(selected, priority, 2)
        assert np.flatnonzero(out).tolist() == [1, 3]
        assert selected.tolist() == [True, True, True, True, False]

    def test_deficit_adds_the_highest_priority(self):
        selected = np.array([False, True, False, False, False])
        priority = np.array([0.4, 0.0, 0.1, 0.9, 0.6])
        out = _repair_to_k(selected, priority, 3)
        assert np.flatnonzero(out).tolist() == [1, 3, 4]
        assert selected.tolist() == [False, True, False, False, False]

    def test_priority_ties_resolve_to_the_lower_index(self):
        flat = np.zeros(6)
        assert np.flatnonzero(_repair_to_k(np.ones(6, dtype=bool), flat, 2)).tolist() == [0, 1]
        assert np.flatnonzero(_repair_to_k(np.zeros(6, dtype=bool), flat, 2)).tolist() == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exactly_k_and_priority_ordered(self, data):
        n = data.draw(st.integers(1, 25), label="n")
        k = data.draw(st.integers(1, n), label="k")
        selected = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        priority = np.array(data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)))
        out = _repair_to_k(selected, priority, k)
        assert out.dtype == bool and int(out.sum()) == k
        if selected.sum() >= k:
            # only drops: every kept dim outranks every dropped one
            assert not (out & ~selected).any()
            dropped = selected & ~out
            if dropped.any():
                assert priority[out].min() >= priority[dropped].max()
        else:
            # only adds: every added dim outranks every unselected one left out
            assert not (selected & ~out).any()
            added, left = out & ~selected, ~out
            if left.any():
                assert priority[added].min() >= priority[left].max()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_repair_as_the_one_dimensional_masks(self, data):
        rows = data.draw(st.integers(1, 6), label="rows")
        n = data.draw(st.integers(1, 12), label="n")
        k = data.draw(st.integers(1, n), label="k")
        selected = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n), min_size=rows, max_size=rows)))
        # few distinct values, so priority ties are common
        priority = np.array(data.draw(st.lists(st.lists(
            st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n),
            min_size=rows, max_size=rows)))
        out = _repair_to_k(selected, priority, k)
        expected = np.stack([_repair_to_k(s, p, k) for s, p in zip(selected, priority)])
        assert out.dtype == bool and np.array_equal(out, expected)

    def test_hs_and_pso_share_one_repair_and_one_mask_conversion(self):
        assert baselines._repair_to_k is harmony._repair_to_k
        assert baselines.mask_subset is harmony.mask_subset


class TestMaskSubset:
    def test_true_positions_in_index_order(self):
        s = harmony.mask_subset(np.array([False, True, False, True, True]))
        assert isinstance(s, FeatureSubset)
        assert s.indices == (1, 3, 4)

    def test_round_trips_a_subset_through_its_mask(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            s = random_subset(20, int(rng.integers(1, 21)), rng)
            mask = np.zeros(20, dtype=bool)
            mask[list(s.indices)] = True
            assert harmony.mask_subset(mask).indices == s.key

    def test_empty_mask_is_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            harmony.mask_subset(np.zeros(4, dtype=bool))


class TestRandomSubset:
    def test_valid_and_eventually_covers(self):
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(300):
            s = random_subset(6, 2, rng)
            assert s.k == 2 and all(0 <= i < 6 for i in s.indices)
            seen.add(s.key)
        assert len(seen) == len(list(combinations(range(6), 2)))
