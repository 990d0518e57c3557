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
from subsetharmony.baselines import VELOCITY_CLAMP, _repair_to_k
from subsetharmony.classifiers import _sigmoid
from subsetharmony.harmony import (
    HarmonyMemory,
    RunLog,
    improvise,
    initialize_memory,
    pitch_adjust,
    random_subset,
    replace_worst,
)
from subsetharmony.synth import planted_dataset


def _reference_index_walk(value, band, eps, forbidden, n_features):
    """pitch_adjust on the index line, as written before the walks merged."""
    step = int(np.rint(band * eps))
    if step == 0 and eps != 0.0:
        step = 1 if eps > 0 else -1
    candidate = min(max(value + step, 0), n_features - 1)

    def free(i):
        return 0 <= i < n_features and i != value and i not in forbidden

    if free(candidate):
        return candidate
    for delta in range(1, n_features + 1):
        if free(candidate + delta):
            return candidate + delta
        if free(candidate - delta):
            return candidate - delta
    return value


def _memory(*rows):
    return HarmonyMemory([Harmony(FeatureSubset(s), f) for s, f in rows])


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
            dict(n_features=5, subset_size=2, bandwidth=0.0),
            dict(n_features=5, subset_size=2, max_iterations=0),
        ]
        for kw in cases:
            with pytest.raises(ValueError):
                HsConfig(**kw)

    def test_run_history_rejects_decreasing_best(self):
        with pytest.raises(ValueError):
            RunHistory((5.0, 4.0), (1.0, 1.0), (False, False), 2)


class TestMemory:
    def test_accessors(self):
        m = _memory(((2, 0), 10.0), ((1, 3), 30.0), ((0, 1), 20.0))
        assert len(m.harmonies) == 3
        assert m.subset_size == 2
        assert m.column(0) == [2, 1, 0]
        assert m.column(1) == [0, 3, 1]
        assert m.column_union() == {0, 1, 2, 3}
        assert m.worst_index() == 0
        assert m.worst().fitness == 10.0

    def test_ties_resolve_to_first_row(self):
        m = _memory(((0,), 50.0), ((1,), 50.0), ((2,), 50.0))
        assert m.worst_index() == 0

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            _memory(((0, 1), 10.0), ((2,), 20.0))
        with pytest.raises(ValueError):
            HarmonyMemory([])

    def test_replace(self):
        m = _memory(((0,), 10.0), ((1,), 30.0))
        m.replace(0, Harmony(FeatureSubset((2,)), 40.0))
        assert m.harmonies[0] == Harmony(FeatureSubset((2,)), 40.0)


class TestPitchAdjust:
    def test_worked_examples(self):
        # round(2 * 0.5) = 1 -> 5 + 1
        assert pitch_adjust(5, 2.0, 0.5, set(), 20) == 6
        # round(1 * -1) = -1 -> 3 - 1
        assert pitch_adjust(3, 1.0, -1.0, set(), 20) == 2
        # 0 - 2 clamps to 0 == original, probe finds 1
        assert pitch_adjust(0, 2.0, -1.0, set(), 20) == 1

    def test_zero_rounded_step_becomes_unit_step(self):
        assert pitch_adjust(4, 1.0, 0.2, set(), 20) == 5
        assert pitch_adjust(4, 1.0, -0.2, set(), 20) == 3

    def test_high_end_clamp(self):
        assert pitch_adjust(19, 2.0, 1.0, set(), 20) == 18

    def test_forbidden_probes_outward(self):
        assert pitch_adjust(5, 1.0, 1.0, {6}, 20) == 7
        assert pitch_adjust(5, 1.0, 1.0, {6, 7}, 20) == 8

    def test_everything_forbidden_returns_value(self):
        assert pitch_adjust(1, 1.0, 1.0, {0, 2}, 3) == 1

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            pitch_adjust(5, 1.0, 1.5, set(), 20)

    @pytest.mark.parametrize("value", [8, -1, 3.5])
    def test_value_off_the_line_rejected(self, value):
        with pytest.raises(ValueError):
            pitch_adjust(value, 1.0, 0.5, set(), 8)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_index_walk(self, data):
        n = data.draw(st.integers(1, 25), label="n_features")
        value = data.draw(st.integers(0, n - 1), label="value")
        band = data.draw(st.floats(0.0, 8.0), label="band")
        eps = data.draw(st.floats(-1.0, 1.0), label="eps")
        forbidden = data.draw(st.sets(st.integers(0, n - 1)), label="forbidden")
        assert pitch_adjust(value, band, eps, forbidden, n) == \
            _reference_index_walk(value, band, eps, forbidden, n)

    def test_direction_split_is_symmetric(self):
        # steps of |round(1*eps)| in {0,1}; zero-step promotion keeps the
        # left/right choice a fair coin over symmetric eps
        rng = np.random.default_rng(77)
        counts = Counter(
            pitch_adjust(4, 1.0, float(rng.uniform(-1.0, 1.0)), set(), 9)
            for _ in range(20_000)
        )
        assert set(counts) == {3, 5}
        assert 9_400 <= counts[3] <= 10_600
        assert 9_400 <= counts[5] <= 10_600


class TestImprovise:
    def test_pure_memory_single_row_is_identity(self):
        m = _memory(((4, 1, 7), 50.0))
        cfg = HsConfig(n_features=10, subset_size=3, hms=1, hmcr=1.0, par=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert improvise(m, cfg, rng).key == (1, 4, 7)

    def test_hmcr_zero_is_uniform_random(self):
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
        # k=1, memory holds only feature 4: P(output == 4) = hmcr + miss
        # landing on it by chance = 0.9 + 0.1/10 = 0.91
        m = _memory(((4,), 50.0), ((4,), 50.0), ((4,), 50.0))
        cfg = HsConfig(n_features=10, subset_size=1, hms=3, hmcr=0.9, par=0.0)
        rng = np.random.default_rng(5)
        hits = sum(improvise(m, cfg, rng).indices[0] == 4 for _ in range(20_000))
        assert 17_900 <= hits <= 18_500

    def test_par_always_adjusts(self):
        m = _memory(((4,), 50.0))
        cfg = HsConfig(n_features=9, subset_size=1, hms=1, hmcr=1.0, par=1.0,
                       bandwidth=1.0)
        rng = np.random.default_rng(6)
        counts = Counter(improvise(m, cfg, rng).indices[0] for _ in range(20_000))
        assert set(counts) == {3, 5}
        assert 9_400 <= counts[3] <= 10_600

    def test_column_draw_covers_stored_values(self):
        m = _memory(((0, 3), 10.0), ((1, 4), 10.0), ((9, 5), 10.0))
        cfg = HsConfig(n_features=10, subset_size=2, hms=3, hmcr=1.0, par=0.0)
        rng = np.random.default_rng(7)
        first_slot = {improvise(m, cfg, rng).indices[0] for _ in range(500)}
        assert first_slot == {0, 1, 9}

    def test_pure_memory_closure(self):
        m = _memory(((0, 3, 6), 10.0), ((1, 4, 6), 20.0), ((2, 5, 8), 30.0))
        union = m.column_union()
        cfg = HsConfig(n_features=30, subset_size=3, hms=3, hmcr=1.0, par=0.0)
        rng = np.random.default_rng(8)
        for _ in range(1_000):
            assert set(improvise(m, cfg, rng).indices) <= union

    def test_exhausted_column_falls_back_inside_union(self):
        # same three values in every row, permuted: later slots always
        # find their whole column already chosen
        m = _memory(((1, 2, 5), 10.0), ((5, 1, 2), 20.0))
        cfg = HsConfig(n_features=40, subset_size=3, hms=2, hmcr=1.0, par=0.0)
        rng = np.random.default_rng(9)
        for _ in range(500):
            assert improvise(m, cfg, rng).key == (1, 2, 5)

    @pytest.mark.parametrize("rows, subset_size, par, match", [
        ([((0, 1), 50.0)], 3, 0.0, "2-feature subsets, config has subset_size=3"),
        ([((0, 9), 50.0)], 2, 0.0, "feature index 9, config has n_features=8"),
        ([((0, 9), 50.0)], 2, 1.0, "feature index 9, config has n_features=8"),
    ])
    def test_memory_that_does_not_fit_the_config_is_rejected(self, rows, subset_size,
                                                             par, match):
        cfg = HsConfig(n_features=8, subset_size=subset_size, hms=1, hmcr=1.0, par=par)
        with pytest.raises(ValueError, match=match):
            improvise(_memory(*rows), cfg, np.random.default_rng(0))

    def test_fuzz_output_always_valid(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(3, 31))
            k = int(rng.integers(1, min(6, n) + 1))
            hms = int(rng.integers(1, 6))
            cfg = HsConfig(
                n_features=n, subset_size=k, hms=hms,
                hmcr=float(rng.random()), par=float(rng.random()),
                bandwidth=float(rng.uniform(0.25, 3.0)),
            )
            rows = [Harmony(random_subset(n, k, rng), float(rng.uniform(0, 100)))
                    for _ in range(hms)]
            s = improvise(HarmonyMemory(rows), cfg, rng)
            assert s.k == k
            assert len(set(s.indices)) == k
            assert all(0 <= i < n for i in s.indices)


class TestMemoryUpdates:
    def test_initialize_memory(self):
        cfg = HsConfig(n_features=15, subset_size=4, hms=7, seed=3)
        mem = initialize_memory(cfg, RunLog(lambda s: float(sum(s.indices))),
                                np.random.default_rng(cfg.seed))
        assert len(mem.harmonies) == 7
        assert all(h.subset.k == 4 for h in mem.harmonies)
        assert all(h.fitness == sum(h.subset.indices) for h in mem.harmonies)
        again = initialize_memory(cfg, RunLog(lambda s: float(sum(s.indices))),
                                  np.random.default_rng(cfg.seed))
        assert [h.subset.key for h in again.harmonies] == [
            h.subset.key for h in mem.harmonies]

    def test_replace_worst_strictly_better_only(self):
        m = _memory(((0,), 10.0), ((1,), 30.0))
        assert replace_worst(m, Harmony(FeatureSubset((2,)), 10.0)) is False
        assert m.harmonies[0].subset.indices == (0,)
        assert replace_worst(m, Harmony(FeatureSubset((2,)), 9.0)) is False
        assert replace_worst(m, Harmony(FeatureSubset((2,)), 10.5)) is True
        assert m.harmonies[0].subset.indices == (2,)
        assert m.worst().fitness == 10.5


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
        assert h1.worst_fitness == h2.worst_fitness
        assert h1.replaced == h2.replaced

    def test_memory_size_constant_and_best_dominates(self, tiny8):
        obj = LeaveOneOutObjective(tiny8)
        cfg = HsConfig(n_features=8, subset_size=3, hms=6, max_iterations=50,
                       seed=2)
        rng = np.random.default_rng(cfg.seed)
        memory = initialize_memory(cfg, RunLog(obj), rng)
        best = max(memory.harmonies, key=lambda h: h.fitness)
        for _ in range(cfg.max_iterations):
            subset = improvise(memory, cfg, rng)
            candidate = Harmony(subset, float(obj(subset)))
            replace_worst(memory, candidate)
            if candidate.fitness > best.fitness:
                best = candidate
            assert len(memory.harmonies) == cfg.hms
            assert all(h.subset.k == 3 for h in memory.harmonies)
        assert all(best.fitness >= h.fitness for h in memory.harmonies)

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
    memory = HarmonyMemory(harmonies)
    for _ in range(cfg.max_iterations):
        subset = improvise(memory, cfg, rng)
        replaced = replace_worst(memory, Harmony(subset, log(subset)))
        log.end_iteration(memory.worst().fitness, replaced)
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
        iter_fits = np.empty(cfg.particles)
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
            iter_fits[p] = fit = score(positions[p])
            if fit > pbest_fit[p]:
                pbest_fit[p] = fit
                pbest_pos[p] = positions[p]
            if log.best is not gbest:
                gbest_pos = positions[p].copy()
        log.end_iteration(float(iter_fits.min()), log.best is not start_best)
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
    """An objective that does not batch gets no proposal it will not score."""

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
        moves = []

        def counting(*args):
            moves.append(_repair_to_k(*args))
            return moves[-1]

        monkeypatch.setattr(baselines, "_repair_to_k", counting)
        cfg = PsoConfig(n_features=8, subset_size=3, particles=7, iterations=12, seed=3)
        _, history = pso_run(cfg, LeaveOneOutObjective(tiny8))
        assert any(history.replaced)
        assert len(moves) == cfg.particles * cfg.iterations


class TestRandomSubset:
    def test_valid_and_eventually_covers(self):
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(300):
            s = random_subset(6, 2, rng)
            assert s.k == 2 and all(0 <= i < 6 for i in s.indices)
            seen.add(s.key)
        assert len(seen) == len(list(combinations(range(6), 2)))
