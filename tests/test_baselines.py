import warnings

import numpy as np
import pytest

from subsetharmony import (
    Dataset,
    FeatureSubset,
    GaConfig,
    LeaveOneOutObjective,
    ObjectiveConfig,
    PcaConfig,
    PcaModel,
    PsoConfig,
    SubsetObjective,
    evaluate_components,
    ga_run,
    pca_fit,
    pca_run,
    pca_transform,
    pso_run,
)


class SpySubsets:
    """Objective wrapper recording every queried subset key."""

    def __init__(self, fn):
        self.fn = fn
        self.keys = []

    def __call__(self, s):
        self.keys.append(s.key)
        return self.fn(s)


class TestConfigs:
    def test_ga_validation(self):
        with pytest.raises(ValueError):
            GaConfig(n_features=5, subset_size=2, population=1)
        with pytest.raises(ValueError):
            GaConfig(n_features=5, subset_size=2, crossover_rate=1.1)
        with pytest.raises(ValueError):
            GaConfig(n_features=5, subset_size=6)

    def test_pso_validation(self):
        PsoConfig(n_features=5, subset_size=2, inertia=0.0)  # degenerate but legal
        with pytest.raises(ValueError):
            PsoConfig(n_features=5, subset_size=2, inertia=-0.1)
        with pytest.raises(ValueError):
            PsoConfig(n_features=5, subset_size=2, particles=1)
        with pytest.raises(ValueError):
            PsoConfig(n_features=5, subset_size=2, c1=-1.0)

    def test_pca_validation(self):
        PcaConfig()  # components=None means sweep
        with pytest.raises(ValueError):
            PcaConfig(components=0)


class TestGa:
    def test_chromosomes_always_valid(self):
        spy = SpySubsets(lambda s: float(sum(s.indices) % 53))
        cfg = GaConfig(n_features=18, subset_size=4, population=8,
                       generations=25, seed=5)
        ga_run(cfg, spy)
        assert len(spy.keys) == 8 + 25 * 7
        for key in spy.keys:
            assert len(key) == 4
            assert len(set(key)) == 4
            assert all(0 <= i < 18 for i in key)

    def test_static_pool_without_operators(self):
        # no crossover, no mutation: children are copies, so the best
        # fitness never moves past the initial population's best
        spy = SpySubsets(lambda s: float(sum(s.indices)))
        cfg = GaConfig(n_features=20, subset_size=3, population=6,
                       generations=30, crossover_rate=0.0, mutation_rate=0.0,
                       seed=9)
        best, hist = ga_run(cfg, spy)
        initial_best = max(float(sum(k)) for k in spy.keys[:6])
        assert best.fitness == initial_best
        assert set(hist.best_fitness) == {initial_best}
        assert set(spy.keys) == set(spy.keys[:6])

    def test_deterministic_and_monotone(self, tiny8):
        cfg = GaConfig(n_features=8, subset_size=3, population=8,
                       generations=20, seed=3)
        b1, h1 = ga_run(cfg, LeaveOneOutObjective(tiny8))
        b2, h2 = ga_run(cfg, LeaveOneOutObjective(tiny8))
        assert b1.subset.key == b2.subset.key
        assert h1.best_fitness == h2.best_fitness
        assert all(y >= x for x, y in zip(h1.best_fitness, h1.best_fitness[1:]))
        assert h1.evaluations == 8 + 20 * 7

    def test_finds_optimum_on_most_seeds(self, tiny8):
        hits = 0
        for seed in range(5):
            cfg = GaConfig(n_features=8, subset_size=3, population=10,
                           generations=40, seed=seed)
            best, _ = ga_run(cfg, LeaveOneOutObjective(tiny8))
            hits += best.subset.key == (0, 5, 7)
        assert hits >= 4

    def test_k1_skips_crossover(self):
        spy = SpySubsets(lambda s: float(s.indices[0]))
        cfg = GaConfig(n_features=10, subset_size=1, population=4,
                       generations=10, seed=1)
        best, _ = ga_run(cfg, spy)
        assert all(len(k) == 1 for k in spy.keys)
        assert best.subset.k == 1


class TestPso:
    def test_positions_always_valid(self):
        spy = SpySubsets(lambda s: float(sum(s.indices) % 31))
        cfg = PsoConfig(n_features=15, subset_size=4, particles=6,
                        iterations=20, seed=2)
        pso_run(cfg, spy)
        assert len(spy.keys) == 6 + 20 * 6
        for key in spy.keys:
            assert len(key) == 4
            assert all(0 <= i < 15 for i in key)

    def test_degenerate_no_memory_swarm_still_moves(self):
        # w=0, c1=c2=0: velocity stays 0, sigmoid(0)=0.5, so each step
        # resamples a random mask repaired to k; positions keep changing
        spy = SpySubsets(lambda s: 0.0)
        cfg = PsoConfig(n_features=12, subset_size=3, particles=3,
                        iterations=15, c1=0.0, c2=0.0, inertia=0.0, seed=7)
        pso_run(cfg, spy)
        per_step = spy.keys[3:]
        assert len(set(per_step)) > 5
        assert all(len(set(k)) == 3 for k in spy.keys)

    def test_gbest_trace_non_decreasing_and_deterministic(self, tiny8):
        cfg = PsoConfig(n_features=8, subset_size=3, particles=8,
                        iterations=20, seed=4)
        b1, h1 = pso_run(cfg, LeaveOneOutObjective(tiny8))
        b2, h2 = pso_run(cfg, LeaveOneOutObjective(tiny8))
        assert b1.subset.key == b2.subset.key
        assert h1.best_fitness == h2.best_fitness
        assert all(y >= x for x, y in zip(h1.best_fitness, h1.best_fitness[1:]))
        assert h1.best_fitness[-1] == b1.fitness
        assert h1.evaluations == 8 + 20 * 8

    def test_finds_optimum_on_most_seeds(self, tiny8):
        hits = 0
        for seed in range(5):
            cfg = PsoConfig(n_features=8, subset_size=3, particles=10,
                            iterations=40, seed=seed)
            best, _ = pso_run(cfg, LeaveOneOutObjective(tiny8))
            hits += best.subset.key == (0, 5, 7)
        assert hits >= 4


def _line_dataset() -> Dataset:
    # points on the y = x line: variance concentrated on one direction
    t = np.linspace(-3.0, 3.0, 12)
    x = np.column_stack([t, t])
    return Dataset(x, (np.arange(12) % 2), ("a", "b"), ("u", "v"))


class TestPcaFit:
    def test_line_gives_diagonal_component(self):
        model = pca_fit(_line_dataset(), 1)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(model.components[:, 0], expected, atol=1e-12)
        assert model.eigenvalues[0] > 0
        # second direction carries no variance at all
        full = pca_fit(_line_dataset(), 2)
        assert full.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_components_orthonormal_and_ordered(self):
        rng = np.random.default_rng(12)
        d = Dataset(rng.normal(size=(40, 6)) * np.array([5, 4, 3, 2, 1, 0.5]),
                    rng.integers(0, 2, 40),
                    tuple(f"f{i}" for i in range(6)), ("a", "b"))
        model = pca_fit(d, 6)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(6)).max() < 1e-8
        assert (np.diff(model.eigenvalues) <= 1e-12).all()
        assert (model.eigenvalues >= 0).all()

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(size=(30, 5)), rng.integers(0, 2, 30),
                    tuple(f"f{i}" for i in range(5)), ("a", "b"))
        model = pca_fit(d, 5)
        for j in range(5):
            col = model.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rank2_data_reconstructs_exactly(self):
        rng = np.random.default_rng(8)
        basis = rng.normal(size=(2, 7))
        coords = rng.normal(size=(25, 2))
        x = coords @ basis + np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0, 2.0])
        d = Dataset(x, rng.integers(0, 2, 25),
                    tuple(f"f{i}" for i in range(7)), ("a", "b"))
        model = pca_fit(d, 2)
        v = model.components
        recon = model.means + (x - model.means) @ v @ v.T
        assert np.abs(recon - x).max() < 1e-8

    def test_whitened_data_has_equal_eigenvalues(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(50, 4))
        centered = raw - raw.mean(axis=0)
        cov = np.cov(centered, rowvar=False, ddof=1)
        vals, vecs = np.linalg.eigh(cov)
        white = centered @ vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
        d = Dataset(white, rng.integers(0, 2, 50),
                    tuple(f"f{i}" for i in range(4)), ("a", "b"))
        model = pca_fit(d, 4)
        assert np.allclose(model.eigenvalues, 1.0, atol=1e-8)

    def test_one_row_has_zero_variance_and_an_orthonormal_component(self):
        # a covariance of one row would divide by n - 1 = 0; it is zero instead
        d = Dataset(np.array([[1.0, 2.0, 3.0]]), np.array([0]), ("a", "b", "c"), ("x",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = pca_fit(d, 1)
        assert model.eigenvalues.tolist() == [0.0]
        assert model.components.shape == (3, 1)
        assert model.components[:, 0] @ model.components[:, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(model.means, d.features[0])

    def test_r_out_of_range(self):
        d = _line_dataset()
        with pytest.raises(ValueError):
            pca_fit(d, 0)
        with pytest.raises(ValueError):
            pca_fit(d, 3)  # only 2 features

    def test_model_validation(self):
        ok = pca_fit(_line_dataset(), 2)
        with pytest.raises(ValueError):
            PcaModel(components=np.ones((2, 2)), eigenvalues=ok.eigenvalues,
                     means=ok.means)
        with pytest.raises(ValueError):
            PcaModel(components=ok.components,
                     eigenvalues=np.array([0.5, 1.0]), means=ok.means)
        with pytest.raises(ValueError):
            PcaModel(components=ok.components,
                     eigenvalues=np.array([1.0, -0.5]), means=ok.means)
        for eigenvalues, means in ((ok.eigenvalues[:1], ok.means),
                                   (ok.eigenvalues, ok.means[:1])):
            with pytest.raises(ValueError, match="^inconsistent PCA model shapes$"):
                PcaModel(components=ok.components, eigenvalues=eigenvalues, means=means)


class TestPcaTransform:
    def test_mean_maps_to_origin(self):
        d = _line_dataset()
        model = pca_fit(d, 2)
        probe = Dataset(model.means[None, :], np.array([0]), ("a", "b"), ("u", "v"))
        out = pca_transform(model, probe)
        assert np.allclose(out.features, 0.0, atol=1e-12)
        assert out.feature_names == ("pc1", "pc2")

    def test_full_rank_preserves_pairwise_distances(self):
        rng = np.random.default_rng(15)
        d = Dataset(rng.normal(size=(20, 5)), rng.integers(0, 2, 20),
                    tuple(f"f{i}" for i in range(5)), ("a", "b"))
        out = pca_transform(pca_fit(d, 5), d)
        before = np.linalg.norm(d.features[:, None] - d.features[None, :], axis=2)
        after = np.linalg.norm(out.features[:, None] - out.features[None, :], axis=2)
        assert np.abs(before - after).max() < 1e-8

    def test_feature_count_mismatch(self):
        model = pca_fit(_line_dataset(), 2)
        bad = Dataset(np.ones((2, 3)), np.array([0, 1]), ("a", "b", "c"), ("u", "v"))
        with pytest.raises(ValueError):
            pca_transform(model, bad)


class TestPcaObjective:
    def test_blobs_scored_perfectly(self, blobs):
        cfg = ObjectiveConfig(classifier="knn", folds=3, fold_seed=1)
        r = evaluate_components(blobs, 2, cfg)
        assert r.accuracy_percent == 100.0

    def test_sweep_prefers_smaller_r_on_tie(self, blobs):
        obj = SubsetObjective(blobs, ObjectiveConfig(classifier="knn", folds=3,
                                                     fold_seed=1))
        result = pca_run(PcaConfig(), obj)
        assert result.accuracy_percent == 100.0
        assert result.components == 1  # 1 component already separates blobs
        rs = [r for r, _ in result.evaluated]
        assert rs == sorted(rs) and rs[0] == 1

    def test_fixed_components(self, blobs):
        obj = SubsetObjective(blobs, ObjectiveConfig(classifier="knn", folds=3,
                                                     fold_seed=1))
        result = pca_run(PcaConfig(components=2), obj)
        assert result.components == 2
        assert result.evaluated == ((2, result.accuracy_percent),)

    def test_components_beyond_feasible_rejected(self, blobs):
        obj = SubsetObjective(blobs, ObjectiveConfig(classifier="knn", folds=3,
                                                     fold_seed=1))
        with pytest.raises(ValueError):
            pca_run(PcaConfig(components=5), obj)  # blobs has 4 features
