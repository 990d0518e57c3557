"""End-to-end acceptance checks.

Each test covers one headline requirement and records a single
"[ACCEPTANCE n] PASS/FAIL" verdict that conftest prints in the terminal
summary, so the outcomes stay visible under pytest's capture.
"""

import time
from itertools import combinations
from statistics import NormalDist

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
    SubsetObjective,
    accuracy,
    confidence_interval,
    derive_seed,
    ga_run,
    hs_run,
    mlp_predict,
    mlp_train,
    pca_fit,
    pso_run,
    write_csv,
)
from subsetharmony.dataset import Dataset
from subsetharmony.harmony import (
    RunLog,
    improvise,
    initialize_memory,
    random_subset,
    replace_worst,
)
from subsetharmony.harness import read_comparison_csv, read_fractions_csv, read_grid_csv
from subsetharmony.synth import planted_dataset
from subsetharmony import cli

from mlp_reference import initial_model, mlp_gradient, mlp_loss


def test_1_enumeration_oracle_optimality(tiny8, tiny8_scores, criterion):
    with criterion(1, "optimizers recover the exhaustive-search optimum "
                      "(HS >= 9/10 seeds, GA/PSO >= 8/10)"):
        start = time.perf_counter()
        assert len(tiny8_scores) == len(list(combinations(range(8), 3))) == 56
        best_key = max(tiny8_scores, key=tiny8_scores.get)
        best_score = tiny8_scores[best_key]

        objective = LeaveOneOutObjective(tiny8)
        hs_hits = 0
        for seed in range(10):
            cfg = HsConfig(n_features=8, subset_size=3, hms=10,
                           max_iterations=500, seed=seed)
            found, _ = hs_run(cfg, objective)
            hs_hits += (found.subset.key == best_key
                        and found.fitness == pytest.approx(best_score))
        ga_hits = 0
        for seed in range(10):
            cfg = GaConfig(n_features=8, subset_size=3, seed=seed)
            found, _ = ga_run(cfg, objective)
            ga_hits += found.subset.key == best_key
        pso_hits = 0
        for seed in range(10):
            cfg = PsoConfig(n_features=8, subset_size=3, seed=seed)
            found, _ = pso_run(cfg, objective)
            pso_hits += found.subset.key == best_key
        elapsed = time.perf_counter() - start

        assert hs_hits >= 9, f"HS found the optimum in only {hs_hits}/10 seeds"
        assert ga_hits >= 8, f"GA found the optimum in only {ga_hits}/10 seeds"
        assert pso_hits >= 8, f"PSO found the optimum in only {pso_hits}/10 seeds"
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


def test_2_planted_relevance_recovery(criterion):
    with criterion(2, "HS recovers the 3 planted informative features out of "
                      "20 in >= 16/20 seeds"):
        start = time.perf_counter()
        d, informative = planted_dataset(
            n_samples=200, n_features=20, n_informative=3, class_sep=1.0,
            seed=1,
        )
        objective = SubsetObjective(d, ObjectiveConfig(
            classifier="knn", folds=3, fold_seed=derive_seed(0, "folds"),
        ))
        hits = 0
        for seed in range(20):
            cfg = HsConfig(n_features=20, subset_size=3, hms=10,
                           max_iterations=300, seed=seed)
            found, _ = hs_run(cfg, objective)
            hits += found.subset.key == informative
        elapsed = time.perf_counter() - start

        assert hits >= 16, f"recovered the planted subset in {hits}/20 seeds"
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


def test_3_harmony_invariant_suite(tiny8, criterion):
    with criterion(3, "harmony-search invariants: constant memory size, valid "
                      "fuzzed subsets, monotone best, union closure, "
                      "strict-tie non-replacement"):
        obj = LeaveOneOutObjective(tiny8)

        # memory size and subset size stay fixed across a full manual run
        cfg = HsConfig(n_features=8, subset_size=3, hms=6, max_iterations=60,
                       seed=1)
        rng = np.random.default_rng(cfg.seed)
        memory = initialize_memory(cfg, RunLog(obj), rng)
        for _ in range(cfg.max_iterations):
            s = improvise(memory, cfg, rng)
            replace_worst(memory, Harmony(s, float(obj(s))))
            assert len(memory) == cfg.hms
            assert all(h.subset.k == 3 for h in memory)

        # 10^4 fuzzed improvisations always emit distinct in-range indices
        fuzz = np.random.default_rng(99)
        for _ in range(10_000):
            n = int(fuzz.integers(3, 31))
            k = int(fuzz.integers(1, min(6, n) + 1))
            hms = int(fuzz.integers(1, 6))
            fcfg = HsConfig(
                n_features=n, subset_size=k, hms=hms,
                hmcr=float(fuzz.random()), par=float(fuzz.random()),
            )
            rows = [Harmony(random_subset(n, k, fuzz),
                            float(fuzz.uniform(0, 100))) for _ in range(hms)]
            s = improvise(rows, fcfg, fuzz)
            assert len(set(s.indices)) == k
            assert all(0 <= i < n for i in s.indices)

        # best-so-far trace never decreases
        _, hist = hs_run(HsConfig(n_features=8, subset_size=3, hms=5,
                                  max_iterations=100, seed=7), obj)
        assert all(b >= a for a, b in zip(hist.best_fitness,
                                          hist.best_fitness[1:]))

        # pure memory consideration never leaves the union of the memory rows
        @settings(max_examples=300, deadline=None)
        @given(data=st.data())
        def union_closure(data):
            n = data.draw(st.integers(1, 30), label="n_features")
            k = data.draw(st.integers(1, n), label="subset_size")
            hms = data.draw(st.integers(1, 8), label="hms")
            rows = [Harmony(FeatureSubset(data.draw(st.permutations(range(n)))[:k]), 50.0)
                    for _ in range(hms)]
            union = {i for h in rows for i in h.subset.indices}
            ucfg = HsConfig(n_features=n, subset_size=k, hms=hms, hmcr=1.0, par=0.0)
            urng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            for _ in range(5):
                assert set(improvise(rows, ucfg, urng).indices) <= union

        union_closure()

        # a tie with the worst member must not replace it
        tied = [Harmony(FeatureSubset((0,)), 10.0), Harmony(FeatureSubset((1,)), 30.0)]
        assert replace_worst(tied, Harmony(FeatureSubset((2,)), 10.0)) is False
        assert tied[0].subset.indices == (0,)


def test_4_mlp_gradient_check_and_xor(criterion):
    with criterion(4, "MLP analytic gradients match finite differences "
                      "(max rel err < 1e-4) and XOR trains to 100%"):
        rng = np.random.default_rng(123)
        eps = 1e-5
        worst = 0.0
        for _ in range(50):
            n_in = int(rng.integers(1, 6))
            n_hid = int(rng.integers(1, 7))
            n_out = int(rng.integers(2, 5))
            model = initial_model(n_in, n_hid, n_out, int(rng.integers(0, 10**6)))
            x = rng.standard_normal(n_in)
            y = int(rng.integers(n_out))
            g = mlp_gradient(model, x, y)
            for weights, analytic in (
                (model.w_hidden, g.w_hidden), (model.b_hidden, g.b_hidden),
                (model.w_out, g.w_out), (model.b_out, g.b_out),
            ):
                it = np.nditer(weights, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = weights[idx]
                    weights[idx] = orig + eps
                    up = mlp_loss(model, x, y)
                    weights[idx] = orig - eps
                    down = mlp_loss(model, x, y)
                    weights[idx] = orig
                    fd = (up - down) / (2.0 * eps)
                    a = analytic[idx]
                    worst = max(worst, abs(a - fd) / max(1e-8, abs(a), abs(fd)))
        assert worst < 1e-4, f"max relative gradient error {worst}"

        xor = Dataset(
            np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            np.array([0, 1, 1, 0]), ("a", "b"), ("even", "odd"))
        model = mlp_train(xor, MlpConfig(hidden_neurons=4, learning_rate=0.5,
                                         momentum=0.9, epochs=2000, seed=0))
        assert np.array_equal(mlp_predict(model, xor), xor.labels)


def test_5_pca_checks(criterion):
    with criterion(5, "PCA components orthonormal (<1e-8), eigenvalues "
                      "non-increasing, rank-2 data reconstructs (<1e-8)"):
        rng = np.random.default_rng(8)
        d = Dataset(rng.normal(size=(40, 6)) * np.arange(6, 0, -1),
                    rng.integers(0, 2, 40),
                    tuple(f"f{i}" for i in range(6)), ("a", "b"))
        model = pca_fit(d, 6)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(6)).max() < 1e-8
        assert (np.diff(model.eigenvalues) <= 1e-12).all()
        assert (model.eigenvalues >= 0.0).all()

        basis = rng.normal(size=(2, 7))
        coords = rng.normal(size=(25, 2))
        x = coords @ basis + rng.normal(size=7)
        rank2 = Dataset(x, rng.integers(0, 2, 25),
                        tuple(f"f{i}" for i in range(7)), ("a", "b"))
        m2 = pca_fit(rank2, 2)
        v = m2.components
        recon = m2.means + (x - m2.means) @ v @ v.T
        assert np.abs(recon - x).max() < 1e-8


def test_6_accuracy_rendering_and_wilson_ci(criterion):
    with criterion(6, "accuracy(307,340) renders as 90.29 and the Wilson "
                      "interval matches a hand computation at (1, 10)"):
        assert f"{accuracy(307, 340):.2f}" == "90.29"

        # at p=1 the Wilson bound collapses to 1/(1 + z^2/n)
        z = NormalDist().inv_cdf(0.975)
        lo_hand = 1.0 / (1.0 + z * z / 10.0)
        lo, hi = confidence_interval(1.0, 10)
        assert lo == pytest.approx(lo_hand, abs=1e-12)
        assert hi == 1.0


def test_7_pipeline_shape_reproduction(tiny8_path, tmp_path, capsys, criterion):
    with criterion(7, "grid emits a 5x5 report, compare a 3-row timing "
                      "report, fractions maps 65 features at 75% to k=48"):
        grid_path = tmp_path / "grid.csv"
        assert cli.run([
            "grid", "--data", str(tiny8_path), "--k", "3",
            "--classifier", "knn", "--output", str(grid_path),
        ]) == 0
        grid = read_grid_csv(grid_path)
        assert grid.hms_values == (10, 20, 30, 40, 50)
        assert grid.iteration_values == (10, 20, 30, 40, 50)
        assert len(grid.cells) == 5 and all(len(r) == 5 for r in grid.cells)

        cmp_path = tmp_path / "cmp.csv"
        assert cli.run([
            "compare", "--data", str(tiny8_path), "--k", "3",
            "--classifier", "knn", "--optimizers", "hs,ga,pso",
            "--hms", "5", "--iterations", "10",
            "--population", "5", "--generations", "10",
            "--particles", "5", "--pso-iterations", "10",
            "--output", str(cmp_path),
        ]) == 0
        cmp_report = read_comparison_csv(cmp_path)
        assert [r.optimizer for r in cmp_report.rows] == ["HS", "GA", "PSO"]
        assert all(r.subset_size == 3 for r in cmp_report.rows)
        assert all(r.execution_seconds >= 0.0 for r in cmp_report.rows)

        wide, _ = planted_dataset(n_samples=40, n_features=65,
                                  n_informative=3, class_sep=2.0, seed=6)
        wide_path = tmp_path / "wide.csv"
        write_csv(wide, wide_path)
        frac_path = tmp_path / "frac.csv"
        assert cli.run([
            "fractions", "--data", str(wide_path),
            "--classifier", "knn", "--folds", "2",
            "--fractions", "75", "--hms", "4", "--iterations", "5",
            "--output", str(frac_path),
        ]) == 0
        frac = read_fractions_csv(frac_path)
        assert frac.fraction_percents == (75.0,)
        assert frac.subset_sizes == (48,)
        capsys.readouterr()


def test_8_cli_determinism(tiny8_path, tmp_path, capsys, criterion):
    with criterion(8, "repeated CLI runs with one seed give byte-identical "
                      "reports (compare: identical modulo wall-clock column)"):
        g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        grid_argv = ["grid", "--data", str(tiny8_path), "--k", "3",
                     "--classifier", "knn", "--seed", "3",
                     "--hms-values", "4,8", "--iteration-values", "5,10"]
        assert cli.run(grid_argv + ["--output", str(g1)]) == 0
        assert cli.run(grid_argv + ["--output", str(g2)]) == 0
        assert g1.read_bytes() == g2.read_bytes()

        f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        frac_argv = ["fractions", "--data", str(tiny8_path),
                     "--classifier", "knn", "--seed", "3",
                     "--fractions", "25,50,75", "--hms", "4",
                     "--iterations", "10"]
        assert cli.run(frac_argv + ["--output", str(f1)]) == 0
        assert cli.run(frac_argv + ["--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

        c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        cmp_argv = ["compare", "--data", str(tiny8_path), "--k", "3",
                    "--classifier", "knn", "--seed", "3",
                    "--optimizers", "hs,ga", "--hms", "4", "--iterations", "5",
                    "--population", "4", "--generations", "5"]
        assert cli.run(cmp_argv + ["--output", str(c1)]) == 0
        assert cli.run(cmp_argv + ["--output", str(c2)]) == 0
        # execution_seconds is genuine wall-clock time; everything else is stable
        strip = lambda p: [line.rsplit(",", 1)[0]
                           for line in p.read_text().splitlines()]
        assert strip(c1) == strip(c2)
        capsys.readouterr()
