import numpy as np
import pytest

from subsetharmony import Dataset, KnnConfig, MlpConfig, TrainingDivergedError
from subsetharmony.classifiers import (
    _BLOCK_VALUES,
    MlpModel,
    _knn_vote,
    default_hidden_neurons,
    knn_predict,
    mlp_gradient,
    mlp_loss,
    mlp_predict,
    mlp_probabilities,
    mlp_train,
)


def _xor() -> Dataset:
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    return Dataset(x, y, ("a", "b"), ("even", "odd"))


class TestConfigs:
    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(epochs=0)
        with pytest.raises(ValueError):
            MlpConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            MlpConfig(momentum=1.0)
        with pytest.raises(ValueError):
            MlpConfig(hidden_neurons=0)
        MlpConfig(learning_rate=0.0)  # zero step size is a legal no-op trainer

    def test_knn_validation(self):
        with pytest.raises(ValueError):
            KnnConfig(k_neighbors=0)


class TestDefaultHidden:
    def test_half_sum_rounded_up(self):
        assert default_hidden_neurons(2, 2) == 2
        assert default_hidden_neurons(19, 2) == 11
        assert default_hidden_neurons(65, 2) == 34


class TestInitialization:
    def test_deterministic_and_bounded(self):
        a = MlpModel.initialize(4, 3, 2, seed=11)
        b = MlpModel.initialize(4, 3, 2, seed=11)
        for x, y in zip((a.w_hidden, a.b_hidden, a.w_out, a.b_out),
                        (b.w_hidden, b.b_hidden, b.w_out, b.b_out)):
            assert np.array_equal(x, y)
            assert np.all(np.abs(x) <= 0.5)

    def test_seed_changes_weights(self):
        a = MlpModel.initialize(4, 3, 2, seed=11)
        b = MlpModel.initialize(4, 3, 2, seed=12)
        assert not np.array_equal(a.w_hidden, b.w_hidden)


class TestTraining:
    def test_zero_learning_rate_keeps_initial_weights(self):
        d = _xor()
        cfg = MlpConfig(hidden_neurons=3, learning_rate=0.0, epochs=1, seed=4)
        trained = mlp_train(d, cfg)
        init = MlpModel.initialize(d.n_features, 3, d.n_classes, seed=4)
        assert np.array_equal(trained.w_hidden, init.w_hidden)
        assert np.array_equal(trained.b_hidden, init.b_hidden)
        assert np.array_equal(trained.w_out, init.w_out)
        assert np.array_equal(trained.b_out, init.b_out)

    def test_training_is_deterministic(self):
        d = _xor()
        cfg = MlpConfig(hidden_neurons=4, learning_rate=0.5, momentum=0.9,
                        epochs=50, seed=0)
        a = mlp_train(d, cfg)
        b = mlp_train(d, cfg)
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert np.array_equal(a.w_out, b.w_out)
        c = mlp_train(d, MlpConfig(hidden_neurons=4, learning_rate=0.5,
                                   momentum=0.9, epochs=50, seed=1))
        assert not np.array_equal(a.w_hidden, c.w_hidden)

    def test_xor_reaches_full_train_accuracy(self):
        d = _xor()
        cfg = MlpConfig(hidden_neurons=4, learning_rate=0.5, momentum=0.9,
                        epochs=2000, seed=0)
        model = mlp_train(d, cfg)
        assert np.array_equal(mlp_predict(model, d), d.labels)

    def test_divergence_raises_and_names_epoch(self):
        d = _xor()
        cfg = MlpConfig(hidden_neurons=4, learning_rate=500.0, momentum=0.9,
                        epochs=200, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            mlp_train(d, cfg)

    def test_one_step_applies_mlp_gradient(self):
        # one row, momentum 0: the single SGD step is exactly w - lr * gradient
        d = Dataset(np.array([[0.3, -1.2, 2.0]]), np.array([1]), ("a", "b", "c"),
                    ("x", "y"))
        cfg = MlpConfig(hidden_neurons=4, learning_rate=0.3, momentum=0.0, epochs=1, seed=9)
        trained = mlp_train(d, cfg)
        init = MlpModel.initialize(3, 4, 2, seed=9)
        g = mlp_gradient(init, d.features[0], 1)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            want = getattr(init, name) - cfg.learning_rate * getattr(g, name)
            assert np.array_equal(getattr(trained, name), want), name

    def test_single_class_rejected(self):
        d = Dataset(np.ones((3, 1)), np.zeros(3, dtype=np.int64), ("f",), ("only",))
        with pytest.raises(ValueError):
            mlp_train(d, MlpConfig(epochs=1))


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(123)
        eps = 1e-5
        worst = 0.0
        for _ in range(50):
            n_in = int(rng.integers(1, 6))
            n_hid = int(rng.integers(1, 7))
            n_out = int(rng.integers(2, 5))
            model = MlpModel.initialize(n_in, n_hid, n_out,
                                        seed=int(rng.integers(0, 10**6)))
            x = rng.standard_normal(n_in)
            y = int(rng.integers(n_out))
            g = mlp_gradient(model, x, y)
            pairs = (
                (model.w_hidden, g.w_hidden),
                (model.b_hidden, g.b_hidden),
                (model.w_out, g.w_out),
                (model.b_out, g.b_out),
            )
            for weights, analytic in pairs:
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
                    rel = abs(a - fd) / max(1e-8, abs(a), abs(fd))
                    worst = max(worst, rel)
        assert worst < 1e-4, f"max relative gradient error {worst}"


class TestPrediction:
    def test_uniform_probabilities_pick_lowest_class(self):
        model = MlpModel(
            w_hidden=np.zeros((2, 3)), b_hidden=np.zeros(3),
            w_out=np.zeros((3, 4)), b_out=np.zeros(4),
        )
        d = Dataset(np.array([[1.0, -2.0]]), np.array([0]), ("a", "b"),
                    ("c0", "c1", "c2", "c3"))
        probs = mlp_probabilities(model, d)
        assert np.allclose(probs, 0.25)
        assert mlp_predict(model, d)[0] == 0

    def test_probability_rows_sum_to_one(self):
        d = _xor()
        model = mlp_train(d, MlpConfig(hidden_neurons=3, epochs=5, seed=2))
        probs = mlp_probabilities(model, d)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_feature_mismatch_rejected(self):
        model = MlpModel.initialize(3, 2, 2, seed=0)
        d = _xor()
        with pytest.raises(ValueError):
            mlp_predict(model, d)


class TestKnn:
    def test_distance_tie_prefers_lower_train_index(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), ("f",), ("a", "b"))
        test = Dataset(np.array([[1.0]]), np.array([0]), ("f",), ("a", "b"))
        assert knn_predict(train, KnnConfig(k_neighbors=1), test)[0] == 0

    def test_vote_tie_prefers_lowest_class_id(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([1, 0]), ("f",), ("a", "b"))
        test = Dataset(np.array([[0.9]]), np.array([0]), ("f",), ("a", "b"))
        # k=2 votes one for class 1 (nearer) and one for class 0 -> tie -> 0
        assert knn_predict(train, KnnConfig(k_neighbors=2), test)[0] == 0

    def test_majority_vote(self):
        train = Dataset(np.array([[0.0], [1.0], [3.0]]), np.array([0, 1, 1]),
                        ("f",), ("a", "b"))
        test = Dataset(np.array([[0.9]]), np.array([0]), ("f",), ("a", "b"))
        assert knn_predict(train, KnnConfig(k_neighbors=3), test)[0] == 1

    def test_self_prediction_perfect_at_k1(self, blobs):
        predicted = knn_predict(blobs, KnnConfig(k_neighbors=1), blobs)
        assert np.array_equal(predicted, blobs.labels)

    def test_k_equal_to_train_size_votes_class_zero(self):
        train = Dataset(np.array([[0.0], [2.0], [5.0], [7.0]]),
                        np.array([0, 1, 0, 1]), ("f",), ("a", "b"))
        test = Dataset(np.array([[6.0], [-1.0]]), np.array([0, 0]), ("f",), ("a", "b"))
        predicted = knn_predict(train, KnnConfig(k_neighbors=4), test)
        assert np.array_equal(predicted, [0, 0])

    def test_oversize_k_clamps_to_train_size(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), ("f",), ("a", "b"))
        a = knn_predict(train, KnnConfig(k_neighbors=99), train)
        b = knn_predict(train, KnnConfig(k_neighbors=2), train)
        assert np.array_equal(a, b)


def _single_block_vote(train_x, train_y, n_classes, queries, k, skip_self=False):
    """Reference rule: one (q, t, f) tensor for all queries, a bincount per row."""
    diffs = queries[:, None, :] - train_x[None, :, :]
    sq_dist = np.einsum("qtf,qtf->qt", diffs, diffs)
    if skip_self:
        np.fill_diagonal(sq_dist, np.inf)
    order = np.argsort(sq_dist, axis=1, kind="stable")[:, :k]
    votes = train_y[order]
    return np.array([np.argmax(np.bincount(row, minlength=n_classes)) for row in votes])


class TestKnnBlocks:
    def test_many_blocks_equal_single_block(self):
        # grid values give many exact distance and vote ties near block edges
        rng = np.random.default_rng(4)
        n, n_features, n_classes = 400, 6, 3
        x = rng.integers(0, 4, size=(n, n_features)) / 10.0
        y = rng.integers(0, n_classes, size=n)
        names = tuple(f"f{i}" for i in range(n_features))
        classes = tuple(f"c{i}" for i in range(n_classes))
        train = Dataset(x, y, names, classes)
        queries = Dataset(rng.integers(0, 4, size=(350, n_features)) / 10.0,
                          np.zeros(350, dtype=np.int64), names, classes)
        rows_per_block = _BLOCK_VALUES // x.size
        assert queries.n_samples > 2 * rows_per_block
        for k in (1, 4, 7):
            got = knn_predict(train, KnnConfig(k_neighbors=k), queries)
            want = _single_block_vote(x, y, n_classes, queries.features, k)
            assert np.array_equal(got, want)
            loo = _knn_vote(x, y, n_classes, x, k, skip_self=True)
            assert np.array_equal(loo, _single_block_vote(x, y, n_classes, x, k, skip_self=True))
