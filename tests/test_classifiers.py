import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetharmony import (
    Dataset,
    KnnConfig,
    MlpConfig,
    ObjectiveConfig,
    TrainingDivergedError,
)
from subsetharmony.classifiers import (
    _BLOCK_VALUES,
    MlpModel,
    _forward,
    _head,
    _knn_vote,
    _sgd_step,
    _sigmoid,
    default_hidden_neurons,
    knn_predict,
    mlp_gradient,
    mlp_loss,
    mlp_predict,
    mlp_train,
    mlp_train_many,
)
from subsetharmony.dataset import standardize, stratified_kfold, take_rows
from subsetharmony.synth import blob_dataset
from subsetharmony.wrapper import cross_validate


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
        _, probs = _forward(model, d.features)
        assert np.allclose(probs, 0.25)
        assert mlp_predict(model, d)[0] == 0

    def test_probability_rows_sum_to_one(self):
        d = _xor()
        model = mlp_train(d, MlpConfig(hidden_neurons=3, epochs=5, seed=2))
        _, probs = _forward(model, d.features)
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


def _piecewise_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sequential_train(train: Dataset, cfg: MlpConfig) -> MlpModel:
    """Reference: one network, one sample per step, one weight array per layer."""
    hidden_n = cfg.hidden_neurons or default_hidden_neurons(train.n_features, train.n_classes)
    rng = np.random.default_rng(cfg.seed)
    init = MlpModel._draw(rng, train.n_features, hidden_n, train.n_classes)
    w = [init.w_hidden.copy(), init.b_hidden.copy(), init.w_out.copy(), init.b_out.copy()]
    v = [np.zeros_like(a) for a in w]
    for _ in range(cfg.epochs):
        for i in rng.permutation(train.n_samples):
            x, label = train.features[i], train.labels[i]
            hidden = _piecewise_sigmoid(x @ w[0] + w[1])
            logits = hidden @ w[2] + w[3]
            e = np.exp(logits - logits.max())
            d_logits = e / e.sum()
            d_logits[label] -= 1.0
            d_hidden = (w[2] @ d_logits) * hidden * (1.0 - hidden)
            grads = (np.outer(x, d_hidden), d_hidden, np.outer(hidden, d_logits), d_logits)
            for j, g in enumerate(grads):
                v[j] = cfg.momentum * v[j] - cfg.learning_rate * g
                w[j] += v[j]
    return MlpModel(*w)


def _assert_same_bits(a: MlpModel, b: MlpModel) -> None:
    for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _rows(d: Dataset, n: int, seed: int) -> Dataset:
    return take_rows(d, np.sort(np.random.default_rng(seed).permutation(d.n_samples)[:n]))


class TestLockstep:
    def test_equals_sequential_reference(self):
        blobs = blob_dataset(n_per_class=12, n_features=4, n_classes=3, seed=5)
        for d, cfg in ((_xor(), MlpConfig(hidden_neurons=4, epochs=40, seed=1)),
                       (blobs, MlpConfig(epochs=6, momentum=0.8, seed=3)),
                       (blobs, MlpConfig(hidden_neurons=1, epochs=3, seed=0))):
            _assert_same_bits(mlp_train(d, cfg), _sequential_train(d, cfg))

    def test_member_bits_do_not_depend_on_the_batch(self):
        d = blob_dataset(n_per_class=20, n_features=3, n_classes=2, seed=8)
        trains = [_rows(d, n, seed) for seed, n in enumerate((37, 39, 38, 39))]
        cfg = MlpConfig(epochs=4, seed=6)
        alone = [mlp_train(t, cfg) for t in trains]
        for batch in (trains, trains[::-1]):
            together = mlp_train_many(batch, cfg)
            for model, t in zip(together, batch):
                _assert_same_bits(model, alone[trains.index(t)])

    def test_skipped_step_leaves_member_untouched(self):
        # the longest member steps alone: the others keep weights and momentum
        dims = (3, 2, 2)
        rng = np.random.default_rng(0)
        w, v = rng.normal(size=(3, 14)), rng.normal(size=(3, 14))
        g = np.zeros_like(w)
        before_w, before_v = w.copy(), v.copy()
        x = rng.normal(size=(3, 1, 3))
        target = np.eye(2)[[[1], [0], [1]]]
        probs = np.ones((3, 1, 2))
        _sgd_step(_head(w, v, g, 1, dims), x[:1], target[:1], probs[:1], 0.3, 0.4)
        assert not np.array_equal(w[0], before_w[0])
        assert not np.array_equal(v[0], before_v[0])
        assert np.array_equal(w[1:], before_w[1:])
        assert np.array_equal(v[1:], before_v[1:])
        assert (probs[1:] == 1.0).all()

    def test_cross_validate_equals_sequential_folds(self):
        # 31 rows per class over 3 folds: train sizes 60, 63 and 63
        d = blob_dataset(n_per_class=31, n_features=3, n_classes=3, seed=2)
        cfg = ObjectiveConfig(mlp=MlpConfig(epochs=5, seed=4), folds=3, fold_seed=1)
        pairs = [standardize(take_rows(d, train_rows), take_rows(d, test_rows))
                 for train_rows, test_rows in stratified_kfold(d, 3, 1)]
        assert sorted(train.n_samples for train, _ in pairs) == [60, 63, 63]
        references = [_sequential_train(train, cfg.mlp) for train, _ in pairs]
        for model, reference in zip(mlp_train_many([t for t, _ in pairs], cfg.mlp), references):
            _assert_same_bits(model, reference)
        correct = [int((mlp_predict(m, test) == test.labels).sum())
                   for m, (_, test) in zip(references, pairs)]
        result = cross_validate(d, cfg)
        assert result.correct_count == sum(correct)
        assert result.per_fold_accuracy == tuple(
            100.0 * c / test.n_samples for c, (_, test) in zip(correct, pairs))

    def test_divergence_names_the_earliest_epoch_of_any_fold(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(size=(30, 2)), np.arange(30) % 2, ("a", "b"), ("x", "y"))
        cfg = ObjectiveConfig(mlp=MlpConfig(hidden_neurons=4, learning_rate=25.0, momentum=0.9,
                                            epochs=200, seed=0), folds=3, fold_seed=0)
        epochs = []
        with np.errstate(all="ignore"):
            for train_rows, test_rows in stratified_kfold(d, 3, 0):
                train, _ = standardize(take_rows(d, train_rows), take_rows(d, test_rows))
                with pytest.raises(TrainingDivergedError) as err:
                    mlp_train(train, cfg.mlp)
                epochs.append(int(str(err.value).rsplit(" ", 1)[1]))
            # the first fold diverges last, so fold-by-fold training would name it
            assert epochs[0] > min(epochs)
            with pytest.raises(TrainingDivergedError, match=f"at epoch {min(epochs)}$"):
                cross_validate(d, cfg)

    def test_mixed_shapes_rejected(self):
        d = _xor()
        wider = Dataset(np.ones((4, 3)), d.labels, ("a", "b", "c"), d.class_names)
        with pytest.raises(ValueError, match="equal feature and class counts"):
            mlp_train_many([d, wider], MlpConfig(epochs=1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                    min_size=1, max_size=20))
    def test_sigmoid_equals_piecewise_form(self, values):
        z = np.array(values)
        with np.errstate(all="ignore"):
            assert np.array_equal(_sigmoid(z), _piecewise_sigmoid(z), equal_nan=True)
