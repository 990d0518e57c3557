import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetharmony import (
    Dataset,
    KnnConfig,
    MlpConfig,
    ObjectiveConfig,
    TrainingDivergedError,
)
from subsetharmony import classifiers
from subsetharmony.classifiers import (
    _BLOCK_VALUES,
    MlpModel,
    _forward,
    _knn_vote,
    _left_operands,
    _right_operands,
    _sigmoid,
    default_hidden_neurons,
    knn_predict,
    mlp_predict,
    mlp_train,
    mlp_train_many,
)
from subsetharmony.dataset import standardize, stratified_kfold, take_rows
from subsetharmony.synth import blob_dataset
from subsetharmony.subsets import FeatureSubset
from subsetharmony.wrapper import cross_validate, evaluate_subset

from mlp_reference import initial_model, mlp_gradient, mlp_loss


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


class TestModelValidation:
    @pytest.mark.parametrize("shapes", [
        ((2, 3), (3,), (4, 2), (2,)),
        ((2, 3), (2,), (3, 2), (2,)),
        ((2, 3), (3,), (3, 2), (3,)),
    ], ids=["w_out", "b_hidden", "b_out"])
    def test_inconsistent_layer_shapes_rejected(self, shapes):
        with pytest.raises(ValueError, match="^inconsistent layer shapes$"):
            MlpModel(*(np.zeros(shape) for shape in shapes))

    def test_non_finite_weight_rejected(self):
        w_hidden = np.zeros((2, 3))
        w_hidden[1, 2] = np.inf
        with pytest.raises(ValueError, match="^model weights must be finite$"):
            MlpModel(w_hidden, np.zeros(3), np.zeros((3, 2)), np.zeros(2))


class TestDefaultHidden:
    def test_half_sum_rounded_up(self):
        assert default_hidden_neurons(2, 2) == 2
        assert default_hidden_neurons(19, 2) == 11
        assert default_hidden_neurons(65, 2) == 34


def _initial_weights(seed: int) -> MlpModel:
    """The weights training starts from: one epoch at learning rate 0 keeps them."""
    d = Dataset(np.zeros((2, 4)), np.array([0, 1]), ("a", "b", "c", "d"), ("x", "y"))
    return mlp_train(d, MlpConfig(hidden_neurons=3, learning_rate=0.0, epochs=1, seed=seed))


class TestInitialization:
    def test_deterministic_and_bounded(self):
        a = _initial_weights(11)
        b = _initial_weights(11)
        for x, y in zip((a.w_hidden, a.b_hidden, a.w_out, a.b_out),
                        (b.w_hidden, b.b_hidden, b.w_out, b.b_out)):
            assert np.array_equal(x, y)
            assert np.all(np.abs(x) <= 0.5)

    def test_seed_changes_weights(self):
        a = _initial_weights(11)
        b = _initial_weights(12)
        assert not np.array_equal(a.w_hidden, b.w_hidden)


class TestTraining:
    def test_zero_learning_rate_keeps_initial_weights(self):
        d = _xor()
        cfg = MlpConfig(hidden_neurons=3, learning_rate=0.0, epochs=1, seed=4)
        trained = mlp_train(d, cfg)
        init = initial_model(d.n_features, 3, d.n_classes, 4)
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

    @settings(max_examples=200, deadline=None)
    @given(f=st.integers(1, 6), hidden=st.integers(1, 6), c=st.integers(2, 5),
           lr=st.one_of(st.just(1.0), st.floats(0.0, 2.0)), seed=st.integers(0, 2**16),
           data=st.data())
    def test_one_step_applies_mlp_gradient(self, f, hidden, c, lr, seed, data):
        # one row, momentum 0: the single SGD step is exactly w - lr * gradient,
        # so training's step and mlp_gradient are one kernel
        x = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=f, max_size=f)))
        label = data.draw(st.integers(0, c - 1))
        d = Dataset(x[None], np.array([label]), tuple(f"f{j}" for j in range(f)),
                    tuple(f"c{j}" for j in range(c)))
        trained = mlp_train(d, MlpConfig(hidden_neurons=hidden, learning_rate=lr,
                                         momentum=0.0, epochs=1, seed=seed))
        init = initial_model(f, hidden, c, seed)
        g = mlp_gradient(init, x, label)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            want = getattr(init, name) - lr * getattr(g, name)
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
            model = initial_model(n_in, n_hid, n_out, int(rng.integers(0, 10**6)))
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
        model = initial_model(3, 2, 2, 0)
        d = _xor()
        with pytest.raises(ValueError):
            mlp_predict(model, d)


class TestKnn:
    def test_feature_mismatch_rejected(self):
        train = Dataset(np.zeros((2, 3)), np.array([0, 1]), ("f", "g", "h"), ("a", "b"))
        test = Dataset(np.zeros((1, 2)), np.array([0]), ("f", "g"), ("a", "b"))
        with pytest.raises(ValueError, match="^train has 3 features, queries have 2$"):
            knn_predict(train, KnnConfig(), test)

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

    def test_distance_sums_columns_left_to_right(self):
        # left to right, row 0's two 2.25 * 2**-54 terms each round 1 up by an
        # ulp, so row 1 (1 + 2**-52) is nearer; summing columns 0 and 2 first
        # (as two-lane SIMD sums do) would tie the rows and pick row 0
        tiny = 1.5 * 2.0**-27
        train = Dataset(np.array([[tiny, 1.0, tiny], [1.0, 2.0**-26, 0.0]]), np.array([0, 1]),
                        ("a", "b", "c"), ("zero", "one"))
        query = Dataset(np.zeros((1, 3)), np.array([0]), ("a", "b", "c"), ("zero", "one"))
        assert knn_predict(train, KnnConfig(k_neighbors=1), query)[0] == 1

    def test_oversize_k_clamps_to_train_size(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), ("f",), ("a", "b"))
        a = knn_predict(train, KnnConfig(k_neighbors=99), train)
        b = knn_predict(train, KnnConfig(k_neighbors=2), train)
        assert np.array_equal(a, b)


def _column_order_sq_dist(queries, train_x):
    """(q, t) squared distances, adding the columns' squared differences left to right."""
    sq_dist = np.zeros((len(queries), len(train_x)))
    for j in range(train_x.shape[1]):
        sq_dist += (queries[:, j, None] - train_x[None, :, j]) ** 2
    return sq_dist


def _single_block_vote(train_x, train_y, n_classes, queries, k, skip_self=False):
    """Reference rule: one (q, t) distance array for all queries, a bincount per row."""
    sq_dist = _column_order_sq_dist(queries, train_x)
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
        rows_per_block = _BLOCK_VALUES // n
        assert min(queries.n_samples, n) > 2 * rows_per_block
        for k in (1, 4, 7):
            got = knn_predict(train, KnnConfig(k_neighbors=k), queries)
            want = _single_block_vote(x, y, n_classes, queries.features, k)
            assert np.array_equal(got, want)
            loo = _knn_vote(x, y, n_classes, x, k, skip_self=True)
            assert np.array_equal(loo, _single_block_vote(x, y, n_classes, x, k, skip_self=True))


def _kth_shared_beyond_k(train_x, queries, k, skip_self):
    """True if some query's k-th nearest distance is shared by more than k rows."""
    sq_dist = _column_order_sq_dist(queries, train_x)
    if skip_self:
        np.fill_diagonal(sq_dist, np.inf)
    kth = np.sort(sq_dist, axis=1)[:, k - 1:k]
    return bool(((sq_dist <= kth).sum(axis=1) > k).any())


@st.composite
def _tie_heavy_votes(draw):
    """Grid rows (at most 4 values per feature) plus k + 2 copies of one row,
    shuffled: the query on that row has its k-th distance shared beyond k."""
    n_features = draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n + 2))
    cells = st.lists(st.integers(0, 3), min_size=n_features, max_size=n_features)
    grid = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64) / 10.0
    tie_row = grid[draw(st.integers(0, n - 1))]
    rows = np.vstack([grid, np.repeat(tie_row[None], k + 2, axis=0)])
    x = rows[draw(st.permutations(range(len(rows))))]
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=len(x),
                               max_size=len(x))))
    skip_self = draw(st.booleans())
    if skip_self:
        queries = x
    else:
        extra = draw(st.lists(cells, max_size=8))
        queries = np.vstack([tie_row[None], np.array(extra, dtype=np.float64).reshape(
            -1, n_features) / 10.0])
    return x, y, n_classes, queries, k, skip_self


class TestKnnTopK:
    @settings(max_examples=300, deadline=None)
    @given(_tie_heavy_votes())
    def test_top_k_equals_stable_sort(self, case):
        x, y, n_classes, queries, k, skip_self = case
        assert _kth_shared_beyond_k(x, queries, k, skip_self)
        got = _knn_vote(x, y, n_classes, queries, k, skip_self)
        assert np.array_equal(got, _single_block_vote(x, y, n_classes, queries, k, skip_self))
        # k past every usable row votes with all of them
        usable = len(x) - skip_self
        got = _knn_vote(x, y, n_classes, queries, len(x) + 2, skip_self)
        assert np.array_equal(got, _single_block_vote(x, y, n_classes, queries, usable,
                                                      skip_self))


def _python_vote(train_x, train_y, n_classes, queries, k, skip_self):
    """Reference in plain Python floats: each distance is an explicit left-to-right
    loop over the columns, the k nearest rows come from a sort by (distance, row
    index), and the lowest class id wins a tied vote."""
    votes = []
    for i, query in enumerate(queries.tolist()):
        ranked = []
        for j, row in enumerate(train_x.tolist()):
            if skip_self and i == j:
                continue
            total = 0.0
            for a, b in zip(query, row):
                total += (a - b) * (a - b)
            ranked.append((total, j))
        counts = [0] * n_classes
        for _, j in sorted(ranked)[:k]:
            counts[int(train_y[j])] += 1
        votes.append(counts.index(max(counts)))
    return votes


@st.composite
def _mixed_votes(draw):
    """Either rows of -1, 0 or 1 times 1 or 2**-26 (or 2**-27), whose small squares
    sit near half an ulp of 1, so distances tie or differ only in how a sum of
    three or more terms rounds; or rows of grid values and arbitrary floats."""
    n_classes = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n_features, n_rows = draw(st.integers(3, 6)), (4, 12)
        small = 2.0 ** draw(st.sampled_from([-26, -27]))
        value = st.builds(lambda m, scale: m * scale, st.integers(-1, 1),
                          st.sampled_from([1.0, small]))
    else:
        n_features, n_rows = draw(st.integers(1, 6)), (1, 12)
        value = st.one_of(st.integers(0, 3).map(lambda v: v / 10.0),
                          st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False))
    row = st.lists(value, min_size=n_features, max_size=n_features)
    x = np.array(draw(st.lists(row, min_size=n_rows[0], max_size=n_rows[1])))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=len(x),
                               max_size=len(x))))
    skip_self = draw(st.booleans())
    queries = x if skip_self else np.array(draw(st.lists(row, min_size=n_rows[0],
                                                         max_size=3 * n_rows[1])))
    k = draw(st.integers(1, len(x) + 1))
    return x, y, n_classes, queries, k, skip_self


class TestKnnDistanceOrder:
    @settings(max_examples=300, deadline=None)
    @given(_mixed_votes())
    def test_equals_python_reference(self, case):
        x, y, n_classes, queries, k, skip_self = case
        got = _knn_vote(x, y, n_classes, queries, k, skip_self)
        assert got.tolist() == _python_vote(x, y, n_classes, queries, k, skip_self)


# values where a difference is exact or rounds, underflows to a subnormal or
# overflows to inf, and squares that underflow to 0 or overflow to inf
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 3e-320, 2.2250738585072014e-308, 1e-160,
                1.0, -1.0, 0.1, 1e300, -1e300, 1.3e300, 1.7e308, -1.7e308)


@st.composite
def _edge_votes(draw):
    """Rows of edge values and arbitrary finite floats, with one or more queries
    and training rows, so the plane is a matrix, a row, a column or one value."""
    n_features = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from(_EDGE_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    row = st.lists(value, min_size=n_features, max_size=n_features)
    x = np.array(draw(st.lists(row, min_size=1, max_size=8)))
    n_classes = draw(st.integers(1, 3))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=len(x),
                               max_size=len(x))))
    queries = np.array(draw(st.lists(row, min_size=1, max_size=8)))
    return x, y, n_classes, queries, draw(st.integers(1, len(x)))


def _vote_over_stale_buffers(x, y, n_classes, queries, k, skip_self=False):
    """_knn_vote with buffers large enough for every block here, filled with nan.

    Fails if the vote swaps a buffer or adds a role of its own, which would run
    it on fresh memory instead of the stale buffers.
    """
    buffers = {role: np.full(2 * _BLOCK_VALUES, np.nan) for role in ("sum", "plane")}
    stale = threading.local()
    vars(stale).update(buffers)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(classifiers, "_VOTE_BUFFERS", stale)
        got = _knn_vote(x, y, n_classes, queries, k, skip_self)
    assert vars(stale).keys() == buffers.keys()
    assert all(vars(stale)[role] is buf for role, buf in buffers.items())
    return got


# every distance but a query's own overflows to +inf, so a taken cell marked
# with +inf's bits would tie the rows still untaken and, at a lower index, be
# taken again; the labels make such a pick change the vote
_OVERFLOW_ROWS = np.array([[0.0], [1.7e308], [-1.7e308]])
_OVERFLOW_LABELS = np.array([1, 0, 0])


class TestKnnPlaneExactness:
    @settings(max_examples=300, deadline=None)
    @given(_edge_votes())
    def test_plane_is_the_squared_subtraction_bit_for_bit(self, case):
        x, _, _, queries, _ = case
        left, right = _left_operands(queries), _right_operands(x)
        for j in range(x.shape[1]):
            # a nan-filled out shows a product that reads the stale output
            plane = np.full((len(queries), len(x)), np.nan)
            with np.errstate(over="ignore"):
                np.square(np.matmul(left[j], right[j], out=plane), out=plane)
                want = np.square(np.subtract(queries[:, j, None], x[:, j]))
            assert np.array_equal(plane.view(np.int64), want.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(_edge_votes(), st.booleans())
    # query 0's own row 0 is the lowest index at +inf: k = 1 must take row 1,
    # and k = 2 rows 1 and 2, not row 0 once or twice
    @example((_OVERFLOW_ROWS, _OVERFLOW_LABELS, 2, _OVERFLOW_ROWS, 1), True)
    @example((_OVERFLOW_ROWS, _OVERFLOW_LABELS, 2, _OVERFLOW_ROWS, 2), True)
    # no own row: every distance is +inf, and k = 2 must take rows 0 and 1, a
    # tied vote, not row 0 twice
    @example((np.array([[-1.7e308], [-1e308], [0.0]]), _OVERFLOW_LABELS, 2,
              np.array([[1.7e308]]), 2), False)
    def test_vote_over_stale_buffers_equals_python_reference(self, case, skip_self):
        x, y, n_classes, queries, k = case
        if skip_self:
            queries = x
        got = _vote_over_stale_buffers(x, y, n_classes, queries, k, skip_self)
        assert got.tolist() == _python_vote(x, y, n_classes, queries, k, skip_self)

    def test_one_query_row_per_block_over_stale_buffers(self):
        # a training part past _BLOCK_VALUES rows gives blocks of one query, so
        # each plane is a (1, 2) @ (2, t) product
        rng = np.random.default_rng(3)
        x = rng.choice(np.array(_EDGE_VALUES), size=(_BLOCK_VALUES + 5, 2))
        y = rng.integers(0, 3, size=len(x))
        queries = rng.choice(np.array(_EDGE_VALUES), size=(3, 2))
        got = _vote_over_stale_buffers(x, y, 3, queries, 4)
        assert got.tolist() == _python_vote(x, y, 3, queries, 4, False)


class TestKnnMemory:
    def test_leave_one_out_peak_is_bounded(self, monkeypatch):
        # the kernel holds a few (q, t) planes of _BLOCK_VALUES values, never the
        # (n, n, f) difference tensor (376 MiB here) or even one (n, n) array (8 MiB)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1020, 48))
        y = rng.integers(0, 3, size=1020)
        # fresh buffers, so the vote grows them inside the measurement
        monkeypatch.setattr(classifiers, "_VOTE_BUFFERS", threading.local())
        tracemalloc.start()
        try:
            _knn_vote(x, y, 3, x, 5, skip_self=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_paper_shape_fold_peak_is_bounded(self, monkeypatch):
        # one fold at the paper shape (f = 65, 680 rows in 3 folds): the (f, 2, t)
        # training operand grows with f * t, and stays beside the planes
        rng = np.random.default_rng(1)
        x = rng.normal(size=(453, 65))
        y = rng.integers(0, 3, size=453)
        queries = rng.normal(size=(227, 65))
        monkeypatch.setattr(classifiers, "_VOTE_BUFFERS", threading.local())
        tracemalloc.start()
        try:
            _knn_vote(x, y, 3, queries, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestKnnThreads:
    def test_concurrent_votes_equal_serial_votes(self):
        # numpy releases the GIL in matmul, the squaring ufuncs and argmin, so
        # votes on shared buffers would overwrite each other's distances mid-call
        rng = np.random.default_rng(7)
        cases = [(rng.normal(size=(200, 30)), rng.integers(0, 3, size=200),
                  rng.normal(size=(100, 30))) for _ in range(4)]
        serial = [_knn_vote(x, y, 3, queries, 5) for x, y, queries in cases]
        start = threading.Barrier(len(cases))
        got: list[list[np.ndarray]] = [[] for _ in cases]

        def vote(i):
            x, y, queries = cases[i]
            start.wait()
            got[i].extend(_knn_vote(x, y, 3, queries, 5) for _ in range(20))

        threads = [threading.Thread(target=vote, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for want, votes in zip(serial, got):
            assert len(votes) == 20
            for v in votes:
                assert np.array_equal(v, want)


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
    init = initial_model(train.n_features, hidden_n, train.n_classes, rng)
    w = [init.w_hidden, init.b_hidden, init.w_out, init.b_out]
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


def _spy_passes(monkeypatch) -> list[list[Dataset]]:
    """Record the training sets of each lockstep pass mlp_train_many runs."""
    passes = []
    real = classifiers._train_pass

    def spy(trains, *args):
        passes.append(list(trains))
        return real(trains, *args)

    monkeypatch.setattr(classifiers, "_train_pass", spy)
    return passes


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

    @settings(max_examples=60, deadline=None)
    @given(members=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 4), st.integers(2, 4)),
                            min_size=1, max_size=8),
           hidden=st.integers(1, 5), epochs=st.integers(1, 3), lr=st.floats(0.0, 1.0),
           momentum=st.floats(0.0, 0.95), seed=st.integers(0, 2**16),
           budget=st.integers(0, 3000))
    def test_ragged_batch_equals_sequential_members(self, members, hidden, epochs, lr,
                                                    momentum, seed, budget):
        # members of mixed row, feature and class counts; a byte cap of 0 to 3000
        # holds 0 to 20 networks of 6 to 49 parameters, so groups split across
        # passes, and in each pass members with fewer rows sit out the tail steps
        rng = np.random.default_rng(seed)
        trains = [Dataset(rng.normal(size=(n, f)), rng.integers(0, c, size=n),
                          tuple(f"f{j}" for j in range(f)), tuple(f"c{j}" for j in range(c)))
                  for n, f, c in members]
        cfg = MlpConfig(hidden_neurons=hidden, learning_rate=lr, momentum=momentum,
                        epochs=epochs, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers, "_BATCH_BYTES", budget)
            passes = _spy_passes(mp)
            models = mlp_train_many(trains, cfg)
        assert sorted(id(t) for batch in passes for t in batch) == sorted(map(id, trains))
        for batch in passes:
            f, c = batch[0].n_features, batch[0].n_classes
            assert {(t.n_features, t.n_classes) for t in batch} == {(f, c)}
            assert len(batch) <= max(1, budget // (24 * ((f + 1) * hidden + (hidden + 1) * c)))
        for model, train in zip(models, trains):
            _assert_same_bits(model, _sequential_train(train, cfg))

    def test_cross_validate_equals_sequential_folds(self):
        # 31 rows per class over 3 folds: train sizes 60, 63 and 63. The 5-epoch
        # MLP gets every row of the clean blobs right, so only the noisy ones,
        # with a fold below 100%, catch a scorer that lets test rows into the fit
        clean = blob_dataset(n_per_class=31, n_features=3, n_classes=3, seed=2)
        noisy = blob_dataset(n_per_class=31, n_features=3, n_classes=3, seed=2, noise=4.0)
        cfg = ObjectiveConfig(mlp=MlpConfig(epochs=5, seed=4), folds=3, fold_seed=1)
        for d in (clean, noisy):
            pairs = [standardize(take_rows(d, train_rows), take_rows(d, test_rows))
                     for train_rows, test_rows in stratified_kfold(d, 3, 1)]
            assert sorted(train.n_samples for train, _ in pairs) == [60, 63, 63]
            references = [_sequential_train(train, cfg.mlp) for train, _ in pairs]
            trained = mlp_train_many([t for t, _ in pairs], cfg.mlp)
            for model, reference in zip(trained, references):
                _assert_same_bits(model, reference)
            correct = [int((mlp_predict(m, test) == test.labels).sum())
                       for m, (_, test) in zip(references, pairs)]
            per_fold = tuple(100.0 * c / test.n_samples for c, (_, test) in zip(correct, pairs))
            if d is noisy:
                assert min(per_fold) < 100.0
            result = evaluate_subset(d, FeatureSubset(range(d.n_features)), cfg)
            assert result.correct_count == sum(correct)
            assert result.per_fold_accuracy == per_fold
        # one held-out pair (45 train, 48 test rows) is scored as handed over:
        # trained on its train part, counted on its test part, by either
        # classifier; blobs this noisy keep both short of 100% on either part
        train_rows, test_rows = stratified_kfold(noisy, 2, 1)[0]
        train, test = standardize(take_rows(noisy, train_rows), take_rows(noisy, test_rows))
        knn = KnnConfig(k_neighbors=3)
        by_hand = {"mlp": mlp_predict(mlp_train(train, cfg.mlp), test),
                   "knn": knn_predict(train, knn, test)}
        for classifier, predicted in by_hand.items():
            held_out = ObjectiveConfig(classifier=classifier, mlp=cfg.mlp, knn=knn)
            [result] = cross_validate([((train, test),)], held_out)
            hits = int((predicted == test.labels).sum())
            assert (result.correct_count, result.total_count) == (hits, test.n_samples)
            assert result.per_fold_accuracy == (100.0 * hits / test.n_samples,)

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
                evaluate_subset(d, FeatureSubset(range(d.n_features)), cfg)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one dataset"):
            mlp_train_many([], MlpConfig(epochs=1))

    def test_mixed_shapes_train_in_passes_of_one_shape(self, monkeypatch):
        d = _xor()
        wider = Dataset(np.ones((4, 3)), d.labels, ("a", "b", "c"), d.class_names)
        three = Dataset(np.ones((4, 2)), np.arange(4) % 3, d.feature_names, ("x", "y", "z"))
        cfg = MlpConfig(hidden_neurons=2, epochs=3, seed=2)
        trains = [d, wider, three, d, wider, d]
        passes = _spy_passes(monkeypatch)
        models = mlp_train_many(trains, cfg)
        # groups by (features, classes) in list order, each one pass under 1 MiB
        assert passes == [[d, d, d], [wider, wider], [three]]
        for model, train in zip(models, trains):
            _assert_same_bits(model, mlp_train(train, cfg))
        # a cap of two xor networks (12 parameters each) cuts that group in list
        # order; the larger networks fit one to a pass
        passes.clear()
        monkeypatch.setattr(classifiers, "_BATCH_BYTES", 2 * 24 * 12)
        mlp_train_many(trains, cfg)
        assert passes == [[d, d], [d], [wider], [wider], [three]]

    def test_one_class_rejected(self):
        d = _xor()
        single = Dataset(d.features, np.zeros(4, dtype=np.int64), d.feature_names, ("only",))
        with pytest.raises(ValueError, match="need >= 2 classes"):
            mlp_train_many([d, single], MlpConfig(epochs=1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                    min_size=1, max_size=20))
    def test_sigmoid_equals_piecewise_form(self, values):
        z = np.array(values)
        with np.errstate(all="ignore"):
            assert np.array_equal(_sigmoid(z), _piecewise_sigmoid(z), equal_nan=True)
