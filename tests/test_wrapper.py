import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetharmony import (
    Dataset,
    EvaluationResult,
    FeatureSubset,
    KnnConfig,
    LeaveOneOutObjective,
    MlpConfig,
    ObjectiveConfig,
    SubsetObjective,
    accuracy,
    confidence_interval,
    evaluate_subset,
    loo_knn_accuracy,
)
from subsetharmony.classifiers import knn_predict
from subsetharmony.dataset import take_rows
from subsetharmony.synth import blob_dataset


def _knn_config(**kw) -> ObjectiveConfig:
    return ObjectiveConfig(classifier="knn", **kw)


class TestAccuracy:
    def test_percent_formula(self):
        assert accuracy(307, 340) == pytest.approx(90.29411764705883)
        assert f"{accuracy(307, 340):.2f}" == "90.29"
        assert accuracy(0, 5) == 0.0
        assert accuracy(5, 5) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy(1, 0)
        with pytest.raises(ValueError):
            accuracy(-1, 10)
        with pytest.raises(ValueError):
            accuracy(11, 10)


class TestConfidenceInterval:
    def test_frozen_wilson_values(self):
        lo, hi = confidence_interval(1.0, 10)
        assert lo == pytest.approx(0.7224672001371109, abs=1e-12)
        assert hi == 1.0

    def test_degenerate_n1_zero(self):
        lo, hi = confidence_interval(0.0, 1)
        assert lo == 0.0
        assert hi < 1.0

    def test_large_n_narrow_and_symmetric(self):
        lo, hi = confidence_interval(0.5, 100_000)
        assert hi - lo < 0.01
        assert (0.5 - lo) == pytest.approx(hi - 0.5, abs=1e-12)

    def test_contains_p_hat(self):
        for p in (0.0, 0.1, 0.5, 0.93, 1.0):
            lo, hi = confidence_interval(p, 37)
            assert lo <= p <= hi

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(1.5, 10)
        with pytest.raises(ValueError):
            confidence_interval(0.5, 0)
        with pytest.raises(ValueError):
            confidence_interval(0.5, 10, level=1.0)


class TestEvaluationResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationResult(101.0, (100.0,), 1, 1)
        with pytest.raises(ValueError):
            EvaluationResult(50.0, (50.0,), 3, 2)


class TestEvaluateSubset:
    def test_separable_blobs_score_100(self, blobs):
        cfg = _knn_config(folds=3, fold_seed=7)
        r = evaluate_subset(blobs, FeatureSubset((0, 1, 2, 3)), cfg)
        assert r.accuracy_percent == 100.0
        assert r.per_fold_accuracy == (100.0, 100.0, 100.0)
        assert r.correct_count == r.total_count == blobs.n_samples

    def test_pooled_micro_average_consistency(self, tiny8):
        cfg = _knn_config(folds=3, fold_seed=5)
        r = evaluate_subset(tiny8, FeatureSubset((0, 5, 7)), cfg)
        assert r.total_count == tiny8.n_samples
        assert r.accuracy_percent == pytest.approx(
            100.0 * r.correct_count / r.total_count)
        # 16 samples per fold here, so per-fold scores recombine exactly
        pooled = sum(round(a * 16 / 100.0) for a in r.per_fold_accuracy)
        assert pooled == r.correct_count

    def test_fold_average_is_mean_of_folds(self, tiny8):
        cfg = _knn_config(folds=3, fold_seed=5, fold_average=True)
        r = evaluate_subset(tiny8, FeatureSubset((0, 5, 7)), cfg)
        assert r.accuracy_percent == pytest.approx(
            float(np.mean(r.per_fold_accuracy)))

    def test_repeated_evaluation_is_equal(self, tiny8):
        s = FeatureSubset((0, 5, 7))
        for cfg in (_knn_config(folds=3, fold_seed=5),
                    ObjectiveConfig(mlp=MlpConfig(epochs=3), folds=2)):
            assert evaluate_subset(tiny8, s, cfg) == evaluate_subset(tiny8, s, cfg)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_score_ignores_slot_order(self, tiny8, data):
        slots = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
        shuffled = data.draw(st.permutations(slots))
        for cfg in (_knn_config(folds=3, fold_seed=5, knn=KnnConfig(3)),
                    ObjectiveConfig(mlp=MlpConfig(epochs=3, seed=1), folds=2)):
            assert (evaluate_subset(tiny8, FeatureSubset(slots), cfg)
                    == evaluate_subset(tiny8, FeatureSubset(shuffled), cfg))

    def test_cache_returns_verbatim_result(self, tiny8):
        obj = SubsetObjective(tiny8, _knn_config(folds=3, fold_seed=5))
        first = obj.evaluate(FeatureSubset((1, 3, 6)))
        second = obj.evaluate(FeatureSubset((6, 1, 3)))
        assert second is first  # the cached object itself, not a re-score
        assert len(obj.cache) == 1

    def test_standardization_rescues_badly_scaled_feature(self):
        # signal lives on a tiny scale next to a huge-variance noise column;
        # raw distances are dominated by the noise, standardized ones are not
        rng = np.random.default_rng(2)
        n = 60
        labels = np.arange(n) % 2
        signal = labels * 0.001 + rng.normal(0.0, 0.0001, n)
        noise = rng.normal(0.0, 1000.0, n)
        d = Dataset(np.column_stack([signal, noise]), labels,
                    ("signal", "noise"), ("a", "b"))
        s = FeatureSubset((0, 1))
        std = evaluate_subset(d, s, _knn_config(folds=3, fold_seed=0))
        raw = evaluate_subset(
            d, s, _knn_config(folds=3, fold_seed=0, standardize=False))
        assert std.accuracy_percent > 90.0
        assert raw.accuracy_percent < 70.0

    def test_random_labels_stay_in_range(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.normal(size=(40, 5)),
                    rng.integers(0, 2, 40), tuple(f"f{i}" for i in range(5)),
                    ("a", "b"))
        r = evaluate_subset(d, FeatureSubset((0, 2)), _knn_config(folds=3))
        assert 0.0 <= r.accuracy_percent <= 100.0


class TestSubsetObjective:
    def test_call_counts_and_cache(self, tiny8):
        obj = SubsetObjective(tiny8, _knn_config(folds=3, fold_seed=5))
        s = FeatureSubset((0, 5, 7))
        a = obj(s)
        b = obj(FeatureSubset((7, 5, 0)))
        assert a == b
        assert obj.calls == 2
        assert obj.unique_evaluations == 1
        obj.reset_cache()
        assert obj.calls == 0
        assert obj.unique_evaluations == 0

    def test_mlp_objective_runs(self, blobs):
        from subsetharmony import MlpConfig
        cfg = ObjectiveConfig(
            classifier="mlp",
            mlp=MlpConfig(hidden_neurons=3, epochs=30, seed=1),
            folds=3, fold_seed=2)
        obj = SubsetObjective(blobs, cfg)
        assert obj(FeatureSubset((0, 1, 2, 3))) == 100.0

    def test_classifier_name_validated(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(classifier="svm")
        with pytest.raises(ValueError):
            ObjectiveConfig(folds=1)


@st.composite
def _decimal_grid_datasets(draw):
    """Few distinct multiples of 0.1, as a decimal CSV parses: many exact ties."""
    n = draw(st.integers(3, 12))
    n_features = draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 3))
    levels = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True))
    cells = draw(st.lists(st.sampled_from(levels), min_size=n * n_features,
                          max_size=n * n_features))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    features = np.array(cells, dtype=np.float64).reshape(n, n_features) / 10.0
    return Dataset(features, np.array(labels), tuple(f"f{i}" for i in range(n_features)),
                   tuple(f"c{i}" for i in range(n_classes)))


def _explicit_loo_correct(d: Dataset, k: int) -> int:
    """Leave each row out in turn and predict it with knn_predict."""
    correct = 0
    for i in range(d.n_samples):
        rest = np.delete(np.arange(d.n_samples), i)
        predicted = knn_predict(take_rows(d, rest), KnnConfig(k), take_rows(d, [i]))
        correct += int(predicted[0] == d.labels[i])
    return correct


class TestLeaveOneOut:
    @settings(max_examples=300, deadline=None)
    @given(d=_decimal_grid_datasets(), data=st.data())
    def test_matches_explicit_knn_predict_loop(self, d, data):
        # k up to n + 2 exercises the clamp to the n - 1 rows left in
        k = data.draw(st.integers(1, d.n_samples + 2))
        subset = FeatureSubset(tuple(range(d.n_features)))
        expected = accuracy(_explicit_loo_correct(d, k), d.n_samples)
        assert loo_knn_accuracy(d, subset, k) == expected

    def test_hand_example(self):
        # 0 and 2 are mutual nearest neighbors (same class); 10 sits alone,
        # its nearest neighbor 2 has the other label -> 2/3 correct
        d = Dataset(np.array([[0.0], [10.0], [2.0]]), np.array([0, 1, 0]),
                    ("f",), ("a", "b"))
        got = loo_knn_accuracy(d, FeatureSubset((0,)))
        assert got == pytest.approx(100.0 * 2 / 3)

    def test_perfect_on_separated_blobs(self, blobs):
        assert loo_knn_accuracy(blobs, FeatureSubset((0, 1, 2, 3))) == 100.0

    def test_objective_caches_and_counts(self, tiny8):
        obj = LeaveOneOutObjective(tiny8)
        a = obj(FeatureSubset((0, 5, 7)))
        b = obj(FeatureSubset((5, 7, 0)))
        assert a == b == pytest.approx(89.58333333333333)
        assert obj.calls == 2
        assert obj.unique_evaluations == 1
        obj.reset_cache()
        assert obj.unique_evaluations == 0

    def test_objective_result_counts_the_vote(self):
        d = Dataset(np.array([[0.0], [10.0], [2.0]]), np.array([0, 1, 0]),
                    ("f",), ("a", "b"))
        r = LeaveOneOutObjective(d).evaluate(FeatureSubset((0,)))
        assert (r.correct_count, r.total_count) == (2, 3)
        assert r.per_fold_accuracy == (r.accuracy_percent,)
        assert r.accuracy_percent == loo_knn_accuracy(d, FeatureSubset((0,)))

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, tiny8, k):
        # no neighbor votes at k=0, and a negative k would slice off the
        # farthest rows instead, so neither may return a number
        with pytest.raises(ValueError, match="k_neighbors must be >= 1"):
            loo_knn_accuracy(tiny8, FeatureSubset((0, 1)), k)
