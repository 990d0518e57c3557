import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetharmony import (
    Dataset,
    EvaluationResult,
    FeatureSubset,
    GaConfig,
    HsConfig,
    KnnConfig,
    LeaveOneOutObjective,
    MlpConfig,
    ObjectiveConfig,
    PsoConfig,
    SubsetObjective,
    TrainingDivergedError,
    accuracy,
    classifiers,
    confidence_interval,
    evaluate_subset,
    ga_run,
    hs_run,
    pso_run,
    wrapper,
)
from subsetharmony.classifiers import knn_predict
from subsetharmony.dataset import project, standardize, stratified_kfold, take_rows
from subsetharmony.synth import blob_dataset, planted_dataset


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
        cfg = _knn_config(folds=3, fold_seed=0)
        std = evaluate_subset(d, FeatureSubset((0, 1)), cfg)
        # the same folds and vote on the unstandardized columns
        raw_correct = sum(
            int((knn_predict(take_rows(d, train_rows), cfg.knn, take_rows(d, test_rows))
                 == d.labels[test_rows]).sum())
            for train_rows, test_rows in stratified_kfold(d, cfg.folds, cfg.fold_seed))
        assert std.accuracy_percent > 90.0
        assert accuracy(raw_correct, n) < 70.0

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

    def test_diverged_miss_names_its_subset(self):
        obj = SubsetObjective(_divergent(), _divergent_config())
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            obj(FeatureSubset((2, 0)))
        # the sorted key, then the trainer's own message, which stays chained
        assert str(err.value) == "subset (0, 2): training loss became non-finite at epoch 22"
        assert isinstance(err.value.__cause__, TrainingDivergedError)
        assert str(err.value.__cause__) == "training loss became non-finite at epoch 22"
        assert (obj.calls, obj.cache, obj.pending) == (1, {}, {})

    def test_classifier_name_validated(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(classifier="svm")
        with pytest.raises(ValueError):
            ObjectiveConfig(folds=1)


def _mlp_config(**kw) -> ObjectiveConfig:
    return ObjectiveConfig(mlp=MlpConfig(epochs=2, seed=3, **kw), folds=3, fold_seed=1)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's first argument."""
    seen = []
    real = getattr(module, name)

    def spy(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def _divergent():
    """Data on which, at _divergent_config, every one-feature subset trains
    and (0, 2) diverges at epoch 22."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3))
    x[:, 2] = np.arange(30) % 2 + 0.01 * rng.normal(size=30)
    return Dataset(x, np.arange(30) % 2, ("a", "b", "c"), ("x", "y"))


def _divergent_config() -> ObjectiveConfig:
    return ObjectiveConfig(mlp=MlpConfig(hidden_neurons=4, learning_rate=5.0, momentum=0.9,
                                         epochs=50, seed=0), folds=3)


class TestPrefetch:
    SUBSETS = [(0, 1), (3,), (2, 0), (1, 2, 3), (0,), (3, 1, 2), (1, 3)]

    def test_batch_equals_one_at_a_time(self, monkeypatch):
        d = blob_dataset(n_per_class=10, n_features=4, n_classes=3, seed=1)
        cfg = _mlp_config()
        alone = [evaluate_subset(d, FeatureSubset(s), cfg) for s in self.SUBSETS]
        batches = _counting(monkeypatch, classifiers, "_train_pass")
        obj = SubsetObjective(d, cfg)
        obj.prefetch([FeatureSubset(s) for s in self.SUBSETS])
        # one lockstep pass per feature count, three folds per member;
        # (1, 2, 3) and (3, 1, 2) are one member
        assert sorted(len(trains) for trains in batches) == [3, 6, 9]
        assert [obj.evaluate(FeatureSubset(s)) for s in self.SUBSETS] == alone
        # a byte cap of two two-feature members (six networks) splits that
        # group into 6 + 3 (six one-feature networks still fit under it)
        batches.clear()
        f, h, c = 2, 3, 3
        monkeypatch.setattr(classifiers, "_BATCH_BYTES",
                            2 * 3 * 24 * ((f + 1) * h + (h + 1) * c))
        obj = SubsetObjective(d, cfg)
        obj.prefetch([FeatureSubset(s) for s in self.SUBSETS])
        assert sorted(len(trains) for trains in batches) == [3, 3, 6, 6]
        assert [obj.evaluate(FeatureSubset(s)) for s in self.SUBSETS] == alone

    def test_pending_score_counts_only_when_asked(self, blobs, monkeypatch):
        obj = SubsetObjective(blobs, _mlp_config())
        asked, dropped = FeatureSubset((0, 1)), FeatureSubset((2, 3))
        obj.prefetch([asked, dropped, FeatureSubset((1, 0))])
        assert (obj.calls, obj.unique_evaluations, len(obj.pending)) == (0, 0, 2)
        result = obj.evaluate(FeatureSubset((1, 0)))
        assert result == evaluate_subset(blobs, asked, obj.config)
        assert (obj.calls, obj.unique_evaluations) == (1, 1)
        assert list(obj.pending) == [dropped.key]
        # cached and pending subsets are not scored again
        batches = _counting(monkeypatch, wrapper, "mlp_train_many")
        obj.prefetch([asked, dropped])
        assert batches == []
        obj.reset_cache()
        assert obj.pending == {} and obj.cache == {} and obj.calls == 0

    def test_knn_and_leave_one_out_prefetch_nothing(self, tiny8, monkeypatch):
        trained = _counting(monkeypatch, wrapper, "cross_validate")
        voted = _counting(monkeypatch, wrapper, "_knn_vote")
        subsets = [FeatureSubset((0, 1)), FeatureSubset((2, 5))]
        for obj in (SubsetObjective(tiny8, _knn_config()), LeaveOneOutObjective(tiny8)):
            obj.prefetch(subsets)
            assert obj.pending == {}
        assert trained == [] and voted == []

    def test_diverging_member_never_asked_for_changes_nothing(self):
        hs = HsConfig(n_features=3, subset_size=1, hms=3, max_iterations=6, seed=2)
        self._check_injected_divergence(hs_run, hs)

    def test_diverging_member_in_every_swarm_batch_changes_nothing(self):
        pso = PsoConfig(n_features=3, subset_size=1, particles=3, iterations=4, seed=2)
        self._check_injected_divergence(pso_run, pso)

    def test_diverging_member_in_every_generation_changes_nothing(self):
        ga = GaConfig(3, 1, population=3, generations=4, seed=2)
        self._check_injected_divergence(ga_run, ga)

    @staticmethod
    def _check_injected_divergence(run, search):
        d, cfg = _divergent(), _divergent_config()
        bad = FeatureSubset((0, 2))

        class Injecting(SubsetObjective):
            # every batch the search hands over also carries the diverging subset
            batched = 0

            def prefetch(self, subsets):
                self.batched += 1
                super().prefetch(list(subsets) + [bad])
                assert self.pending == {}

        plain, injected = SubsetObjective(d, cfg), Injecting(d, cfg)
        assert run(search, injected) == run(search, plain)
        assert injected.batched > 1
        assert injected.cache == plain.cache
        assert (injected.calls, injected.unique_evaluations) == (plain.calls,
                                                                 plain.unique_evaluations)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as alone:
                evaluate_subset(d, bad, cfg)
            with pytest.raises(TrainingDivergedError) as asked:
                injected.evaluate(bad)
        assert str(alone.value) == "training loss became non-finite at epoch 22"
        assert str(asked.value) == "subset (0, 2): " + str(alone.value)


class TestFoldPlan:
    def test_z_scores_match_slice_then_standardize(self):
        # full-width standardization is the reference; standardizing the
        # subset's columns alone sums a one-column slice in another order
        for seed in range(3):
            d, _ = planted_dataset(150, 20, 3, seed=seed)
            cfg = _knn_config(folds=3, fold_seed=seed)
            rng = np.random.default_rng(seed)
            subsets = [(j,) for j in range(d.n_features)] + [
                tuple(rng.choice(d.n_features, size=int(rng.integers(2, 8)), replace=False))
                for _ in range(10)]
            folds = wrapper.stratified_kfold(d, cfg.folds, cfg.fold_seed)
            for (train_rows, test_rows), plan_pair in zip(folds, wrapper.fold_plan(d, cfg)):
                for cols in subsets:
                    s = FeatureSubset(cols)
                    sliced = standardize(project(take_rows(d, train_rows), s),
                                         project(take_rows(d, test_rows), s))
                    for old, part in zip(sliced, plan_pair):
                        z = project(part, s).features
                        assert np.all(np.abs(z - old.features)
                                      <= 1e-15 * np.maximum(1.0, np.abs(z)))

    def test_built_once_per_dataset_and_fold_setting(self, monkeypatch):
        calls = []
        real = wrapper.stratified_kfold
        monkeypatch.setattr(wrapper, "stratified_kfold",
                            lambda *args: calls.append(args[1:]) or real(*args))
        d = blob_dataset(n_per_class=10, n_features=5, n_classes=2, seed=1)
        cfg = _knn_config(folds=3, fold_seed=4)
        obj = SubsetObjective(d, cfg)
        assert calls == []  # built on the first miss, not before
        first = obj(FeatureSubset((0, 2)))
        obj(FeatureSubset((1, 3, 4)))
        obj.reset_cache()
        assert obj(FeatureSubset((2, 0))) == first
        assert evaluate_subset(d, FeatureSubset((0, 2)), cfg).accuracy_percent == first
        assert calls == [(3, 4)]
        evaluate_subset(d, FeatureSubset((0, 2)), _knn_config(folds=3, fold_seed=5))
        assert calls == [(3, 4), (3, 5)]

    def test_leave_one_out_builds_no_plan(self):
        d = blob_dataset(n_per_class=5, n_features=3, n_classes=2, seed=2)
        LeaveOneOutObjective(d)(FeatureSubset((0, 1)))
        assert d not in wrapper._PLANS

    def test_plan_dies_with_its_dataset(self):
        d = blob_dataset(n_per_class=5, n_features=3, n_classes=2, seed=2)
        train, _ = wrapper.fold_plan(d, _knn_config())[0]
        alive = [weakref.ref(d), weakref.ref(train)]
        del d, train
        gc.collect()
        assert [ref() for ref in alive] == [None, None]


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
        assert LeaveOneOutObjective(d, k)(subset) == expected

    def test_hand_example(self):
        # 0 and 2 are mutual nearest neighbors (same class); 10 sits alone,
        # its nearest neighbor 2 has the other label -> 2/3 correct
        d = Dataset(np.array([[0.0], [10.0], [2.0]]), np.array([0, 1, 0]),
                    ("f",), ("a", "b"))
        got = LeaveOneOutObjective(d)(FeatureSubset((0,)))
        assert got == pytest.approx(100.0 * 2 / 3)

    def test_perfect_on_separated_blobs(self, blobs):
        assert LeaveOneOutObjective(blobs)(FeatureSubset((0, 1, 2, 3))) == 100.0

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
        assert r.accuracy_percent == accuracy(2, 3)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, tiny8, k):
        # no neighbor votes at k=0, and a negative k would slice off the
        # farthest rows instead, so neither may return a number
        with pytest.raises(ValueError, match="k_neighbors must be >= 1"):
            LeaveOneOutObjective(tiny8, k)(FeatureSubset((0, 1)))
