import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsetharmony as sh
from subsetharmony import Dataset, DatasetError, FeatureSubset


def _simple_csv(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDatasetType:
    def test_valid_construction(self):
        d = Dataset(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([0, 1]),
            ("a", "b"),
            ("x", "y"),
        )
        assert d.n_samples == 2 and d.n_features == 2 and d.n_classes == 2
        assert np.bincount(d.labels, minlength=d.n_classes).tolist() == [1, 1]

    def test_arrays_are_read_only(self):
        d = Dataset(np.ones((2, 2)), np.array([0, 1]), ("a", "b"), ("x", "y"))
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            d.labels[0] = 1

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((2, 1)), np.array([0, 2]), ("a",), ("x", "y"))
        with pytest.raises(DatasetError):
            Dataset(np.ones((2, 1)), np.array([-1, 0]), ("a",), ("x", "y"))

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, np.nan], [0.0, np.inf]],
                             ids=["fractional", "nan", "inf"])
    def test_non_integral_labels_rejected(self, labels):
        with pytest.raises(DatasetError, match="labels must be finite integral class ids"):
            Dataset(np.zeros((2, 1)), np.array(labels), ("a",), ("x", "y"))

    def test_integral_float_labels_load_as_ints(self):
        d = Dataset(np.zeros((2, 1)), np.array([1.0, 0.0]), ("a",), ("x", "y"))
        assert d.labels.dtype == np.int64
        assert d.labels.tolist() == [1, 0]

    def test_declared_empty_class_allowed(self):
        # take_rows can legitimately produce single-class row subsets
        d = Dataset(np.ones((2, 1)), np.array([0, 0]), ("a",), ("x", "y"))
        assert d.n_classes == 2
        assert np.bincount(d.labels, minlength=d.n_classes).tolist() == [2, 0]

    def test_nan_features_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.array([[np.nan]]), np.array([0]), ("a",), ("x",))

    def test_shape_mismatches_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.ones((2, 2)), np.array([0]), ("a", "b"), ("x",))
        with pytest.raises(DatasetError):
            Dataset(np.ones((2, 2)), np.array([0, 0]), ("a",), ("x",))
        with pytest.raises(DatasetError, match=r"features must be 2-D, got shape \(2,\)"):
            Dataset(np.ones(2), np.array([0, 0]), ("a",), ("x",))
        with pytest.raises(DatasetError, match=r">=1 samples and features, got \(0, 1\)"):
            Dataset(np.ones((0, 1)), np.array([], dtype=int), ("a",), ("x",))


class TestLoadCsv:
    def test_round_trip_is_exact(self, tiny8, tmp_path):
        p = tmp_path / "again.csv"
        sh.write_csv(tiny8, p, label_column="label")
        d2 = sh.load_csv(p, "label")
        assert np.array_equal(d2.features, tiny8.features)
        assert np.array_equal(d2.labels, tiny8.labels)
        assert d2.feature_names == tiny8.feature_names
        assert d2.class_names == tiny8.class_names

    def test_class_ids_by_first_appearance(self, tmp_path):
        p = _simple_csv(tmp_path, "f,cls\n1.0,b\n2.0,a\n3.0,b\n4.0,a\n")
        d = sh.load_csv(p, "cls")
        assert d.class_names == ("b", "a")
        assert list(d.labels) == [0, 1, 0, 1]

    def test_label_column_anywhere(self, tmp_path):
        p = _simple_csv(tmp_path, "cls,f0,f1\na,1,2\nb,3,4\n")
        d = sh.load_csv(p, "cls")
        assert d.feature_names == ("f0", "f1")
        assert d.features[0, 0] == 1.0

    def test_utf8_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        first = _simple_csv(tmp_path, "\ufefflabel,a,b\nx,1.5,2\ny,3,4\n", "first.csv")
        d = sh.load_csv(first, "label")
        assert d.feature_names == ("a", "b") and d.class_names == ("x", "y")
        last = _simple_csv(tmp_path, "\ufeffa,b,label\n1.5,2,x\n3,4,y\n", "last.csv")
        assert sh.load_csv(last, "label").feature_names == ("a", "b")
        again = sh.load_csv(sh.write_csv(d, tmp_path / "again.csv"), "label")
        assert np.array_equal(again.features, d.features)
        assert (again.feature_names, again.class_names) == (d.feature_names, d.class_names)

    @pytest.mark.parametrize("text", [
        "a,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n\n",
        "a,b,label\n1,2,x\n3,4,y\n \t\n5,6,x\n\n7,8,y\n",
    ], ids=["trailing", "between rows"])
    def test_blank_lines_skipped(self, tmp_path, text):
        d = sh.load_csv(_simple_csv(tmp_path, text), "label")
        assert d.n_samples == 4
        assert d.features[:, 0].tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_row_numbers_count_blank_lines(self, tmp_path):
        p = _simple_csv(tmp_path, "f,g,cls\n1,2,a\n\n1,a\n")
        with pytest.raises(DatasetError, match="row 4"):
            sh.load_csv(p, "cls")

    def test_padded_header_and_label_cells_stripped(self, tmp_path):
        p = _simple_csv(tmp_path, "a, b , label\n1,2, x\n3,4,x \n5,6,y\n")
        d = sh.load_csv(p, "label")
        assert d.feature_names == ("a", "b")
        assert d.class_names == ("x", "y") and list(d.labels) == [0, 0, 1]
        again = sh.load_csv(sh.write_csv(d, tmp_path / "again.csv"), "label")
        assert np.array_equal(again.features, d.features)
        assert np.array_equal(again.labels, d.labels)
        assert (again.feature_names, again.class_names) == (d.feature_names, d.class_names)

    def test_quoted_fields_rejected(self, tmp_path):
        p = _simple_csv(tmp_path, 'f,cls\n"1.0",a\n')
        with pytest.raises(DatasetError, match="quoted"):
            sh.load_csv(p, "cls")
        p = _simple_csv(tmp_path, 'f,"cls"\n1.0,a\n')
        with pytest.raises(DatasetError, match="quoted fields are not supported"):
            sh.load_csv(p, "cls")

    def test_ragged_row_names_row_number(self, tmp_path):
        p = _simple_csv(tmp_path, "f,g,cls\n1,2,a\n1,a\n")
        with pytest.raises(DatasetError, match="row 3"):
            sh.load_csv(p, "cls")

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = _simple_csv(tmp_path, "f,g,cls\n1,abc,a\n")
        with pytest.raises(DatasetError, match=r"row 2.*'g'"):
            sh.load_csv(p, "cls")

    def test_non_finite_rejected(self, tmp_path):
        p = _simple_csv(tmp_path, "f,cls\ninf,a\n")
        with pytest.raises(DatasetError, match="non-finite"):
            sh.load_csv(p, "cls")

    def test_missing_label_column(self, tmp_path):
        p = _simple_csv(tmp_path, "f,g\n1,2\n")
        with pytest.raises(DatasetError, match="label column"):
            sh.load_csv(p, "g2")

    def test_repeated_label_column(self, tmp_path):
        # load_csv would read the second 'label' as a feature, which write_csv
        # then refuses to write back
        p = _simple_csv(tmp_path, "label,x,label\na,1,b\n")
        with pytest.raises(DatasetError, match="label column 'label' appears more than once"):
            sh.load_csv(p, "label")

    def test_no_feature_columns(self, tmp_path):
        p = _simple_csv(tmp_path, "cls\na\n")
        with pytest.raises(DatasetError, match="no feature columns"):
            sh.load_csv(p, "cls")

    def test_no_data_rows(self, tmp_path):
        p = _simple_csv(tmp_path, "f,cls\n")
        with pytest.raises(DatasetError, match="no data rows"):
            sh.load_csv(p, "cls")
        p = _simple_csv(tmp_path, "")
        with pytest.raises(DatasetError, match="d.csv: empty file$"):
            sh.load_csv(p, "cls")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            sh.load_csv(tmp_path / "absent.csv", "cls")

    def test_write_rejects_name_clash(self, tiny8, tmp_path):
        with pytest.raises(DatasetError, match="clashes"):
            sh.write_csv(tiny8, tmp_path / "x.csv", label_column="f0")

    @pytest.mark.parametrize("features, label, classes, bad", [
        (("a", "b,c"), "label", ("x", "y"), "'b,c'"),
        (("a", " b"), "label", ("x", "y"), "' b'"),
        (("a", 'b"'), "label", ("x", "y"), "'b\"'"),
        (("a", "b\nc"), "label", ("x", "y"), "'b\\nc'"),
        (("a", "b"), "label", ("x ", "y"), "'x '"),
        (("a", "b"), "label", ("x", "y\r"), "'y\\r'"),
        (("a", "b"), "lab,el", ("x", "y"), "'lab,el'"),
        (("a", "b"), " label", ("x", "y"), "' label'"),
    ], ids=["comma", "leading space", "quote", "line feed", "trailing space",
            "carriage return", "label comma", "label space"])
    def test_write_rejects_names_that_do_not_read_back(self, tmp_path, features, label,
                                                        classes, bad):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), features, classes)
        path = tmp_path / "d.csv"
        with pytest.raises(DatasetError, match="would not read back") as err:
            sh.write_csv(d, path, label_column=label)
        assert bad in str(err.value)
        assert not path.exists()

    def test_write_keeps_inner_spaces(self, tmp_path):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), ("a b", "c"),
                    ("x y", "z"))
        again = sh.load_csv(sh.write_csv(d, tmp_path / "d.csv", "the label"), "the label")
        assert (again.feature_names, again.class_names) == (d.feature_names, d.class_names)


class TestStratifiedKfold:
    def test_fold_sizes_and_stratification(self, tiny8):
        folds = sh.stratified_kfold(tiny8, 3, seed=4)
        assert len(folds) == 3
        for _, test_rows in folds:
            assert len(test_rows) == 16
            labels = tiny8.labels[test_rows]
            assert (labels == 0).sum() == 8 and (labels == 1).sum() == 8

    def test_folds_partition_samples(self, tiny8):
        folds = sh.stratified_kfold(tiny8, 4, seed=0)
        seen = np.concatenate([test_rows for _, test_rows in folds])
        assert sorted(seen) == list(range(tiny8.n_samples))
        for train_rows, test_rows in folds:
            for rows in (train_rows, test_rows):
                assert rows.dtype == np.int64
                assert (np.diff(rows) > 0).all()
            train = set(train_rows.tolist())
            test = set(test_rows.tolist())
            assert not train & test
            assert len(train | test) == tiny8.n_samples

    def test_deterministic_by_seed(self, tiny8):
        a = sh.stratified_kfold(tiny8, 3, seed=7)
        b = sh.stratified_kfold(tiny8, 3, seed=7)
        assert all(np.array_equal(x, y) for pa, pb in zip(a, b) for x, y in zip(pa, pb))

    def test_seed_changes_assignment(self, tiny8):
        a = sh.stratified_kfold(tiny8, 3, seed=7)
        b = sh.stratified_kfold(tiny8, 3, seed=8)
        assert not all(np.array_equal(ta, tb) for (_, ta), (_, tb) in zip(a, b))

    def test_small_class_rejected(self):
        d = Dataset(
            np.arange(8, dtype=np.float64).reshape(8, 1),
            np.array([0, 0, 0, 0, 0, 0, 1, 1]),
            ("f",),
            ("x", "y"),
        )
        with pytest.raises(DatasetError, match="fewer"):
            sh.stratified_kfold(d, 3, seed=0)

    def test_k_below_two_rejected(self, tiny8):
        with pytest.raises(DatasetError):
            sh.stratified_kfold(tiny8, 1, seed=0)


class TestProject:
    def test_columns_in_given_order(self, tiny8):
        sub = sh.project(tiny8, FeatureSubset((5, 0)))
        assert sub.feature_names == ("f5", "f0")
        assert np.array_equal(sub.features[:, 0], tiny8.features[:, 5])
        assert np.array_equal(sub.features[:, 1], tiny8.features[:, 0])
        assert np.array_equal(sub.labels, tiny8.labels)

    def test_out_of_range_rejected(self, tiny8):
        with pytest.raises(DatasetError, match="out of range"):
            sh.project(tiny8, FeatureSubset((0, 99)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_checked_construction(self, data):
        # project skips Dataset's checks; the result must be what they would build
        n, n_features = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        d = Dataset(rng.normal(size=(n, n_features)), rng.integers(0, 3, size=n),
                    tuple(f"f{i}" for i in range(n_features)), ("a", "b", "c"))
        cols = data.draw(st.lists(st.integers(0, n_features - 1), min_size=1, unique=True))
        got = sh.project(d, FeatureSubset(tuple(cols)))
        want = Dataset(d.features[:, cols], d.labels, tuple(d.feature_names[i] for i in cols),
                       d.class_names)
        for a, b in ((got.features, want.features), (got.labels, want.labels)):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape and a.dtype == b.dtype
            assert not a.flags.writeable and a.flags.c_contiguous
        assert got.feature_names == want.feature_names
        assert got.class_names == want.class_names
        with pytest.raises(DatasetError, match="out of range"):
            sh.project(d, FeatureSubset((*cols[:-1], n_features + data.draw(st.integers(0, 5)))))


class TestStandardize:
    def test_unit_interval_example(self):
        train = Dataset(np.array([[1.0], [3.0]]), np.array([0, 1]), ("f",), ("x", "y"))
        test = Dataset(np.array([[2.0], [5.0]]), np.array([0, 1]), ("f",), ("x", "y"))
        tr, te = sh.standardize(train, test)
        # mean 2, population sd 1
        assert np.allclose(tr.features[:, 0], [-1.0, 1.0])
        assert np.allclose(te.features[:, 0], [0.0, 3.0])

    def test_zero_variance_column_maps_to_zero(self):
        train = Dataset(
            np.array([[7.0, 1.0], [7.0, 3.0]]), np.array([0, 1]), ("a", "b"), ("x", "y")
        )
        test = Dataset(
            np.array([[9.0, 5.0]]), np.array([0]), ("a", "b"), ("x", "y")
        )
        tr, te = sh.standardize(train, test)
        assert np.all(tr.features[:, 0] == 0.0)
        assert np.all(te.features[:, 0] == 0.0)
        assert not np.all(te.features[:, 1] == 0.0)

    def test_test_uses_train_statistics(self):
        train = Dataset(np.array([[0.0], [10.0]]), np.array([0, 1]), ("f",), ("x", "y"))
        test = Dataset(np.array([[20.0]]), np.array([0]), ("f",), ("x", "y"))
        _, te = sh.standardize(train, test)
        # train mean 5, sd 5 -> (20-5)/5
        assert te.features[0, 0] == pytest.approx(3.0)

    def test_feature_count_mismatch_rejected(self):
        train = Dataset(np.ones((2, 2)), np.array([0, 1]), ("a", "b"), ("x", "y"))
        test = Dataset(np.ones((1, 1)), np.array([0]), ("a",), ("x",))
        with pytest.raises(DatasetError):
            sh.standardize(train, test)

    def test_overflowing_columns_named(self):
        # finite values whose mean overflows (a), and a tiny train spread that
        # turns an ordinary test value into an infinite z-score (c)
        def part(rows):
            return Dataset(np.array(rows), np.zeros(len(rows), dtype=int), ("a", "b", "c"),
                           ("x",))

        train = part([[1e308, 1.0, 0.0], [1.7e308, 2.0, 1e-150]])
        test = part([[1e308, 3.0, 1e160]])
        with pytest.raises(DatasetError, match=r"column\(s\) 'a', 'c' too large"):
            sh.standardize(train, test)


def test_take_rows_selects_and_keeps_ids(tiny8):
    part = sh.take_rows(tiny8, np.array([3, 0]))
    assert part.n_samples == 2
    assert np.array_equal(part.features[0], tiny8.features[3])
    assert np.array_equal(part.features[1], tiny8.features[0])
    assert part.class_names == tiny8.class_names
