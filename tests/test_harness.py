import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetharmony import harness
from subsetharmony import (
    ComparisonReport,
    ComparisonRow,
    FeatureSubset,
    FractionSweepReport,
    GaConfig,
    GridReport,
    Harmony,
    HsConfig,
    LeaveOneOutObjective,
    ObjectiveConfig,
    PcaConfig,
    PsoConfig,
    SubsetObjective,
    compare_optimizers,
    emit_report,
    fraction_to_size,
    ga_run,
    hs_run,
    pca_run,
    pso_run,
    read_comparison_csv,
    read_fractions_csv,
    read_grid_csv,
    render_report,
    sweep_fractions,
    sweep_grid,
)


def _reference_fraction_to_size(pct: float, n_features: int) -> int:
    """The former two-branch rule: integral percents in integer arithmetic."""
    if float(pct).is_integer():
        k = (n_features * int(pct)) // 100
    else:
        k = math.floor(n_features * pct / 100.0)
    return max(1, k)


class TestFractionToSize:
    def test_floor_rule_examples(self):
        assert fraction_to_size(75.0, 65) == 48
        assert fraction_to_size(15.0, 65) == 9
        assert fraction_to_size(100.0, 14) == 14
        assert fraction_to_size(1.0, 10) == 1  # floor would give 0

    def test_matches_floor_everywhere(self):
        for n in range(1, 201):
            for pct in (15.0, 30.0, 45.0, 60.0, 75.0, 90.0):
                assert fraction_to_size(pct, n) == max(1, math.floor(n * pct / 100.0))

    def test_integral_percents_match_two_branch_reference(self):
        # exhaustive, as the sizes a float rule could get wrong are rare
        for n in range(1, 2001):
            for pct in range(1, 101):
                expected = _reference_fraction_to_size(pct, n)
                assert fraction_to_size(pct, n) == fraction_to_size(float(pct), n) == expected

    @settings(max_examples=500, deadline=None)
    @given(n=st.one_of(st.integers(1, 20_000), st.integers(1, 10**9)),
           pct=st.one_of(st.integers(1, 100), st.integers(1, 100).map(float),
                         st.floats(0.0, 100.0, exclude_min=True)))
    def test_one_rule_matches_two_branch_reference(self, n, pct):
        assert fraction_to_size(pct, n) == _reference_fraction_to_size(pct, n)

    def test_non_integral_percent(self):
        assert fraction_to_size(12.5, 64) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            fraction_to_size(0.0, 10)
        with pytest.raises(ValueError):
            fraction_to_size(100.5, 10)


class TestReportTypes:
    def test_grid_report_validation(self):
        GridReport((10, 20), (5,), ((1.0,), (2.0,)))
        with pytest.raises(ValueError):
            GridReport((10, 20), (5,), ((1.0,),))  # row count mismatch
        with pytest.raises(ValueError):
            GridReport((10,), (5,), ((1.0, 2.0),))  # col count mismatch

    @pytest.mark.parametrize("cell", ["nan", "-1.00", "100.50"])
    def test_grid_cell_outside_percent_range_rejected(self, cell, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(f"iterations,5,15\n10,70.00,{cell}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="grid cells must be accuracy percents"):
            read_grid_csv(path)

    def test_comparison_row_validation(self):
        ComparisonRow("HS", 3, 90.0, 0.5)
        with pytest.raises(ValueError):
            ComparisonRow("HS", 0, 90.0, 0.5)
        with pytest.raises(ValueError):
            ComparisonRow("HS", 3, 101.0, 0.5)
        for seconds in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="execution time must be finite and >= 0"):
                ComparisonRow("HS", 3, 90.0, seconds)
        with pytest.raises(ValueError):
            ComparisonReport(rows=())

    def test_fraction_report_validation(self):
        with pytest.raises(ValueError):
            FractionSweepReport((50.0,), (1, 2), (90.0,))
        with pytest.raises(ValueError):
            FractionSweepReport((), (), ())
        with pytest.raises(ValueError, match="subset sizes must be >= 1"):
            FractionSweepReport((10.0, 50.0), (0, 2), (90.0, 91.0))
        FractionSweepReport((0.5, 100.0), (1, 2), (0.0, 100.0))
        for fraction in (0.0, -5.0, 100.5, math.nan):
            with pytest.raises(ValueError, match="fraction percents must be in"):
                FractionSweepReport((fraction, 50.0), (1, 2), (90.0, 91.0))
        for accuracy in (-0.5, 100.5, math.nan):
            with pytest.raises(ValueError, match="accuracies must be percents in"):
                FractionSweepReport((10.0, 50.0), (1, 2), (90.0, accuracy))

    @pytest.mark.parametrize("seconds", ["nan", "inf", "-0.50"])
    def test_comparison_csv_bad_execution_time_rejected(self, seconds, tmp_path):
        path = tmp_path / "cmp.csv"
        path.write_text("optimizer,subset_size,accuracy_percent,execution_seconds\n"
                        f"HS,2,50.00,{seconds}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="execution time must be finite and >= 0"):
            read_comparison_csv(path)

    @pytest.mark.parametrize("row, match", [("150,2,90.00", "fraction percents"),
                                            ("50,2,150.00", "accuracies")],
                             ids=["fraction", "accuracy"])
    def test_fraction_csv_outside_percent_range_rejected(self, row, match, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text(f"fraction_percent,subset_size,accuracy_percent\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            read_fractions_csv(path)

    @pytest.mark.parametrize("accuracies, best", [
        ((50.0, 70.0, 70.0), 1),   # a tie goes to the earlier fraction
        ((70.0, 50.0, 70.0), 0),
        ((50.0, 60.0, 70.0), 2),
        ((0.0, -0.0, 0.0), 0),     # equal floats tie whatever their sign
    ])
    def test_fraction_report_best_index(self, accuracies, best):
        report = FractionSweepReport((15.0, 30.0, 45.0), (1, 2, 3), accuracies)
        assert report.best_index == best


class TestSweepGrid:
    def test_constant_objective_ties_break_low(self, tiny8):
        flat = lambda s: 42.0
        base = HsConfig(n_features=8, subset_size=3, seed=0)
        # scrambled orders: tie must resolve to lowest VALUES, not indices
        report = sweep_grid((30, 5), (20, 10), base, flat)
        assert all(v == 42.0 for row in report.cells for v in row)
        assert report.iteration_values[report.best_row] == 10
        assert report.hms_values[report.best_col] == 5
        assert report.best_row == 1 and report.best_col == 1

    def test_deterministic_and_distinct_seeds(self, tiny8):
        obj = LeaveOneOutObjective(tiny8)
        base = HsConfig(n_features=8, subset_size=3, seed=0)
        r1 = sweep_grid((4, 8), (5, 10), base, obj)
        r2 = sweep_grid((4, 8), (5, 10), base, LeaveOneOutObjective(tiny8))
        assert r1.cells == r2.cells
        assert r1.best_accuracy == max(v for row in r1.cells for v in row)

    def test_cells_share_the_cache(self, tiny8):
        obj = SubsetObjective(tiny8, ObjectiveConfig(classifier="knn", folds=2))
        sweep_grid((3, 4), (5, 6), HsConfig(8, 2, seed=0), obj)
        # no cell clears the calls or the scores of an earlier one
        assert obj.calls == sum(hms + iterations for hms in (3, 4) for iterations in (5, 6))
        assert obj.unique_evaluations < obj.calls

    def test_empty_axis_rejected(self, tiny8):
        base = HsConfig(n_features=8, subset_size=3)
        with pytest.raises(ValueError):
            sweep_grid((), (10,), base, LeaveOneOutObjective(tiny8))


@pytest.mark.parametrize("sweep, match", [
    (lambda base: sweep_grid((4, 0), (5,), base, None), "hms must be >= 1, got 0"),
    (lambda base: sweep_grid((4,), (5, 0), base, None), "max_iterations must be >= 1"),
    (lambda base: sweep_fractions((25, 150), base, None), "must be in \\(0, 100\\], got 150"),
], ids=["grid hms", "grid iterations", "fractions"])
def test_sweeps_check_every_config_before_the_first_search(sweep, match, monkeypatch):
    runs = []

    def counting_run(cfg, objective):
        runs.append(cfg)
        return Harmony(FeatureSubset(tuple(range(cfg.subset_size))), 50.0), None

    monkeypatch.setattr(harness, "hs_run", counting_run)
    with pytest.raises(ValueError, match=match):
        sweep(HsConfig(n_features=8, subset_size=3))
    assert len(runs) == 0


class TestSweepFractions:
    def test_sizes_follow_floor_rule(self, tiny8):
        obj = LeaveOneOutObjective(tiny8)
        base = HsConfig(n_features=8, subset_size=1, hms=4, max_iterations=10,
                        seed=0)
        report = sweep_fractions((15.0, 30.0, 75.0, 100.0), base, obj)
        assert report.subset_sizes == (1, 2, 6, 8)
        assert report.fraction_percents == (15.0, 30.0, 75.0, 100.0)
        assert all(0.0 <= a <= 100.0 for a in report.accuracies)

    def test_deterministic(self, tiny8):
        base = HsConfig(n_features=8, subset_size=1, hms=4, max_iterations=10,
                        seed=3)
        a = sweep_fractions((30.0, 60.0), base, LeaveOneOutObjective(tiny8))
        b = sweep_fractions((30.0, 60.0), base, LeaveOneOutObjective(tiny8))
        assert a.accuracies == b.accuracies


class TestCompareOptimizers:
    def test_rows_in_config_order(self, tiny8):
        obj = SubsetObjective(tiny8, ObjectiveConfig(classifier="knn", folds=3,
                                                     fold_seed=2))
        configs = [
            HsConfig(n_features=8, subset_size=3, hms=5, max_iterations=15, seed=0),
            GaConfig(n_features=8, subset_size=3, population=5, generations=5,
                     seed=0),
            PsoConfig(n_features=8, subset_size=3, particles=5, iterations=5,
                      seed=0),
            PcaConfig(components=2),
        ]
        report = compare_optimizers(configs, obj)
        assert [r.optimizer for r in report.rows] == ["HS", "GA", "PSO", "PCA"]
        assert [r.subset_size for r in report.rows][:3] == [3, 3, 3]
        assert report.rows[3].subset_size == 2
        assert all(r.execution_seconds >= 0.0 for r in report.rows)
        assert all(0.0 <= r.accuracy_percent <= 100.0 for r in report.rows)

    def test_cache_reset_between_optimizers(self, tiny8):
        obj = SubsetObjective(tiny8, ObjectiveConfig(classifier="knn", folds=3,
                                                     fold_seed=2))
        obj(FeatureSubset((0, 1, 2)))  # prime the cache before comparing
        assert obj.unique_evaluations == 1
        configs = [
            GaConfig(n_features=8, subset_size=3, population=5, generations=3,
                     seed=1),
            HsConfig(n_features=8, subset_size=3, hms=5, max_iterations=10, seed=1),
        ]
        compare_optimizers(configs, obj)
        # cache holds only what the last optimizer evaluated
        assert obj.unique_evaluations <= 5 + 10
        assert obj.calls == 5 + 10

    def test_unknown_config_rejected(self, tiny8, monkeypatch):
        def spy(cfg, objective):
            raise AssertionError("HS ran before the unknown config was checked")

        monkeypatch.setattr(harness, "hs_run", spy)
        obj = SubsetObjective(tiny8, ObjectiveConfig(classifier="knn"))
        configs = [HsConfig(8, 3, hms=3, max_iterations=5), ObjectiveConfig()]
        with pytest.raises(TypeError, match="^unsupported optimizer config: ObjectiveConfig$"):
            harness.run_optimizers(configs, obj, reset_cache=True)

    def test_infeasible_components_rejected_before_the_first_run(self, tiny8, monkeypatch):
        def spy(cfg, objective):
            raise AssertionError("HS ran before the PCA config was checked")

        monkeypatch.setattr(harness, "hs_run", spy)
        obj = SubsetObjective(tiny8, ObjectiveConfig(classifier="knn", folds=2))
        configs = [HsConfig(n_features=8, subset_size=2, hms=3, max_iterations=3),
                   PcaConfig(components=9)]
        with pytest.raises(ValueError, match="^components=9 exceeds feasible maximum 8$"):
            compare_optimizers(configs, obj)

    def test_empty_configs_rejected(self, tiny8):
        obj = SubsetObjective(tiny8, ObjectiveConfig(classifier="knn"))
        with pytest.raises(ValueError):
            compare_optimizers([], obj)


_RUNNERS = {HsConfig: hs_run, GaConfig: ga_run, PsoConfig: pso_run, PcaConfig: pca_run}


def _small_configs():
    n, k, seed, few = st.just(8), st.integers(1, 8), st.integers(0, 3), st.integers(1, 3)
    return st.lists(st.one_of(
        st.builds(HsConfig, n, k, hms=st.integers(1, 4), max_iterations=st.integers(1, 6),
                  seed=seed),
        st.builds(GaConfig, n, k, population=st.integers(2, 4), generations=few, seed=seed),
        st.builds(PsoConfig, n, k, particles=st.integers(2, 4), iterations=few, seed=seed),
        st.builds(PcaConfig, st.one_of(st.none(), st.integers(1, 8))),
    ), min_size=1, max_size=4)


class TestRunOptimizers:
    @settings(max_examples=40, deadline=None)
    @given(configs=_small_configs(), reset_cache=st.booleans())
    def test_each_run_returns_what_it_returns_alone(self, tiny8, configs, reset_cache):
        objective_config = ObjectiveConfig(classifier="knn", folds=2, fold_seed=1)
        alone = [_RUNNERS[type(cfg)](cfg, SubsetObjective(tiny8, objective_config))
                 for cfg in configs]
        objective = SubsetObjective(tiny8, objective_config)
        ended = []

        def spying(run):
            def spy(cfg, objective):
                best, history = run(cfg, objective)
                ended.append((objective.calls, history.evaluations))
                return best, history
            return spy

        with pytest.MonkeyPatch.context() as mp:
            for name in ("hs_run", "ga_run", "pso_run"):
                mp.setattr(harness, name, spying(getattr(harness, name)))
            timed = harness.run_optimizers(configs, objective, reset_cache=reset_cache)
        assert [result for result, _ in timed] == alone
        assert all(seconds >= 0.0 for _, seconds in timed)
        if reset_cache:
            # each run's calls are a segment of their own
            assert all(calls == evaluations for calls, evaluations in ended)
        else:
            assert objective.calls == sum(evaluations for _, evaluations in ended)


FIXTURE_COMPARISON = ComparisonReport(rows=(
    ComparisonRow("GA", 45, 84.65, 1509.25),
    ComparisonRow("PSO", 40, 85.19, 1248.89),
    ComparisonRow("HS", 48, 90.294, 944.75),
))


class TestRendering:
    def test_comparison_csv_exact_rows(self):
        text = render_report(FIXTURE_COMPARISON, "csv")
        lines = text.splitlines()
        assert lines[0] == "optimizer,subset_size,accuracy_percent,execution_seconds"
        assert lines[1] == "GA,45,84.65,1509.25"
        assert lines[2] == "PSO,40,85.19,1248.89"
        assert lines[3] == "HS,48,90.29,944.75"  # 90.294 rounds to 2 decimals
        assert text.endswith("\n") and "\r" not in text

    def test_comparison_markdown(self):
        text = render_report(FIXTURE_COMPARISON, "markdown")
        assert "| optimizer | subset_size | accuracy_percent | execution_seconds |" in text
        assert "| HS | 48 | 90.29 | 944.75 |" in text

    def test_grid_csv_shape(self):
        report = GridReport((10, 20), (5, 15), ((70.0, 71.5), (72.25, 71.0)))
        text = render_report(report, "csv")
        assert text == "iterations,5,15\n10,70.00,71.50\n20,72.25,71.00\n"

    def test_grid_markdown_bolds_best(self):
        report = GridReport((10, 20), (5, 15), ((70.0, 71.5), (72.25, 71.0)))
        text = render_report(report, "markdown")
        assert "**72.25**" in text
        assert text.count("**") == 2

    def test_fractions_csv(self):
        report = FractionSweepReport((15.0, 62.5), (9, 40), (80.0, 91.239))
        text = render_report(report, "csv")
        assert text == ("fraction_percent,subset_size,accuracy_percent\n"
                        "15,9,80.00\n62.5,40,91.24\n")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(FIXTURE_COMPARISON, "html")


class TestEmitAndParse:
    def test_emit_is_byte_identical_on_rerun(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(FIXTURE_COMPARISON, "csv", p1)
        emit_report(FIXTURE_COMPARISON, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_comparison_round_trip(self, tmp_path):
        path = tmp_path / "cmp.csv"
        emit_report(FIXTURE_COMPARISON, "csv", path)
        back = read_comparison_csv(path)
        assert [r.optimizer for r in back.rows] == ["GA", "PSO", "HS"]
        assert [r.subset_size for r in back.rows] == [45, 40, 48]
        for got, want in zip(back.rows, FIXTURE_COMPARISON.rows):
            assert got.accuracy_percent == pytest.approx(
                want.accuracy_percent, abs=0.005)
            assert got.execution_seconds == pytest.approx(
                want.execution_seconds, abs=0.005)

    def test_grid_round_trip(self, tmp_path):
        report = GridReport((10, 20), (5, 15), ((70.0, 71.5), (72.25, 71.0)))
        path = tmp_path / "grid.csv"
        emit_report(report, "csv", path)
        back = read_grid_csv(path)
        assert back.iteration_values == (10, 20)
        assert back.hms_values == (5, 15)
        assert back.cells == ((70.0, 71.5), (72.25, 71.0))
        assert (back.best_row, back.best_col) == (1, 0)

    def test_fractions_round_trip(self, tmp_path):
        report = FractionSweepReport((15.0, 62.5), (9, 40), (80.0, 91.239))
        path = tmp_path / "frac.csv"
        emit_report(report, "csv", path)
        back = read_fractions_csv(path)
        assert back.fraction_percents == (15.0, 62.5)
        assert back.subset_sizes == (9, 40)
        assert back.accuracies[1] == pytest.approx(91.24)

    def test_parsers_reject_wrong_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)
        with pytest.raises(ValueError):
            read_comparison_csv(path)
        with pytest.raises(ValueError):
            read_fractions_csv(path)
        # a row with fewer cells than the header
        short_rows = (
            (read_grid_csv, "iterations,4,6\n5,70.00,71.00\n10,72.00\n"),
            (read_comparison_csv,
             "optimizer,subset_size,accuracy_percent,execution_seconds\nHS,3,90.00\n"),
            (read_fractions_csv, "fraction_percent,subset_size,accuracy_percent\n25,2\n"),
        )
        for reader, text in short_rows:
            path.write_text(text)
            with pytest.raises(ValueError, match="x.csv"):
                reader(path)
