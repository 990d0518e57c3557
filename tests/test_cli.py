import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from subsetharmony import cli, harness
from subsetharmony.harness import read_comparison_csv, read_fractions_csv, read_grid_csv


FAST = ["--classifier", "knn", "--folds", "2", "--seed", "0"]


def _module_run(argv):
    """`python -m subsetharmony argv` in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "subsetharmony", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def _run(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseArgs:
    def test_select_example_defaults(self, tiny8_path):
        spec = cli.parse_args([
            "select", "--data", str(tiny8_path), "--label", "label",
            "--optimizer", "hs", "--k", "48",
        ])
        assert spec.command == "select"
        assert spec.k == 48
        assert spec.optimizer == "hs"
        assert (spec.hms, spec.hmcr, spec.par, spec.bandwidth) == (20, 0.7, 0.3, 1.0)
        assert spec.iterations == 100
        assert spec.objective.classifier == "mlp"
        assert spec.objective.folds == 3
        assert spec.objective.standardize is True

    def test_seed_fans_out_to_components(self, tiny8_path):
        a = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3"])
        b = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                            "--seed", "1"])
        assert a.objective.fold_seed != b.objective.fold_seed
        assert a.objective.mlp.seed != a.objective.fold_seed

    def test_pso_iterations_flag_is_separate(self, tiny8_path):
        spec = cli.parse_args([
            "compare", "--data", str(tiny8_path), "--k", "3",
            "--iterations", "7", "--pso-iterations", "9",
        ])
        assert spec.iterations == 7
        assert spec.pso_iterations == 9

    def test_report_output_defaults_track_format(self, tiny8_path):
        spec = cli.parse_args(["grid", "--data", str(tiny8_path), "--k", "3"])
        assert spec.output == "grid_report.csv"
        spec = cli.parse_args(["grid", "--data", str(tiny8_path), "--k", "3",
                               "--format", "markdown"])
        assert spec.output == "grid_report.md"


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 1
        assert "command" in err

    def test_unknown_command(self, capsys):
        code, _, err = _run(capsys, ["optimize"])
        assert code == 1

    def test_missing_required_flag(self, capsys, tiny8_path):
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path)])
        assert code == 1
        assert "--k" in err or "required" in err

    def test_unknown_flag(self, capsys, tiny8_path):
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--vibes", "high"])
        assert code == 1

    def test_out_of_range_hmcr(self, capsys, tiny8_path):
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--hmcr", "1.5"])
        assert code == 1
        assert "hmcr" in err

    def test_missing_data_file(self, capsys):
        code, _, err = _run(capsys, ["select", "--data", "/nope.csv", "--k", "3"])
        assert code == 1
        assert "not found" in err

    def test_k_exceeding_features_is_usage_error(self, capsys, tiny8_path):
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "99", *FAST])
        assert code == 1

    def test_help_exits_zero_and_shows_defaults(self, capsys):
        code = cli.run(["select", "--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.7" in out   # hmcr default
        assert "0.3" in out   # par default
        assert "--iterations" in out

    @pytest.mark.parametrize("command", ["select", "grid", "fractions", "compare", "pca",
                                         "eval"])
    def test_help_states_each_default_once_as_typed(self, capsys, command):
        assert cli.run([command, "--help"]) == 0
        options = capsys.readouterr().out.split("options:\n", 1)[1]
        entries = [" ".join(e.split()) for e in re.split(r"\n(?=  -)", options)]
        assert len(entries) > 10
        for entry in entries:
            assert entry.count("(default:") <= 1, entry
            assert "(default: None)" not in entry and "(default: (" not in entry, entry
        shown = {"grid": "10,20,30,40,50", "fractions": "15,30,45,60,75,90",
                 "compare": "hs,ga,pso"}.get(command)
        if shown is not None:
            assert f"(default: {shown})" in " ".join(entries)

    def test_list_defaults_parse_to_tuples(self, tiny8_path):
        base = ["--data", str(tiny8_path)]
        grid = cli.parse_args(["grid", *base, "--k", "3"])
        assert grid.hms_values == grid.iteration_values == (10, 20, 30, 40, 50)
        assert cli.parse_args(["fractions", *base]).fractions == harness.DEFAULT_FRACTIONS
        assert cli.parse_args(["compare", *base, "--k", "3"]).optimizers == ("hs", "ga", "pso")

    def test_top_level_help(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "select" in capsys.readouterr().out


class TestConfigAndEnv:
    def test_config_file_supplies_values(self, tmp_path, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nhmcr = 0.9\niterations = 25\n"
                       "fold_average = true\n")
        spec = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                               "--config", str(cfg)])
        assert spec.hmcr == 0.9
        assert spec.iterations == 25
        assert spec.objective.fold_average is True

    def test_flag_overrides_config(self, tmp_path, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 25\nseed = 5\n")
        spec = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                               "--config", str(cfg), "--iterations", "60"])
        assert spec.iterations == 60
        assert spec.seed == 5

    def test_env_overrides_config_but_not_flag(self, tmp_path, tiny8_path,
                                               monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        monkeypatch.setenv(cli.ENV_SEED, "7")
        spec = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                               "--config", str(cfg)])
        assert spec.seed == 7
        spec = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                               "--config", str(cfg), "--seed", "9"])
        assert spec.seed == 9

    def test_bad_env_seed(self, monkeypatch, capsys, tiny8_path):
        monkeypatch.setenv(cli.ENV_SEED, "banana")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3"])
        assert code == 1
        assert cli.ENV_SEED in err

    def test_boolean_config_keys(self, tmp_path, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("standardize = off\n")
        spec = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                               "--config", str(cfg)])
        assert spec.objective.standardize is False

    def test_bad_boolean_value(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("standardize = maybe\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", str(cfg)])
        assert code == 1
        assert "maybe" in err

    def test_malformed_line_names_location(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hmcr 0.9\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", str(cfg)])
        assert code == 1
        assert "run.cfg:1" in err

    def test_unknown_config_key(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("vibes = high\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", str(cfg)])
        assert code == 1

    def test_missing_config_file(self, capsys, tiny8_path):
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", "/nope.cfg"])
        assert code == 1


class TestMainFlows:
    def test_select(self, capsys, tiny8_path):
        code, out, _ = _run(capsys, [
            "select", "--data", str(tiny8_path), "--k", "3", *FAST,
            "--hms", "6", "--iterations", "30",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("best subset: ")
        assert lines[1].startswith("accuracy: ")
        assert lines[2] == "evaluations: 36"

    def test_select_ga_and_pso(self, capsys, tiny8_path):
        for optimizer in ("ga", "pso"):
            code, out, _ = _run(capsys, [
                "select", "--data", str(tiny8_path), "--k", "3", *FAST,
                "--optimizer", optimizer, "--population", "5",
                "--generations", "5", "--particles", "5",
                "--pso-iterations", "5",
            ])
            assert code == 0
            assert out.startswith("best subset: ")

    def test_grid_writes_parseable_report(self, capsys, tiny8_path, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = _run(capsys, [
            "grid", "--data", str(tiny8_path), "--k", "3", *FAST,
            "--hms-values", "4,6", "--iteration-values", "5,10",
            "--output", str(out_path),
        ])
        assert code == 0
        assert f"report written: {out_path}" in out
        report = read_grid_csv(out_path)
        assert report.hms_values == (4, 6)
        assert report.iteration_values == (5, 10)

    def test_fractions_report(self, capsys, tiny8_path, tmp_path):
        out_path = tmp_path / "frac.csv"
        code, out, _ = _run(capsys, [
            "fractions", "--data", str(tiny8_path), *FAST,
            "--fractions", "25,50", "--hms", "4", "--iterations", "5",
            "--output", str(out_path),
        ])
        assert code == 0
        report = read_fractions_csv(out_path)
        assert report.subset_sizes == (2, 4)

    def test_compare_report(self, capsys, tiny8_path, tmp_path):
        out_path = tmp_path / "cmp.csv"
        code, out, _ = _run(capsys, [
            "compare", "--data", str(tiny8_path), "--k", "3", *FAST,
            "--optimizers", "hs,ga,pso", "--hms", "4", "--iterations", "5",
            "--population", "4", "--generations", "5",
            "--particles", "4", "--pso-iterations", "5",
            "--output", str(out_path),
        ])
        assert code == 0
        report = read_comparison_csv(out_path)
        assert [r.optimizer for r in report.rows] == ["HS", "GA", "PSO"]
        for name in ("HS", "GA", "PSO"):
            assert f"{name}: subset_size=3" in out

    def test_compare_with_pca(self, capsys, tiny8_path, tmp_path):
        out_path = tmp_path / "cmp.csv"
        code, out, _ = _run(capsys, [
            "compare", "--data", str(tiny8_path), "--k", "3", *FAST,
            "--optimizers", "hs,pca", "--hms", "4", "--iterations", "5",
            "--components", "3", "--output", str(out_path),
        ])
        assert code == 0
        report = read_comparison_csv(out_path)
        assert [r.optimizer for r in report.rows] == ["HS", "PCA"]
        assert report.rows[1].subset_size == 3

    def test_pca(self, capsys, tiny8_path):
        code, out, _ = _run(capsys, ["pca", "--data", str(tiny8_path), *FAST])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("components: ")
        assert lines[1].startswith("accuracy: ")

    def test_eval(self, capsys, tiny8_path):
        code, out, _ = _run(capsys, [
            "eval", "--data", str(tiny8_path), "--features", "0,5,7", *FAST,
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("subset: 0,5,7 (")
        assert lines[1].startswith("accuracy: ")
        assert lines[2].startswith("per-fold: ")
        assert lines[3].startswith("95% CI: [")


    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_eval_reproduces_selected_accuracy(self, capsys, tiny8_path, seed):
        # select prints its subset in ascending order; scoring that subset
        # again must give the accuracy the search reported
        common = ["--data", str(tiny8_path), "--classifier", "mlp", "--epochs", "5",
                  "--seed", seed]
        code, out, _ = _run(capsys, ["select", *common, "--k", "3", "--hms", "5",
                                     "--iterations", "10"])
        assert code == 0
        subset_line, accuracy_line = out.splitlines()[:2]
        features = subset_line.split(": ")[1].split(" ")[0]
        code, out, _ = _run(capsys, ["eval", *common, "--features", features])
        assert code == 0
        assert out.splitlines()[1] == accuracy_line


class TestErrorExitCodes:
    def test_out_of_range_feature_is_data_error(self, capsys, tiny8_path):
        code, _, err = _run(capsys, [
            "eval", "--data", str(tiny8_path), "--features", "0,99", *FAST,
        ])
        assert code == 2
        assert err.startswith("data error: ")

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,label\n1,2\n")
        code, _, err = _run(capsys, ["select", "--data", str(bad), "--k", "1",
                                     *FAST])
        assert code == 2

    def test_overflowing_features_are_a_named_data_error(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("a,b,label\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in [("1e308", 0.5, "x"), ("1.7e308", 1.5, "y"),
                                             ("1.2e308", 0.25, "x"), ("1.5e308", 2.5, "y")]))
        proc = _module_run(["eval", "--data", str(big), "--features", "0,1", *FAST])
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: column(s) 'a' too large to standardize")
        assert "RuntimeWarning" not in proc.stderr

    def test_unexpected_exception_is_runtime_error(self, capsys, tiny8_path,
                                                   monkeypatch):
        def boom(cfg, objective):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(harness, "hs_run", boom)
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", *FAST])
        assert code == 3
        assert "RuntimeError" in err


class TestDeterminism:
    def test_select_stdout_repeats(self, capsys, tiny8_path):
        argv = ["select", "--data", str(tiny8_path), "--k", "3", *FAST,
                "--hms", "5", "--iterations", "20"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_grid_report_byte_identical(self, capsys, tiny8_path, tmp_path):
        p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        argv = ["grid", "--data", str(tiny8_path), "--k", "3", *FAST,
                "--hms-values", "4,6", "--iteration-values", "5,10"]
        assert cli.run(argv + ["--output", str(p1)]) == 0
        assert cli.run(argv + ["--output", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_fractions_report_byte_identical(self, capsys, tiny8_path, tmp_path):
        p1, p2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        argv = ["fractions", "--data", str(tiny8_path), *FAST,
                "--fractions", "25,50,75", "--hms", "4", "--iterations", "5"]
        assert cli.run(argv + ["--output", str(p1)]) == 0
        assert cli.run(argv + ["--output", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_compare_identical_modulo_seconds(self, capsys, tiny8_path, tmp_path):
        p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        argv = ["compare", "--data", str(tiny8_path), "--k", "3", *FAST,
                "--optimizers", "hs,ga", "--hms", "4", "--iterations", "5",
                "--population", "4", "--generations", "5"]
        assert cli.run(argv + ["--output", str(p1)]) == 0
        assert cli.run(argv + ["--output", str(p2)]) == 0
        capsys.readouterr()
        strip = lambda p: [line.rsplit(",", 1)[0]
                           for line in p.read_text().splitlines()]
        assert strip(p1) == strip(p2)


def test_module_entry_point_usage_error():
    proc = _module_run([])
    assert proc.returncode == 1
    assert "command" in proc.stderr
