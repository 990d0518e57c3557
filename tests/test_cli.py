import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from subsetharmony import baselines, cli, harness
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


class _Built(Exception):
    """Stops main once it has built the objective config."""


def _objective_config(monkeypatch, ns):
    """The ObjectiveConfig main builds for ns, after reading its dataset."""
    def capture(data, config):
        raise _Built(config)

    monkeypatch.setattr(cli, "SubsetObjective", capture)
    with pytest.raises(_Built) as built:
        cli.main(ns)
    return built.value.args[0]


class TestParseArgs:
    def test_select_example_defaults(self, tiny8_path, monkeypatch):
        spec = cli.parse_args([
            "select", "--data", str(tiny8_path), "--label", "label",
            "--optimizer", "hs", "--k", "48",
        ])
        assert spec.command == "select"
        assert spec.k == 48
        assert spec.optimizer == "hs"
        assert (spec.hms, spec.hmcr, spec.par, spec.bandwidth) == (20, 0.7, 0.3, 1.0)
        assert spec.iterations == 100
        objective = _objective_config(monkeypatch, spec)
        assert objective.classifier == "mlp"
        assert objective.folds == 3

    def test_seed_fans_out_to_components(self, tiny8_path, monkeypatch):
        a = _objective_config(monkeypatch, cli.parse_args(
            ["select", "--data", str(tiny8_path), "--k", "3"]))
        b = _objective_config(monkeypatch, cli.parse_args(
            ["select", "--data", str(tiny8_path), "--k", "3", "--seed", "1"]))
        assert a.fold_seed != b.fold_seed
        assert a.mlp.seed != a.fold_seed

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

    @pytest.mark.parametrize("command", ["grid", "compare"])
    def test_unwritable_output_is_refused_before_the_search(self, capsys, tmp_path,
                                                            tiny8_path, monkeypatch, command):
        def never(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "sweep_grid", never)
        monkeypatch.setattr(cli, "compare_optimizers", never)
        for output, message in ((tmp_path / "no" / "such" / "r.csv", "directory not found"),
                                (tmp_path, "is a directory")):
            code, _, err = _run(capsys, [command, "--data", str(tiny8_path), "--k", "2",
                                         "--classifier", "knn", "--output", str(output)])
            assert code == 1
            assert err.startswith("error: --output ") and message in err

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_output_naming_the_data_file_is_refused(self, capsys, tmp_path, tiny8_path,
                                                    monkeypatch, spelling):
        def never(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "compare_optimizers", never)
        data = tmp_path / "d.csv"
        data.write_bytes(tiny8_path.read_bytes())
        (tmp_path / "link.csv").symlink_to(data)
        monkeypatch.chdir(tmp_path)
        output = {"same": "d.csv", "dot": "./d.csv", "symlink": "link.csv"}[spelling]
        code, _, err = _run(capsys, ["compare", "--data", "d.csv", "--k", "2",
                                     "--classifier", "knn", "--output", output])
        assert code == 1
        assert err.startswith(f"error: --output is the --data file: {output}")
        assert data.read_bytes() == tiny8_path.read_bytes()

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_output_naming_the_config_file_is_refused(self, capsys, tmp_path, tiny8_path,
                                                      monkeypatch, spelling):
        def never(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "compare_optimizers", never)
        config = tmp_path / "run.cfg"
        config.write_text("classifier = knn\nfolds = 2\n")
        before = config.read_bytes()
        (tmp_path / "link.cfg").symlink_to(config)
        monkeypatch.chdir(tmp_path)
        output = {"same": "run.cfg", "dot": "./run.cfg", "symlink": "link.cfg"}[spelling]
        code, _, err = _run(capsys, ["compare", "--data", str(tiny8_path), "--k", "2",
                                     "--config", "run.cfg", "--output", output])
        assert code == 1
        assert err.startswith(f"error: --output is the --config file: {output}")
        assert config.read_bytes() == before

    @pytest.mark.parametrize("argv, message", [
        (["grid", "--k", "2", "--hms-values", "4,x"],
         "argument --hms-values: expected comma-separated integers, got '4,x'"),
        (["grid", "--k", "2", "--hms-values", ","],
         "argument --hms-values: expected at least one integer"),
        (["compare", "--k", "2", "--optimizers", ","],
         "argument --optimizers: expected at least one optimizer name"),
        (["compare", "--k", "2", "--optimizers", "hs,foo"],
         "argument --optimizers: unknown optimizer(s): foo"),
    ], ids=["bad-integer", "no-integer", "no-optimizer", "unknown-optimizer"])
    def test_malformed_list_is_a_usage_error(self, capsys, tiny8_path, argv, message):
        code, _, err = _run(capsys, [*argv, "--data", str(tiny8_path)])
        assert code == 1
        assert err.startswith(f"error: {message}\n")

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
    def test_config_file_supplies_values(self, tmp_path, tiny8_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nhmcr = 0.9\niterations = 25\n"
                       "folds = 4\n")
        spec = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                               "--config", str(cfg)])
        assert spec.hmcr == 0.9
        assert spec.iterations == 25
        assert _objective_config(monkeypatch, spec).folds == 4

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"],
                                          ["--conf", "{}"], ["--co={}"]],
                             ids=["config", "config=", "conf", "co="])
    def test_config_flag_spellings_load_the_file(self, tmp_path, capsys, tiny8_path,
                                                 spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hms = 0\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path), "--k", "1",
                                     *FAST, *(tok.format(cfg) for tok in spelling)])
        assert code == 1
        assert err.startswith("error: hms must be >= 1")

    @pytest.mark.parametrize("command, prefix, matches", [
        ("select", "--c", "--config, --classifier, --crossover-rate, --c1, --c2"),
        ("compare", "--co", "--config, --components"),
    ])
    def test_ambiguous_config_prefix_is_a_usage_error(self, tmp_path, capsys, tiny8_path,
                                                      command, prefix, matches):
        # the prefix also names another option of the subcommand, so it is not taken
        # for --config, and the malformed file its value names is never read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not a key-value line\n")
        code, _, err = _run(capsys, [command, "--data", str(tiny8_path), "--k", "1",
                                     *FAST, prefix, str(cfg)])
        assert code == 1
        assert err.startswith(f"error: ambiguous option: {prefix} could match {matches}\n")

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

    def test_removed_scoring_key_is_unrecognized(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("standardize = off\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", str(cfg)])
        assert code == 1
        assert err == f"error: {cfg}:1: unknown key 'standardize'\n"

    def test_malformed_line_names_location(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hmcr 0.9\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", str(cfg)])
        assert code == 1
        assert "run.cfg:1" in err

    def test_empty_key_names_location(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(" = 3\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", str(cfg)])
        assert code == 1
        assert err == f"error: {cfg}:1: empty key\n"

    def test_unknown_config_key(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("vibes = high\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", "--config", str(cfg)])
        assert code == 1
        assert err == f"error: {cfg}:1: unknown key 'vibes'\n"

    @pytest.mark.parametrize("key", ["fold", "hm", "help", "config"])
    def test_key_must_name_a_value_flag_in_full(self, tmp_path, capsys, tiny8_path, key):
        # a prefix of one flag (--folds) or of several (--hms, --hmcr) is no key, and
        # neither is a flag that would print help or name another config file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"learning_rate = 0.2\n{key} = 4\n")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path), "--k", "3",
                                     *FAST, "--config", str(cfg)])
        assert code == 1
        assert err == f"error: {cfg}:2: unknown key '{key}'\n"

    def test_key_names_a_flag_of_its_own_subcommand(self, tmp_path, capsys, tiny8_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("folds = 2\nlearning_rate = 0.2\nhms = 5\n")
        spec = cli.parse_args(["select", "--data", str(tiny8_path), "--k", "3",
                               "--config", str(cfg)])
        assert (spec.folds, spec.learning_rate, spec.hms) == (2, 0.2, 5)
        # eval has no --hms
        code, _, err = _run(capsys, ["eval", "--data", str(tiny8_path), "--features", "0",
                                     *FAST, "--config", str(cfg)])
        assert code == 1
        assert err == f"error: {cfg}:3: unknown key 'hms'\n"

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

    def test_pca_fitted_on_one_row_per_fold(self, capsys, tmp_path, monkeypatch):
        # one class of two rows over two folds: each fold trains PCA on a single row
        data = tmp_path / "one.csv"
        data.write_text("a,b,label\n1.0,2.0,x\n3.0,5.0,x\n")
        fitted = []
        real = baselines.pca_fit

        def spy(d, r):
            fitted.append(d.n_samples)
            return real(d, r)

        monkeypatch.setattr(baselines, "pca_fit", spy)
        code, out, err = _run(capsys, ["pca", "--data", str(data), "--classifier", "knn",
                                       "--folds", "2"])
        assert (code, out, err) == (0, "components: 1\naccuracy: 100.00\n", "")
        assert fitted == [1, 1]

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

    # the objective's fields, checked by ObjectiveConfig, MlpConfig and KnnConfig
    @pytest.mark.parametrize("flag, value, field", [
        ("--folds", "1", "folds"), ("--epochs", "0", "epochs"),
        ("--neighbors", "0", "k_neighbors"), ("--hidden", "0", "hidden_neurons"),
        ("--momentum", "1", "momentum"), ("--learning-rate", "nan", "learning_rate"),
    ])
    def test_dataset_is_read_before_objective_values_are_checked(
            self, capsys, tmp_path, tiny8_path, flag, value, field):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,label\n1,2\n")
        code, _, err = _run(capsys, ["select", "--data", str(bad), "--k", "1", flag, value])
        assert code == 2
        assert err.startswith("data error:")
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path), "--k", "1",
                                     flag, value])
        assert code == 1
        assert err.startswith(f"error: {field} ")

    def test_overflowing_features_are_a_named_data_error(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("a,b,label\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in [("1e308", 0.5, "x"), ("1.7e308", 1.5, "y"),
                                             ("1.2e308", 0.25, "x"), ("1.5e308", 2.5, "y")]))
        proc = _module_run(["eval", "--data", str(big), "--features", "0,1", *FAST])
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: column(s) 'a' too large to standardize")
        assert "RuntimeWarning" not in proc.stderr

    def test_overflowing_column_outside_the_subset_is_a_data_error(self, tmp_path):
        # every column is standardized once per fold, so 'a' fails a subset of 'b' alone
        big = tmp_path / "big.csv"
        big.write_text("a,b,label\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in [("1e308", 0.5, "x"), ("1.7e308", 1.5, "y"),
                                             ("1.2e308", 0.25, "x"), ("1.5e308", 2.5, "y")]))
        proc = _module_run(["eval", "--data", str(big), "--features", "1", *FAST])
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: column(s) 'a' too large to standardize")

    def test_unexpected_exception_is_runtime_error(self, capsys, tiny8_path,
                                                   monkeypatch):
        def boom(cfg, objective):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(harness, "hs_run", boom)
        code, _, err = _run(capsys, ["select", "--data", str(tiny8_path),
                                     "--k", "3", *FAST])
        assert code == 3
        assert "RuntimeError" in err

    def test_diverged_training_names_its_subset(self, capsys, tiny8_path):
        diverging = ["--data", str(tiny8_path), "--epochs", "5", "--learning-rate", "1e12",
                     "--momentum", "0.9"]
        code, _, err = _run(capsys, ["eval", *diverging, "--features", "1,0"])
        assert code == 3
        assert err == ("runtime error: TrainingDivergedError: subset (0, 1): "
                       "training loss became non-finite at epoch 0\n")
        code, _, err = _run(capsys, ["select", *diverging, "--k", "2", "--hms", "3",
                                     "--iterations", "3"])
        assert code == 3
        assert re.fullmatch(r"runtime error: TrainingDivergedError: subset \(\d+, \d+\): "
                            r"training loss became non-finite at epoch \d+\n", err)


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
