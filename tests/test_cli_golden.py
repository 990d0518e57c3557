"""Golden CLI transcripts: stdout and report bytes pinned per invocation.

Every case runs on the tiny8 fixture with a kNN (or short MLP) objective,
so the whole file takes a few seconds. The comparison report's
execution_seconds column is wall-clock time and is dropped before
comparing. To re-record after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` from the repository root
and review the diff of tests/fixtures/cli_golden.json.
"""

import argparse
import json
import os
from pathlib import Path

import pytest

from subsetharmony import cli, harness

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
TINY8 = FIXTURES / "tiny8.csv"
FAST = ["--classifier", "knn", "--folds", "2", "--seed", "0"]
SMALL_COMPARE = ["--hms", "4", "--iterations", "5", "--population", "4",
                 "--generations", "5", "--particles", "4", "--pso-iterations", "5"]

CASES = {
    "select_hs_index": ["select", "--k", "3", "--hms", "6", "--iterations", "30"],
    "select_ga": ["select", "--k", "3", "--optimizer", "ga", "--population", "5",
                  "--generations", "5"],
    "select_pso": ["select", "--k", "3", "--optimizer", "pso", "--particles", "5",
                   "--pso-iterations", "5"],
    "grid_csv": ["grid", "--k", "3", "--hms-values", "4,6", "--iteration-values", "5,10",
                 "--output", "report.csv"],
    "grid_markdown": ["grid", "--k", "3", "--hms-values", "4,6",
                      "--iteration-values", "5,10", "--format", "markdown",
                      "--output", "report.md"],
    "fractions": ["fractions", "--fractions", "25,50,75", "--hms", "4",
                  "--iterations", "5", "--output", "report.csv"],
    "compare": ["compare", "--k", "3", "--optimizers", "hs,ga,pso,pca",
                *SMALL_COMPARE, "--output", "report.csv"],
    "compare_mlp": ["compare", "--k", "2", "--optimizers", "hs,pca", "--classifier",
                    "mlp", "--epochs", "3", "--hms", "3", "--iterations", "3",
                    "--components", "2", "--output", "report.csv"],
    "pca": ["pca"],
    "pca_components": ["pca", "--components", "2"],
    "eval": ["eval", "--features", "0,5,7"],
    "eval_mlp": ["eval", "--features", "0,5,7", "--classifier", "mlp", "--epochs", "50"],
}


def _run(argv: list[str], workdir: Path) -> tuple[int, str | None]:
    """Run one invocation inside workdir; return its exit code and report text."""
    command, *rest = argv
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = cli.run([command, "--data", str(TINY8), *FAST, *rest])
    finally:
        os.chdir(cwd)
    report = None
    if "--output" in rest:
        text = (workdir / rest[rest.index("--output") + 1]).read_text(encoding="utf-8")
        if command == "compare":
            text = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
        report = text
    return code, report


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_matches_golden(name, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    code, report = _run(CASES[name], tmp_path)
    got = {"code": code, "stdout": capsys.readouterr().out, "report": report}
    assert got == expected


REJECTED = [
    ["select", "--k", "0"],
    ["select", "--k", "3", "--folds", "1"],
    ["select", "--k", "3", "--epochs", "0"],
    ["select", "--k", "3", "--learning-rate", "-0.1"],
    ["select", "--k", "3", "--momentum", "1.0"],
    ["select", "--k", "3", "--hidden", "0"],
    ["select", "--k", "3", "--neighbors", "0"],
    ["select", "--k", "3", "--hms", "0"],
    ["select", "--k", "3", "--par", "-0.1"],
    ["select", "--k", "3", "--iterations", "0"],
    ["select", "--k", "3", "--population", "1"],
    ["select", "--k", "3", "--generations", "0"],
    ["select", "--k", "3", "--crossover-rate", "1.5"],
    ["select", "--k", "3", "--mutation-rate", "-0.1"],
    ["select", "--k", "3", "--particles", "1"],
    ["select", "--k", "3", "--pso-iterations", "0"],
    ["select", "--k", "3", "--c1", "-1"],
    ["select", "--k", "3", "--c2", "-1"],
    ["select", "--k", "3", "--inertia", "-0.5"],
    ["compare", "--optimizers", "pca", "--k", "0"],
    ["compare", "--optimizers", "hs", "--k", "3", "--particles", "1"],
    ["compare", "--k", "3", "--components", "0"],
    ["grid", "--k", "3", "--hms-values", "4,0"],
    ["grid", "--k", "3", "--iteration-values", "0,5"],
    ["fractions", "--fractions", "25,150"],
    ["fractions", "--fractions", "0"],
    ["pca", "--components", "0"],
    ["eval", "--features", "1,1"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_invalid_value_exits_1_before_any_search(argv, tmp_path, capsys, monkeypatch):
    def no_search(cfg, objective):
        raise RuntimeError("a search ran")

    for runner in ("hs_run", "ga_run", "pso_run", "pca_run"):
        monkeypatch.setattr(harness, runner, no_search)
    assert _run(argv, tmp_path)[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")


# each float flag of each subcommand, with the arguments that subcommand requires
_REQUIRED = {"select": ["--k", "3"], "grid": ["--k", "3"], "compare": ["--k", "3"],
             "fractions": [], "pca": [], "eval": ["--features", "0,1"]}
_SUBPARSERS = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
FLOAT_FLAGS = [[command, *required, action.option_strings[0]]
               for command, required in _REQUIRED.items()
               for action in _SUBPARSERS[command]._actions if action.type is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", FLOAT_FLAGS, ids=" ".join)
def test_non_finite_float_exits_1_before_any_search(argv, value, tmp_path, capsys,
                                                    monkeypatch):
    def no_search(cfg, objective):
        raise RuntimeError("a search ran")

    for runner in ("hs_run", "ga_run", "pso_run", "pca_run"):
        monkeypatch.setattr(harness, runner, no_search)
    *head, flag = argv
    assert _run([*head, f"{flag}={value}"], tmp_path)[0] == 1
    assert capsys.readouterr().err.startswith("error: ")


# the subcommands that run harmony search; a bit flip has no distance, so none
# of them takes a pitch bandwidth, as a flag or as a config-file key
HS_COMMANDS = ["select", "grid", "compare", "fractions"]


@pytest.mark.parametrize("command", HS_COMMANDS)
def test_bandwidth_flag_is_unrecognized(command, tmp_path, capsys, monkeypatch):
    def no_search(cfg, objective):
        raise RuntimeError("a search ran")

    for runner in ("hs_run", "ga_run", "pso_run", "pca_run"):
        monkeypatch.setattr(harness, runner, no_search)
    argv = [command, *_REQUIRED[command], "--bandwidth", "1.0"]
    assert _run(argv, tmp_path)[0] == 1
    assert "unrecognized arguments: --bandwidth 1.0" in capsys.readouterr().err


@pytest.mark.parametrize("command", HS_COMMANDS)
def test_bandwidth_config_key_is_unknown(command, tmp_path, capsys, monkeypatch):
    def no_search(cfg, objective):
        raise RuntimeError("a search ran")

    for runner in ("hs_run", "ga_run", "pso_run", "pca_run"):
        monkeypatch.setattr(harness, runner, no_search)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nbandwidth = 1.0\n", encoding="utf-8")
    argv = [command, *_REQUIRED[command], "--config", str(cfg)]
    assert _run(argv, tmp_path)[0] == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:2: unknown key 'bandwidth'\n"


@pytest.mark.parametrize("command", HS_COMMANDS)
def test_help_offers_par_as_a_bit_flip_and_no_bandwidth(command):
    text = _SUBPARSERS[command].format_help()
    assert "bandwidth" not in text
    assert "flip probability of an inclusion bit drawn from memory" in " ".join(text.split())


if __name__ == "__main__":
    import tempfile
    from contextlib import redirect_stdout
    from io import StringIO

    recorded = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()) as out:
            code, report = _run(argv, Path(tmp))
        recorded[name] = {"code": code, "stdout": out.getvalue(), "report": report}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(recorded)} transcripts to {GOLDEN}")
