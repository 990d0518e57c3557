"""The flag table: every row reaches its config field, and every field has a row
or is derived. The name choices come from the library."""

import argparse
import dataclasses

import pytest

from subsetharmony import cli, harness, wrapper
from subsetharmony.baselines import GaConfig, PcaConfig, PsoConfig
from subsetharmony.classifiers import KnnConfig, MlpConfig
from subsetharmony.harmony import HsConfig
from subsetharmony.wrapper import ObjectiveConfig

CONFIGS = (ObjectiveConfig, MlpConfig, KnnConfig, HsConfig, GaConfig, PsoConfig, PcaConfig)
# fields the CLI sets from the dataset, --k, --seed or other configs, not from a row
DERIVED = {"n_features", "subset_size", "seed", "mlp", "knn", "fold_seed"}


class _Built(Exception):
    """Stops main once it has built the optimizer configs."""


def _non_default(cls, field, keywords):
    """A valid value of cls.field other than its default."""
    default = getattr(cls, field)
    if "choices" in keywords:
        return next(choice for choice in keywords["choices"] if choice != default)
    if isinstance(default, bool):
        return not default
    if default is None:
        return 2
    if isinstance(default, int):
        return default + 1
    return default / 2


def _tokens(name, value):
    if isinstance(value, bool):
        return [f"--{name}" if value else f"--no-{name}"]
    return [f"--{name}", str(value)]


def _compare_configs(monkeypatch, tiny8_path, extra):
    """The objective and optimizer configs main builds for a compare run."""
    built = {}

    def capture(configs, objective):
        built.update({type(cfg): cfg for cfg in configs})
        built.update({ObjectiveConfig: objective.config, MlpConfig: objective.config.mlp,
                      KnnConfig: objective.config.knn})
        raise _Built

    monkeypatch.setattr(cli, "compare_optimizers", capture)
    ns = cli.parse_args(["compare", "--data", str(tiny8_path), "--k", "3",
                         "--optimizers", "hs,ga,pso,pca", *extra])
    with pytest.raises(_Built):
        cli.main(ns)
    return built


@pytest.mark.parametrize("row", cli._FLAGS, ids=[row[0] for row in cli._FLAGS])
def test_every_flag_reaches_its_field(row, monkeypatch, tiny8_path):
    name, cls, field, _, keywords = row
    value = _non_default(cls, field, keywords)
    assert value != getattr(cls, field)
    built = _compare_configs(monkeypatch, tiny8_path, _tokens(name, value))
    assert getattr(built[cls], field) == value


def test_defaults_reach_every_field(monkeypatch, tiny8_path):
    built = _compare_configs(monkeypatch, tiny8_path, [])
    for _, cls, field, *_ in cli._FLAGS:
        assert getattr(built[cls], field) == getattr(cls, field), (cls.__name__, field)


def test_every_config_field_is_a_row_or_derived():
    rows = [(cls, field) for _, cls, field, *_ in cli._FLAGS]
    assert len(set(rows)) == len(rows)
    assert len({row[0] for row in cli._FLAGS}) == len(rows)
    fields = {(cls, f.name) for cls in CONFIGS for f in dataclasses.fields(cls)}
    assert set(rows) <= fields
    assert not {field for _, field in rows} & DERIVED
    assert {(cls, name) for cls, name in fields if name not in DERIVED} == set(rows)


@pytest.mark.parametrize("command, extra, names", [
    ("select", ["--k", "3"], ("hs", "ga", "pso")),
    ("grid", ["--k", "3"], ("hs",)),
    ("fractions", [], ("hs",)),
    ("compare", ["--k", "3"], ("hs", "ga", "pso", "pca")),
    ("pca", [], ("pca",)),
    ("eval", ["--features", "0"], ()),
])
def test_subcommands_take_their_optimizers(command, extra, names, tiny8_path):
    ns = cli.parse_args([command, "--data", str(tiny8_path), *extra])
    assert ns.optimizer_names == names


def _choices(command, flag):
    parser = cli._build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in subs.choices[command]._actions if flag in a.option_strings).choices


@pytest.mark.parametrize("command", ["select", "grid", "fractions", "compare", "pca", "eval"])
def test_classifier_choices_are_the_library_names(command):
    assert _choices(command, "--classifier") == wrapper.CLASSIFIERS
    for name in wrapper.CLASSIFIERS:
        assert ObjectiveConfig(classifier=name).classifier == name


def test_select_optimizer_choices_are_the_non_pca_optimizers():
    assert _choices("select", "--optimizer") == tuple(
        name for name, cls in harness.OPTIMIZERS.items() if cls is not PcaConfig)
