"""Command-line front end.

Precedence for every setting: command-line flag, then SUBSETHARMONY_SEED
(seed only), then --config file entries, then built-in defaults. The config
file is flat key=value text whose keys are the subcommand's long flag names,
spelled out in full; --config, like any flag on the command line, may be
abbreviated. parse_args only parses; main reads the dataset, then
builds every config, whose classes range-check each value.

Exit codes: 0 success, 1 usage or validation error, 2 data error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .baselines import GaConfig, PcaConfig, PsoConfig
from .classifiers import KnnConfig, MlpConfig
from .dataset import Dataset, DatasetError, load_csv
from .harmony import HsConfig
from .harness import (
    DEFAULT_FRACTIONS,
    OPTIMIZERS,
    compare_optimizers,
    emit_report,
    run_optimizer,
    sweep_fractions,
    sweep_grid,
)
from .seeding import derive_seed
from .subsets import FeatureSubset
from .wrapper import CLASSIFIERS, ObjectiveConfig, SubsetObjective, confidence_interval

ENV_SEED = "SUBSETHARMONY_SEED"

# The one definition of each flag that sets a config field, in --help order:
# (flag, config class, field, help, the argparse keywords the field's default
# does not imply). The class default is the flag's default, and its type the
# flag's type. _add_flags puts a subcommand's rows on its parser, and _config
# builds a config from its rows.
_FLAGS = (
    ("classifier", ObjectiveConfig, "classifier", "wrapped classifier",
     {"choices": CLASSIFIERS}),
    ("folds", ObjectiveConfig, "folds", "stratified CV folds", {}),
    ("hidden", MlpConfig, "hidden_neurons",
     "MLP hidden neurons (default: ceil((features+classes)/2))", {"type": int}),
    ("learning-rate", MlpConfig, "learning_rate", "MLP learning rate", {}),
    ("momentum", MlpConfig, "momentum", "MLP momentum", {}),
    ("epochs", MlpConfig, "epochs", "MLP training epochs", {}),
    ("neighbors", KnnConfig, "k_neighbors", "kNN neighbor count", {}),
    ("components", PcaConfig, "components", "PCA dimensionality (default: sweep all)",
     {"type": int}),
    ("hms", HsConfig, "hms", "harmony memory size", {}),
    ("hmcr", HsConfig, "hmcr", "memory considering rate", {}),
    ("par", HsConfig, "par", "pitch adjusting rate", {}),
    ("bandwidth", HsConfig, "bandwidth", "pitch bandwidth", {}),
    ("iterations", HsConfig, "max_iterations", "HS improvisations", {}),
    ("population", GaConfig, "population", "GA chromosomes", {}),
    ("generations", GaConfig, "generations", "GA generations", {}),
    ("crossover-rate", GaConfig, "crossover_rate", "GA crossover rate", {}),
    ("mutation-rate", GaConfig, "mutation_rate", "GA mutation rate", {}),
    ("particles", PsoConfig, "particles", "PSO swarm size", {}),
    ("pso-iterations", PsoConfig, "iterations", "PSO iterations", {}),
    ("c1", PsoConfig, "c1", "PSO cognitive factor", {}),
    ("c2", PsoConfig, "c2", "PSO social factor", {}),
    ("inertia", PsoConfig, "inertia", "PSO inertia weight", {}),
)


class UsageError(Exception):
    """Bad invocation: unknown flag, malformed value, missing file."""


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # the top-level parser's subcommand parsers

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Append each default once, and none where there is no default value."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        return action.help if action.default is None else super()._get_help_string(action)


def _list_of(kind: type, noun: str):
    """A parser of comma-separated kind values, each called a noun in its errors."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(tok) for tok in text.split(",") if tok.strip() != "")
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {noun}")
        return values
    return parse


def _name_list(text: str) -> tuple[str, ...]:
    values = tuple(tok.strip().lower() for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected at least one optimizer name")
    bad = [v for v in values if v not in OPTIMIZERS]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown optimizer(s): {','.join(bad)}")
    return values


def _add_flags(sub: argparse.ArgumentParser, *classes: type) -> None:
    """Put the rows of classes on sub in table order; list its optimizers in optimizer_names."""
    for name, cls, field, help, keywords in _FLAGS:
        if cls in classes:
            default = getattr(cls, field)
            sub.add_argument(f"--{name}", default=default, help=help,
                             **{"type": type(default), **keywords})
    taken = tuple(name for name, cls in OPTIMIZERS.items() if cls in classes)
    sub.set_defaults(optimizer_names=(sub.get_default("optimizer_names") or ()) + taken)


def _config(cls: type, ns: argparse.Namespace, **derived):
    """cls from its rows' values in ns plus those derived arguments it has fields for."""
    names = {f.name for f in dataclasses.fields(cls)}
    values = {field: getattr(ns, name.replace("-", "_"))
              for name, row_cls, field, *_ in _FLAGS if row_cls is cls}
    return cls(**values, **{key: v for key, v in derived.items() if key in names})


def _add_common(sub: argparse.ArgumentParser, *, reports: bool,
                default_output: str) -> None:
    sub.add_argument("--data", required=True, help="path to the CSV dataset")
    sub.add_argument("--label", default="label", help="label column name")
    sub.add_argument("--seed", type=int, default=0,
                     help="global seed; per-component seeds derive from it")
    sub.add_argument("--config", default=None,
                     help="key=value file; flags override its entries")
    _add_flags(sub, ObjectiveConfig, MlpConfig, KnnConfig)
    if reports:
        sub.add_argument("--output", default=None,
                         help=f"report file path (default: {default_output})")
        sub.add_argument("--format", choices=("csv", "markdown"), default="csv",
                         help="report file format")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="subsetharmony",
        description="Wrapper feature selection with harmony search and baselines.",
    )
    subs = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = subs.choices
    kwargs = {"formatter_class": _HelpFormatter}

    p = subs.add_parser("select", help="search for the best k-feature subset", **kwargs)
    _add_common(p, reports=False, default_output="")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--optimizer", default="hs",
                   choices=tuple(name for name, cls in OPTIMIZERS.items() if cls is not PcaConfig),
                   help="search algorithm")
    _add_flags(p, HsConfig, GaConfig, PsoConfig)

    p = subs.add_parser("grid", help="HMS x iterations accuracy grid", **kwargs)
    _add_common(p, reports=True, default_output="grid_report.<format>")
    p.add_argument("--k", type=int, required=True, help="subset size")
    # comma-string defaults: argparse runs them through the flag's type
    p.add_argument("--hms-values", type=_list_of(int, "integer"), default="10,20,30,40,50",
                   help="comma-separated HMS column values")
    p.add_argument("--iteration-values", type=_list_of(int, "integer"), default="10,20,30,40,50",
                   help="comma-separated iteration row values")
    _add_flags(p, HsConfig)

    p = subs.add_parser("fractions", help="sweep subset sizes as feature fractions",
                        **kwargs)
    _add_common(p, reports=True, default_output="fractions_report.<format>")
    p.add_argument("--fractions", type=_list_of(float, "number"),
                   default=",".join(f"{pct:g}" for pct in DEFAULT_FRACTIONS),
                   help="comma-separated percentages in (0,100]")
    _add_flags(p, HsConfig)

    p = subs.add_parser("compare", help="run several optimizers and time them", **kwargs)
    _add_common(p, reports=True, default_output="compare_report.<format>")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--optimizers", type=_name_list, default="hs,ga,pso",
                   help=f"comma-separated subset of {','.join(OPTIMIZERS)}")
    _add_flags(p, PcaConfig, HsConfig, GaConfig, PsoConfig)

    p = subs.add_parser("pca", help="PCA baseline accuracy", **kwargs)
    _add_common(p, reports=False, default_output="")
    _add_flags(p, PcaConfig)

    p = subs.add_parser("eval", help="cross-validated accuracy of a fixed subset",
                        **kwargs)
    _add_common(p, reports=False, default_output="")
    p.add_argument("--features", type=_list_of(int, "integer"), required=True,
                   help="comma-separated feature indices")

    return parser


def _config_file_args(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """The file's key = value lines as sub's flags.

    Each key must be a long flag of sub in full; --help and --config are not keys.
    """
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    flags = {opt for action in sub._actions if action.dest not in ("help", "config")
             for opt in action.option_strings if opt.startswith("--")}
    args: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise UsageError(f"{path}:{lineno}: empty key")
            flag = "--" + key.replace("_", "-")
            if flag not in flags:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            args.extend([flag, value.strip()])
    return args


def _config_path(sub: argparse.ArgumentParser, tokens: list[str]) -> str | None:
    """The --config value in tokens, however sub lets the flag be spelled.

    The pre-parser holds every option string of sub, so a prefix resolves (or
    is ambiguous) as it does in sub; it checks no values and requires nothing.
    """
    pre = _Parser(add_help=False)
    for action in sub._actions:
        pre.add_argument(*action.option_strings, **(
            {"action": "store_const", "const": None} if action.nargs == 0
            else {"nargs": action.nargs}))
    try:
        return pre.parse_known_args(tokens)[0].config
    except UsageError:  # the full parser reports it
        return None


def _env_seed_args() -> list[str]:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return []
    try:
        int(raw)
    except ValueError:
        raise UsageError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
    return ["--seed", raw]


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse flags, SUBSETHARMONY_SEED and --config into one namespace.

    For report commands the namespace's `output` gets its format-dependent
    default, and an output path that is a directory, lies in a missing
    directory or is the data or config file (os.path.samefile) is a
    UsageError. No config is built here: main builds them after reading the
    data.
    """
    parser = _build_parser()
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            parser.parse_args(argv)  # prints help, raises SystemExit(0)
        raise UsageError(f"a command is required\n{parser.format_usage()}".rstrip())
    command, rest = argv[0], list(argv[1:])
    sub = parser.commands.get(command)
    config_path = None if sub is None else _config_path(sub, rest)
    injected: list[str] = []
    if config_path is not None:
        injected.extend(_config_file_args(config_path, sub))
    injected.extend(_env_seed_args())
    ns = parser.parse_args([command] + injected + rest)

    if not os.path.isfile(ns.data):
        raise UsageError(f"dataset file not found: {ns.data}")
    if getattr(ns, "output", "") is None:
        ns.output = f"{command}_report.{'csv' if ns.format == 'csv' else 'md'}"
    # a report that cannot be written is refused before the search, not after it
    output = getattr(ns, "output", None)
    if output is not None:
        if os.path.isdir(output):
            raise UsageError(f"--output is a directory: {output}")
        if not os.path.isdir(os.path.dirname(output) or "."):
            raise UsageError(f"--output directory not found: {os.path.dirname(output)}")
        for flag, path in (("--data", ns.data), ("--config", config_path)):
            if path is not None and os.path.exists(output) and os.path.samefile(output, path):
                raise UsageError(f"--output is the {flag} file: {output}")
    return ns


def _subset_line(prefix: str, d: Dataset, indices: tuple[int, ...]) -> str:
    ordered = tuple(sorted(indices))
    names = ",".join(d.feature_names[i] for i in ordered)
    joined = ",".join(str(i) for i in ordered)
    return f"{prefix}: {joined} ({names})"


def main(ns: argparse.Namespace) -> int:
    d = load_csv(ns.data, ns.label)
    objective = SubsetObjective(d, _config(
        ObjectiveConfig, ns,
        mlp=_config(MlpConfig, ns, seed=derive_seed(ns.seed, "mlp")),
        knn=_config(KnnConfig, ns),
        fold_seed=derive_seed(ns.seed, "folds"),
    ))
    # every optimizer whose flags the subcommand takes gets a config, so a bad value
    # is rejected even if unused; fractions has no --k, as its sweep sets the size
    configs = {name: _config(OPTIMIZERS[name], ns, n_features=d.n_features,
                             subset_size=getattr(ns, "k", 1), seed=derive_seed(ns.seed, name))
               for name in ns.optimizer_names}

    if ns.command == "select":
        best, history = run_optimizer(configs[ns.optimizer], objective)
        print(_subset_line("best subset", d, best.subset.indices))
        print(f"accuracy: {best.fitness:.2f}")
        print(f"evaluations: {history.evaluations}")
        return 0

    if ns.command == "grid":
        report = sweep_grid(ns.hms_values, ns.iteration_values, configs["hs"], objective)
        emit_report(report, ns.format, ns.output)
        print(
            f"best cell: iterations={report.iteration_values[report.best_row]} "
            f"hms={report.hms_values[report.best_col]} "
            f"accuracy={report.best_accuracy:.2f}"
        )
        print(f"report written: {ns.output}")
        return 0

    if ns.command == "fractions":
        report = sweep_fractions(ns.fractions, configs["hs"], objective)
        emit_report(report, ns.format, ns.output)
        best = report.best_index
        print(
            f"best fraction: {report.fraction_percents[best]:g} "
            f"(k={report.subset_sizes[best]}) "
            f"accuracy={report.accuracies[best]:.2f}"
        )
        print(f"report written: {ns.output}")
        return 0

    if ns.command == "compare":
        report = compare_optimizers([configs[name] for name in ns.optimizers], objective)
        emit_report(report, ns.format, ns.output)
        for row in report.rows:
            print(f"{row.optimizer}: subset_size={row.subset_size} "
                  f"accuracy={row.accuracy_percent:.2f}")
        print(f"report written: {ns.output}")
        return 0

    if ns.command == "pca":
        result = run_optimizer(configs["pca"], objective)
        print(f"components: {result.components}")
        print(f"accuracy: {result.accuracy_percent:.2f}")
        return 0

    # eval
    subset = FeatureSubset(ns.features)
    result = objective.evaluate(subset)
    print(_subset_line("subset", d, subset.indices))
    print(f"accuracy: {result.accuracy_percent:.2f}")
    print("per-fold: " + ",".join(f"{a:.2f}" for a in result.per_fold_accuracy))
    lo, hi = confidence_interval(
        result.correct_count / result.total_count, result.total_count
    )
    print(f"95% CI: [{100.0 * lo:.2f}, {100.0 * hi:.2f}]")
    return 0


def run(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    try:
        ns = parse_args(list(sys.argv[1:]) if argv is None else list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return main(ns)
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
