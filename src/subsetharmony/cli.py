"""Command-line front end.

Precedence for every setting: command-line flag, then SUBSETHARMONY_SEED
(seed only), then --config file entries, then built-in defaults. The config
file is flat key=value text using the long flag names.

Exit codes: 0 success, 1 usage or validation error, 2 data error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .baselines import GaConfig, PcaConfig, PsoConfig
from .classifiers import KnnConfig, MlpConfig
from .dataset import Dataset, DatasetError, load_csv
from .harmony import PITCH_TOPOLOGIES, HsConfig
from .harness import (
    DEFAULT_FRACTIONS,
    OptimizerConfig,
    compare_optimizers,
    emit_report,
    run_optimizer,
    sweep_fractions,
    sweep_grid,
)
from .seeding import derive_seed
from .subsets import FeatureSubset
from .wrapper import ObjectiveConfig, SubsetObjective, confidence_interval

ENV_SEED = "SUBSETHARMONY_SEED"
_BOOLEAN_KEYS = frozenset({"standardize", "fold-average"})
_TRUE_WORDS = frozenset({"true", "1", "yes", "on"})
_FALSE_WORDS = frozenset({"false", "0", "no", "off"})


class UsageError(Exception):
    """Bad invocation: unknown flag, missing file, out-of-range value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Append each default once, and none where there is no default value."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        return action.help if action.default is None else super()._get_help_string(action)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_int_list(text: str) -> tuple[int, ...]:
    values = _int_list(text)
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"entries must be >= 1, got {text!r}")
    return values


def _percent_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    for pct in values:
        if not 0.0 < pct <= 100.0:
            raise argparse.ArgumentTypeError(f"fractions must be in (0,100], got {pct}")
    return values


def _name_list(text: str) -> tuple[str, ...]:
    values = tuple(tok.strip().lower() for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected at least one optimizer name")
    bad = [v for v in values if v not in ("hs", "ga", "pso", "pca")]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown optimizer(s): {','.join(bad)}")
    return values


def _add_common(sub: argparse.ArgumentParser, *, reports: bool,
                default_output: str) -> None:
    sub.add_argument("--data", required=True, help="path to the CSV dataset")
    sub.add_argument("--label", default="label", help="label column name")
    sub.add_argument("--seed", type=int, default=0,
                     help="global seed; per-component seeds derive from it")
    sub.add_argument("--config", default=None,
                     help="key=value file; flags override its entries")
    sub.add_argument("--classifier", choices=("mlp", "knn"), default="mlp",
                     help="wrapped classifier")
    sub.add_argument("--folds", type=int, default=3, help="stratified CV folds")
    sub.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                     default=True, help="z-score features per fold (train stats)")
    sub.add_argument("--fold-average", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="report mean of fold accuracies instead of pooled")
    sub.add_argument("--hidden", type=int, default=None,
                     help="MLP hidden neurons (default: ceil((features+classes)/2))")
    sub.add_argument("--learning-rate", type=float, default=0.3, help="MLP learning rate")
    sub.add_argument("--momentum", type=float, default=0.4, help="MLP momentum")
    sub.add_argument("--epochs", type=int, default=1000, help="MLP training epochs")
    sub.add_argument("--neighbors", type=int, default=1, help="kNN neighbor count")
    if reports:
        sub.add_argument("--output", default=None,
                         help=f"report file path (default: {default_output})")
        sub.add_argument("--format", choices=("csv", "markdown"), default="csv",
                         help="report file format")


def _add_hs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--hms", type=int, default=20, help="harmony memory size")
    sub.add_argument("--hmcr", type=float, default=0.7, help="memory considering rate")
    sub.add_argument("--par", type=float, default=0.3, help="pitch adjusting rate")
    sub.add_argument("--bandwidth", type=float, default=1.0, help="pitch bandwidth")
    sub.add_argument("--iterations", type=int, default=100, help="HS improvisations")
    sub.add_argument("--pitch-topology", choices=PITCH_TOPOLOGIES, default="index",
                     help="neighbor line for pitch adjustment")


def _add_ga_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--population", type=int, default=20, help="GA chromosomes")
    sub.add_argument("--generations", type=int, default=100, help="GA generations")
    sub.add_argument("--crossover-rate", type=float, default=1.0, help="GA crossover rate")
    sub.add_argument("--mutation-rate", type=float, default=0.1, help="GA mutation rate")


def _add_pso_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--particles", type=int, default=20, help="PSO swarm size")
    sub.add_argument("--pso-iterations", type=int, default=100, help="PSO iterations")
    sub.add_argument("--c1", type=float, default=2.0, help="PSO cognitive factor")
    sub.add_argument("--c2", type=float, default=2.0, help="PSO social factor")
    sub.add_argument("--inertia", type=float, default=0.9, help="PSO inertia weight")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="subsetharmony",
        description="Wrapper feature selection with harmony search and baselines.",
    )
    subs = parser.add_subparsers(dest="command", metavar="command")
    kwargs = {"formatter_class": _HelpFormatter}

    p = subs.add_parser("select", help="search for the best k-feature subset", **kwargs)
    _add_common(p, reports=False, default_output="")
    p.add_argument("--k", type=_positive_int, required=True, help="subset size")
    p.add_argument("--optimizer", choices=("hs", "ga", "pso"), default="hs",
                   help="search algorithm")
    _add_hs_flags(p)
    _add_ga_flags(p)
    _add_pso_flags(p)

    p = subs.add_parser("grid", help="HMS x iterations accuracy grid", **kwargs)
    _add_common(p, reports=True, default_output="grid_report.<format>")
    p.add_argument("--k", type=_positive_int, required=True, help="subset size")
    # comma-string defaults: argparse runs them through the flag's type
    p.add_argument("--hms-values", type=_positive_int_list, default="10,20,30,40,50",
                   help="comma-separated HMS column values")
    p.add_argument("--iteration-values", type=_positive_int_list, default="10,20,30,40,50",
                   help="comma-separated iteration row values")
    _add_hs_flags(p)

    p = subs.add_parser("fractions", help="sweep subset sizes as feature fractions",
                        **kwargs)
    _add_common(p, reports=True, default_output="fractions_report.<format>")
    p.add_argument("--fractions", type=_percent_list,
                   default=",".join(f"{pct:g}" for pct in DEFAULT_FRACTIONS),
                   help="comma-separated percentages in (0,100]")
    _add_hs_flags(p)

    p = subs.add_parser("compare", help="run several optimizers and time them", **kwargs)
    _add_common(p, reports=True, default_output="compare_report.<format>")
    p.add_argument("--k", type=_positive_int, required=True, help="subset size")
    p.add_argument("--optimizers", type=_name_list, default="hs,ga,pso",
                   help="comma-separated subset of hs,ga,pso,pca")
    p.add_argument("--components", type=int, default=None,
                   help="PCA dimensionality (default: sweep all)")
    _add_hs_flags(p)
    _add_ga_flags(p)
    _add_pso_flags(p)

    p = subs.add_parser("pca", help="PCA baseline accuracy", **kwargs)
    _add_common(p, reports=False, default_output="")
    p.add_argument("--components", type=int, default=None,
                   help="component count (default: sweep all and keep the best)")

    p = subs.add_parser("eval", help="cross-validated accuracy of a fixed subset",
                        **kwargs)
    _add_common(p, reports=False, default_output="")
    p.add_argument("--features", type=_int_list, required=True,
                   help="comma-separated feature indices")

    return parser


def _config_file_args(path: str) -> list[str]:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    args: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if not key:
                raise UsageError(f"{path}:{lineno}: empty key")
            if key in _BOOLEAN_KEYS:
                if value.lower() in _TRUE_WORDS:
                    args.append(f"--{key}")
                elif value.lower() in _FALSE_WORDS:
                    args.append(f"--no-{key}")
                else:
                    raise UsageError(f"{path}:{lineno}: boolean expected, got {value!r}")
            else:
                args.extend([f"--{key}", value])
    return args


def _scan_config_path(tokens: list[str]) -> str | None:
    path = None
    for i, tok in enumerate(tokens):
        if tok == "--config" and i + 1 < len(tokens):
            path = tokens[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    return path


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

    The namespace also carries `objective`, the resolved ObjectiveConfig,
    and, for report commands, `output` with its format-dependent default.
    """
    parser = _build_parser()
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            parser.parse_args(argv)  # prints help, raises SystemExit(0)
        raise UsageError(f"a command is required\n{parser.format_usage()}".rstrip())
    command, rest = argv[0], list(argv[1:])
    config_path = _scan_config_path(rest)
    injected: list[str] = []
    if config_path is not None:
        injected.extend(_config_file_args(config_path))
    injected.extend(_env_seed_args())
    ns = parser.parse_args([command] + injected + rest)

    if not os.path.isfile(ns.data):
        raise UsageError(f"dataset file not found: {ns.data}")
    try:
        mlp = MlpConfig(
            hidden_neurons=ns.hidden,
            learning_rate=ns.learning_rate,
            momentum=ns.momentum,
            epochs=ns.epochs,
            seed=derive_seed(ns.seed, "mlp"),
        )
        knn = KnnConfig(k_neighbors=ns.neighbors)
        ns.objective = ObjectiveConfig(
            classifier=ns.classifier,
            mlp=mlp,
            knn=knn,
            folds=ns.folds,
            fold_seed=derive_seed(ns.seed, "folds"),
            standardize=ns.standardize,
            fold_average=ns.fold_average,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if getattr(ns, "output", "") is None:
        ns.output = f"{command}_report.{'csv' if ns.format == 'csv' else 'md'}"
    return ns


# the flag by which a subcommand accepts each optimizer's settings
_OPTIMIZER_FLAGS = {"hs": "hms", "ga": "population", "pso": "particles", "pca": "components"}


def _optimizer_config(name: str, ns: argparse.Namespace, n_features: int,
                      k: int) -> OptimizerConfig:
    """One optimizer's config from its flags; the config validates them."""
    if name == "pca":
        return PcaConfig(components=ns.components)
    seed = derive_seed(ns.seed, name)
    if name == "hs":
        return HsConfig(n_features, k, hms=ns.hms, hmcr=ns.hmcr, par=ns.par,
                        bandwidth=ns.bandwidth, max_iterations=ns.iterations, seed=seed,
                        pitch_topology=ns.pitch_topology)
    if name == "ga":
        return GaConfig(n_features, k, population=ns.population,
                        generations=ns.generations, crossover_rate=ns.crossover_rate,
                        mutation_rate=ns.mutation_rate, seed=seed)
    return PsoConfig(n_features, k, particles=ns.particles, iterations=ns.pso_iterations,
                     c1=ns.c1, c2=ns.c2, inertia=ns.inertia, seed=seed)


def _subset_line(prefix: str, d: Dataset, indices: tuple[int, ...]) -> str:
    ordered = tuple(sorted(indices))
    names = ",".join(d.feature_names[i] for i in ordered)
    joined = ",".join(str(i) for i in ordered)
    return f"{prefix}: {joined} ({names})"


def main(ns: argparse.Namespace) -> int:
    d = load_csv(ns.data, ns.label)
    objective = SubsetObjective(d, ns.objective)
    # every optimizer whose flags the subcommand accepts gets a config, so a
    # bad value is rejected even when the run does not use that optimizer;
    # fractions has no --k because its sweep sets the subset size
    configs = {name: _optimizer_config(name, ns, d.n_features, getattr(ns, "k", 1))
               for name, flag in _OPTIMIZER_FLAGS.items() if hasattr(ns, flag)}

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
        best_i = max(range(len(report.accuracies)),
                     key=lambda i: (report.accuracies[i], -i))
        print(
            f"best fraction: {report.fraction_percents[best_i]:g} "
            f"(k={report.subset_sizes[best_i]}) "
            f"accuracy={report.accuracies[best_i]:.2f}"
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
