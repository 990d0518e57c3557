"""The benchmark's workloads: seeded inputs, one repetition, and its checks.

Every workload drives the public API the command line calls: `load_csv`, a
`SubsetObjective`, and `hs_run` or `compare_optimizers`, with configurations
built the way `subsetharmony.cli` builds them from its flags. The inputs come
from `synth.planted_dataset`, written to CSV outside any timed region.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from subsetharmony import harmony, harness
from subsetharmony.baselines import GaConfig, PcaConfig, PsoConfig, evaluate_components
from subsetharmony.classifiers import KnnConfig, MlpConfig
from subsetharmony.dataset import load_csv, write_csv
from subsetharmony.harmony import HsConfig
from subsetharmony.seeding import derive_seed
from subsetharmony.synth import planted_dataset
from subsetharmony.wrapper import ObjectiveConfig, SubsetObjective, evaluate_subset

from tracing import OBJECTIVE_SPAN, patched


@dataclass(frozen=True)
class Workload:
    """One command-line invocation, as the flags it would pass."""

    name: str
    n_samples: int
    n_features: int
    n_informative: int
    classifier: str
    k: int
    optimizers: tuple[str, ...]
    compare: bool
    epochs: int = 1000
    neighbors: int = 1
    generations: int = 100
    pso_iterations: int = 100
    components: int | None = None


WORKLOADS = {
    # select --optimizer hs --k 3 --epochs 5
    "select_mlp": Workload("select_mlp", 150, 20, 3, "mlp", 3, ("hs",), False, epochs=5),
    # compare --optimizers ga,pso,pca --k 3 --epochs 5 --generations 10
    #         --pso-iterations 10 --components 3
    "compare_mlp": Workload("compare_mlp", 150, 20, 3, "mlp", 3, ("ga", "pso", "pca"), True,
                            epochs=5, generations=10, pso_iterations=10, components=3),
    # compare --optimizers hs,ga,pso --classifier knn --neighbors 5 --k 4
    "compare_knn": Workload("compare_knn", 300, 30, 4, "knn", 4, ("hs", "ga", "pso"), True,
                            neighbors=5),
}

LABEL = "label"


@dataclass(frozen=True)
class Inputs:
    """One repetition's inputs: the CSV, its planted columns, the CLI --seed."""

    csv_path: Path
    planted: tuple[int, ...]
    cli_seed: int


def make_inputs(wl: Workload, seed: int, rep: int, work_dir: Path) -> Inputs:
    rep_seed = derive_seed(seed, wl.name, "rep", rep)
    d, planted = planted_dataset(wl.n_samples, wl.n_features, n_informative=wl.n_informative,
                                 seed=derive_seed(rep_seed, "data"))
    path = write_csv(d, work_dir / f"{wl.name}-{seed}-{rep}.csv", LABEL)
    return Inputs(path, planted, derive_seed(rep_seed, "cli"))


def objective_config(wl: Workload, cli_seed: int) -> ObjectiveConfig:
    return ObjectiveConfig(
        classifier=wl.classifier,
        mlp=MlpConfig(epochs=wl.epochs, seed=derive_seed(cli_seed, "mlp")),
        knn=KnnConfig(k_neighbors=wl.neighbors),
        folds=3,
        fold_seed=derive_seed(cli_seed, "folds"),
    )


def optimizer_configs(wl: Workload, n_features: int, cli_seed: int) -> list:
    make = {
        "hs": lambda: HsConfig(n_features, wl.k, seed=derive_seed(cli_seed, "hs")),
        "ga": lambda: GaConfig(n_features, wl.k, generations=wl.generations,
                               seed=derive_seed(cli_seed, "ga")),
        "pso": lambda: PsoConfig(n_features, wl.k, iterations=wl.pso_iterations,
                                 seed=derive_seed(cli_seed, "pso")),
        "pca": lambda: PcaConfig(components=wl.components),
    }
    return [make[name]() for name in wl.optimizers]


class BenchObjective(SubsetObjective):
    """SubsetObjective that times its cache-missing calls at the objective
    boundary and keeps (calls, unique) per optimizer run across the cache
    resets `compare_optimizers` makes.
    """

    def __init__(self, dataset, config, tracer=None) -> None:
        super().__init__(dataset, config)
        self.miss_seconds: list[float] = []
        self.segments: list[tuple[int, int]] = []
        if tracer is not None:
            self.evaluate = tracer.wrap(self.evaluate, OBJECTIVE_SPAN)

    def evaluate(self, subset):
        before = len(self.cache)
        start = perf_counter()
        result = super().evaluate(subset)
        elapsed = perf_counter() - start
        if len(self.cache) > before:
            self.miss_seconds.append(elapsed)
        return result

    def reset_cache(self) -> None:
        self.close_segment()
        super().reset_cache()

    def close_segment(self) -> None:
        # PCA scores through its own CV loop and never calls the objective
        if self.calls:
            self.segments.append((self.calls, len(self.cache)))


OPTIMIZER_NAMES = {HsConfig: "hs", GaConfig: "ga", PsoConfig: "pso", PcaConfig: "pca"}
CAPTURED = ((harmony, "hs_run"), (harness, "hs_run"), (harness, "ga_run"),
            (harness, "pso_run"), (harness, "pca_run"))


def _capturing(fn, out: list):
    def capture(cfg, objective):
        result = fn(cfg, objective)
        out.append((cfg, result))
        return result
    return capture


@dataclass
class Rep:
    """What one repetition did, for the metrics and the checks."""

    wall_s: float
    cpu_s: float
    miss_seconds: list[float]
    segments: list[tuple[int, int]]
    runs: list[tuple[object, object]]   # (optimizer config, hs/ga/pso/pca result)
    report: object | None               # ComparisonReport of a compare workload
    accuracy_pct: float
    planted_recovered: int

    def fingerprint(self) -> tuple:
        """Every deterministic output: counts, subsets, fitness bits."""
        runs = []
        for cfg, result in self.runs:
            if isinstance(cfg, PcaConfig):
                runs.append(("pca", result.components, result.evaluated))
            else:
                best, history = result
                runs.append((OPTIMIZER_NAMES[type(cfg)], best.subset.indices, best.fitness,
                             history.evaluations, history.best_fitness, history.replaced))
        rows = () if self.report is None else tuple(
            (r.optimizer, r.subset_size, r.accuracy_percent) for r in self.report.rows)
        return (tuple(self.segments), len(self.miss_seconds), tuple(runs), rows)


def run_rep(wl: Workload, inputs: Inputs, tracer=None) -> Rep:
    """Load the CSV, build the objective, and time one select or compare call.

    With a tracer, every layer call inside the timed call is recorded.
    """
    d = load_csv(inputs.csv_path, LABEL)
    objective = BenchObjective(d, objective_config(wl, inputs.cli_seed), tracer)
    configs = optimizer_configs(wl, d.n_features, inputs.cli_seed)
    runs: list = []
    captures = [(module, attr, _capturing(getattr(module, attr), runs))
                for module, attr in CAPTURED]
    with patched(captures), patched(tracer.layer_patches() if tracer else []), \
            tracer.span("perfbench.rep") if tracer else nullcontext():
        start, cpu_start = perf_counter(), process_time()
        if wl.compare:
            report = harness.compare_optimizers(configs, objective)
        else:
            report = None
            harmony.hs_run(configs[0], objective)
        wall_s, cpu_s = perf_counter() - start, process_time() - cpu_start
    objective.close_segment()
    if report is None:
        accuracies = [result[0].fitness for _, result in runs]
    else:
        accuracies = [row.accuracy_percent for row in report.rows]
    recovered = sum(len(set(result[0].subset.indices) & set(inputs.planted))
                    for cfg, result in runs if not isinstance(cfg, PcaConfig))
    return Rep(wall_s, cpu_s, objective.miss_seconds, objective.segments, runs, report,
               sum(accuracies) / len(accuracies), recovered)


def expected_evaluations(cfg) -> int:
    if isinstance(cfg, HsConfig):
        return cfg.hms + cfg.max_iterations
    if isinstance(cfg, GaConfig):
        return cfg.population + cfg.generations * (cfg.population - 1)
    return cfg.particles * (cfg.iterations + 1)


def check_rep(wl: Workload, inputs: Inputs, rep: Rep, work_dir: Path,
              tracer=None) -> tuple[int, list[str]]:
    """Check every optimizer run and the report; returns (attempted, failures).

    One operation per optimizer run, plus the report round trip on compare
    workloads. An operation fails if any of its checks fails; each failed
    operation contributes one message.
    """
    d = load_csv(inputs.csv_path, LABEL)
    cfg = objective_config(wl, inputs.cli_seed)
    failures: list[str] = []
    segments = iter(rep.segments)
    rows = rep.report.rows if rep.report is not None else [None] * len(rep.runs)
    attempted = len(wl.optimizers)
    failures.extend(f"optimizer run {i} missing" for i in range(len(rep.runs), attempted))
    for (opt_cfg, result), row in zip(rep.runs, rows):
        name = OPTIMIZER_NAMES[type(opt_cfg)]
        problems = []
        if isinstance(opt_cfg, PcaConfig):
            size, fitness = result.components, result.accuracy_percent
            if result.components != opt_cfg.components:
                problems.append(f"{result.components} components, asked {opt_cfg.components}")
            fresh = evaluate_components(d, result.components, cfg).accuracy_percent
        else:
            best, history = result
            size, fitness = best.subset.k, best.fitness
            idx = best.subset.indices
            if len(idx) != wl.k or len(set(idx)) != wl.k or not all(
                    0 <= i < d.n_features for i in idx):
                problems.append(f"subset {idx} is not {wl.k} distinct indices in range")
            if history.evaluations != expected_evaluations(opt_cfg):
                problems.append(f"{history.evaluations} evaluations, expected "
                                f"{expected_evaluations(opt_cfg)}")
            calls, _ = next(segments, (None, None))
            if calls != history.evaluations:
                problems.append(f"objective saw {calls} calls, history {history.evaluations}")
            fresh = evaluate_subset(d, best.subset, cfg).accuracy_percent
        if fresh != fitness:
            problems.append(f"best fitness {fitness!r} but a fresh evaluation gives {fresh!r}")
        if row is not None and (row.subset_size, row.accuracy_percent) != (size, fitness):
            problems.append(f"report row {row} disagrees with the run's result")
        if problems:
            failures.append(f"{name}: " + "; ".join(problems))
    if rep.report is not None:
        attempted += 1
        path = work_dir / f"{inputs.csv_path.stem}-report.csv"
        with tracer.span("harness.render") if tracer else nullcontext():
            text = harness.render_comparison_csv(rep.report)
            path.write_text(text, encoding="utf-8")
            back = harness.read_comparison_csv(path)
        same_rows = [(r.optimizer, r.subset_size) for r in back.rows] == [
            (r.optimizer, r.subset_size) for r in rep.report.rows]
        if not same_rows or harness.render_comparison_csv(back) != text:
            failures.append("report does not round-trip through its CSV")
    return attempted, failures
