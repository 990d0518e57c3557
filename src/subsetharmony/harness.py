"""Experiment driver: parameter grid, optimizer comparison, fraction sweep.

Reports are plain dataclasses. Each one becomes a single table of strings,
which one writer renders as CSV and another as Markdown. CSV files are
minimal (no quoting, "." decimals, LF line endings) so repeated emission of
the same report is byte-identical.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

from .baselines import GaConfig, PcaConfig, PsoConfig, ga_run, pca_candidates, pca_run, pso_run
from .harmony import HsConfig, hs_run
from .seeding import derive_seed
from .wrapper import SubsetObjective

DEFAULT_FRACTIONS = (15.0, 30.0, 45.0, 60.0, 75.0, 90.0)


def _fmt_acc(value: float) -> str:
    return f"{value:.2f}"


def _fmt_fraction(pct: float) -> str:
    return str(int(pct)) if float(pct).is_integer() else repr(float(pct))


@dataclass(frozen=True)
class GridReport:
    """Accuracy for every (iterations, hms) cell; the best cell is derived."""

    iteration_values: tuple[int, ...]   # row labels
    hms_values: tuple[int, ...]         # column labels
    cells: tuple[tuple[float, ...], ...]  # cells[row][col], percent

    def __post_init__(self) -> None:
        if not self.iteration_values or not self.hms_values:
            raise ValueError("grid labels must be non-empty")
        if len(self.cells) != len(self.iteration_values):
            raise ValueError("row count does not match iteration labels")
        for row in self.cells:
            if len(row) != len(self.hms_values):
                raise ValueError("column count does not match hms labels")
        bad = [v for row in self.cells for v in row if not 0.0 <= v <= 100.0]
        if bad:
            raise ValueError(f"grid cells must be accuracy percents in [0, 100], got {bad[0]}")

    def _best_cell(self) -> tuple[int, int]:
        # ties break to the lowest iteration count, then the lowest HMS
        top = max(v for row in self.cells for v in row)
        _, _, r, c = min(
            (self.iteration_values[r], self.hms_values[c], r, c)
            for r, row in enumerate(self.cells)
            for c, v in enumerate(row)
            if v == top
        )
        return r, c

    @property
    def best_row(self) -> int:
        return self._best_cell()[0]

    @property
    def best_col(self) -> int:
        return self._best_cell()[1]

    @property
    def best_accuracy(self) -> float:
        r, c = self._best_cell()
        return self.cells[r][c]


@dataclass(frozen=True)
class ComparisonRow:
    optimizer: str
    subset_size: int
    accuracy_percent: float
    execution_seconds: float

    def __post_init__(self) -> None:
        if self.subset_size < 1:
            raise ValueError(f"subset_size must be >= 1, got {self.subset_size}")
        if not 0.0 <= self.accuracy_percent <= 100.0:
            raise ValueError(f"accuracy out of range: {self.accuracy_percent}")
        if not 0.0 <= self.execution_seconds < math.inf:
            raise ValueError(f"execution time must be finite and >= 0, "
                             f"got {self.execution_seconds}")


@dataclass(frozen=True)
class ComparisonReport:
    """One row per optimizer: name, best subset size, accuracy, wall seconds."""

    rows: tuple[ComparisonRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("comparison report must have at least one row")


@dataclass(frozen=True)
class FractionSweepReport:
    """Accuracy at each requested fraction of the full feature count."""

    fraction_percents: tuple[float, ...]
    subset_sizes: tuple[int, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.fraction_percents)
        if n == 0:
            raise ValueError("fraction sweep must cover at least one fraction")
        if len(self.subset_sizes) != n or len(self.accuracies) != n:
            raise ValueError("fraction sweep field lengths differ")
        if any(k < 1 for k in self.subset_sizes):
            raise ValueError("subset sizes must be >= 1")
        bad = [pct for pct in self.fraction_percents if not 0.0 < pct <= 100.0]
        if bad:
            raise ValueError(f"fraction percents must be in (0, 100], got {bad[0]}")
        bad = [acc for acc in self.accuracies if not 0.0 <= acc <= 100.0]
        if bad:
            raise ValueError(f"accuracies must be percents in [0, 100], got {bad[0]}")

    @property
    def best_index(self) -> int:
        """Index of the highest accuracy; ties go to the earlier fraction."""
        return self.accuracies.index(max(self.accuracies))


def sweep_grid(
    hms_values: Sequence[int],
    iteration_values: Sequence[int],
    base: HsConfig,
    objective: SubsetObjective,
) -> GridReport:
    """Run HS for every (hms, iterations) pair with per-cell seeds.

    Every cell's config is built, and so checked, before the first search.
    """
    configs = [
        replace(base, hms=int(hms), max_iterations=int(iterations),
                seed=derive_seed(base.seed, "grid", str(hms), str(iterations)))
        for iterations in iteration_values for hms in hms_values
    ]
    runs = run_optimizers(configs, objective, reset_cache=False)
    fitness = iter(best.fitness for (best, _), _ in runs)
    return GridReport(
        iteration_values=tuple(int(v) for v in iteration_values),
        hms_values=tuple(int(v) for v in hms_values),
        cells=tuple(tuple(next(fitness) for _ in hms_values) for _ in iteration_values),
    )


def fraction_to_size(pct: float, n_features: int) -> int:
    """floor(pct * n_features / 100), never below 1."""
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"fraction percent must be in (0, 100], got {pct}")
    return max(1, math.floor(n_features * pct / 100.0))


def sweep_fractions(
    fractions: Sequence[float],
    base: HsConfig,
    objective: SubsetObjective,
) -> FractionSweepReport:
    """One HS run per fraction, subset size resolved by the floor rule.

    Every fraction's size and config are built, and so checked, before the
    first search.
    """
    sizes = [fraction_to_size(pct, base.n_features) for pct in fractions]
    configs = [
        replace(base, subset_size=k,
                seed=derive_seed(base.seed, "fraction", _fmt_fraction(pct)))
        for pct, k in zip(fractions, sizes)
    ]
    return FractionSweepReport(
        fraction_percents=tuple(float(p) for p in fractions),
        subset_sizes=tuple(sizes),
        accuracies=tuple(best.fitness for (best, _), _ in run_optimizers(
            configs, objective, reset_cache=False)),
    )


OptimizerConfig = HsConfig | GaConfig | PsoConfig | PcaConfig
# each optimizer's name, as the CLI spells it, and its config class
OPTIMIZERS = {"hs": HsConfig, "ga": GaConfig, "pso": PsoConfig, "pca": PcaConfig}


def run_optimizers(
    configs: Sequence[OptimizerConfig],
    objective: SubsetObjective,
    *,
    reset_cache: bool,
) -> list[tuple[object, float]]:
    """Run each config's optimizer on the objective in order; (result, wall seconds) each.

    Every config is checked first: one no optimizer takes is a TypeError, a PCA
    component count the folds cannot hold a ValueError. reset_cache clears the
    cache before each run, else the runs share it (scores are pure). A result is
    hs_run's, ga_run's or pso_run's (best, history) pair, or pca_run's PcaSweepResult.
    """
    # looked up per call, so a run function replaced on this module is the one that runs
    runners = {HsConfig: hs_run, GaConfig: ga_run, PsoConfig: pso_run, PcaConfig: pca_run}
    for cfg in configs:
        if type(cfg) not in runners:
            raise TypeError(f"unsupported optimizer config: {type(cfg).__name__}")
        if isinstance(cfg, PcaConfig):
            pca_candidates(cfg, objective)
    timed = []
    for cfg in configs:
        if reset_cache:
            objective.reset_cache()
        start = time.perf_counter()
        result = runners[type(cfg)](cfg, objective)
        timed.append((result, time.perf_counter() - start))
    return timed


def compare_optimizers(
    configs: Sequence[OptimizerConfig],
    objective: SubsetObjective,
) -> ComparisonReport:
    """Run each optimizer against a freshly cleared cache and time the run.

    The cache reset keeps the wall-clock column fair: no optimizer inherits
    evaluations paid for by an earlier one.
    """
    rows: list[ComparisonRow] = []
    for cfg, (result, elapsed) in zip(configs, run_optimizers(configs, objective,
                                                              reset_cache=True)):
        if isinstance(cfg, PcaConfig):
            size, acc = result.components, result.accuracy_percent
        else:
            best, _ = result
            size, acc = best.subset.k, best.fitness
        name = next(name for name, cls in OPTIMIZERS.items() if type(cfg) is cls)
        rows.append(ComparisonRow(name.upper(), size, acc, elapsed))
    return ComparisonReport(rows=tuple(rows))


# --- rendering ---

_COMPARISON_HEADER = ["optimizer", "subset_size", "accuracy_percent", "execution_seconds"]
_FRACTIONS_HEADER = ["fraction_percent", "subset_size", "accuracy_percent"]


def _grid_table(report: GridReport):
    header = ["iterations", *(str(h) for h in report.hms_values)]
    body = [[str(it), *(_fmt_acc(v) for v in row)]
            for it, row in zip(report.iteration_values, report.cells)]
    # column 0 of the body holds the iteration labels
    return header, body, (report.best_row, report.best_col + 1)


def _comparison_table(report: ComparisonReport):
    body = [[row.optimizer, str(row.subset_size), _fmt_acc(row.accuracy_percent),
             f"{row.execution_seconds:.2f}"] for row in report.rows]
    return _COMPARISON_HEADER, body, None


def _fractions_table(report: FractionSweepReport):
    body = [[_fmt_fraction(pct), str(k), _fmt_acc(acc)] for pct, k, acc in zip(
        report.fraction_percents, report.subset_sizes, report.accuracies)]
    return _FRACTIONS_HEADER, body, None


# report type -> (header, body rows, (row, column) of the body cell Markdown bolds)
_TABLES = {
    GridReport: _grid_table,
    ComparisonReport: _comparison_table,
    FractionSweepReport: _fractions_table,
}


def _csv_lines(header: list[str], body: list[list[str]], bold) -> list[str]:
    return [",".join(row) for row in (header, *body)]


def _markdown_lines(header: list[str], body: list[list[str]], bold) -> list[str]:
    def line(cells):
        return "| " + " | ".join(cells) + " |"

    return [line(header), "|" + " --- |" * len(header)] + [
        line([f"**{cell}**" if (r, c) == bold else cell for c, cell in enumerate(row)])
        for r, row in enumerate(body)
    ]


_WRITERS = {"csv": _csv_lines, "markdown": _markdown_lines}


def render_report(report, fmt: str = "csv") -> str:
    """Render a grid, comparison or fraction-sweep report as CSV or Markdown."""
    table = _TABLES.get(type(report))
    writer = _WRITERS.get(fmt)
    if table is None or writer is None:
        raise ValueError(f"no {fmt!r} renderer for {type(report).__name__}")
    return "\n".join(writer(*table(report))) + "\n"


def render_comparison_csv(report: ComparisonReport) -> str:
    return render_report(report, "csv")


def emit_report(report, fmt: str, path) -> None:
    """Write a report to disk; same report + format -> byte-identical file."""
    text = render_report(report, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# --- parsing (CSV only; round-trips the emitted files) ---

def _read_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"a row's cell count differs from the header's: {path}")
    return rows


def read_grid_csv(path) -> GridReport:
    rows = _read_rows(path)
    if not rows or rows[0][0] != "iterations":
        raise ValueError(f"not a grid report: {path}")
    hms_values = tuple(int(v) for v in rows[0][1:])
    iteration_values = tuple(int(row[0]) for row in rows[1:])
    cells = tuple(tuple(float(v) for v in row[1:]) for row in rows[1:])
    return GridReport(iteration_values, hms_values, cells)


def read_comparison_csv(path) -> ComparisonReport:
    rows = _read_rows(path)
    if not rows or rows[0] != _COMPARISON_HEADER:
        raise ValueError(f"not a comparison report: {path}")
    parsed = tuple(
        ComparisonRow(row[0], int(row[1]), float(row[2]), float(row[3]))
        for row in rows[1:]
    )
    return ComparisonReport(rows=parsed)


def read_fractions_csv(path) -> FractionSweepReport:
    rows = _read_rows(path)
    if not rows or rows[0] != _FRACTIONS_HEADER:
        raise ValueError(f"not a fraction sweep report: {path}")
    body = rows[1:]
    return FractionSweepReport(
        fraction_percents=tuple(float(row[0]) for row in body),
        subset_sizes=tuple(int(row[1]) for row in body),
        accuracies=tuple(float(row[2]) for row in body),
    )
