"""Measurement loops, metric derivation and output of the benchmark.

Imported by run.py once the package sources are on sys.path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy

from subsetharmony.dataset import load_csv
from subsetharmony.harmony import HsConfig
from subsetharmony.subsets import FeatureSubset
from subsetharmony.wrapper import evaluate_subset
from tracing import Tracer, summarize
from workloads import LABEL, WORKLOADS, check_rep, make_inputs, objective_config, run_rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 5
MIN_REPS = 2
FOLDS = 3               # the CLI's --folds default, used by every workload
DEFAULT_EPOCHS = 1000   # the CLI's --epochs default, for the calibration figure
MIB = 1024.0 * 1024.0
LAYERS = ("classifiers", "dataset", "wrapper", "harmony", "baselines", "harness")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def probe_setup(csv_path: Path, classifier: str) -> list[dict]:
    """Set-up timings of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(csv_path), classifier],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Operations attempted, and one message per failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def run_checked(wl, inputs, tally: Tally, tracer=None):
    """One repetition plus its checks; a crash fails all of its operations."""
    try:
        rep = run_rep(wl, inputs, tracer)
        tally.add(*check_rep(wl, inputs, rep, WORK, tracer))
        return rep
    except Exception:  # noqa: BLE001 - a crashing program is a failed operation
        traceback.print_exc()
        ops = len(wl.optimizers) + (1 if wl.compare else 0)
        tally.add(ops, [f"{wl.name}: repetition raised"] * ops)
        return None


def end_to_end(wl, args, tally: Tally, setup: list[dict]):
    """Repetitions on fresh inputs until the next one would overrun --seconds."""
    reps: list = []
    start = perf_counter()
    while True:
        reps.append(run_checked(wl, make_inputs(wl, args.seed, len(reps), WORK), tally))
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    done = [r for r in reps if r is not None]
    if not done:
        return None, {}
    misses = [s for r in done for s in r.miss_seconds]
    wall = [r.wall_s for r in done]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": statistics.median(wall),
        "evals_per_s": len(misses) / sum(wall),
        "eval_ms_p50": 1e3 * statistics.median(misses),
        "eval_ms_p90": 1e3 * statistics.quantiles(misses, n=10, method="inclusive")[8],
        "best_accuracy_pct": statistics.fmean(r.accuracy_pct for r in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
    }
    notes = {
        "reps": len(reps),
        "eval_samples": len(misses),
        "planted_recovered": statistics.fmean(r.planted_recovered for r in done),
        "walls": wall,
        "cpus": [r.cpu_s for r in done],
        "counts_per_rep": [r.segments for r in done],
    }
    return metrics, notes


def layer_metrics(wl, tracer: Tracer, rep, load_csv_s: float) -> dict:
    by_name, by_layer = summarize(tracer.spans)

    def get(name, key="s"):
        return by_name.get(name, {}).get(key, 0)

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    steps = get("classifiers.mlp_train", "steps")
    us_per_step = per(get("classifiers.mlp_train"), steps, 1e6)
    calls = sum(c for c, _ in rep.segments)
    unique = sum(u for _, u in rep.segments)
    replaced = [flag for cfg, result in rep.runs if isinstance(cfg, HsConfig)
                for flag in result[1].replaced]
    m = {
        "classifiers.mlp_train.calls": get("classifiers.mlp_train", "calls"),
        "classifiers.mlp_train.steps": steps,
        "classifiers.mlp_train.s": get("classifiers.mlp_train"),
        "classifiers.mlp_train.us_per_step": us_per_step,
        # a default-epoch evaluation trains on (folds - 1) * n rows per epoch
        "classifiers.mlp_train.default_eval_s_derived":
            DEFAULT_EPOCHS * (FOLDS - 1) * wl.n_samples * us_per_step / 1e6 if steps else 0.0,
        "classifiers.mlp_predict.s": get("classifiers.mlp_predict"),
        "classifiers.knn_predict.calls": get("classifiers.knn_predict", "calls"),
        "classifiers.knn_predict.s": get("classifiers.knn_predict"),
        "classifiers.knn_predict.us_per_query": per(
            get("classifiers.knn_predict"), get("classifiers.knn_predict", "queries"), 1e6),
        "classifiers.knn_predict.tensor_mb_computed":
            get("classifiers.knn_predict", "tensor_bytes_max") / MIB,
        "dataset.project.s": get("dataset.project"),
        "dataset.take_rows.s": get("dataset.take_rows"),
        "dataset.standardize.s": get("dataset.standardize"),
        "dataset.stratified_kfold.s": get("dataset.stratified_kfold"),
        "dataset.stratified_kfold.calls": get("dataset.stratified_kfold", "calls"),
        "dataset.load_csv.s": load_csv_s,
        "wrapper.objective.calls": calls,
        "wrapper.objective.unique": unique,
        "wrapper.cache.hit_ratio": per(calls - unique, calls),
        "wrapper.evaluate_subset.self_s": get("wrapper.evaluate_subset", "self_s"),
        "harmony.improvise.calls": get("harmony.improvise", "calls"),
        "harmony.improvise.us": per(get("harmony.improvise"),
                                    get("harmony.improvise", "calls"), 1e6),
        "harmony.replace_worst.replaced_ratio": per(sum(replaced), len(replaced)),
        "harmony.overhead_us_per_candidate": per(
            get("harmony.hs_run", "outside_s"), get("harmony.hs_run", "candidates"), 1e6),
        "baselines.ga.overhead_us_per_candidate": per(
            get("baselines.ga_run", "outside_s"), get("baselines.ga_run", "candidates"), 1e6),
        "baselines.pso.overhead_us_per_candidate": per(
            get("baselines.pso_run", "outside_s"), get("baselines.pso_run", "candidates"), 1e6),
        "baselines.evaluate_components.s": get("baselines.evaluate_components"),
        "baselines.pca_fit.s": get("baselines.pca_fit"),
        "harness.compare.hs.s": get("harmony.hs_run", "in_compare_s"),
        "harness.compare.ga.s": get("baselines.ga_run", "in_compare_s"),
        "harness.compare.pso.s": get("baselines.pso_run", "in_compare_s"),
        "harness.compare.pca.s": get("baselines.pca_run", "in_compare_s"),
        "harness.render.s": get("harness.render"),
        "trace.spans": len(tracer.spans),
        "quality.planted_recovered": rep.planted_recovered,
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = by_layer.get(layer, 0.0)
    return m


def span_counts(tracer: Tracer) -> dict:
    """Calls and integer work counts per span name (no times)."""
    by_name, _ = summarize(tracer.spans)
    return {name: {k: v for k, v in stats.items() if not isinstance(v, float)}
            for name, stats in by_name.items()}


def per_layer(wl, args, tally: Tally, setup: list[dict]):
    """The first input twice untraced and twice traced, alternating."""
    inputs = make_inputs(wl, args.seed, 0, WORK)
    tracers = [Tracer(), Tracer()]
    untraced, traced = [], []
    for tracer in tracers:
        untraced.append(run_checked(wl, inputs, tally))
        traced.append(run_checked(wl, inputs, tally, tracer))
    trace_path = WORK / f"trace-{wl.name}-seed{args.seed}.jsonl"
    trace_path.unlink(missing_ok=True)
    for tracer in tracers:
        tracer.write(trace_path)
    reps = untraced + traced
    if None in reps:
        return None, {}
    tally.attempted += 1
    if (len({r.fingerprint() for r in reps}) != 1
            or span_counts(tracers[0]) != span_counts(tracers[1])):
        tally.failures.append("counts or outputs differ between runs of one seed")
    load_csv_s = statistics.median(s["load_csv_s"] for s in setup)
    runs = [layer_metrics(wl, t, r, load_csv_s) for t, r in zip(tracers, traced)]
    # counts agree (checked above); times are the median of the traced runs
    metrics = {key: statistics.median(m[key] for m in runs) if isinstance(runs[0][key], float)
               else runs[0][key] for key in runs[0]}
    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    notes = {
        "trace_file": str(trace_path.relative_to(ROOT)),
        "self_share_pct": {layer: 100.0 * metrics[f"layer.{layer}.self_s"] / traced_wall
                           for layer in LAYERS},
        "counts": span_counts(tracers[0]),
    }
    return metrics, notes


def warm_up(wl, inputs) -> None:
    """One uncached evaluation, so first-call costs fall outside the timed runs."""
    d = load_csv(inputs.csv_path, LABEL)
    evaluate_subset(d, FeatureSubset(tuple(range(wl.k))), objective_config(wl, inputs.cli_seed))


def run(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)

    inputs = make_inputs(wl, args.seed, 0, WORK)
    setup = probe_setup(inputs.csv_path, wl.classifier)
    warm_up(wl, inputs)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(wl, args, tally, setup)
    if metrics is None:
        print(f"error: every repetition of {wl.name} failed", file=sys.stderr)
        return 1

    env = environment()
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    out = WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                                   environment=env, notes=notes, failures=tally.failures,
                                   setup_samples=setup, all_metrics=metrics), indent=1) + "\n",
                   encoding="utf-8")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"cpu={env['cpu']!r} blas={env['blas']!r} threads={env['blas_threads']}")
    for m in wanted:
        print(f"  {m['name']:<46} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    if args.trace:
        print(f"  tracing overhead: {metrics['trace.overhead_s']:.4f} s on "
              f"{metrics['trace.untraced_wall_s']:.4f} s untraced")
        print("  self time share of traced wall: " + ", ".join(
            f"{k} {v:.1f}%" for k, v in notes["self_share_pct"].items()))
        print(f"  spans: {notes['trace_file']}")
    else:
        print(f"  eval_ms_* over {notes['eval_samples']} cache-missing objective calls "
              f"in {notes['reps']} repetitions")
        print(f"  planted_recovered {notes['planted_recovered']:.4g} count "
              "(mean per repetition, higher is better)")
    print(f"  failed_frac {len(tally.failures) / max(tally.attempted, 1):.4g} "
          f"({len(tally.failures)} of {tally.attempted} operations)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
