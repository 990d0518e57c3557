"""In-memory span recorder, and the summaries the per-layer metrics come from.

Spans are recorded from the benchmark's side only: LAYER_PATCHES lists the
module attributes through which the program calls each layer, and a traced
repetition replaces them with recording wrappers while it runs. Nothing
under src/ knows about tracing.
"""

from __future__ import annotations

import json
import uuid
from contextlib import contextmanager
from time import perf_counter

from subsetharmony import baselines, harmony, harness, wrapper

# (module, attribute, span name). A module that looks a function up in its
# own namespace gets its own entry, so every call site of a layer is covered.
LAYER_PATCHES = (
    (wrapper, "evaluate_subset", "wrapper.evaluate_subset"),
    (wrapper, "mlp_train", "classifiers.mlp_train"),
    (wrapper, "mlp_predict", "classifiers.mlp_predict"),
    (wrapper, "knn_predict", "classifiers.knn_predict"),
    (wrapper, "project", "dataset.project"),
    (wrapper, "take_rows", "dataset.take_rows"),
    (wrapper, "standardize", "dataset.standardize"),
    (wrapper, "stratified_kfold", "dataset.stratified_kfold"),
    (baselines, "take_rows", "dataset.take_rows"),
    (baselines, "standardize", "dataset.standardize"),
    (baselines, "stratified_kfold", "dataset.stratified_kfold"),
    (baselines, "evaluate_components", "baselines.evaluate_components"),
    (baselines, "pca_fit", "baselines.pca_fit"),
    (harmony, "improvise", "harmony.improvise"),
    (harmony, "hs_run", "harmony.hs_run"),
    (harness, "hs_run", "harmony.hs_run"),
    (harness, "ga_run", "baselines.ga_run"),
    (harness, "pso_run", "baselines.pso_run"),
    (harness, "pca_run", "baselines.pca_run"),
    (harness, "compare_optimizers", "harness.compare_optimizers"),
)

OBJECTIVE_SPAN = "wrapper.objective"
OPTIMIZER_SPANS = ("harmony.hs_run", "baselines.ga_run", "baselines.pso_run")
COMPARE_SPAN = "harness.compare_optimizers"


def _mlp_work(train, cfg):
    return {"steps": train.n_samples * cfg.epochs}


def _knn_work(train, cfg, samples):
    # bytes of the (q, t, f) float64 difference tensor knn_predict builds
    return {"queries": samples.n_samples,
            "tensor_bytes": samples.n_samples * train.n_samples * train.n_features * 8}


WORK_COUNTERS = {"classifiers.mlp_train": _mlp_work, "classifiers.knn_predict": _knn_work}


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples, restoring the old values on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, value in replacements:
        setattr(module, attr, value)
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """Spans of one run, each [name, start, end, parent index, work counts]."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, work) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name, None)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, fn, name: str):
        work = WORK_COUNTERS.get(name)

        def traced(*args, **kwargs):
            record = self._open(name, work(*args, **kwargs) if work else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def layer_patches(self):
        """Replacements for `patched` that trace every call into a layer."""
        return [(module, attr, self.wrap(getattr(module, attr), name))
                for module, attr, name in LAYER_PATCHES]

    def write(self, path) -> None:
        """Append the spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "work": work}) + "\n")


def summarize(spans) -> tuple[dict, dict]:
    """Per span name: calls, seconds, self seconds and summed/max work counts;
    per layer (the name's first dotted part): self seconds.

    Self time is a span's duration minus the durations of its direct
    children. Optimizer spans also get `outside_s`, their duration minus the
    objective calls they made, and `candidates`, the number of those calls.
    Spans whose parent is a compare span add their duration to `in_compare_s`.
    """
    children_s = [0.0] * len(spans)
    objective_s = [0.0] * len(spans)
    objective_calls = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children_s[parent] += end - start
            if name == OBJECTIVE_SPAN:
                objective_s[parent] += end - start
                objective_calls[parent] += 1
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        duration = end - start
        stats = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["s"] += duration
        stats["self_s"] += duration - children_s[i]
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + duration - children_s[i]
        for key, value in (work or {}).items():
            stats[key] = stats.get(key, 0) + value
            stats[key + "_max"] = max(stats.get(key + "_max", 0), value)
        if name in OPTIMIZER_SPANS:
            stats["outside_s"] = stats.get("outside_s", 0.0) + duration - objective_s[i]
            stats["candidates"] = stats.get("candidates", 0) + objective_calls[i]
        if parent >= 0 and spans[parent][0] == COMPARE_SPAN:
            stats["in_compare_s"] = stats.get("in_compare_s", 0.0) + duration
    return by_name, by_layer
