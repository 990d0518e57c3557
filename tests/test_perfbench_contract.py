"""What the benchmark under perfbench/ needs from the package.

The benchmark traces and captures runs by replacing module attributes at
call time (tracing.LAYER_PATCHES, workloads.CAPTURED) and subclasses
SubsetObjective. A refactor that renames one of those attributes, or that
binds a run function where replacing the module attribute no longer
reaches it, breaks every benchmark run; these tests catch that first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from subsetharmony import GaConfig, ObjectiveConfig, SubsetObjective, harness  # noqa: E402


@pytest.mark.parametrize("module, attr, span", tracing.LAYER_PATCHES,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_attribute_resolves(module, attr, span):
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("module, attr", workloads.CAPTURED)
def test_captured_attribute_resolves(module, attr):
    assert callable(getattr(module, attr))


def test_compare_optimizers_sees_patched_runner(tiny8, monkeypatch):
    seen = []
    real = harness.ga_run

    def spy(cfg, objective):
        seen.append(cfg)
        return real(cfg, objective)

    monkeypatch.setattr(harness, "ga_run", spy)
    cfg = GaConfig(n_features=8, subset_size=3, population=4, generations=2, seed=0)
    objective = SubsetObjective(tiny8, ObjectiveConfig(classifier="knn", folds=2))
    harness.compare_optimizers([cfg], objective)
    assert seen == [cfg]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_small_workload_passes_its_checks(tmp_path, traced):
    wl = workloads.Workload("contract", 60, 6, 2, "knn", 2, ("hs", "ga", "pso", "pca"),
                            True, generations=3, pso_iterations=3, components=2)
    inputs = workloads.make_inputs(wl, 1, 0, tmp_path)
    tracer = tracing.Tracer() if traced else None
    rep = workloads.run_rep(wl, inputs, tracer)
    attempted, failures = workloads.check_rep(wl, inputs, rep, tmp_path, tracer)
    assert (attempted, failures) == (len(wl.optimizers) + 1, [])
    if traced:
        by_name, _ = tracing.summarize(tracer.spans)
        assert by_name["wrapper.objective"]["calls"] == sum(c for c, _ in rep.segments)
        assert by_name["baselines.evaluate_components"]["calls"] == 1
        # one prediction per fold of every subset and PCA evaluation
        assert by_name["classifiers.knn_predict"]["calls"] == 3 * (
            by_name["wrapper.evaluate_subset"]["calls"]
            + by_name["baselines.evaluate_components"]["calls"])
        # the folds come from one plan per dataset, however many subsets are scored
        assert by_name["wrapper.evaluate_subset"]["calls"] > 1
        assert by_name["dataset.stratified_kfold"]["calls"] == 1


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_small_mlp_workload_passes_its_checks(tmp_path, traced, monkeypatch):
    # the MLP path: every best fitness must equal a fresh evaluation, which
    # trains the folds in lockstep again from scratch
    wl = workloads.Workload("contract_mlp", 60, 6, 2, "mlp", 2, ("hs", "ga", "pca"), True,
                            epochs=2, generations=3, components=2)
    inputs = workloads.make_inputs(wl, 1, 0, tmp_path)
    # subsets prefetch scored in a batch, outside evaluate_subset
    batched = []
    prefetch = SubsetObjective.prefetch

    def counting_prefetch(self, subsets):
        before = len(self.pending)
        prefetch(self, subsets)
        batched.append(len(self.pending) - before)

    monkeypatch.setattr(SubsetObjective, "prefetch", counting_prefetch)
    tracer = tracing.Tracer() if traced else None
    rep = workloads.run_rep(wl, inputs, tracer)
    attempted, failures = workloads.check_rep(wl, inputs, rep, tmp_path, tracer)
    assert (attempted, failures) == (len(wl.optimizers) + 1, [])
    assert sum(batched) > 0
    if traced:
        by_name, _ = tracing.summarize(tracer.spans)
        assert by_name["wrapper.objective"]["calls"] == sum(c for c, _ in rep.segments)
        # one prediction per fold of every subset scored on demand or in a
        # batch, and of every PCA evaluation; HS and GA hand every miss to a
        # batch here, so evaluate_subset may have no span at all
        on_demand = by_name.get("wrapper.evaluate_subset", {"calls": 0})["calls"]
        assert by_name["classifiers.mlp_predict"]["calls"] == 3 * (
            on_demand + sum(batched) + by_name["baselines.evaluate_components"]["calls"])
