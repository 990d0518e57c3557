"""The package exports the documented API and nothing it no longer offers."""

import subsetharmony

# HarmonyMemory (the memory is a plain list), the harmony-search internals still
# importable from subsetharmony.harmony (pitch_adjust is gone altogether), the
# leave-one-out wrapper that LeaveOneOutObjective replaces, and the MLP gradient
# oracle, which lives with the tests (tests/mlp_reference.py)
REMOVED = ("HarmonyMemory", "improvise", "initialize_memory", "pitch_adjust",
           "random_subset", "replace_worst", "loo_knn_accuracy", "mlp_gradient",
           "mlp_loss", "MlpGradients")


def test_every_exported_name_resolves_once():
    assert [name for name in subsetharmony.__all__ if not hasattr(subsetharmony, name)] == []
    assert len(set(subsetharmony.__all__)) == len(subsetharmony.__all__)


def test_removed_names_are_gone():
    assert [name for name in REMOVED
            if name in subsetharmony.__all__ or hasattr(subsetharmony, name)] == []
