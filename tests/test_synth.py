import pytest

from subsetharmony.synth import blob_dataset, planted_dataset


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_samples=3), r"^n_samples must be >= 4, got 3$"),
    (dict(n_features=5, n_informative=0), r"^n_informative must be in \[1, 5\], got 0$"),
    (dict(n_features=5, n_informative=6), r"^n_informative must be in \[1, 5\], got 6$"),
    (dict(class_sep=0.0), r"^class_sep must be > 0, got 0.0$"),
], ids=["n_samples", "no-informative", "too-many-informative", "class_sep"])
def test_planted_dataset_rejects_bad_arguments(kwargs, match):
    with pytest.raises(ValueError, match=match):
        planted_dataset(**kwargs)


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_per_class=1), r"^n_per_class must be >= 2, got 1$"),
    (dict(n_classes=1), r"^n_classes must be >= 2, got 1$"),
    (dict(noise=-0.5), r"^noise must be >= 0, got -0.5$"),
], ids=["n_per_class", "n_classes", "noise"])
def test_blob_dataset_rejects_bad_arguments(kwargs, match):
    with pytest.raises(ValueError, match=match):
        blob_dataset(**kwargs)
