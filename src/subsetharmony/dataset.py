"""Dataset model, CSV ingestion, stratified k-fold generation and projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .subsets import FeatureSubset


class DatasetError(ValueError):
    """Raised for unreadable, malformed or inconsistent dataset input."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable numeric feature matrix with dense integer class labels.

    features    (n_samples, n_features) float64, all finite
    labels      (n_samples,) int64 in 0..n_classes-1
    feature_names  one name per column
    class_names    one name per class id
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise DatasetError(f"features must be 2-D, got shape {features.shape}")
        n_samples, n_features = features.shape
        if n_samples < 1 or n_features < 1:
            raise DatasetError(f"dataset needs >=1 samples and features, got {features.shape}")
        if labels.shape != (n_samples,):
            raise DatasetError(
                f"labels length {labels.shape} does not match {n_samples} samples"
            )
        if not np.all(np.isfinite(features)):
            raise DatasetError("features contain non-finite values")
        names = tuple(str(n) for n in self.feature_names)
        classes = tuple(str(c) for c in self.class_names)
        if len(names) != n_features:
            raise DatasetError(f"{len(names)} feature names for {n_features} columns")
        if labels.dtype.kind not in "iu":
            # checked before the cast, which would turn 1.7 into 1 and warn on nan;
            # integer labels, as every fold plan builds, skip the check
            labels = np.asarray(labels, dtype=np.float64)
            if not np.all(np.isfinite(labels) & (labels == np.trunc(labels))):
                raise DatasetError("labels must be finite integral class ids")
        if labels.min() < 0 or labels.max() >= len(classes):
            raise DatasetError("labels must be 0-based class ids below n_classes")
        object.__setattr__(self, "features", _frozen(features))
        object.__setattr__(self, "labels", _frozen(labels.astype(np.int64, copy=False)))
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "class_names", classes)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def load_csv(path: str | Path, label_column: str) -> Dataset:
    """Load a plain comma-separated file into a Dataset.

    First row is the header; `label_column` selects the class column and every
    other column must parse as a finite real number. Class ids are assigned in
    order of first appearance. Quoted fields are rejected. Spaces around header
    and label cells are dropped, and so are blank lines; row numbers in messages
    count every line of the file.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"no such file: {path}")
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise DatasetError(f"{path}: empty file")
    header = [cell.strip() for cell in lines[0].split(",")]
    if any('"' in cell for cell in header):
        raise DatasetError(f"{path}: quoted fields are not supported")
    if label_column not in header:
        raise DatasetError(f"{path}: label column {label_column!r} not in header {header}")
    if header.count(label_column) > 1:
        raise DatasetError(f"{path}: label column {label_column!r} appears more than once "
                           f"in header {header}")
    label_idx = header.index(label_column)
    feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    if not feature_names:
        raise DatasetError(f"{path}: no feature columns besides {label_column!r}")

    rows: list[list[float]] = []
    raw_labels: list[str] = []
    for row_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if any('"' in cell for cell in cells):
            raise DatasetError(f"{path}: row {row_no}: quoted fields are not supported")
        if len(cells) != len(header):
            raise DatasetError(
                f"{path}: row {row_no} has {len(cells)} cells, expected {len(header)}"
            )
        values = []
        for col, cell in enumerate(cells):
            if col == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {row_no}, column {header[col]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}: row {row_no}, column {header[col]!r}: "
                    f"non-finite value {cell!r}"
                )
            values.append(value)
        rows.append(values)
        raw_labels.append(cells[label_idx].strip())
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    class_names: list[str] = []
    class_id: dict[str, int] = {}
    labels = []
    for raw in raw_labels:
        if raw not in class_id:
            class_id[raw] = len(class_names)
            class_names.append(raw)
        labels.append(class_id[raw])

    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        feature_names=feature_names,
        class_names=tuple(class_names),
    )


def write_csv(d: Dataset, path: str | Path, label_column: str = "label") -> Path:
    """Write a Dataset back to CSV so that load_csv round-trips it exactly.

    Feature values use shortest round-trip float formatting, so reloading
    reproduces the array bit-for-bit. Feature, label and class names that
    load_csv would not read back unchanged raise DatasetError: names holding
    a comma, a quote or a line break, or starting or ending with a space.
    """
    path = Path(path)
    if label_column in d.feature_names:
        raise DatasetError(f"label column name {label_column!r} clashes with a feature name")
    unreadable = [name for name in dict.fromkeys((*d.feature_names, label_column,
                                                  *d.class_names))
                  if "," in name or '"' in name or name != name.strip()
                  or len(name.splitlines()) > 1]
    if unreadable:
        raise DatasetError(f"name(s) {', '.join(map(repr, unreadable))} would not read back "
                           "unchanged: a CSV name holds no comma, quote or line break, "
                           "and no space at either end")
    out = [",".join(list(d.feature_names) + [label_column])]
    for row, label in zip(d.features, d.labels):
        cells = [repr(float(v)) for v in row]
        cells.append(d.class_names[label])
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def take_rows(d: Dataset, indices: np.ndarray) -> Dataset:
    """Dataset restricted to the given sample rows (class ids unchanged)."""
    indices = np.asarray(indices, dtype=np.int64)
    return Dataset(
        features=d.features[indices],
        labels=d.labels[indices],
        feature_names=d.feature_names,
        class_names=d.class_names,
    )


def stratified_kfold(d: Dataset, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded stratified k-fold split: one (train_rows, test_rows) pair per fold.

    Within each class the samples are shuffled and dealt round-robin, so
    per-class fold sizes differ by at most one. Both row arrays are ascending
    int64. Depends only on the labels and the seed, not on the feature columns.
    """
    if k < 2:
        raise DatasetError(f"fold count must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    fold_of_row = np.empty(d.n_samples, dtype=np.int64)
    for c in range(d.n_classes):
        members = np.flatnonzero(d.labels == c)
        if len(members) < k:
            raise DatasetError(
                f"class {d.class_names[c]!r} has {len(members)} sample(s), fewer than k={k}"
            )
        shuffled = members[rng.permutation(len(members))]
        fold_of_row[shuffled] = np.arange(len(members)) % k
    return [(np.flatnonzero(fold_of_row != f), np.flatnonzero(fold_of_row == f))
            for f in range(k)]


def project(d: Dataset, s: FeatureSubset) -> Dataset:
    """Dataset restricted to the subset's columns, in the subset's order."""
    for i in s.indices:
        if i >= d.n_features:
            raise DatasetError(f"feature index {i} out of range for {d.n_features} columns")
    cols = list(s.indices)
    # columns of a checked Dataset are checked: skip __post_init__
    out = object.__new__(Dataset)
    for field, value in (("features", _frozen(d.features.take(cols, axis=1))),
                         ("labels", d.labels),
                         ("feature_names", tuple(d.feature_names[i] for i in cols)),
                         ("class_names", d.class_names)):
        object.__setattr__(out, field, value)
    return out


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Column z-scores computed from the train part only.

    Zero-variance train columns map to all zeros in both parts, so subsets
    that pick up constant columns stay evaluable. Columns whose statistics or
    z-scores overflow float64 raise DatasetError, which names them.
    """
    if train.n_features != test.n_features:
        raise DatasetError(
            f"train has {train.n_features} features but test has {test.n_features}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.features.mean(axis=0)
        sd = train.features.std(axis=0)
        constant = sd == 0.0
        safe_sd = np.where(constant, 1.0, sd)
        parts = [(d.features - mean) / safe_sd for d in (train, test)]
    for z in parts:
        z[:, constant] = 0.0
    if not all(np.isfinite(a).all() for a in (mean, sd, *parts)):
        overflowed = ~np.isfinite(np.vstack([mean, sd, *parts])).all(axis=0)
        names = ", ".join(repr(train.feature_names[i]) for i in np.flatnonzero(overflowed))
        raise DatasetError(f"column(s) {names} too large to standardize: their mean, "
                           "standard deviation or z-scores overflow float64")
    return tuple(Dataset(z, d.labels, d.feature_names, d.class_names)
                 for z, d in zip(parts, (train, test)))
