"""Feature-subset encoding shared by all optimizers."""

from __future__ import annotations

from dataclasses import dataclass


def check_subset_size(n_features: int, subset_size: int) -> None:
    """Reject an optimizer's search space unless 1 <= subset_size <= n_features."""
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    if not 1 <= subset_size <= n_features:
        raise ValueError(f"subset_size must be in [1, {n_features}], got {subset_size}")


@dataclass(frozen=True)
class FeatureSubset:
    """A fixed-cardinality set of distinct feature column indices.

    The stored order is the order an optimizer produced; set identity
    ignores it. Bounds against a concrete feature count are checked where
    the subset is applied.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) == 0:
            raise ValueError("feature subset must not be empty")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"feature subset has duplicate indices: {self.indices}")
        if any(i < 0 for i in self.indices):
            raise ValueError(f"feature subset has negative indices: {self.indices}")

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def key(self) -> tuple[int, ...]:
        """Canonical (sorted) form; subset identity for caching."""
        return tuple(sorted(self.indices))
