import pytest

from subsetharmony import FeatureSubset


def test_basic_fields():
    s = FeatureSubset((5, 1, 3))
    assert s.k == 3
    assert s.indices == (5, 1, 3)


def test_key_is_sorted_and_order_insensitive():
    assert FeatureSubset((5, 1, 3)).key == (1, 3, 5)
    assert FeatureSubset((3, 5, 1)).key == FeatureSubset((1, 3, 5)).key


def test_empty_rejected():
    with pytest.raises(ValueError):
        FeatureSubset(())


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        FeatureSubset((1, 2, 1))


def test_negative_rejected():
    with pytest.raises(ValueError):
        FeatureSubset((0, -1))


def test_hashable_by_content():
    assert FeatureSubset((1, 2)) == FeatureSubset((1, 2))
    assert hash(FeatureSubset((1, 2))) == hash(FeatureSubset((1, 2)))
    assert FeatureSubset((1, 2)) != FeatureSubset((2, 1))
