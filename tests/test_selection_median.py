"""The full-domain scan kernel: selection median and zero-copy table reads.

``HashSketch.point_estimates`` takes its per-column median by row-wise
selection on wide inputs; every answer downstream relies on it being
bit-for-bit ``np.median(axis=0)``, so equality here is on the raw bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketches import hash_sketch
from repro.sketches.hash_sketch import HashSketchSchema, _selection_median

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5])


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def selection(per_table: np.ndarray) -> np.ndarray:
    out = np.empty(per_table.shape[1], dtype=np.float64)
    _selection_median(per_table.copy(), out)
    return out


def special_columns(depth: int, columns: int, seed: int) -> np.ndarray:
    """Gaussian rows with half the entries swapped for ±0/±inf/NaN/ties."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((depth, columns))
    swap = rng.random((depth, columns)) < 0.5
    data[swap] = rng.choice(SPECIALS, size=int(swap.sum()))
    return data


class TestSelectionMedian:
    @pytest.mark.parametrize("depth", range(1, 17))
    def test_matches_np_median_on_gaussian_columns(self, depth):
        data = np.random.default_rng(depth).standard_normal((depth, 3000))
        assert bits(selection(data)) == bits(np.median(data, axis=0))

    @pytest.mark.parametrize("depth", range(1, 17))
    def test_matches_np_median_with_signed_zeros_infs_and_nans(self, depth):
        data = special_columns(depth, 4000, seed=100 + depth)
        with np.errstate(invalid="ignore"):
            want = np.median(data, axis=0)
            got = selection(data)
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 7, 8])
    def test_all_zero_columns(self, depth):
        data = np.where(
            np.random.default_rng(depth).random((depth, 64)) < 0.5, -0.0, 0.0
        )
        assert bits(selection(data)) == bits(np.median(data, axis=0))

    def test_nan_anywhere_in_a_column_propagates(self):
        data = np.arange(35, dtype=np.float64).reshape(7, 5)
        for column in range(5):
            data[column, column] = np.nan
        assert np.isnan(selection(data)).all()


def reference_estimates(sketch, values: np.ndarray) -> np.ndarray:
    """The pre-selection formula: fancy-index gather, then ``np.median``."""
    buckets = sketch.schema.buckets.buckets(values)
    signs = sketch.schema.signs.signs(values)
    tables = np.arange(sketch.depth)[:, None]
    return np.median(sketch.counters[tables, buckets] * signs, axis=0)


class TestPointEstimatesKernel:
    @pytest.mark.parametrize("depth", [1, 2, 5, 8, 9, 16])
    @pytest.mark.parametrize(
        "columns",
        [
            hash_sketch._SELECTION_MIN_COLUMNS - 1,
            hash_sketch._SELECTION_MIN_COLUMNS,
            hash_sketch._SELECTION_CHUNK + 7,
        ],
    )
    def test_both_sides_of_the_cutoff_match_np_median(self, depth, columns):
        schema = HashSketchSchema(64, depth, 1 << 14, seed=depth)
        sketch = schema.create_sketch()
        rng = np.random.default_rng(columns)
        sketch.update_bulk(
            rng.integers(0, 1 << 14, 5000), rng.choice([-1.0, 1.0, 3.0], 5000)
        )
        values = rng.integers(0, 1 << 14, columns)
        assert bits(sketch.point_estimates(values)) == bits(
            reference_estimates(sketch, values)
        )

    def test_deep_sketch_falls_back_and_matches(self):
        depth = hash_sketch._SELECTION_MAX_DEPTH + 2
        schema = HashSketchSchema(32, depth, 2048, seed=1)
        sketch = schema.create_sketch()
        sketch.update_bulk(np.random.default_rng(1).integers(0, 2048, 3000))
        values = np.arange(2048, dtype=np.int64)
        assert bits(sketch.point_estimates(values)) == bits(
            reference_estimates(sketch, values)
        )

    def test_sparse_sketch_zero_estimates_are_bitwise_equal(self):
        # Empty buckets times a -1 sign are -0.0: the signed-zero case the
        # selection must resolve exactly as np.median does.
        schema = HashSketchSchema(256, 6, 4096, seed=2)
        sketch = schema.create_sketch()
        sketch.update_bulk(np.asarray([5, 9, 9, 4000], dtype=np.int64))
        schema.precompute()
        values = schema.domain_index()
        assert bits(sketch.all_point_estimates()) == bits(
            reference_estimates(sketch, values)
        )


class TestDomainIndexFastPath:
    def test_identity_path_returns_what_the_general_path_returns(self):
        schema = HashSketchSchema(128, 5, 4096, seed=3)
        schema.precompute()
        fast = schema.bulk_tables(schema.domain_index())
        general = schema.bulk_tables(np.arange(4096, dtype=np.int64))
        for got, want in zip(fast, general):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_identity_path_hands_out_the_read_only_tables(self):
        schema = HashSketchSchema(128, 5, 4096, seed=3)
        schema.precompute()
        index = schema.domain_index()
        assert index is schema.domain_index()
        assert not index.flags.writeable
        buckets, signs = schema.bulk_tables(index)
        assert buckets is schema.bulk_tables(index)[0]
        assert not buckets.flags.writeable and not signs.flags.writeable

    def test_equal_copy_of_the_index_takes_the_general_path(self):
        schema = HashSketchSchema(128, 5, 4096, seed=3)
        schema.precompute()
        buckets, _ = schema.bulk_tables(schema.domain_index().copy())
        assert buckets.flags.writeable

    def test_without_tables_the_index_is_fresh(self):
        schema = HashSketchSchema(128, 5, 4096, seed=3)
        first = schema.domain_index()
        assert first is not schema.domain_index()
        assert np.array_equal(first, np.arange(4096))
        schema.precompute()
        schema.clear_precomputed()
        assert schema.domain_index() is not schema.domain_index()
