"""Property tests for the fused bulk-update kernels (repro.hashing.bulk).

Three equivalences carry the whole optimisation:

* ``coalesce_updates`` is just a grouped sum — masses per distinct value;
* ``BulkHashCache.level(l)`` (derived by shifting the level-0 coalesce)
  equals coalescing the shifted values from scratch;
* the fused flat scatter-add in ``HashSketch._apply_point_masses`` (and
  the precompute-table lookup path) equals the straightforward
  one-bincount-per-table kernel it replaced;
* that kernel casts table hits (``int32`` buckets, ``int8`` signs) to
  the scatter's dtypes without changing a bit, at the domain's edge
  values, at degenerate widths and for zero or negative masses.

Weights are drawn from dyadic rationals so every grouping order sums
bit-identically and the assertions can use exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.hashing.bulk import BulkHashCache, coalesce_updates
from repro.sketches.hash_sketch import HashSketchSchema

DOMAIN = 1 << 8

updates_strategy = st.lists(
    st.tuples(
        st.integers(0, DOMAIN - 1),
        st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
    ),
    min_size=1,
    max_size=80,
)


def split(updates):
    values = np.asarray([v for v, _ in updates], dtype=np.int64)
    weights = np.asarray([w for _, w in updates], dtype=np.float64)
    return values, weights


def reference_apply(schema, values, weights):
    """The pre-fusion kernel: one bincount per hash table."""
    counters = np.zeros((schema.depth, schema.width), dtype=np.float64)
    buckets = schema.buckets.buckets(values)
    signs = schema.signs.signs(values)
    for row in range(schema.depth):
        counters[row] += np.bincount(
            buckets[row], weights=signs[row] * weights, minlength=schema.width
        )
    return counters


class TestCoalesce:
    @given(updates=updates_strategy)
    @settings(max_examples=60, deadline=None)
    def test_masses_are_grouped_sums(self, updates):
        values, weights = split(updates)
        uniques, masses = coalesce_updates(values, weights)
        assert np.array_equal(uniques, np.unique(values))
        for value, mass in zip(uniques, masses):
            assert mass == weights[values == value].sum()

    def test_default_weights_count_occurrences(self):
        uniques, masses = coalesce_updates(np.asarray([3, 3, 3, 9], dtype=np.int64))
        assert uniques.tolist() == [3, 9]
        assert masses.tolist() == [3.0, 1.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            coalesce_updates(
                np.arange(4, dtype=np.int64), np.ones(3, dtype=np.float64)
            )


class TestBulkHashCache:
    @given(updates=updates_strategy, level=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_level_shift_equals_direct_coalesce(self, updates, level):
        values, weights = split(updates)
        cache = BulkHashCache(values, weights)
        level_values, level_masses = cache.level(level)
        direct_values, direct_masses = coalesce_updates(values >> level, weights)
        assert np.array_equal(level_values, direct_values)
        assert np.array_equal(level_masses, direct_masses)

    @given(updates=updates_strategy)
    @settings(max_examples=30, deadline=None)
    def test_stats_match_raw_batch(self, updates):
        values, weights = split(updates)
        cache = BulkHashCache(values, weights)
        assert cache.num_elements == values.size
        assert cache.num_deletions == int((weights < 0).sum())
        assert cache.total_absolute_mass == float(np.abs(weights).sum())


class TestFusedKernel:
    @given(updates=updates_strategy, seed=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_fused_equals_per_table_reference(self, updates, seed):
        values, weights = split(updates)
        schema = HashSketchSchema(32, 5, DOMAIN, seed=seed)
        sketch = schema.create_sketch()
        sketch.update_bulk(values, weights)
        assert np.array_equal(
            sketch.counters, reference_apply(schema, values, weights)
        )

    @given(updates=updates_strategy, seed=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_precomputed_tables_change_nothing(self, updates, seed):
        values, weights = split(updates)
        plain = HashSketchSchema(32, 5, DOMAIN, seed=seed)
        tabled = HashSketchSchema(32, 5, DOMAIN, seed=seed)
        tabled.precompute()
        assert tabled.precomputed
        plain_sketch = plain.create_sketch()
        tabled_sketch = tabled.create_sketch()
        plain_sketch.update_bulk(values, weights)
        tabled_sketch.update_bulk(values, weights)
        assert np.array_equal(plain_sketch.counters, tabled_sketch.counters)
        probe = np.unique(values)
        assert np.array_equal(
            plain_sketch.point_estimates(probe), tabled_sketch.point_estimates(probe)
        )

    def test_update_coalesced_tracks_observed_mass(self):
        schema = HashSketchSchema(32, 3, DOMAIN, seed=0)
        sketch = schema.create_sketch()
        values = np.asarray([1, 2], dtype=np.int64)
        masses = np.asarray([3.0, -1.0], dtype=np.float64)
        sketch.update_coalesced(values, masses)
        assert sketch.absolute_mass == 4.0
        sketch.update_coalesced(values, masses, observed_mass=10.0)
        assert sketch.absolute_mass == 14.0
        sketch.update_coalesced(values, -masses, 0.0)  # exact subtraction
        assert sketch.absolute_mass == 14.0


class TestDtypeMatchedKernel:
    """The one gather/scatter kernel serial ingest, shard drains and skim
    subtraction share: table path == polynomial path == per-table
    reference, bit for bit."""

    @staticmethod
    def _schemas(width, seed):
        plain = HashSketchSchema(width, 5, DOMAIN, seed=seed)
        tabled = HashSketchSchema(width, 5, DOMAIN, seed=seed)
        tabled.precompute()
        return plain, tabled

    @staticmethod
    def _coalesced(schema, values, masses):
        sketch = schema.create_sketch()
        sketch.update_coalesced(values, masses)
        return sketch.counters

    @given(
        masses=st.lists(st.integers(-4, 4), min_size=DOMAIN, max_size=DOMAIN),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_integer_masses_with_zero_and_negative(self, masses, seed):
        values = np.arange(DOMAIN, dtype=np.int64)
        masses = np.asarray(masses, dtype=np.float64)
        plain, tabled = self._schemas(32, seed)
        reference = reference_apply(plain, values, masses)
        assert np.array_equal(self._coalesced(plain, values, masses), reference)
        assert np.array_equal(self._coalesced(tabled, values, masses), reference)

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_domain_edge_values(self, precomputed):
        schema = HashSketchSchema(32, 5, DOMAIN, seed=3)
        if precomputed:
            schema.precompute()
        values = np.asarray([0, DOMAIN - 1, 0, DOMAIN - 1, 0], dtype=np.int64)
        weights = np.asarray([1.0, -2.0, 3.0, 5.0, -1.0], dtype=np.float64)
        sketch = schema.create_sketch()
        sketch.update_bulk(values, weights)
        assert np.array_equal(
            sketch.counters, reference_apply(schema, values, weights)
        )
        sketch.subtract_frequencies(
            np.asarray([0, DOMAIN - 1], dtype=np.int64),
            np.asarray([3.0, 3.0], dtype=np.float64),
        )
        assert not sketch.counters.any()

    @given(updates=updates_strategy, width=st.sampled_from([1, 3, 100]))
    @settings(max_examples=40, deadline=None)
    def test_width_one_and_non_power_of_two(self, updates, width):
        values, weights = split(updates)
        plain, tabled = self._schemas(width, 1)
        reference = reference_apply(plain, values, weights)
        for schema in (plain, tabled):
            sketch = schema.create_sketch()
            sketch.update_bulk(values, weights)
            assert np.array_equal(sketch.counters, reference)

    @given(updates=updates_strategy, seed=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_table_path_equals_polynomial_path(self, updates, seed):
        values, weights = split(updates)
        plain, tabled = self._schemas(64, seed)
        plain_buckets, plain_signs = plain.bulk_tables(values)
        table_buckets, table_signs = tabled.bulk_tables(values)
        assert table_buckets.dtype == np.int32 and table_signs.dtype == np.int8
        assert np.array_equal(plain_buckets, table_buckets)
        assert np.array_equal(plain_signs, table_signs)
        uniques, masses = coalesce_updates(values, weights)
        assert np.array_equal(
            self._coalesced(plain, uniques, masses),
            self._coalesced(tabled, uniques, masses),
        )
        full = tabled.domain_index()
        everything = np.ones(DOMAIN, dtype=np.float64)
        assert np.array_equal(
            self._coalesced(plain, np.arange(DOMAIN, dtype=np.int64), everything),
            self._coalesced(tabled, full, everything),
        )
