"""Tests for balanced chunking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.chunking import chunk_bounds


class TestChunkBounds:
    def test_example(self):
        assert chunk_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_items(self):
        assert chunk_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert chunk_bounds(0, 3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 2)
        with pytest.raises(ValueError):
            chunk_bounds(5, 0)

    @given(st.integers(0, 10_000), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, n, k):
        bounds = chunk_bounds(n, k)
        # covers exactly [0, n) without gaps or overlaps
        pos = 0
        for lo, hi in bounds:
            assert lo == pos
            assert hi > lo
            pos = hi
        assert pos == n
        # balanced: sizes differ by at most one
        if bounds:
            sizes = [hi - lo for lo, hi in bounds]
            assert max(sizes) - min(sizes) <= 1
