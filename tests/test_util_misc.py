"""Unit tests for repro.util.tables, .rng and .units."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import derive_seed, derive_seeds, make_rng, split_rng
from repro.util.tables import format_table
from repro.util.units import GB, KB, MB


class TestUnits:
    def test_byte_units(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(42), make_rng(42)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_different_seeds_differ(self):
        draws_a = make_rng(1).integers(0, 1 << 60, size=8)
        draws_b = make_rng(2).integers(0, 1 << 60, size=8)
        assert list(draws_a) != list(draws_b)

    def test_split_count(self):
        children = split_rng(7, 5)
        assert len(children) == 5

    def test_split_streams_independent(self):
        children = split_rng(7, 3)
        draws = [tuple(c.integers(0, 1 << 60, size=4)) for c in children]
        assert len(set(draws)) == 3

    def test_split_deterministic(self):
        first = [c.integers(1 << 30) for c in split_rng(9, 4)]
        second = [c.integers(1 << 30) for c in split_rng(9, 4)]
        assert first == second

    @given(
        seed=st.integers(0, 2**64 - 1) | st.integers(2**64, 2**130),
        index=st.integers(0, 40),
        extra=st.integers(1, 10),
    )
    def test_derive_seed_is_child_index_of_every_longer_spawn(
        self, seed, index, extra
    ):
        """``derive_seed(s, i)`` is ``derive_seeds(s, n)[i]`` for every
        ``n > i``, and both are the ``SeedSequence.spawn`` child every
        block and fuzz stream has always come from."""
        count = index + extra
        spawned = np.random.SeedSequence(seed).spawn(count)[index]
        expected = int(spawned.generate_state(2, np.uint64)[0])
        assert derive_seed(seed, index) == derive_seeds(seed, count)[index]
        assert derive_seed(seed, index) == expected


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["A", "Long"], [["x", 1], ["yy", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title_included(self):
        out = format_table(["A"], [["x"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = format_table(["V"], [[3.14159265]])
        assert "3.142" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [["only-one"]])

    def test_empty_rows_ok(self):
        out = format_table(["A"], [])
        assert "A" in out
