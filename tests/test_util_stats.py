"""Unit tests for repro.util.stats."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    Moments,
    binomial_confidence_interval,
    confidence_interval,
    confidence_interval_from_moments,
    sequential_sum,
)


class TestConfidenceInterval:
    def test_single_sample(self):
        mean, half = confidence_interval([5.0])
        assert mean == 5.0 and half == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_symmetric_samples(self):
        mean, half = confidence_interval([1.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert half > 0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_numpy_path_matches_list_path(self, values):
        """The vectorized fast path computes the same interval."""
        list_mean, list_half = confidence_interval(values)
        np_mean, np_half = confidence_interval(np.array(values))
        assert np_mean == pytest.approx(list_mean, rel=1e-9, abs=1e-9)
        assert np_half == pytest.approx(list_half, rel=1e-9, abs=1e-9)

    def test_numpy_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval(np.array([]))

    def test_two_dimensional_counts_elements_not_rows(self):
        """Regression: ``len(values)`` on a 2-D array counts rows, which
        understated n and inflated the half-width; ``values.size`` counts
        elements."""
        arr = np.arange(12, dtype=float).reshape(3, 4)
        mean, half = confidence_interval(arr)
        flat_mean, flat_half = confidence_interval(arr.ravel())
        assert mean == pytest.approx(flat_mean)
        assert half == pytest.approx(flat_half)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=40),
        st.integers(2, 4),
    )
    def test_any_shape_matches_ravel(self, values, cols):
        values = values[: len(values) // cols * cols]
        if not values:
            return
        arr = np.array(values).reshape(-1, cols)
        shaped = confidence_interval(arr)
        flat = confidence_interval(arr.ravel())
        assert shaped[0] == pytest.approx(flat[0], rel=1e-9, abs=1e-9)
        assert shaped[1] == pytest.approx(flat[1], rel=1e-9, abs=1e-9)


class TestConfidenceIntervalFromMoments:
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_matches_sample_interval(self, values):
        """Pre-reduced moments reproduce the per-sample interval."""
        direct = confidence_interval(values)
        moments = confidence_interval_from_moments(
            len(values), sum(values), sum(v * v for v in values)
        )
        assert moments[0] == pytest.approx(direct[0], rel=1e-9, abs=1e-9)
        # The sum-of-squares form cancels catastrophically when the
        # spread is tiny relative to the magnitude; the residual error
        # scales with sqrt(eps) * |sum|.
        tolerance = 1e-6 * (1.0 + sum(abs(v) for v in values))
        assert moments[1] == pytest.approx(direct[1], rel=1e-6, abs=tolerance)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval_from_moments(0, 0.0, 0.0)

    def test_cancellation_clamped(self):
        """Catastrophic cancellation must not produce a NaN half-width."""
        mean, half = confidence_interval_from_moments(3, 3.0, 3.0 - 1e-12)
        assert mean == pytest.approx(1.0)
        assert half == 0.0


class TestBinomialConfidenceInterval:
    @given(st.integers(1, 200), st.data())
    def test_matches_indicator_vector(self, trials, data):
        """Equivalent to confidence_interval over the implied 0/1 vector."""
        successes = data.draw(st.integers(0, trials))
        vector = [1.0] * successes + [0.0] * (trials - successes)
        direct = confidence_interval(vector)
        binomial = binomial_confidence_interval(successes, trials)
        assert binomial[0] == pytest.approx(direct[0], abs=1e-12)
        assert binomial[1] == pytest.approx(direct[1], abs=1e-9)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            binomial_confidence_interval(0, 0)



class TestMoments:
    @given(
        st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
            min_size=1,
            max_size=6,
        )
    )
    def test_merged_blocks_give_the_summed_interval(self, blocks):
        """Merging each block's (n, sum, sum of squares) in block order
        is the interval of the moments summed left to right from 0.0."""
        moments = Moments()
        count, total, total_sq = 0, 0.0, 0.0
        for block in blocks:
            block_sum = sequential_sum(block)
            block_sq = sequential_sum(v * v for v in block)
            moments.add(len(block), block_sum, block_sq)
            count += len(block)
            total += block_sum
            total_sq += block_sq
        assert moments.count == count
        assert moments.interval() == confidence_interval_from_moments(
            count, total, total_sq
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Moments().interval()


class TestSequentialSum:
    def test_adds_left_to_right_from_zero(self):
        """Unlike a compensated sum, the rounding of each step stays."""
        values = [1.0, 1e100, 1.0, -1e100]
        assert sequential_sum(values) == ((1.0 + 1e100) + 1.0) - 1e100 == 0.0

    def test_takes_arrays_and_generators(self):
        values = [0.1, 0.2, 0.3]
        expected = (0.0 + 0.1 + 0.2) + 0.3
        assert sequential_sum(np.array(values)) == expected
        assert sequential_sum(v for v in values) == expected
        assert type(sequential_sum(np.array(values))) is float
        assert sequential_sum([]) == 0.0


#: Every builtin ``sum()`` left under ``src/repro``, by module and
#: enclosing scope, with its count. Each adds integers (counts, channel
#: totals, lengths), whose sum is exact on every Python. A float sum
#: goes through :func:`sequential_sum` instead: from Python 3.12 the
#: builtin compensates float rounding, so its last bits depend on the
#: interpreter.
INTEGER_SUMS = Counter({
    ("repro.cache.llc", "LastLevelCache.resident_lines"): 1,
    ("repro.cli", "_cmd_fleet"): 2,
    ("repro.cli", "_cmd_run"): 1,
    ("repro.core.page_table", "PageTable.pages_in_mode"): 1,
    ("repro.dram.queues", "PartitionedFifoQueues.pending"): 2,
    ("repro.dram.queues", "PointerFlagQueues.pending"): 1,
    ("repro.fleet.policies", "PolicyComparisonReport.total_channels"): 1,
    ("repro.fleet.policies", "_fleet_static"): 1,
    ("repro.fleet.report", "FleetReport.total_channels"): 1,
    ("repro.fleet.scenarios", "FleetScenario.total_channels"): 1,
    ("repro.fleet.study", "expand_study"): 1,
    ("repro.fleet.study", "run_study"): 1,
    ("repro.fuzz.campaign", "CampaignReport.to_table"): 1,
    ("repro.reliability.montecarlo", "plan_montecarlo.assemble"): 1,
})


def _builtin_sums(module: str, tree: ast.AST) -> Counter:
    found: Counter = Counter()

    def walk(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "sum"
            ):
                found[(module, ".".join(scope))] += 1
            walk(child, inner)

    walk(tree, ())
    return found


def test_builtin_sum_only_over_integers():
    """A new builtin ``sum()`` in the package fails here: use
    :func:`sequential_sum` for floats, or list an integer sum above."""
    src = Path(__file__).resolve().parent.parent / "src"
    found: Counter = Counter()
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found += _builtin_sums(module, ast.parse(path.read_text()))
    assert found == INTEGER_SUMS
