"""Welford moments against numpy, including the parallel merge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.running import OnlineMoments

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestBasics:
    def test_known_sequence(self):
        m = OnlineMoments()
        m.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert m.mean == pytest.approx(5.0)
        assert m.population_variance == pytest.approx(4.0)
        assert m.variance == pytest.approx(32.0 / 7.0)

    def test_empty(self):
        m = OnlineMoments()
        assert m.count == 0
        assert m.variance == 0.0
        assert m.population_variance == 0.0
        assert len(m) == 0

    def test_single_value(self):
        m = OnlineMoments()
        m.push(3.0)
        assert m.mean == 3.0
        assert m.variance == 0.0
        assert m.minimum == 3.0
        assert m.maximum == 3.0

    def test_min_max_tracking(self):
        m = OnlineMoments()
        m.extend([3.0, -1.0, 7.0, 2.0])
        assert m.minimum == -1.0
        assert m.maximum == 7.0

    def test_numerical_stability_large_offset(self):
        # Naive sum-of-squares fails here; Welford must not.
        m = OnlineMoments()
        offset = 1e9
        m.extend([offset + x for x in (4.0, 7.0, 13.0, 16.0)])
        assert m.variance == pytest.approx(30.0, rel=1e-6)

    @given(st.lists(floats, max_size=3), st.lists(floats, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_extend_is_push_bit_for_bit(self, head, values):
        pushed, extended = OnlineMoments(), OnlineMoments()
        for value in head:
            pushed.push(value)
            extended.push(value)
        for value in values:
            pushed.push(value)
        extended.extend(values)
        for name in OnlineMoments.__slots__:
            assert getattr(extended, name) == getattr(pushed, name)

    @given(st.lists(floats, min_size=2, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_numpy(self, values):
        m = OnlineMoments()
        m.extend(values)
        arr = np.asarray(values)
        assert m.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-6)
        assert m.variance == pytest.approx(
            arr.var(ddof=1), rel=1e-6, abs=1e-6
        )


class TestMerge:
    def test_merge_equals_concatenation(self):
        left, right = OnlineMoments(), OnlineMoments()
        left.extend([1.0, 2.0, 3.0])
        right.extend([10.0, 20.0])
        merged = left.merge(right)
        reference = OnlineMoments()
        reference.extend([1.0, 2.0, 3.0, 10.0, 20.0])
        assert merged.count == reference.count
        assert merged.mean == pytest.approx(reference.mean)
        assert merged.variance == pytest.approx(reference.variance)
        assert merged.minimum == reference.minimum
        assert merged.maximum == reference.maximum

    def test_merge_with_empty(self):
        left = OnlineMoments()
        left.extend([1.0, 2.0])
        merged = left.merge(OnlineMoments())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)

    def test_merge_two_empty(self):
        merged = OnlineMoments().merge(OnlineMoments())
        assert merged.count == 0

    @given(
        st.lists(floats, min_size=1, max_size=50),
        st.lists(floats, min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_merge_matches_concatenation(self, a, b):
        left, right = OnlineMoments(), OnlineMoments()
        left.extend(a)
        right.extend(b)
        merged = left.merge(right)
        arr = np.asarray(a + b)
        assert merged.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-6)
        if len(arr) >= 2:
            assert merged.variance == pytest.approx(
                arr.var(ddof=1), rel=1e-6, abs=1e-6
            )

    def test_merge_empty_left(self):
        right = OnlineMoments()
        right.extend([4.0, 6.0])
        merged = OnlineMoments().merge(right)
        assert merged.count == 2
        assert merged.mean == pytest.approx(5.0)
        assert merged.minimum == 4.0
        assert merged.maximum == 6.0

    def test_merge_does_not_mutate_operands(self):
        left, right = OnlineMoments(), OnlineMoments()
        left.extend([1.0, 2.0])
        right.extend([10.0])
        left.merge(right)
        assert left.count == 2 and left.mean == pytest.approx(1.5)
        assert right.count == 1 and right.mean == pytest.approx(10.0)

    def test_merge_singletons(self):
        # The Chan et al. delta path with count == 1 on both sides.
        left, right = OnlineMoments(), OnlineMoments()
        left.push(2.0)
        right.push(8.0)
        merged = left.merge(right)
        assert merged.mean == pytest.approx(5.0)
        assert merged.variance == pytest.approx(18.0)

    def test_fold_order_equals_flat_extend(self):
        # Submission-order folding (the live-telemetry contract):
        # ((a + b) + c) must agree with one pass over a + b + c.
        chunks = [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
        folded = OnlineMoments()
        for chunk in chunks:
            part = OnlineMoments()
            part.extend(chunk)
            folded = folded.merge(part)
        flat = OnlineMoments()
        flat.extend([v for chunk in chunks for v in chunk])
        assert folded.count == flat.count
        assert folded.mean == pytest.approx(flat.mean)
        assert folded.variance == pytest.approx(flat.variance)
        assert folded.minimum == flat.minimum
        assert folded.maximum == flat.maximum
