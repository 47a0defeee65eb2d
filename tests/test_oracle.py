import math

import pytest
from hypothesis import given, settings, strategies as st

from dynkcenter import (
    MatrixMetric,
    TimedPoint,
    exact_kcenter,
    greedy_cover,
    pairwise_extremes,
    radius,
)
from dynkcenter.errors import (
    EmptyCenters,
    EmptyPoints,
    TooFewPoints,
    TooLargeForEnumeration,
)
from conftest import line_metric, line_points


class TestRadius:
    def test_single_center_farthest(self):
        pts = line_points([(0, 0, 1, 9), (1, 3, 2, 9)])
        assert radius(line_metric(), [pts[0]], pts) == 3.0

    def test_all_centers_zero(self):
        pts = line_points([(0, 0, 1, 9), (1, 3, 2, 9)])
        assert radius(line_metric(), pts, pts) == 0.0

    def test_two_centers(self):
        pts = line_points([(0, 0, 1, 9), (1, 4, 2, 9), (2, 10, 3, 9)])
        assert radius(line_metric(), [pts[0], pts[2]], pts) == 4.0

    def test_zero_is_positive_zero(self):
        """A table may hold -0.0 on its diagonal; the radius is still 0.0."""
        metric = MatrixMetric([[-0.0, 2.0], [2.0, -0.0]])
        pts = [TimedPoint(i, i, i + 1, 9) for i in range(2)]
        r = radius(metric, pts, pts)
        assert type(r) is float and math.copysign(1.0, r) == 1.0

    def test_empty_args(self):
        pts = line_points([(0, 0, 1, 9)])
        with pytest.raises(EmptyCenters):
            radius(line_metric(), [], pts)
        with pytest.raises(EmptyPoints):
            radius(line_metric(), pts, [])


class TestExactKCenter:
    def test_no_points(self):
        """No CLI path reaches this: verify asks the oracle only while a
        point is active."""
        with pytest.raises(EmptyPoints):
            exact_kcenter(line_metric(), [], 2)

    def test_k_at_least_n(self):
        pts = line_points([(0, 0, 1, 9), (1, 10, 2, 9)])
        sol = exact_kcenter(line_metric(), pts, 2)
        assert sol.radius == 0.0 and len(sol.centers) == 2

    def test_middle_point_wins(self):
        pts = line_points([(0, 0, 1, 9), (1, 1, 2, 9), (2, 2, 3, 9)])
        sol = exact_kcenter(line_metric(), pts, 1)
        assert sol.center_ids == [1] and sol.radius == 1.0

    def test_two_centers_three_points(self):
        pts = line_points([(0, 0, 1, 9), (1, 4, 2, 9), (2, 10, 3, 9)])
        sol = exact_kcenter(line_metric(), pts, 2)
        assert sol.radius == 4.0

    def test_tie_goes_to_the_smallest_id_tuple(self):
        """Centers {1 or 3} x {2 or 4} all reach radius 1, and (1, 2) wins
        whatever order the points come in; (1, 3), first in id order, has
        radius 10. One n x n block counts n * n evaluations."""
        rows = [(3, 0, 1, 9), (1, 1, 2, 9), (2, 10, 3, 9), (4, 11, 4, 9)]
        for pts in (line_points(rows), line_points(rows[::-1])):
            m = line_metric()
            sol = exact_kcenter(m, pts, 2)
            assert sol.center_ids == [1, 2] and sol.radius == 1.0
            assert m.evals == 16

    def test_cap_enforced(self):
        pts = line_points([(i, i, i + 1, 99) for i in range(5)])
        with pytest.raises(TooLargeForEnumeration):
            exact_kcenter(line_metric(), pts, 1, cap=4)

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True),
        st.integers(1, 3),
    )
    def test_monotone_in_k(self, xs, k):
        pts = line_points([(i, x, i + 1, 99) for i, x in enumerate(xs)])
        m = line_metric()
        r_k = exact_kcenter(m, pts, k).radius
        r_k1 = exact_kcenter(m, pts, k + 1).radius
        assert r_k1 <= r_k


class TestGreedyCover:
    def test_empty_scan(self):
        sol = greedy_cover(line_metric(), [], 4.0, 1)
        assert sol.centers == [] and sol.radius == 0.0

    def test_covered_pair(self):
        pts = line_points([(0, 0, 1, 9), (1, 1, 2, 9)])
        sol = greedy_cover(line_metric(), pts, 4.0, 1)
        assert sol.center_ids == [0]

    def test_too_many(self):
        pts = line_points([(0, 0, 1, 9), (1, 5, 2, 9)])
        assert greedy_cover(line_metric(), pts, 4.0, 1) is None

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=12, unique=True),
        st.integers(1, 4),
        st.integers(1, 30),
    )
    def test_separation_and_coverage(self, xs, k, threshold):
        pts = line_points([(i, x, i + 1, 99) for i, x in enumerate(xs)])
        m = line_metric()
        sol = greedy_cover(m, pts, float(threshold), k)
        if sol is None:
            return
        centers = sol.centers
        assert len(centers) <= k
        for i, a in enumerate(centers):
            for b in centers[i + 1 :]:
                assert m.distance(a, b) > threshold
        for p in pts:
            assert min(m.distance(p, c) for c in centers) <= threshold


class TestPairwiseExtremes:
    def test_single_pair(self):
        pts = line_points([(0, 0, 1, 9), (1, 3, 2, 9)])
        assert pairwise_extremes(line_metric(), pts) == (3.0, 3.0)

    def test_three_points(self):
        pts = line_points([(0, 0, 1, 9), (1, 1, 2, 9), (2, 10, 3, 9)])
        assert pairwise_extremes(line_metric(), pts) == (1.0, 10.0)

    def test_zero_distance_reported(self):
        pts = line_points([(0, 5, 1, 9), (1, 5, 2, 9)])
        assert pairwise_extremes(line_metric(), pts) == (0.0, 0.0)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            pairwise_extremes(line_metric(), line_points([(0, 0, 1, 9)]))
