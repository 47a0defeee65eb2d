import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkcenter import (
    EventStream,
    TimedPoint,
    adversarial_quadratic_stream,
    h_bounded_stream,
    measure_h,
    random_lifetime_stream,
    sliding_window_stream,
    validate_stream,
)
from dynkcenter.errors import InvalidH, InvalidParameter
from dynkcenter.streamgen import uniform_coords


def naive_measure_h(points):
    """Independent double-loop implementation of the tameness measure."""
    pts = sorted(points, key=lambda p: p.t_arr)
    best = 0
    for i, p in enumerate(pts):
        for j in range(i + 1, len(pts)):
            q = pts[j]
            if (p.t_del, p.t_arr) > (q.t_del, q.t_arr):
                best = max(best, j - i)
    return best


class TestSlidingWindow:
    def test_lifetimes(self):
        gen = sliding_window_stream([(0.0,), (1.0,), (2.0,)], window=2)
        lifes = [(p.t_arr, p.t_del) for p in gen.stream.points]
        assert lifes == [(1, 3), (2, 4), (3, 5)]
        assert gen.declared_h == 0
        assert measure_h(gen.stream) == 0

    def test_window_one(self):
        gen = sliding_window_stream([(float(i),) for i in range(5)], window=1)
        assert measure_h(gen.stream) == 0


class TestRandomLifetime:
    def test_single_point(self):
        gen = random_lifetime_stream(1, 2, 5, seed=0)
        assert measure_h(gen.stream) == 0

    def test_determinism(self):
        a = random_lifetime_stream(50, 3, 20, seed=7)
        b = random_lifetime_stream(50, 3, 20, seed=7)
        assert a.stream.points == b.stream.points

    def test_measure_h_stable(self):
        gen = random_lifetime_stream(50, 2, 50, seed=7)
        h = measure_h(gen.stream)
        assert 0 <= h <= 49
        assert measure_h(gen.stream) == h

    def test_validates(self):
        gen = random_lifetime_stream(30, 2, 10, seed=3)
        validate_stream(
            gen.stream.points, gen.metric.clone(), gen.stream.d_min, gen.stream.d_max
        )


class TestHBounded:
    def test_h_zero_is_arrival_order(self):
        gen = h_bounded_stream(20, 0, 2, seed=4)
        dels = [p.t_del for p in gen.stream.points]
        assert dels == sorted(dels)
        assert measure_h(gen.stream) == 0

    @pytest.mark.parametrize("h", [0, 1, 3, 7, 19])
    def test_measured_within_declared(self, h):
        for seed in range(3):
            gen = h_bounded_stream(40, h, 2, seed=seed)
            assert measure_h(gen.stream) <= h

    def test_invalid_h(self):
        with pytest.raises(InvalidH):
            h_bounded_stream(5, 5, 2, seed=0)


class TestAdversarial:
    def test_point_count_and_lifetimes(self):
        gen = adversarial_quadratic_stream(3, 1.0)
        pts = gen.stream.points
        assert len(pts) == 6
        assert pts[0].t_del - pts[0].t_arr == 4
        assert all(p.t_del - p.t_arr == 5 for p in pts[1:3])
        assert all(p.t_del - p.t_arr == 2 for p in pts[3:])

    def test_distances(self):
        gen = adversarial_quadratic_stream(4, 2.0)
        t = gen.metric.table
        assert t[0][1] == 1.5 * 2.0
        assert t[1][2] == 0.1 * 2.0
        assert t[0][5] == 2.5 * 2.0
        assert t[5][6] == 2.5 * 2.0
        assert t[1][5] == 1.5 * 2.0

    def test_triangle_inequality_exhaustive(self):
        # construction passes the metric constructor's full triple audit
        for n in (3, 10, 50):
            adversarial_quadratic_stream(n, 1.0)

    def test_deterministic(self):
        a = adversarial_quadratic_stream(5, 1.0)
        b = adversarial_quadratic_stream(5, 1.0)
        assert a.stream.points == b.stream.points
        assert np.array_equal(a.metric.table, b.metric.table)

    @pytest.mark.parametrize("gamma", [1e308, 1e-323, float("nan")])
    def test_gamma_whose_table_is_unusable_is_rejected(self, gamma):
        """2.5*gamma must stay finite and 0.1*gamma positive, so that every
        distance is finite and distinct points are apart."""
        with pytest.raises(InvalidParameter):
            adversarial_quadratic_stream(3, gamma)


@pytest.mark.parametrize("make", [
    lambda: sliding_window_stream(uniform_coords(20, 3, 1)[0], window=4),
    lambda: random_lifetime_stream(20, 2, 5, seed=1),
    lambda: h_bounded_stream(20, 3, 2, seed=1),
], ids=["sliding", "random", "hbounded"])
def test_generated_coordinates_are_python_floats(make):
    """Generated payloads are tuples of float, as loaded ones are."""
    for p in make().stream.points:
        assert type(p.payload) is tuple
        assert all(type(x) is float for x in p.payload)


@pytest.mark.parametrize("make", [
    lambda: sliding_window_stream(np.zeros((4, 2)), window=0),
    lambda: random_lifetime_stream(0, 2, 5, seed=1),
    lambda: random_lifetime_stream(5, 2, 0, seed=1),
    lambda: adversarial_quadratic_stream(2, 1.0),
], ids=["sliding-window-0", "random-n-0", "random-max-life-0", "adversarial-n-2"])
def test_bad_generator_parameters_raise_typed_error(make):
    with pytest.raises(InvalidParameter):
        make()


class TestMeasureH:
    def test_reversed_deletions(self):
        n = 8
        pts = [TimedPoint(i, (0.0,), i + 1, 100 - i) for i in range(n)]
        assert measure_h(EventStream(pts, 1, 1)) == n - 1

    def test_single_point(self):
        pts = [TimedPoint(0, (0.0,), 1, 2)]
        assert measure_h(EventStream(pts, 1, 1)) == 0

    def test_matches_naive_on_random_streams(self):
        for seed in range(10):
            gen = random_lifetime_stream(40, 1, 30, seed=seed)
            assert measure_h(gen.stream) == naive_measure_h(gen.stream.points)

    def test_exact_minimum_both_directions(self):
        # the stream is H-ordered at measure_h and not at measure_h - 1
        for seed in range(5):
            gen = h_bounded_stream(30, 6, 1, seed=seed)
            h = measure_h(gen.stream)
            pts = sorted(gen.stream.points, key=lambda p: p.t_arr)

            def is_h_ordered(H):
                for i, p in enumerate(pts):
                    for j in range(i + 1, len(pts)):
                        if j - i - 1 >= H and (p.t_del, p.t_arr) > (
                            pts[j].t_del,
                            pts[j].t_arr,
                        ):
                            return False
                return True

            assert is_h_ordered(h)
            if h > 0:
                assert not is_h_ordered(h - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_naive_with_ties(self, data):
        # Small ranges make tied t_del, tied t_arr and equal keys common.
        lives = data.draw(
            st.lists(st.tuples(st.integers(1, 12), st.integers(1, 6)), min_size=0, max_size=40)
        )
        pts = [TimedPoint(i, (0.0,), t_arr, t_arr + life) for i, (t_arr, life) in enumerate(lives)]
        pts = data.draw(st.permutations(pts))
        assert measure_h(EventStream(pts, 1, 1)) == naive_measure_h(pts)

    def test_matches_naive_on_generated_streams(self):
        for seed in range(100):
            gens = (
                random_lifetime_stream(60, 1, 1 + seed % 40, seed=seed),
                h_bounded_stream(60, seed % 60, 1, seed=seed),
            )
            for gen in gens:
                assert measure_h(gen.stream) == naive_measure_h(gen.stream.points)

    def test_epoch_millisecond_times(self):
        # Packing (t_del, t_arr) into one int64 key overflowed at these times.
        base = 1_760_000_000_000
        pts = [TimedPoint(i, (0.0,), base + i, base + (i + 1) * 3_600_000) for i in range(20)]
        assert measure_h(EventStream(pts, 1, 1)) == 0
        pts[3] = TimedPoint(3, (0.0,), base + 3, base + 100 * 3_600_000)
        assert measure_h(EventStream(pts, 1, 1)) == naive_measure_h(pts) == 16

    def test_memory_is_linear(self):
        n = 100_000
        pts = [TimedPoint(i, (0.0,), i + 1, i + 2 + (i * 7919) % 500) for i in range(n)]
        tracemalloc.start()
        try:
            measure_h(EventStream(pts, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
