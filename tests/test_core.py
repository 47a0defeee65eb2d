import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkcenter import (
    DeletionQueue,
    EuclideanMetric,
    MatrixMetric,
    Metric,
    TimedPoint,
    build_guess_ladder,
    h_bounded_stream,
    random_lifetime_stream,
    sliding_window_stream,
    validate_stream,
)
from dynkcenter.core import (
    MAX_RUNGS,
    _TILE,
    _floor_log,
    load_matrix_csv,
    load_stream_jsonl,
    save_matrix_csv,
    save_stream_jsonl,
)
from dynkcenter.errors import (
    DistanceOutOfRange,
    DuplicateArrival,
    DuplicateId,
    IndexOutOfRange,
    InvalidBeta,
    InvalidBounds,
    InvertedLifetime,
    MalformedRecord,
    MetricError,
    TooFewPoints,
)
from dynkcenter.streamgen import uniform_coords
from conftest import line_metric, line_points


class TestGuessLadder:
    def test_degenerate_single_guess(self):
        assert build_guess_ladder(2, 2, 1).guesses == (2.0,)

    def test_one_to_ten(self):
        assert build_guess_ladder(1, 10, 1).guesses == (1.0, 2.0, 4.0, 8.0, 16.0)

    def test_fractional_lower_bound(self):
        assert build_guess_ladder(0.5, 8, 1).guesses == (0.5, 1.0, 2.0, 4.0, 8.0)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            build_guess_ladder(0, 1, 1)
        with pytest.raises(InvalidBounds):
            build_guess_ladder(2, 1, 1)

    def test_invalid_beta(self):
        with pytest.raises(InvalidBeta):
            build_guess_ladder(1, 2, 0)

    @pytest.mark.parametrize("d_min, d_max", [
        (1, math.inf), (math.inf, math.inf), (math.nan, 1), (1, math.nan),
    ])
    def test_non_finite_bounds(self, d_min, d_max):
        with pytest.raises(InvalidBounds):
            build_guess_ladder(d_min, d_max, 1)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta(self, beta):
        with pytest.raises(InvalidBeta):
            build_guess_ladder(1, 2, beta)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=1, max_value=50),
        st.floats(min_value=0.05, max_value=3),
    )
    def test_cover_property(self, d_min, ratio, beta):
        """Any target in [d_min, d_max] has a guess within a (1+beta) factor."""
        d_max = d_min * ratio
        ladder = build_guess_ladder(d_min, d_max, beta)
        assert ladder.guesses[0] <= d_min * (1 + 1e-9)
        assert ladder.guesses[-1] >= d_max * (1 - 1e-9)
        for i in range(1, len(ladder.guesses)):
            assert ladder.guesses[i] == pytest.approx(
                ladder.guesses[i - 1] * (1 + beta)
            )

    @pytest.mark.parametrize("d_min, d_max", [(1, 2), (1, 1), (2, 2)])
    def test_beta_that_vanishes_next_to_one_rejected(self, d_min, d_max):
        """1 + 1e-17 is 1.0: a ladder of that ratio would never grow."""
        with pytest.raises(InvalidBeta):
            build_guess_ladder(d_min, d_max, 1e-17)

    @pytest.mark.parametrize("d_min, d_max", [(1, 2), (2, 2), (1e-3, 1e-3)])
    def test_too_many_rungs_rejected(self, d_min, d_max):
        """The walk from 1.0 to the bounds counts too, so even a one-rung
        ladder far from 1.0 is rejected at a tiny beta."""
        with pytest.raises(InvalidBeta):
            build_guess_ladder(d_min, d_max, 1e-12)

    def test_wide_fine_ladder_accepted(self):
        ladder = build_guess_ladder(1e-300, 1e300, 0.1)
        assert 10_000 < len(ladder) <= MAX_RUNGS

    def test_floor_log_exact_powers(self):
        assert _floor_log(2.0, 8.0) == 3
        assert _floor_log(2.0, 0.25) == -2
        assert _floor_log(2.0, 7.9) == 2


class TestMetric:
    def test_euclidean_3_4_5(self):
        m = EuclideanMetric(2)
        p = TimedPoint(1, (0.0, 0.0), 1, 2)
        q = TimedPoint(2, (3.0, 4.0), 2, 3)
        assert m.distance(p, q) == 5.0
        assert m.distance(p, p) == 0.0
        assert m.evals == 2

    def test_matrix_lookup(self):
        table = [[0, 1, 2], [1, 0, 2.5], [2, 2.5, 0]]
        m = MatrixMetric(table)
        p1 = TimedPoint(1, 1, 1, 2)
        p2 = TimedPoint(2, 2, 2, 3)
        assert m.distance(p1, p2) == 2.5

    def test_matrix_unknown_index(self):
        m = MatrixMetric([[0, 1], [1, 0]])
        with pytest.raises(IndexOutOfRange):
            m.distance(TimedPoint(1, 0, 1, 2), TimedPoint(2, 5, 2, 3))

    def test_matrix_triangle_rejected(self):
        bad = [[0, 1, 10], [1, 0, 1], [10, 1, 0]]  # 10 > 1 + 1
        with pytest.raises(MetricError):
            MatrixMetric(bad)

    def test_matrix_asymmetry_rejected(self):
        with pytest.raises(MetricError):
            MatrixMetric([[0, 1], [2, 0]])

    def test_clone_resets_counter(self):
        m = EuclideanMetric(1)
        m.distance(TimedPoint(1, (0.0,), 1, 2), TimedPoint(2, (1.0,), 2, 3))
        c = m.clone()
        assert m.evals == 1 and c.evals == 0


class TestValidateStream:
    def test_single_point_valid(self):
        pts = line_points([(1, 0, 1, 5)])
        stream = validate_stream(pts, line_metric(), 1, 1)
        assert len(stream.points) == 1

    def test_inverted_lifetime(self):
        with pytest.raises(InvertedLifetime):
            validate_stream(line_points([(1, 0, 3, 3)]), line_metric(), 1, 1)

    def test_duplicate_arrival(self):
        pts = line_points([(1, 0, 1, 9), (2, 4, 1, 9)])
        with pytest.raises(DuplicateArrival):
            validate_stream(pts, line_metric(), 1, 10)

    def test_distance_out_of_range(self):
        pts = line_points([(1, 0, 1, 9), (2, 100, 2, 9)])
        with pytest.raises(DistanceOutOfRange):
            validate_stream(pts, line_metric(), 1, 10)

    def test_pairwise_check_skipped_above_cap(self):
        pts = line_points([(1, 0, 1, 9), (2, 100, 2, 9)])
        stream = validate_stream(pts, line_metric(), 1, 10, pairwise_cap=0)
        assert len(stream.points) == 2

    def test_duplicate_id(self):
        pts = [TimedPoint(7, (0.0,), 1, 9), TimedPoint(7, (1.0,), 2, 9)]
        with pytest.raises(DuplicateId):
            validate_stream(pts, line_metric(), 1, 1)

    def test_names_first_pair_outside(self):
        pts = line_points([(1, 0, 1, 9), (2, 5, 2, 9), (3, 100, 3, 9), (4, 0.5, 4, 9)])
        with pytest.raises(DistanceOutOfRange, match=r"d\(1,3\)=100\.0"):
            validate_stream(pts, line_metric(), 0.5, 10)

    @pytest.mark.parametrize("make", [
        lambda n: sliding_window_stream(uniform_coords(n, 2, 5)[0], 4),
        lambda n: random_lifetime_stream(n, 3, 20, 5),
        lambda n: h_bounded_stream(n, n // 2, 2, 5),
    ], ids=["sliding", "random", "hbounded"])
    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_without_bounds_measures_the_generators_bounds(self, make, n):
        gen = make(n)
        metric = gen.metric.clone()
        metric.evals = 7
        stream = validate_stream(gen.stream.points[::-1], metric)
        assert (stream.d_min, stream.d_max) == (gen.stream.d_min, gen.stream.d_max)
        assert stream.points == gen.stream.points
        assert metric.evals == 7

    @pytest.mark.parametrize("bounds", [{"d_min": 1}, {"d_max": 10},
                                        {"d_min": 1, "d_max": None}])
    def test_exactly_one_bound_rejected(self, bounds):
        pts = line_points([(1, 0, 1, 9), (2, 5, 2, 9)])
        with pytest.raises(InvalidBounds):
            validate_stream(pts, line_metric(), **bounds)

    def test_counts_on_its_own_clone(self):
        metric = line_metric()
        validate_stream(line_points([(1, 0, 1, 9), (2, 5, 2, 9)]), metric, 5, 5)
        assert metric.evals == 0

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_generated_bounds_validate(self, dim):
        # The generators' bounds are the scalar distances' own extremes.
        for seed in range(4):
            gen = random_lifetime_stream(300, dim, 20, seed)
            validate_stream(
                gen.stream.points, gen.metric.clone(), gen.stream.d_min, gen.stream.d_max
            )


class TestDeletionQueue:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 1000)),
            min_size=1,
            max_size=60,
            unique_by=lambda x: x[1],
        )
    )
    def test_dequeues_in_key_order(self, pairs):
        q = DeletionQueue()
        pts = [
            TimedPoint(i, (0.0,), t_arr, t_arr + 1 + life)
            for i, (life, t_arr) in enumerate(pairs)
        ]
        for p in pts:
            q.push(p)
        out = []
        while len(q):
            out.append(q.pop())
        keys = [(p.t_del, p.t_arr) for p in out]
        assert keys == sorted(keys)
        assert sorted(p.id for p in out) == sorted(p.id for p in pts)

    def test_peek(self):
        q = DeletionQueue()
        assert q.peek_key() is None
        q.push(TimedPoint(1, (0.0,), 1, 7))
        assert q.peek_key() == (7, 1)


def test_jsonl_roundtrip(tmp_path):
    pts = [
        TimedPoint(0, (0.25, 1.5), 1, 4),
        TimedPoint(1, (1.0, 2.0), 2, 9),
    ]
    path = tmp_path / "s.jsonl"
    save_stream_jsonl(pts, path)
    back = load_stream_jsonl(path)
    assert back == pts


def test_jsonl_matrix_payload(tmp_path):
    pts = [TimedPoint(0, 0, 1, 4), TimedPoint(1, 1, 2, 9)]
    path = tmp_path / "s.jsonl"
    save_stream_jsonl(pts, path)
    assert load_stream_jsonl(path) == pts


def scalar_extremes(metric, points):
    """Reference: every pair through `distance`, one at a time."""
    ds = [metric.distance(p, q) for i, p in enumerate(points) for q in points[i + 1 :]]
    return min(ds), max(ds)


def coord_points(coords):
    return [TimedPoint(i, tuple(float(x) for x in c), i + 1, i + 2) for i, c in enumerate(coords)]


class LineMetric(Metric):
    """A backend with no vectorized scan of its own."""

    def _dist(self, a, b):
        return float(abs(a - b))

    def clone(self):
        return LineMetric()


TILE_SIZES = [2, 3, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1]


class TestExtremes:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10).flatmap(
        lambda dim: st.lists(
            st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * dim), min_size=2, max_size=12
        )
    ))
    def test_euclidean_equals_scalar_on_drawn_points(self, coords):
        pts = coord_points(coords)
        dim = len(coords[0])
        assert EuclideanMetric(dim).extremes(pts) == scalar_extremes(EuclideanMetric(dim), pts)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 10),
        st.sampled_from(TILE_SIZES),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-3, 1.0, 1e5]),
        st.booleans(),
    )
    def test_euclidean_equals_scalar_at_tile_boundaries(self, dim, n, seed, scale, repeat):
        coords = np.random.default_rng(seed).random((n, dim)) * scale
        if repeat:  # a zero distance between the first and the last tile
            coords[-1] = coords[0]
        pts = coord_points(coords)
        assert EuclideanMetric(dim).extremes(pts) == scalar_extremes(EuclideanMetric(dim), pts)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(TILE_SIZES), st.integers(0, 2**32 - 1))
    def test_matrix_equals_scalar_with_repeated_payloads(self, m, n, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(50, 101, size=(m, m)).astype(float)  # any such table is a metric
        table = np.triu(table, 1) + np.triu(table, 1).T
        metric = MatrixMetric(table)
        pts = [TimedPoint(i, int(a), i + 1, i + 2) for i, a in enumerate(rng.integers(0, m, n))]
        assert metric.extremes(pts) == scalar_extremes(metric.clone(), pts)

    @pytest.mark.parametrize("n", TILE_SIZES)
    def test_evals_rise_by_pair_count(self, n):
        rng = np.random.default_rng(n)
        euclid = coord_points(rng.random((n, 3)))
        table = np.triu(np.full((4, 4), 7.0), 1)
        indexed = [TimedPoint(i, i % 4, i + 1, i + 2) for i in range(n)]
        for metric, pts in (
            (EuclideanMetric(3), euclid),
            (MatrixMetric(table + table.T), indexed),
            (LineMetric(), indexed),
        ):
            metric.evals = 5
            metric.extremes(pts)
            assert metric.evals == 5 + n * (n - 1) // 2

    def test_base_scan_equals_scalar(self):
        pts = [TimedPoint(i, x, i + 1, i + 2) for i, x in enumerate([4, 9, 4, -3])]
        assert LineMetric().extremes(pts) == scalar_extremes(LineMetric(), pts) == (0.0, 12.0)

    def test_too_few_points(self):
        for metric, p in ((EuclideanMetric(1), (0.0,)), (MatrixMetric([[0]]), 0),
                          (LineMetric(), 0)):
            with pytest.raises(TooFewPoints):
                metric.extremes([TimedPoint(0, p, 1, 2)])

    def test_matrix_bad_index(self):
        pts = [TimedPoint(0, 0, 1, 2), TimedPoint(1, 2, 2, 3)]
        with pytest.raises(IndexOutOfRange):
            MatrixMetric([[0, 1], [1, 0]]).extremes(pts)
        with pytest.raises(IndexOutOfRange):
            MatrixMetric([[0, 1], [1, 0]]).extremes([pts[0], TimedPoint(1, -1, 2, 3)])

    def test_unreadable_payload_in_the_base_scan_is_a_metric_error(self):
        pts = [TimedPoint(0, (1.0,), 1, 2), TimedPoint(1, (2.0,), 2, 3)]
        with pytest.raises(MetricError):
            LineMetric().extremes(pts)

    def test_euclidean_dimension_mismatch(self):
        with pytest.raises(MetricError):
            EuclideanMetric(2).extremes(coord_points([(0.0, 1.0), (2.0, 3.0), (1.0,)]))
        with pytest.raises(MetricError):
            EuclideanMetric(2).extremes(coord_points([(0.0,), (2.0,)]))


class TestLoaders:
    @pytest.mark.parametrize(
        "line",
        [
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": [NaN, 0.0]}',
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": [Infinity, 0.0]}',
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": ["-inf", 0.0]}',
            '{"id": 0, "t_arr": 1, "coords": [0.0, 0.0]}',
            '{"t_arr": 1, "t_del": 3}',
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": ["x", 0.0]}',
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": 5}',
            '{"id": 0, "t_arr": 1',
            "[1, 2, 3]",
            '{"id": 0, "t_arr": 1.7, "t_del": 3, "coords": [0.0, 0.0]}',
            '{"id": 2.5, "t_arr": 1, "t_del": 3, "coords": [0.0, 0.0]}',
            '{"id": 0, "t_arr": true, "t_del": 3, "coords": [0.0, 0.0]}',
            '{"id": "0", "t_arr": 1, "t_del": 3, "coords": [0.0, 0.0]}',
            '{"id": 0, "t_arr": 1, "t_del": "3", "coords": [0.0, 0.0]}',
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": "12"}',
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": ["1.5", 0.0]}',
            '{"id": 0, "t_arr": 1, "t_del": 3, "coords": [false, 0.0]}',
            pytest.param(
                '{"id": 0, "t_arr": 1, "t_del": 3, "coords": [1' + "0" * 400 + ", 0.0]}",
                id="coordinate-beyond-float-range",
            ),
        ],
    )
    def test_bad_stream_line(self, tmp_path, line):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id": 1, "t_arr": 0, "t_del": 2, "coords": [1.0, 1.0]}\n' + line + "\n")
        with pytest.raises(MalformedRecord, match="line 2"):
            load_stream_jsonl(path)

    def test_matrix_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        table = rng.random((40, 40)) * 10.0 ** rng.integers(-8, 8, (40, 40))
        path = tmp_path / "m.csv"
        save_matrix_csv(table, path)
        back = load_matrix_csv(path)
        assert back.dtype == float and np.array_equal(back, table)

    def test_matrix_single_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0\n")
        assert load_matrix_csv(path).shape == (1, 1)

    @pytest.mark.parametrize(
        "text",
        ["0,1\n1\n", "0,x\n1,0\n", "0,nan\nnan,0\n", "0,inf\ninf,0\n", "0,-inf\n-inf,0\n", ""],
    )
    def test_bad_matrix_file(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(MetricError):
            load_matrix_csv(path)
