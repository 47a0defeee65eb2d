import json
import math
import mmap
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkcenter import (
    EuclideanMetric,
    MatrixMetric,
    Metric,
    SixApproxClustering,
    TimedPoint,
    TwoApproxClustering,
    build_guess_ladder,
    h_bounded_stream,
    random_lifetime_stream,
    sliding_window_stream,
    validate_stream,
)
from dynkcenter import core
from dynkcenter.core import (
    MAX_RUNGS,
    TRIANGLE_TOL,
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

    def test_matrix_triangle_check_allows_rounding(self):
        """Seven points on the line y = 0.37x: their Euclidean table breaks
        the exact inequality by rounding alone, and is accepted."""
        x = np.linspace(0, 1, 7)
        pts = [TimedPoint(i, (a, 0.37 * a), i, i + 1) for i, a in enumerate(x.tolist())]
        table = EuclideanMetric(2).block(pts, pts)
        assert any((table > table[:, r][:, None] + table[r][None, :]).any() for r in range(7))
        assert MatrixMetric(table).n == 7

    @pytest.mark.parametrize("excess", [4 * TRIANGLE_TOL, 1e-9, 1.0])
    def test_matrix_triangle_violation_beyond_rounding_rejected(self, excess):
        far = 2 * (1 + excess)
        bad = [[0, 1, far], [1, 0, 1], [far, 1, 0]]
        with pytest.raises(MetricError, match="triangle inequality violated via intermediate 1"):
            MatrixMetric(bad)

    def test_matrix_triangle_check_ignores_sums_that_overflow(self):
        """Every entry is finite, but two edges sum to inf, which no third
        edge exceeds: the table is accepted with no overflow warning."""
        table = [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]
        assert MatrixMetric(table).distance(TimedPoint(1, 0, 1, 2),
                                            TimedPoint(2, 2, 2, 3)) == 1e308

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

    def test_pairwise_check_skipped_above_cap(self, monkeypatch):
        monkeypatch.setattr(core, "PAIRWISE_CHECK_CAP", 0)
        pts = line_points([(1, 0, 1, 9), (2, 100, 2, 9)])
        stream = validate_stream(pts, line_metric(), 1, 10)
        assert len(stream.points) == 2

    def test_duplicate_id(self):
        pts = [TimedPoint(7, (0.0,), 1, 9), TimedPoint(7, (1.0,), 2, 9)]
        with pytest.raises(DuplicateId):
            validate_stream(pts, line_metric(), 1, 1)

    def test_names_first_pair_outside(self):
        pts = line_points([(1, 0, 1, 9), (2, 5, 2, 9), (3, 100, 3, 9), (4, 0.5, 4, 9)])
        with pytest.raises(DistanceOutOfRange, match=r"d\(1,3\)=100\.0"):
            validate_stream(pts, line_metric(), 0.5, 10)

    def test_names_a_pair_of_the_second_column_tile(self):
        """300 points, so three tiles; only pairs of the tile (0, 256) lie
        outside the bounds. The named pair's own distance is outside them,
        so the ids come from the tile's offsets, and it is the tile's first."""
        pts = line_points([(1000 + i, i / 300 + (10 if i >= _TILE else 0), i, 400)
                           for i in range(300)][::-1])
        with pytest.raises(DistanceOutOfRange, match=r"d\(1000,1256\)=10\.8") as e:
            validate_stream(pts, line_metric(), 1e-3, 2)
        a, b, d = re.match(r"d\((\d+),(\d+)\)=(\S+) outside", str(e.value)).groups()
        by_id = {p.id: p for p in pts}
        assert line_metric().distance(by_id[int(a)], by_id[int(b)]) == float(d) > 2

    @pytest.mark.parametrize("bad", [0.5, math.nan], ids=["below", "nan"])
    def test_a_failing_check_reads_each_tile_once_and_stops(self, bad):
        """The check walks the tiles once, through `_block` only, and stops
        at the first tile with a pair outside the bounds, a NaN included."""

        class Logged(EuclideanMetric):
            def _block(self, xs, ys):
                tiles.append((xs[0], len(xs), ys[0], len(ys)))
                d = super()._block(xs, ys)
                return np.where(d == 319.0, bad, d)  # d(0, 299) alone

            def block(self, ps, qs):
                raise AssertionError("a second scan through Metric.block")

            def clone(self):
                return Logged(1)

        tiles = []
        pts = line_points([(i, float(i), i, 400) for i in range(299)] + [(299, 319.0, 299, 400)])
        with pytest.raises(DistanceOutOfRange, match=rf"d\(0,299\)={bad} outside"):
            validate_stream(pts, Logged(1), 1, 1e3)
        assert tiles == [((0.0,), 256, (0.0,), 256), ((0.0,), 256, (256.0,), 44)]

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


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_jsonl_lines_end_as_in_text_mode(eol, tmp_path):
    """LF, CR LF and a lone CR each end a line, blank lines included; a line
    that is not UTF-8 is named by its number, after a blank one."""
    pts = [TimedPoint(i, (i / 4, 1.5), i + 1, i + 9) for i in range(6)]
    path = tmp_path / "s.jsonl"
    save_stream_jsonl(pts, path)
    lines = path.read_bytes().splitlines()
    lines.insert(2, b"  ")
    path.write_bytes(eol.join(lines) + eol)
    assert load_stream_jsonl(path) == pts
    lines[4] = lines[4].replace(b'"id"', b'"id\xff"')
    path.write_bytes(eol.join(lines) + eol)
    with pytest.raises(MalformedRecord, match=r"s\.jsonl line 5: UnicodeDecodeError"):
        load_stream_jsonl(path)


@pytest.mark.parametrize("payloads, bad", [
    ([(0.5, 0.5)] * 5 + [None] + [(0.25, 0.75)] * 4, 5),
    ([None] * 2 + [(0.5, 0.5)] + [None] * 3, 2),
], ids=["record-without-coords", "record-with-coords"])
def test_jsonl_record_unlike_the_first_is_malformed(payloads, bad, tmp_path):
    """Every record carries coords or none does: a record that differs from
    the first is named by its line and point, before any metric reads it."""
    path = tmp_path / "s.jsonl"
    rows = [{"id": i, "t_arr": i + 1, "t_del": i + 9} for i in range(len(payloads))]
    for row, c in zip(rows, payloads):
        if c is not None:
            row["coords"] = list(c)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(MalformedRecord, match=rf"s\.jsonl line {bad + 1}: .*point {bad} "):
        load_stream_jsonl(path)


@pytest.mark.parametrize("first, second, blank", [
    ([0.0, 0.0], [1.0, 0.0, 0.0], False),
    ([0.0, 0.0, 0.0], [1.0], True),
], ids=["2-D-then-3-D", "3-D-then-1-D-after-a-blank-line"])
def test_jsonl_record_of_another_dimension_is_malformed(first, second, blank, tmp_path):
    """Every record has as many coords as the first: the first that differs
    is named by its line, blank lines counted, and both counts."""
    path = tmp_path / "s.jsonl"
    rows = [json.dumps({"id": i, "t_arr": i + 1, "t_del": 9, "coords": c})
            for i, c in enumerate([first, second])]
    path.write_text("\n".join(rows[:1] + [""] * blank + rows[1:]) + "\n")
    with pytest.raises(MalformedRecord, match=rf"s\.jsonl line {2 + blank}: .*point 1 has "
                       rf"{len(second)} coords, unlike the first record, which has {len(first)}"):
        load_stream_jsonl(path)


def scalar_extremes(metric, points):
    """Reference: every pair through `distance`, one at a time."""
    ds = [metric.distance(p, q) for i, p in enumerate(points) for q in points[i + 1 :]]
    return min(ds), max(ds)


def assert_block_is_scalar(metric, ps, qs):
    """`block(ps, qs)` holds `distance(p, q)` at [i, j], as equal floats."""
    d = metric.block(ps, qs)
    assert d.shape == (len(ps), len(qs))
    assert d.tolist() == [[metric.clone().distance(p, q) for q in qs] for p in ps]


def coord_points(coords):
    return [TimedPoint(i, tuple(float(x) for x in c), i + 1, i + 2) for i, c in enumerate(coords)]


@st.composite
def plane_payload_pairs(draw):
    """Two 2-D payloads, each a tuple or a list: floats under one power of
    ten from 1e-150 to 1e150 with signed zeros among them, ints, or both
    mixed; one pair in five is a point and its copy."""
    scale = 10.0 ** draw(st.integers(-150, 150))
    floats = st.one_of(st.floats(-10, 10).map(lambda m: m * scale), st.sampled_from([0.0, -0.0]))
    ints = st.integers(-(2**60), 2**60)
    coord = draw(st.sampled_from([floats, ints, st.one_of(floats, ints)]))
    a = draw(st.tuples(coord, coord))
    b = a if draw(st.integers(0, 4)) == 0 else draw(st.tuples(coord, coord))
    return tuple(draw(st.sampled_from([tuple, list]))(x) for x in (a, b))


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
        assert_block_is_scalar(EuclideanMetric(dim), pts, pts)
        assert_block_is_scalar(EuclideanMetric(dim), pts[1:], pts[::2])

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
        assert_block_is_scalar(EuclideanMetric(dim), pts[:2], pts)  # row 0 meets its copy

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(TILE_SIZES), st.integers(0, 2**32 - 1))
    def test_matrix_equals_scalar_with_repeated_payloads(self, m, n, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(50, 101, size=(m, m)).astype(float)  # any such table is a metric
        table = np.triu(table, 1) + np.triu(table, 1).T
        metric = MatrixMetric(table)
        pts = [TimedPoint(i, int(a), i + 1, i + 2) for i, a in enumerate(rng.integers(0, m, n))]
        assert metric.extremes(pts) == scalar_extremes(metric.clone(), pts)
        assert_block_is_scalar(metric, pts[:3], pts)
        assert_block_is_scalar(metric, pts, pts[-2:])

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
            metric.evals = 5
            metric.block(pts, pts[:2])
            assert metric.evals == 5 + 2 * n
            assert metric.block([], pts).shape == (0, n)
            assert metric.block(pts, []).shape == (n, 0)
            assert metric.evals == 5 + 2 * n

    def test_base_scan_equals_scalar(self):
        pts = [TimedPoint(i, x, i + 1, i + 2) for i, x in enumerate([4, 9, 4, -3])]
        assert LineMetric().extremes(pts) == scalar_extremes(LineMetric(), pts) == (0.0, 12.0)
        assert_block_is_scalar(LineMetric(), pts, pts)
        assert_block_is_scalar(LineMetric(), pts[1:2], pts)

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
        for bad in (2, -1, 1.0, (1,)):
            metric = MatrixMetric([[0, 1], [1, 0]])
            with pytest.raises(IndexOutOfRange):
                metric.block(pts[:1], [TimedPoint(1, bad, 2, 3)])
            with pytest.raises(IndexOutOfRange):
                metric.block([TimedPoint(1, bad, 2, 3)], pts[:1])
            assert metric.evals == 0

    def test_unreadable_payload_in_the_base_scan_is_a_metric_error(self):
        pts = [TimedPoint(0, (1.0,), 1, 2), TimedPoint(1, (2.0,), 2, 3)]
        with pytest.raises(MetricError):
            LineMetric().extremes(pts)
        with pytest.raises(MetricError):
            LineMetric().block(pts[:1], pts)

    def test_euclidean_dimension_mismatch(self):
        """A single distance, and either structure's arrival, names the pair."""
        p, q = TimedPoint(1, (0.0, 0.0), 1, 10), TimedPoint(7, (1.0, 2.0, 3.0), 2, 20)
        message = r"^cannot measure d\(1, 7\): payload dimension mismatch$"
        with pytest.raises(MetricError, match=message):
            EuclideanMetric(2).distance(p, q)
        for cls in (SixApproxClustering, TwoApproxClustering):
            c = cls(2, 1.0, 0.5, 10.0, EuclideanMetric(2))
            c.update(p)
            with pytest.raises(MetricError, match=message):
                c.update(q)
        with pytest.raises(MetricError):
            EuclideanMetric(2).extremes(coord_points([(0.0, 1.0), (2.0, 3.0), (1.0,)]))
        with pytest.raises(MetricError):
            EuclideanMetric(2).extremes(coord_points([(0.0,), (2.0,)]))
        pts = coord_points([(0.0, 1.0), (2.0, 3.0), (1.0,), (0.0, 1.0, 2.0)])
        for ps, qs in ((pts[:2], pts[2:3]), (pts[3:], pts[:2]), (pts[:3], pts[:1])):
            with pytest.raises(MetricError):
                EuclideanMetric(2).block(ps, qs)
        with pytest.raises(MetricError):
            EuclideanMetric(1).block([TimedPoint(0, 0.5, 1, 2)], pts[2:3])

    @pytest.mark.parametrize("dim", ["2", None, 2.5, 0, -1])
    def test_euclidean_dimension_is_a_positive_integer(self, dim):
        with pytest.raises(MetricError, match="dimension must be a positive integer"):
            EuclideanMetric(dim)

    @settings(max_examples=400, deadline=None)
    @given(plane_payload_pairs())
    def test_plane_distance_is_the_loops_bit_for_bit(self, pair):
        """The 2-D kernel against the generic loop, written out here: the
        same bits, where a correctly rounded `math.hypot` or `math.dist`
        differs on about one random pair in six."""
        a, b = pair
        s = 0.0
        for x, y in zip(a, b):
            d = x - y
            s += d * d
        assert EuclideanMetric(2)._dist(a, b).hex() == math.sqrt(s).hex()


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

    def test_matrix_over_several_blocks_loads_into_its_own_mapping(self, tmp_path):
        """The loader parses _TILE rows at a time: a table of more rows, with
        a blank and a comment line between two blocks, comes back whole, in
        an anonymous mapping that is unmapped when the table is freed."""
        n = 2 * _TILE + 3
        table = np.arange(n * n, dtype=float).reshape(n, n)
        path = tmp_path / "m.csv"
        save_matrix_csv(table, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:_TILE] + ["\n", "# a comment\n"] + lines[_TILE:]))
        back = load_matrix_csv(path)
        assert np.array_equal(back, table)
        while isinstance(back, np.ndarray):
            back = back.base
        assert isinstance(back.obj, mmap.mmap)  # through `np.frombuffer`'s memoryview

    @pytest.mark.parametrize("tail", ["one-column", "extra-row", "non-finite"])
    def test_bad_matrix_row_after_the_first_block(self, tmp_path, tail):
        """Past the first block: a row narrower than the first block's, more
        rows than columns, or a non-finite entry."""
        row = ",".join(["0"] * (_TILE + 1)) + "\n"
        last = {"one-column": "0\n", "extra-row": row + row, "non-finite": "nan," + row[2:]}
        path = tmp_path / "m.csv"
        path.write_text(row * _TILE + last[tail])
        with pytest.raises(MetricError):
            load_matrix_csv(path)
