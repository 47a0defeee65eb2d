import copy

import pytest

from dynkcenter import (
    EuclideanMetric,
    MatrixMetric,
    SixApproxClustering,
    TimedPoint,
    h_bounded_stream,
    random_lifetime_stream,
    sliding_window_stream,
)
from dynkcenter.audits import audit_six_approx, audit_six_space
from dynkcenter.core import GuessLadder
from dynkcenter.errors import (
    InvalidBeta,
    InvalidParameter,
    InvariantViolation,
    MetricError,
    NonMonotoneArrival,
)
from dynkcenter.streamgen import uniform_coords
from conftest import assert_groups_tile_and_share, line_metric


def replay_with_audit(gen, k, epsilon):
    metric = gen.metric.clone()
    c = SixApproxClustering(k, epsilon, gen.stream.d_min, gen.stream.d_max, metric)
    active = []
    for p in sorted(gen.stream.points, key=lambda q: q.t_arr):
        c.update(p)
        active = [x for x in active if x.t_del > p.t_arr] + [p]
        audit_six_approx(c, active, p.t_arr)
    return c


class TestConstruction:
    def test_ladder_from_epsilon(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        assert [st.gamma for st in c.states] == [1.0, 2.0, 4.0]

    def test_degenerate_ladder(self):
        c = SixApproxClustering(2, 3.0, 1, 1, line_metric())
        assert len(c.states) == 1

    def test_zero_epsilon_rejected(self):
        with pytest.raises(InvalidBeta):
            SixApproxClustering(1, 0.0, 1, 4, line_metric())

    def test_decreasing_ladder_rejected(self):
        with pytest.raises(InvalidParameter):
            SixApproxClustering(1, 1.0, 1, 4, line_metric(),
                                ladder=GuessLadder(1.0, (2.0, 1.0)))


class TestUpdateTrace:
    def test_first_point_self_representative(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        p1 = TimedPoint(1, (0.0,), 1, 10)
        c.update(p1)
        for st in c.states:
            assert [a.point.id for a in st.attractors] == [1]
            assert st.attractors[0].rep is p1
            assert st.sizes() == (1, 1)

    def test_longer_lived_point_replaces_representative(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        p2 = TimedPoint(2, (1.0,), 2, 20)
        c.update(p2)
        st = c.states[0]  # gamma = 1, d = 1 <= 2
        assert [a.point.id for a in st.attractors] == [1]
        assert st.attractors[0].rep is p2

    def test_shorter_lived_point_discarded(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 20))
        c.update(TimedPoint(2, (1.0,), 2, 5))
        st = c.states[0]
        assert st.attractors[0].rep.id == 1
        assert st.sizes() == (1, 1)

    def test_overflow_triggers_cleanup(self):
        c = SixApproxClustering(1, 6.0, 1, 1, line_metric())  # single guess
        c.update(TimedPoint(1, (0.0,), 1, 5))
        c.update(TimedPoint(2, (3.0,), 2, 10))
        c.update(TimedPoint(3, (6.0,), 3, 20))  # third attractor, k+2
        st = c.states[0]
        assert sorted(a.point.id for a in st.attractors) == [2, 3]
        # the evicted attractor's representative (itself, t_del 5 < t_min 10)
        # is dropped as well
        assert st.orphans == {}

    def test_non_monotone_arrival(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 2, 10))
        with pytest.raises(NonMonotoneArrival):
            c.update(TimedPoint(2, (1.0,), 2, 20))

    def test_expired_attractor_orphans_surviving_rep(self):
        c = SixApproxClustering(1, 6.0, 1, 1, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 3))
        c.update(TimedPoint(2, (1.0,), 2, 20))  # becomes rep of attractor 1
        c.update(TimedPoint(3, (6.0,), 4, 30))  # attractor 1 expired by now
        st = c.states[0]
        assert [a.point.id for a in st.attractors] == [3]
        assert list(st.orphans) == [2]

    def test_a_payload_the_metric_cannot_read_is_a_metric_error(self):
        """The arrival reads the backend's `_dist` itself, and keeps the
        error `Metric.distance` would raise."""
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        with pytest.raises(MetricError, match=r"cannot measure d\(1, 2\)"):
            c.update(TimedPoint(2, None, 2, 20))


@pytest.mark.parametrize("guesses", [(1.0,), (1.0, 2.0, 4.0)])
def test_an_arrival_that_ties_the_representative_on_t_del_replaces_it(guesses):
    """Point 1 arrives after representative 0 with the same t_del, so it
    outlives it in the (t_del, t_arr) order, on one rung or on a group of three."""
    c = SixApproxClustering(1, 6.0, 1, 4, line_metric(), ladder=GuessLadder(1.0, guesses))
    c.update(TimedPoint(0, (0.0,), 1, 10))
    c.update(TimedPoint(1, (1.0,), 2, 10))
    assert c._groups == [(0, len(guesses))]
    assert_groups_tile_and_share(c, maximal=True)
    for st in c.states:
        assert [(a.point.id, a.rep.id) for a in st.attractors] == [(0, 1)]
        assert st.orphans == {}


class TestQuery:
    def test_two_points_query(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        c.update(TimedPoint(2, (4.0,), 2, 20))
        sol = c.query(2)
        assert len(sol.centers) == 1
        # guess 1 has two attractors (> k), so a larger guess answers
        assert sol.guess_used >= 2.0

    def test_single_active_point(self):
        c = SixApproxClustering(2, 3.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        sol = c.query(1)
        assert sol.center_ids == [1] and sol.radius is None

    def test_query_adds_only_its_cover_scan_evals(self):
        """The answer measures no radius. At gamma 1, attractor 1 at 0 is
        represented by 2 at 1.5 and attractor 3 at 3 by itself; one center
        covers both representatives, so the query adds the cover's one
        test, d(3, 2) <= 2 * gamma, and no radius pass."""
        c = SixApproxClustering(2, 6.0, 1, 4, line_metric())
        for i, x in enumerate((0.0, 1.5, 3.0), 1):
            c.update(TimedPoint(i, (x,), i, 10 * i))
        assert sorted(q.id for q in c.states[0].reps()) == [2, 3]
        evals = c.metric.evals
        sol = c.query(3)
        assert sol.center_ids == [2] and sol.guess_used == 1.0
        assert c.metric.evals == evals + 1 and sol.radius is None

    def test_empty_after_purge(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 3))
        sol = c.query(5)
        assert sol.centers == [] and sol.radius == 0.0


class TestAuditsAndSpace:
    def test_random_streams_pass_coverage_audits(self):
        for seed in range(5):
            gen = random_lifetime_stream(40, 2, 8, seed)
            replay_with_audit(gen, k=2, epsilon=2.0)

    def test_sliding_window_space_bound(self):
        import numpy as np

        rng = np.random.default_rng(5)
        gen = sliding_window_stream(rng.random((60, 2)), window=10)
        c = replay_with_audit(gen, k=2, epsilon=3.0)
        audit_six_space(c, h=0)

    def test_h_bounded_space_bound(self):
        gen = h_bounded_stream(80, 5, 2, seed=9)
        c = replay_with_audit(gen, k=2, epsilon=3.0)
        audit_six_space(c, h=5)

    def test_space_fault_detected(self):
        gen = h_bounded_stream(40, 3, 2, seed=2)
        c = replay_with_audit(gen, k=1, epsilon=3.0)
        c.peak_per_guess[0] = 100  # corrupt the tracker
        with pytest.raises(InvariantViolation):
            audit_six_space(c, h=3)

    def test_audit_space_snapshot(self):
        c = SixApproxClustering(1, 6.0, 1, 4, line_metric())
        assert c.audit_space() == [(0, 0)] * 3
        c.update(TimedPoint(1, (0.0,), 1, 10))
        assert c.audit_space() == [(1, 1)] * 3


TAME_STREAMS = {
    "h0": lambda n: h_bounded_stream(n, 0, 2, 1),
    "h16": lambda n: h_bounded_stream(n, 16, 2, 1),
    "sliding100": lambda n: sliding_window_stream(uniform_coords(n, 2, 1)[0], window=100),
}


class TestWorstCaseUpdate:
    """On tame streams one update's work is bounded per rung, whatever the
    stream's length: the most ops a single update takes, divided by the
    rung count, must not grow from n=500 to n=2000."""

    @staticmethod
    def max_ops_per_rung(gen):
        c = SixApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max, gen.metric.clone())
        worst = 0
        for p in gen.stream.points:
            before = c.ops
            c.update(p)
            worst = max(worst, c.ops - before)
        return worst / len(c.states)

    @pytest.mark.parametrize("name", TAME_STREAMS)
    def test_max_ops_per_rung_does_not_grow_with_n(self, name):
        make = TAME_STREAMS[name]
        small, large = (self.max_ops_per_rung(make(n)) for n in (500, 2000))
        assert large <= 1.15 * small


SMALL_STREAMS = {
    "sliding": lambda: sliding_window_stream(uniform_coords(120, 2, 3)[0], window=15),
    "random": lambda: random_lifetime_stream(120, 2, 20, 4),
    "h5": lambda: h_bounded_stream(120, 5, 2, 5),
}


class TestIdleExpiry:
    """Before `_next_expiry` an expiry drops nothing, and `update(None, t)`
    and `query(t)` each count one op per attractor and orphan of every rung
    before anything else, after arrivals that cut groups and after purges."""

    @staticmethod
    def held(c):
        return sum((hi - lo) * (len(c.states[lo].attractors) + len(c.states[lo].orphans))
                   for lo, hi in c._groups)

    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_counts_what_every_rung_holds(self, name):
        gen = SMALL_STREAMS[name]()
        points = gen.stream.points
        c = SixApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max, gen.metric.clone())
        cuts, answered = [], []  # one entry per cut; c.ops as each answer starts
        part, answer = c._part, c._answer

        def counted_part(*args):
            cuts.append(args)
            return part(*args)

        def counted_answer():
            answered.append(c.ops)
            return answer()

        c._part, c._answer = counted_part, counted_answer
        # Every arrival, then each later deletion time, so every stream purges.
        last = points[-1].t_arr
        events = [(p.t_arr, p) for p in points]
        events += [(t, None) for t in sorted({p.t_del for p in points}) if t > last]
        purges = 0
        for i, (t, p) in enumerate(events):
            purges += t >= c._next_expiry
            c.update(p, t)
            t_next = events[i + 1][0] if i + 1 < len(events) else t + 1
            idle = (t + min(c._next_expiry, t_next)) / 2
            ops, held = c.ops, self.held(c)
            c.update(None, idle)
            assert c.ops - ops == held
            ops = c.ops
            c.query(idle)
            assert answered[-1] - ops == held
        assert cuts and purges


def rung_state(st):
    return ([(a.point.id, a.rep.id) for a in st.attractors], set(st.orphans))


class TestRungsStayIndependent:
    """However the structure shares work between rungs, every rung must
    behave as a structure with that rung alone would."""

    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_each_rung_matches_its_one_rung_twin(self, name):
        gen = SMALL_STREAMS[name]()
        d_min, d_max = gen.stream.d_min, gen.stream.d_max
        full = SixApproxClustering(3, 1.0, d_min, d_max, gen.metric.clone())
        twins = [
            SixApproxClustering(3, 1.0, d_min, d_max, gen.metric.clone(),
                                ladder=GuessLadder(full.ladder.beta, (g,)))
            for g in full.ladder
        ]
        for i, p in enumerate(gen.stream.points):
            for c in [full, *twins]:
                c.update(p)
                if i % 7 == 0:
                    c.update(None, p.t_arr)  # an expiry-only advance, counted too
            for st, peak, twin in zip(full.states, full.peak_per_guess, twins):
                assert rung_state(st) == rung_state(twin.states[0])
                assert peak == twin.peak_per_guess[0]
            assert full.ops == sum(twin.ops for twin in twins)
            assert full.metric.evals == sum(twin.metric.evals for twin in twins)


class TestGroupsStayMaximalAndShared:
    """After every update, arrival or expiry-only, and in a deep copy of a
    warmed structure, the groups tile the ladder and every rung of a group
    holds its first rung's attractors and orphans. An arrival joins every
    part it passes, so after one no two neighbouring groups are equal.
    Neighbours that only an expiry made equal may stay apart until the next
    arrival, so maximality is not checked after an expiry-only update."""

    @staticmethod
    def replay(c, points):
        """Replay points, each followed by an expiry-only update; return
        how many of those left two neighbouring groups equal."""
        apart = 0
        for p in points:
            c.update(p)
            assert_groups_tile_and_share(c, maximal=True)
            c.update(None, p.t_arr + 1)  # expiry only
            apart += assert_groups_tile_and_share(c, maximal=False)
        return apart

    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_after_every_update(self, name):
        gen = SMALL_STREAMS[name]()
        c = SixApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max, gen.metric.clone())
        apart = self.replay(c, gen.stream.points)
        if name == "random":  # so an arrival after equal neighbours is checked
            assert apart > 0

    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_in_a_deep_copy_of_a_warmed_structure(self, name):
        gen = SMALL_STREAMS[name]()
        points = gen.stream.points
        c = SixApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max, gen.metric.clone())
        for p in points[:60]:
            c.update(p)
        twin = copy.deepcopy(c)
        assert_groups_tile_and_share(twin, maximal=True)
        apart = self.replay(twin, points[60:])
        if name == "random":
            assert apart > 0


class _CountingMetric(EuclideanMetric):
    """Counts the distances actually computed, next to the `evals` that
    the counters report."""

    def __init__(self, dim):
        super().__init__(dim)
        self.computed = 0

    def _dist(self, a, b):
        self.computed += 1
        return super()._dist(a, b)


@pytest.mark.parametrize("make", [
    lambda: sliding_window_stream(uniform_coords(1000, 2, 0)[0], 50),
    lambda: random_lifetime_stream(1000, 2, 64, 0),
    lambda: h_bounded_stream(1000, 16, 2, 1),
], ids=["sliding", "random", "h16"])
def test_updates_compute_few_of_the_distances_they_count(make):
    """Rungs that agree share their tests: the distances an update computes
    are well under the per-rung tests it counts."""
    gen = make()
    metric = _CountingMetric(2)
    c = SixApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max, metric)
    for p in gen.stream.points:
        c.update(p)
    assert metric.computed <= 0.4 * metric.evals


def test_a_deep_copy_replays_like_the_original():
    """The benchmark replays deep copies of a warmed structure: the copy
    must give the same answers, counters and rung states."""
    gen = sliding_window_stream(uniform_coords(600, 2, 2)[0], window=100)
    points = gen.stream.points
    original = SixApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max,
                                   gen.metric.clone())
    for p in points[:300]:
        original.update(p)
    twin = copy.deepcopy(original)
    for p in points[300:]:
        answers = []
        for c in (original, twin):
            c.update(p)
            sol = c.query(p.t_arr)
            answers.append((sol.guess_used, sol.center_ids, c.ops, c.metric.evals,
                            c.peak_per_guess, [rung_state(st) for st in c.states]))
        assert answers[0] == answers[1]


class _CountingTable(MatrixMetric):
    """A distance table that counts the distances actually computed."""

    def __init__(self, table):
        super().__init__(table)
        self.computed = 0

    def _dist(self, a, b):
        self.computed += 1
        return super()._dist(a, b)


def test_an_arrival_that_cuts_a_group_into_four_parts():
    """Attractors 0, 1 and 2 are 0.75 apart, and point 3, which outlives
    them, is 0.70, 0.64 and 0.60 from them. On the rungs of 2*gamma 0.58,
    0.62, 0.66 and 0.72, which share one state, point 3 becomes a fourth
    attractor on the first and the representative of attractors 2, 1 and
    0 on the others. The later parts read the arrival's three distances
    again, without computing them."""
    table = [[0, 0.75, 0.75, 0.70],
             [0.75, 0, 0.75, 0.64],
             [0.75, 0.75, 0, 0.60],
             [0.70, 0.64, 0.60, 0]]
    points = [TimedPoint(i, i, i, 100) for i in range(3)] + [TimedPoint(3, 3, 3, 200)]
    ladder = GuessLadder(1.0, (0.29, 0.31, 0.33, 0.36))
    full = SixApproxClustering(3, 1.0, 0.29, 0.36, _CountingTable(table), ladder=ladder)
    twins = [SixApproxClustering(3, 1.0, g, g, MatrixMetric(table),
                                 ladder=GuessLadder(1.0, (g,)))
             for g in ladder]
    for c in [full, *twins]:
        for p in points[:3]:
            c.update(p)
    assert full._groups == [(0, 4)]
    computed = full.metric.computed
    for c in [full, *twins]:
        c.update(points[3])
    assert full.metric.computed - computed == 3
    assert full._groups == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert rung_state(full.states[0]) == ([(0, 0), (1, 1), (2, 2), (3, 3)], set())
    for st, twin in zip(full.states, twins):
        assert rung_state(st) == rung_state(twin.states[0])
    assert full.peak_per_guess == [twin.peak_per_guess[0] for twin in twins]
    assert full.ops == sum(twin.ops for twin in twins)
    assert full.metric.evals == sum(twin.metric.evals for twin in twins)
