import copy
import math
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkcenter import (
    EuclideanMetric,
    MatrixMetric,
    TimedPoint,
    TwoApproxClustering,
    deletion_key,
    h_bounded_stream,
    random_lifetime_stream,
    sliding_window_stream,
)
from dynkcenter import two_approx
from dynkcenter.audits import VanishingTracker, audit_two_approx
from dynkcenter.core import GuessLadder
from dynkcenter.errors import (
    InvalidBeta,
    InvalidParameter,
    InvariantViolation,
    NoCurrentQuery,
    NoFeasibleGuess,
    NonMonotoneArrival,
    PastTime,
    PointNotFound,
)
from dynkcenter.streamgen import uniform_coords
from conftest import assert_groups_tile_and_share, line_metric, line_points, on_a_matrix


def replay_with_audit(gen, k, epsilon, reclustering_enabled=True):
    metric = gen.metric.clone()
    c = TwoApproxClustering(
        k,
        epsilon,
        gen.stream.d_min,
        gen.stream.d_max,
        metric,
        reclustering_enabled=reclustering_enabled,
    )
    tracker = VanishingTracker()
    active = []
    for p in sorted(gen.stream.points, key=lambda q: q.t_arr):
        c.update(p)
        active = [x for x in active if x.t_del > p.t_arr] + [p]
        audit_two_approx(c, active)
        tracker.observe(c)
    return c


class TestConstruction:
    def test_ladder_from_epsilon(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        assert [st.gamma for st in c.states] == [1.0, 2.0, 4.0]

    def test_degenerate_ladder(self):
        # d_min = d_max at an exact rung (1.5**2 = 2.25) collapses to one state.
        c = TwoApproxClustering(3, 1.0, 2.25, 2.25, line_metric())
        assert len(c.states) == 1
        assert c.states[0].gamma == pytest.approx(2.25)

    def test_equal_bounds_off_rung(self):
        # d_min = d_max strictly between rungs straddles with two states.
        c = TwoApproxClustering(3, 1.0, 5, 5, line_metric())
        assert len(c.states) == 2

    def test_zero_epsilon_rejected(self):
        with pytest.raises(InvalidBeta):
            TwoApproxClustering(1, 0.0, 1, 4, line_metric())


class TestUpdateTrace:
    """Hand-traced two-point scenario over the ladder {1, 2, 4}."""

    def build(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        p1 = TimedPoint(1, (0.0,), 1, 10)
        p2 = TimedPoint(2, (4.0,), 2, 20)
        return c, p1, p2

    def test_first_point_becomes_center_everywhere(self):
        c, p1, _ = self.build()
        c.update(p1)
        for st in c.states:
            assert [cl.center.id for cl in st.clusters] == [1]
        assert len(c.queue) == 1

    def test_second_point_placement_depends_on_guess(self):
        c, p1, p2 = self.build()
        c.update(p1)
        c.update(p2)
        g1, g2, g4 = c.states
        assert [x.id for x in g1.unclustered.values()] == [2]
        assert [x.id for x in g2.clusters[0].members.values()] == [1, 2]
        assert [x.id for x in g4.clusters[0].members.values()] == [1, 2]

    def test_expiry_promotes_unclustered(self):
        c, p1, p2 = self.build()
        c.update(p1)
        c.update(p2)
        c.update(None, t=10)
        for st in c.states:
            assert [cl.center.id for cl in st.clusters] == [2]
            assert len(st.unclustered) == 0

    def test_non_monotone_arrival(self):
        c, p1, _ = self.build()
        c.update(p1)
        with pytest.raises(NonMonotoneArrival):
            c.update(TimedPoint(3, (1.0,), 1, 30))


@pytest.mark.parametrize("guesses", [(1.0,), (1.0, 2.0, 4.0)])
def test_an_arrival_that_ties_its_center_on_t_del_is_persistent(guesses):
    """Point 2 arrives after center 1 with the same t_del, so it follows the
    center in the (t_del, t_arr) order, on one rung or on a group of three."""
    c = TwoApproxClustering(1, 2.0, 1, 4, line_metric(), ladder=GuessLadder(1.0, guesses))
    c.update(TimedPoint(1, (0.0,), 1, 10))
    c.update(TimedPoint(2, (1.0,), 2, 10))
    assert c._groups == [(0, len(guesses))]
    assert_groups_tile_and_share(c, maximal=True)
    for st in c.states:
        (cl,) = st.clusters
        assert list(cl.members.keys()) == [1, 2]
        assert (cl.persistent, cl.vanishing) == (1, 1)


class TestArrivalAtItsOwnTime:
    """Only the passing of time deletes points, so an arrival comes at its
    own t_arr and any other time is rejected before anything changes."""

    def test_an_arrival_after_its_deletion_is_rejected(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        with pytest.raises(InvalidParameter):
            c.update(TimedPoint(1, (0.0,), 1, 3), t=50)
        assert c.stored_points() == 0 and c.peak_stored == 0
        audit_two_approx(c, [])

    def test_an_arrival_before_its_time_is_rejected(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        with pytest.raises(InvalidParameter):
            c.update(TimedPoint(1, (0.0,), 5, 30), t=2)
        assert c.query(3).centers == []

    def test_an_arrival_at_its_own_time_is_accepted(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        p = TimedPoint(1, (0.0,), 5, 30)
        c.update(p, p.t_arr)
        assert c.query(5).center_ids == [1]


class TestQueryAndWitness:
    def test_query_picks_smallest_feasible_guess(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        c.update(TimedPoint(2, (4.0,), 2, 20))
        sol = c.query(2)
        assert sol.guess_used == 2.0
        assert sol.center_ids == [1]

    def test_witness_pairwise_separated(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        c.update(TimedPoint(2, (4.0,), 2, 20))
        c.query(2)
        w = c.witness()
        assert sorted(p.id for p in w) == [1, 2]
        m = line_metric()
        gamma_prime = 1.0
        for i, a in enumerate(w):
            for b in w[i + 1 :]:
                assert m.distance(a, b) > 2 * gamma_prime

    def test_witness_absent_at_smallest_guess(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        c.query(1)
        assert c.witness() is None

    def test_single_active_point(self):
        c = TwoApproxClustering(2, 1.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 10))
        sol = c.query(1)
        assert sol.center_ids == [1]

    def test_empty_active_set(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 3))
        sol = c.query(5)
        assert sol.centers == [] and sol.radius == 0.0

    def test_query_autopurges(self):
        c = TwoApproxClustering(1, 2.0, 1, 4, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 5))
        c.update(TimedPoint(2, (4.0,), 2, 20))
        sol = c.query(7)  # point 1 expired; guess 1 becomes feasible
        assert sol.guess_used == 1.0 and sol.center_ids == [2]


class TestDeleteTrace:
    def test_non_center_removal(self):
        c = TwoApproxClustering(1, 2.0, 1, 1, line_metric())  # single guess 1
        c.update(TimedPoint(1, (0.0,), 1, 20))
        c.update(TimedPoint(2, (1.0,), 2, 5))
        st = c.states[0]
        assert len(st.clusters[0].members) == 2
        c.update(None, t=5)
        assert [x.id for x in st.clusters[0].members.values()] == [1]
        assert st.clusters[0].vanishing == 1 and st.clusters[0].persistent == 0

    def test_member_succeeds_deleted_center(self):
        c = TwoApproxClustering(1, 2.0, 1, 1, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 5))
        c.update(TimedPoint(2, (1.0,), 2, 50))
        c.update(None, t=5)
        st = c.states[0]
        assert [cl.center.id for cl in st.clusters] == [2]

    def test_longest_lived_unclustered_promoted(self):
        # c1 at 0; u1 at 3 (t_del 30), u2 at 3.5 (t_del 20): both beyond
        # 2*gamma of c1, within 2*gamma of each other.
        c = TwoApproxClustering.single_guess(1, 1.0, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 5))
        c.update(TimedPoint(2, (3.0,), 2, 30))
        c.update(TimedPoint(3, (3.5,), 3, 20))
        st = c.states[0]
        assert sorted(x.id for x in st.unclustered.values()) == [2, 3]
        c.update(None, t=5)
        assert [cl.center.id for cl in st.clusters] == [2]
        assert sorted(x.id for x in st.clusters[0].members.values()) == [2, 3]
        assert len(st.unclustered) == 0

    @pytest.mark.parametrize("where", ["member", "unclustered"])
    def test_a_point_missing_from_its_group_is_point_not_found(self, where):
        """A point its group lost before its expiry means the structure is
        corrupt; the expiry raises rather than skip it."""
        c = TwoApproxClustering.single_guess(1, 1.0, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 20))
        c.update(TimedPoint(2, (1.0,), 2, 10))  # a member of 1's cluster
        c.update(TimedPoint(3, (5.0,), 3, 10))  # unclustered
        st = c.states[0]
        qid = 2 if where == "member" else 3
        del (st.clusters[0].members if where == "member" else st.unclustered)[qid]
        with pytest.raises(PointNotFound, match=f"point {qid} not stored"):
            c.update(None, t=10)


class TestRecluster:
    def test_noop_when_all_vanishing(self):
        c = TwoApproxClustering.single_guess(1, 1.0, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 50))
        c.update(TimedPoint(2, (1.0,), 2, 5))
        st = c.states[0]
        assert [cl.center.id for cl in st.clusters] == [1]

    def test_persistent_majority_triggers(self):
        # Center expires first; two longer-lived members force a rebuild
        # around the latest-expiring point.
        c = TwoApproxClustering.single_guess(1, 1.0, line_metric())
        c.update(TimedPoint(1, (0.0,), 1, 5))
        c.update(TimedPoint(2, (0.5,), 2, 50))
        c.update(TimedPoint(3, (1.0,), 3, 40))
        st = c.states[0]
        assert [cl.center.id for cl in st.clusters] == [2]
        cl = st.clusters[0]
        assert cl.persistent == 0 and cl.vanishing == 3

    def test_disabled_leaves_imbalance(self):
        c = TwoApproxClustering.single_guess(
            1, 1.0, line_metric(), reclustering_enabled=False
        )
        c.update(TimedPoint(1, (0.0,), 1, 5))
        c.update(TimedPoint(2, (0.5,), 2, 50))
        c.update(TimedPoint(3, (1.0,), 3, 40))
        st = c.states[0]
        assert [cl.center.id for cl in st.clusters] == [1]
        assert st.clusters[0].persistent == 2


class TestInvariantSuite:
    def test_random_streams_pass_audit(self):
        for seed in range(5):
            gen = random_lifetime_stream(40, 2, 8, seed)
            replay_with_audit(gen, k=2, epsilon=1.0)

    def test_sliding_window_passes_audit(self):
        import numpy as np

        rng = np.random.default_rng(3)
        gen = sliding_window_stream(rng.random((30, 2)), window=6)
        replay_with_audit(gen, k=3, epsilon=0.5)

    def test_counter_fault_detected(self):
        gen = random_lifetime_stream(20, 2, 8, 1)
        c = replay_with_audit(gen, k=2, epsilon=1.0)
        target = next(st for st in c.states if st.clusters)
        target.clusters[0].persistent += 1
        target.clusters[0].vanishing -= 1
        active = [p for p in gen.stream.points if p.t_del > gen.stream.points[-1].t_arr]
        with pytest.raises(InvariantViolation) as e:
            audit_two_approx(c, active)
        assert "counter" in str(e.value) or "balance" in str(e.value)

    def test_skipped_reclustering_detected(self):
        c = TwoApproxClustering.single_guess(1, 1.0, line_metric())
        c._recluster = lambda st: None  # fault injection
        c.update(TimedPoint(1, (0.0,), 1, 5))
        c.update(TimedPoint(2, (0.5,), 2, 50))
        c.update(TimedPoint(3, (1.0,), 3, 40))
        active = [
            TimedPoint(1, (0.0,), 1, 5),
            TimedPoint(2, (0.5,), 2, 50),
            TimedPoint(3, (1.0,), 3, 40),
        ]
        with pytest.raises(InvariantViolation) as e:
            audit_two_approx(c, active)
        assert e.value.invariant == "balance"

    def test_lost_member_detected(self):
        """A member dropped from its cluster, with its counter fixed, is
        missing from the rung's stored set."""
        points = [TimedPoint(1, (0.0,), 1, 50), TimedPoint(2, (0.5,), 2, 40)]
        c = TwoApproxClustering.single_guess(1, 1.0, line_metric())
        for p in points:
            c.update(p)
        cl = c.states[0].clusters[0]
        del cl.members[points[1].id]
        cl.vanishing -= 1
        with pytest.raises(InvariantViolation) as e:
            audit_two_approx(c, points)
        assert e.value.invariant == "stored-set"


class TestVanishingMonotonicity:
    def test_no_reversion_on_random_streams(self):
        for seed in range(5):
            gen = random_lifetime_stream(50, 2, 10, seed + 100)
            metric = gen.metric.clone()
            c = TwoApproxClustering(
                2, 1.0, gen.stream.d_min, gen.stream.d_max, metric
            )
            tracker = VanishingTracker()
            for p in gen.stream.points:
                c.update(p)
                tracker.observe(c)


class TestStaleWitness:
    def build(self):
        c = TwoApproxClustering(1, 1.0, 0.5, 10, EuclideanMetric(1))
        c.update(TimedPoint(1, (0.0,), 1, 10))
        c.update(TimedPoint(2, (5.0,), 2, 4))
        return c

    def test_witness_before_any_query(self):
        with pytest.raises(NoCurrentQuery):
            self.build().witness()

    def test_witness_after_a_later_update_and_expiry(self):
        c = self.build()
        c.query(2)
        assert sorted(p.id for p in c.witness()) == [1, 2]
        c.update(TimedPoint(3, (0.5,), 3, 20))
        with pytest.raises(NoCurrentQuery):
            c.witness()
        c.update(None, 5)  # point 2 expires: no unclustered point remains
        with pytest.raises(NoCurrentQuery):
            c.witness()
        c.query(5)
        assert c.witness() is None

    def test_update_none_needs_a_time(self):
        with pytest.raises(InvalidParameter):
            self.build().update(None)

    def test_expiry_only_advance_cannot_go_back(self):
        c = self.build()
        c.update(None, 5)
        with pytest.raises(PastTime):
            c.update(None, 4)
        with pytest.raises(PastTime):
            c.query(1)

    def test_a_failed_query_leaves_no_witness(self):
        """At t=9 points 2 and 3 expire, the persistent members outnumber
        the vanishing ones, and reclustering reopens the one cluster at the
        longest-lived point 4 (x=-2): point 5 (x=2) is left unclustered at
        the only rung, gamma = 1."""
        c = TwoApproxClustering(1, 1.0, 1, 1, line_metric())
        for i, (x, t_del) in enumerate(
            [(0.0, 20), (0.5, 8), (-0.5, 9), (-2.0, 50), (2.0, 40)], 1
        ):
            c.update(TimedPoint(i, (x,), i, t_del))
        assert c.query(5).center_ids == [1]
        with pytest.raises(NoFeasibleGuess):
            c.query(9)
        with pytest.raises(NoCurrentQuery):
            c.witness()


class _CountingMetric(EuclideanMetric):
    """Counts the distances actually computed, one per `_dist` call and one
    per `_block` entry, next to the `evals` that the counters report."""

    def __init__(self, dim):
        super().__init__(dim)
        self.computed = self.blocked = 0

    def _dist(self, a, b):
        self.computed += 1
        return super()._dist(a, b)

    def _block(self, xs, ys):
        self.computed += len(xs) * len(ys)
        self.blocked += len(xs) * len(ys)
        return super()._block(xs, ys)


@pytest.mark.parametrize("reclustering_enabled", [True, False],
                         ids=["reclustering", "no-reclustering"])
@pytest.mark.parametrize("make", [
    lambda: sliding_window_stream(uniform_coords(1000, 2, 0)[0], 50),
    lambda: random_lifetime_stream(1000, 2, 64, 0),
    lambda: h_bounded_stream(1000, 16, 2, 1),
], ids=["sliding", "random", "h16"])
def test_updates_compute_few_of_the_distances_they_count(make, reclustering_enabled):
    """Neighbouring rungs test many of the same pairs, and an update
    computes few pairs twice: the distances it computes are well under the
    per-rung tests it counts."""
    gen = make()
    metric = _CountingMetric(2)
    c = TwoApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max, metric,
                            reclustering_enabled)
    for p in gen.stream.points:
        c.update(p)
    c.update(None, max(p.t_del for p in gen.stream.points))
    assert metric.computed <= 0.3 * metric.evals


def _record_computed_pairs(metric):
    """Wrap the instance's `distance`, as perfbench's tracer does, and its
    `block`; returns the list to which each distance they compute appends
    its unordered pair of ids."""
    pairs, distance, block = [], metric.distance, metric.block

    def recorded(p, q):
        pairs.append((p.id, q.id) if p.id < q.id else (q.id, p.id))
        return distance(p, q)

    def recorded_block(ps, qs):
        pairs.extend((p.id, q.id) if p.id < q.id else (q.id, p.id) for p in ps for q in qs)
        return block(ps, qs)

    metric.distance, metric.block = recorded, recorded_block
    return pairs


@pytest.mark.parametrize("make, rows", [
    (lambda: random_lifetime_stream(300, 2, 16, 4), False),
    (lambda: h_bounded_stream(300, 8, 2, 4), True),
    (lambda: sliding_window_stream(uniform_coords(400, 2, 2)[0], 150), True),
], ids=["random", "h8", "sliding-w150"])
def test_every_distance_goes_through_the_instances_distance(make, rows):
    """Wrappers on `metric.distance` and `metric.block` see every distance
    the update computes, and an update whose arrival ran no step computes
    no pair twice. Where pools reach ROW points, `block` computes some."""
    gen = make()
    metric = _CountingMetric(2)
    c = TwoApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max, metric)
    pairs = _record_computed_pairs(metric)
    plain = 0
    for p in gen.stream.points:
        start = len(pairs)
        c.update(p)
        if not c._memo:
            assert len(set(pairs[start:])) == len(pairs) - start
            plain += 1
    c.update(None, max(p.t_del for p in gen.stream.points))
    assert len(pairs) == metric.computed
    assert plain > 0
    assert (metric.blocked > 0) == rows


class TestExpiryHeap:
    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 1000), st.integers(0, 9)),
            min_size=1,
            max_size=60,
            unique_by=lambda x: x[1],
        )
    )
    def test_holds_the_active_points_least_first(self, draws):
        """With a clock-only update at each distinct deletion time, in
        order between the arrivals: after every update the heap holds one
        entry per point alive after t, the least (t_del, t_arr) first, and
        the structure passes its audit."""
        pts = [TimedPoint(i, (float(x),), t_arr, t_arr + 1 + life)
               for i, (life, t_arr, x) in enumerate(draws)]
        # At equal times the clock moves before the arrival comes.
        events = sorted([(t, 0, None) for t in {p.t_del for p in pts}]
                        + [(p.t_arr, 1, p) for p in pts], key=lambda e: e[:2])
        c = TwoApproxClustering(2, 1.0, 1.0, 9.0, line_metric())
        arrived = []
        for t, _, p in events:
            if p is None:
                c.update(None, t)
            else:
                c.update(p)
                arrived.append(p)
            active = [q for q in arrived if q.t_del > t]
            assert len(c.queue) == len(active)
            if active:
                assert c.queue[0][:2] == min(map(deletion_key, active))
            audit_two_approx(c, active)


class _Unmemoised(TwoApproxClustering):
    """Computes every distance it tests, as the structure did before its
    per-update memo, in pools below ROW points, where `_dist` serves every
    test."""

    def _dist(self, x, y):
        return self.metric.distance(x, y)


def rung_state(st):
    """What first-fit and `_open_longest_lived` can observe of a rung."""
    return (
        tuple((cl.center.id, tuple(cl.members.keys()), cl.persistent, cl.vanishing)
              for cl in st.clusters),
        tuple(st.unclustered.keys()),
    )


def replay_rows(c, points):
    """Yields, as each update ends: ops, evals, the answer and every rung's
    state. Each arrival is followed by a query; after the last arrival the
    clock moves on in steps until every point has expired."""
    def row(t):
        try:
            sol = c.query(t)
            answer = (sol.guess_used, tuple(sol.center_ids))
        except NoFeasibleGuess:
            answer = None
        return (c.ops, c.metric.evals, answer, [rung_state(st) for st in c.states])

    for p in points:
        c.update(p)
        yield row(p.t_arr)
    end = max(p.t_del for p in points)
    for t in range(points[-1].t_arr + 1, end + 1, 3):
        c.update(None, t)
        yield row(t)


class TestDistanceMemo:
    """Each update memoises the distances it tests in one row per center;
    the memo must change no counter, rung state or answer."""

    @pytest.mark.parametrize("make", [
        lambda: random_lifetime_stream(300, 2, 16, 4),
        lambda: h_bounded_stream(300, 8, 2, 4),
    ], ids=["random", "h8"])
    def test_memo_holds_at_most_the_updates_own_tests(self, make):
        """After an arrival, or a clock move that expires points, the memo
        holds only pairs that update tested, each entry for a test of its own."""
        gen = make()
        c = TwoApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max,
                                gen.metric.clone())
        for p in gen.stream.points:
            evals = c.metric.evals
            c.update(p)
            assert sum(map(len, c._memo.values())) <= c.metric.evals - evals
        while c.queue:
            evals, stored = c.metric.evals, len(c.queue)
            c.update(None, c.queue[0][0])
            assert len(c.queue) < stored
            assert sum(map(len, c._memo.values())) <= c.metric.evals - evals

    def test_a_query_that_expires_nothing_leaves_the_memo(self):
        gen = random_lifetime_stream(300, 2, 16, 5)
        c = TwoApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max,
                                gen.metric.clone())
        held = 0
        for p in gen.stream.points:
            c.update(p)
            memo = {cid: dict(row) for cid, row in c._memo.items()}
            c.query(p.t_arr)
            assert c._memo == memo
            held += bool(memo)
        assert held > 0

    @pytest.mark.parametrize("reclustering_enabled", [True, False],
                             ids=["reclustering", "no-reclustering"])
    def test_replays_match_a_structure_without_the_memo(self, reclustering_enabled):
        for seed in range(300):
            n, k = 12 + seed % 17, 1 + seed % 3
            epsilon = (0.5, 1.0, 2.0)[seed // 3 % 3]
            if seed % 4 == 3:
                gen = h_bounded_stream(n, seed % 5, 1 + seed % 2, seed)
            else:
                gen = random_lifetime_stream(n, 1 + seed % 2, 3 + seed % 9, seed)
            traces = [
                list(replay_rows(cls(k, epsilon, gen.stream.d_min, gen.stream.d_max,
                                     gen.metric.clone(), reclustering_enabled),
                                 gen.stream.points))
                for cls in (TwoApproxClustering, _Unmemoised)
            ]
            assert traces[0] == traces[1], seed

    def test_recycled_ids_change_nothing(self):
        """The memo is keyed by point id, and `_admit` lets an arrival take
        the id of an expired point. A replay in which each arrival takes the
        smallest id free at its time must match the replay with unique ids
        after every update: ops, evals, groups and every rung's state, each
        point named by its arrival index. (`witness` breaks ties by id, so
        it is left out.)"""
        def trace(gen, stream, k):
            name = {id(q): i for i, q in enumerate(stream)}  # arrival index
            c = TwoApproxClustering(k, 0.5, gen.stream.d_min, gen.stream.d_max,
                                    gen.metric.clone())
            for q in stream:
                c.update(q)
                yield c.ops, c.metric.evals, list(c._groups), [(
                    [(name[id(cl.center)], [name[id(x)] for x in cl.members.values()],
                      cl.persistent, cl.vanishing) for cl in st.clusters],
                    [name[id(x)] for x in st.unclustered.values()],
                ) for st in c.states]

        for seed in range(40):
            gen = random_lifetime_stream(60, 2, 6 + seed % 12, seed)
            points = sorted(gen.stream.points, key=lambda q: q.t_arr)
            freed, recycled = {}, []  # id -> when its last holder expires
            for p in points:
                pid = next(i for i in count() if freed.get(i, p.t_arr) <= p.t_arr)
                freed[pid] = p.t_del
                recycled.append(TimedPoint(pid, p.payload, p.t_arr, p.t_del))
            assert len(freed) < len(points)
            k = 2 + seed % 2
            assert list(trace(gen, points, k)) == list(trace(gen, recycled, k)), seed


ROW_STREAMS = {
    "sliding-w200": lambda: sliding_window_stream(uniform_coords(400, 2, 6)[0], 200),
    "h8": lambda: h_bounded_stream(200, 8, 2, 3),
    "random": lambda: random_lifetime_stream(300, 2, 40, 7),
    # Integer points, with 2*gamma = 2 and 3 on the lowest rungs: ties at g.
    "grid-w150": lambda: sliding_window_stream(
        [(x, y) for x, y in zip(*divmod(np.random.default_rng(0).permutation(400), 20))],
        150),
}


class TestRowScans:
    """`_open_longest_lived` scans a pool of ROW points or more as one
    block row. A replay with ROW above every pool, all scalar scans, and
    one with ROW at 2, nearly all rows, must match update for update: ops,
    evals, groups, every rung's state, the answer, and the pairs whose
    distances were computed."""

    @pytest.mark.parametrize("reclustering_enabled", [True, False],
                             ids=["reclustering", "no-reclustering"])
    @pytest.mark.parametrize("backend", ["euclidean", "matrix"])
    @pytest.mark.parametrize("name", ROW_STREAMS)
    def test_rows_match_the_scalar_loop(self, monkeypatch, name, backend,
                                        reclustering_enabled):
        gen = ROW_STREAMS[name]()
        points, metric = gen.stream.points, gen.metric
        if backend == "matrix":
            points, metric = on_a_matrix(gen)
        pools, open_row = [], TwoApproxClustering._open_row

        def spy(self, cl, pool, g):
            pools.append(len(pool))
            return open_row(self, cl, pool, g)

        monkeypatch.setattr(TwoApproxClustering, "_open_row", spy)
        runs = []
        for row in (math.inf, 2):
            c = TwoApproxClustering(3, 1.0, gen.stream.d_min, gen.stream.d_max,
                                    metric.clone(), reclustering_enabled)
            runs.append((row, c, _record_computed_pairs(c.metric), replay_rows(c, points)))
        (_, a, _, _), (_, b, _, _) = runs
        while True:
            seen = []
            for row, c, pairs, replay in runs:
                monkeypatch.setattr(two_approx, "ROW", row)
                start = len(pairs)
                seen.append((next(replay, None), c._groups, sorted(pairs[start:])))
            assert seen[0] == seen[1]
            if seen[0][0] is None:
                break
            assert all(map(TwoApproxClustering._same, a.states, b.states))
        assert pools
        if name != "random":  # pools that outgrow the default ROW of 64
            assert max(pools) > 64


SMALL_STREAMS = {
    "sliding": lambda: sliding_window_stream(uniform_coords(120, 2, 3)[0], window=15),
    "random": lambda: random_lifetime_stream(120, 2, 20, 4),
    "h5": lambda: h_bounded_stream(120, 5, 2, 5),
}


class TestRungsStayIndependent:
    """However the structure shares work between rungs, every rung must
    behave as a structure with that rung alone would. Each twin pushes and
    pops every point on its own queue, which the full structure counts
    once, not once per rung."""

    @pytest.mark.parametrize("reclustering_enabled", [True, False],
                             ids=["reclustering", "no-reclustering"])
    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_each_rung_matches_its_one_rung_twin(self, name, reclustering_enabled):
        gen = SMALL_STREAMS[name]()
        d_min, d_max = gen.stream.d_min, gen.stream.d_max
        full = TwoApproxClustering(3, 0.5, d_min, d_max, gen.metric.clone(),
                                   reclustering_enabled)
        twins = [
            TwoApproxClustering(3, 0.5, d_min, d_max, gen.metric.clone(),
                                reclustering_enabled, GuessLadder(full.ladder.beta, (g,)))
            for g in full.ladder
        ]
        points = gen.stream.points
        for i, p in enumerate(points):
            for c in [full, *twins]:
                c.update(p)
                if i % 3 == 0 and i + 1 < len(points):
                    # The next arrival's expiries, in an update of their own.
                    c.update(None, points[i + 1].t_arr)
            for st, twin in zip(full.states, twins):
                assert rung_state(st) == rung_state(twin.states[0])
            queue_ops = 2 * (i + 1) - len(full.queue)  # its pushes and its pops
            assert full.ops == sum(twin.ops for twin in twins) - (len(twins) - 1) * queue_ops
            assert full.metric.evals == sum(twin.metric.evals for twin in twins)


    def test_an_arrival_that_cuts_a_group_into_four_parts(self):
        """Centers 0, 1 and 2 are 0.75 apart, and point 3 is 0.70, 0.64 and
        0.60 from them. On the rungs of 2*gamma 0.58, 0.62, 0.66 and 0.72,
        which share one state, point 3 stays unclustered on the first and
        is a vanishing member of centers 2, 1 and 0 on the others."""
        table = [[0, 0.75, 0.75, 0.70],
                 [0.75, 0, 0.75, 0.64],
                 [0.75, 0.75, 0, 0.60],
                 [0.70, 0.64, 0.60, 0]]
        points = [TimedPoint(i, i, i, 100) for i in range(3)] + [TimedPoint(3, 3, 3, 10)]
        ladder = GuessLadder(1.0, (0.29, 0.31, 0.33, 0.36))
        full = TwoApproxClustering(3, 1.0, 0.29, 0.36, MatrixMetric(table), ladder=ladder)
        twins = [TwoApproxClustering(3, 1.0, g, g, MatrixMetric(table),
                                     ladder=GuessLadder(1.0, (g,)))
                 for g in ladder]
        for c in [full, *twins]:
            for p in points:
                c.update(p)
        assert full._groups == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert tuple(full.states[0].unclustered.values()) == (points[3],)
        for st, center in zip(full.states[1:], (2, 1, 0)):
            assert list(st.clusters[center].members.keys()) == [center, 3]
        for st, twin in zip(full.states, twins):
            assert rung_state(st) == rung_state(twin.states[0])
        queue_ops = len(points)  # its pushes; nothing has expired
        assert full.ops == sum(twin.ops for twin in twins) - (len(twins) - 1) * queue_ops
        assert full.metric.evals == sum(twin.metric.evals for twin in twins)


class TestGroupsTileAndShare:
    """After every update, arrival or expiry-only, and in a deep copy of a
    warmed structure, the groups tile the ladder and every rung of a group
    holds its first rung's clusters and unclustered set. Neighbours that
    only an expiry made equal may stay apart, so maximality is not checked."""

    @staticmethod
    def replay(c, points):
        for i, p in enumerate(points):
            c.update(p)
            assert_groups_tile_and_share(c, maximal=False)
            if i % 3 == 0 and i + 1 < len(points):
                c.update(None, points[i + 1].t_arr)
                assert_groups_tile_and_share(c, maximal=False)

    @pytest.mark.parametrize("reclustering_enabled", [True, False],
                             ids=["reclustering", "no-reclustering"])
    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_after_every_update(self, name, reclustering_enabled):
        gen = SMALL_STREAMS[name]()
        c = TwoApproxClustering(3, 0.5, gen.stream.d_min, gen.stream.d_max,
                                gen.metric.clone(), reclustering_enabled)
        self.replay(c, gen.stream.points)

    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_in_a_deep_copy_of_a_warmed_structure(self, name):
        gen = SMALL_STREAMS[name]()
        points = gen.stream.points
        c = TwoApproxClustering(3, 0.5, gen.stream.d_min, gen.stream.d_max,
                                gen.metric.clone())
        for p in points[:60]:
            c.update(p)
        twin = copy.deepcopy(c)
        assert 1 < len(twin._groups) < len(twin.states)
        assert_groups_tile_and_share(twin, maximal=False)
        self.replay(twin, points[60:])
