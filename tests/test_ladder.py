"""The interface both structures share through `LadderClustering`: the
ladder, typed parameter checks, and a clock that never runs backwards."""

import math

import pytest

from dynkcenter import EuclideanMetric, TimedPoint, random_lifetime_stream
from dynkcenter.core import GuessLadder, LadderClustering
from dynkcenter.errors import (
    DuplicateId,
    InvalidBeta,
    InvalidBounds,
    InvalidParameter,
    InvertedLifetime,
    NoFeasibleGuess,
    NonMonotoneArrival,
    PastTime,
)
from dynkcenter.runner import ALGORITHMS
from conftest import line_metric

STRUCTURES = [cls for cls, _ in ALGORITHMS.values()]


@pytest.fixture(params=STRUCTURES, ids=list(ALGORITHMS))
def structure(request):
    return request.param


def test_ladder_uses_epsilon_over_factor(structure):
    c = structure(1, 1.0, 1, 4, line_metric())
    assert isinstance(c, LadderClustering)
    assert c.ladder.beta == 1.0 / structure.FACTOR
    assert [st.gamma for st in c.states] == list(c.ladder.guesses)


def test_k_below_one_rejected(structure):
    with pytest.raises(InvalidParameter):
        structure(0, 1.0, 1, 4, line_metric())


@pytest.mark.parametrize("k", [2.5, 3.0, "3"])
def test_k_that_is_not_an_integer_rejected(structure, k):
    """A fractional k would never fill (6+eps)'s k + 2 attractors, so it
    would never evict, and (2+eps) would meet it in a raw TypeError."""
    with pytest.raises(InvalidParameter):
        structure(k, 1.0, 1, 4, line_metric())


@pytest.mark.parametrize("epsilon", [math.inf, math.nan])
def test_non_finite_epsilon_rejected(structure, epsilon):
    with pytest.raises(InvalidBeta):
        structure(1, epsilon, 1, 4, line_metric())


@pytest.mark.parametrize("guesses", [
    (), (2.0, 1.0), (1.0, math.nan, 4.0), (1.0, math.inf), (-1.0, 1.0),
], ids=["empty", "decreasing", "nan", "inf", "negative"])
def test_a_ladder_outside_the_contract_is_rejected(structure, guesses):
    """A ladder is non-empty, finite, non-negative and strictly increasing,
    whichever structure it is given to."""
    with pytest.raises(InvalidParameter):
        structure(1, 1.0, 1, 4, line_metric(), ladder=GuessLadder(1.0, guesses))


def test_a_ladder_whose_radius_bound_overflows_is_rejected(structure):
    """FACTOR x the top guess must be finite. An infinite 2 * gamma on the
    top rungs once sent the (2+eps) group cut past its group, a raw
    IndexError at the second arrival."""
    with pytest.raises(InvalidBounds, match=r"d_max 1e\+308"):
        structure(3, 1.0, 0.001, 1e308, line_metric())
    c = structure(1, 1.0, 1, 4, line_metric(),
                  ladder=GuessLadder(0.5, (1.0, 1e308 / structure.FACTOR)))
    c.update(TimedPoint(1, (0.0,), 1, 9))
    c.update(TimedPoint(2, (5.0,), 2, 9))
    assert c.query(2).guess_used == 1e308 / structure.FACTOR
    with pytest.raises(InvalidParameter):
        structure(1, 1.0, 1, 4, line_metric(), ladder=GuessLadder(0.5, (1.0, 1e308, 1.5e308)))


@pytest.mark.parametrize("t_del", [5, 4, math.nan])
def test_an_arrival_that_does_not_end_after_it_starts_is_rejected(structure, t_del):
    c = structure(1, 1.0, 1, 4, line_metric())
    c.update(TimedPoint(1, (0.0,), 1, 9))
    with pytest.raises(InvertedLifetime):
        c.update(TimedPoint(2, (1.0,), 5, t_del))
    # The rejected arrival left the clock at 1, so an arrival at 3 is legal.
    c.update(TimedPoint(3, (1.0,), 3, 9))
    assert len(c.query(3).centers) == 1


def test_two_approx_rejects_the_id_of_an_active_point():
    """(2+eps) finds an active id among rung 0's k+1 dicts; the id of a point
    that has expired by the arrival is free again."""
    c = ALGORITHMS["two"][0](2, 1.0, 1, 4, line_metric())
    for i, x in enumerate((0.0, 9.0, 20.0, 4.0), 1):
        c.update(TimedPoint(i, (x,), i, 3 if i == 1 else 20))
    assert [q.id for q in c.states[0].unclustered.values()] == [4]
    ops = c.ops
    for pid in (2, 3, 4):
        with pytest.raises(DuplicateId):
            c.update(TimedPoint(pid, (1.0,), 5, 9))
    assert c.ops == ops
    c.update(TimedPoint(1, (1.0,), 5, 9))  # point 1 expired at 3
    assert c.query(5).center_ids == [2, 3]


def test_a_zero_rung_is_legal(structure):
    c = structure(1, 1.0, 1, 4, line_metric(), ladder=GuessLadder(1.0, (0.0, 1.0)))
    for i, x in enumerate((0.0, 0.0), 1):
        c.update(TimedPoint(i, (x,), i, 10))
    assert c.query(2).guess_used == 0.0


def test_only_the_shell_defines_update_and_query(structure):
    """Each structure supplies `_expire`, `_arrive` and `_answer`; the one
    update and query path is `LadderClustering`'s."""
    for name in ("update", "query"):
        assert name not in vars(structure)
    for name in ("_expire", "_arrive", "_answer"):
        assert name in vars(structure)


def test_update_ops_is_the_ops_of_the_latest_update(structure):
    """Over a seeded stream with clock-only updates and queries between the
    arrivals, `update_ops` is each update's ops delta, and a query leaves
    it as the latest update set it."""
    points = random_lifetime_stream(120, 2, 15, seed=4).stream.points
    c = structure(2, 1.0, 0.01, 2.0, EuclideanMetric(2))
    for p in points:
        if p.t_arr % 3 == 0:
            ops = c.ops
            c.update(None, p.t_arr - 1)
            assert c.update_ops == c.ops - ops
        ops = c.ops
        c.update(p)
        assert c.update_ops == c.ops - ops > 0
        last = c.update_ops
        if p.t_arr % 2 == 0:
            ops = c.ops
            c.query(p.t_arr)
            assert c.ops > ops and c.update_ops == last
    ops = c.ops
    c.update(None, max(p.t_del for p in points))
    assert c.update_ops == c.ops - ops > 0 and c.stored_points() == 0


def test_query_before_last_arrival_raises(structure):
    c = structure(1, 6.0, 1, 4, line_metric())
    c.update(TimedPoint(1, (0.0,), 3, 10))
    with pytest.raises(PastTime):
        c.query(1)


def test_query_before_last_query_raises(structure):
    c = structure(1, 6.0, 1, 4, line_metric())
    c.update(TimedPoint(1, (0.0,), 1, 10))
    c.query(5)
    with pytest.raises(PastTime):
        c.query(4)


def test_nan_time_rejected_and_clock_kept(structure):
    """NaN compares false with every time, so it must not pass for a time
    after the clock and then let a past time through."""
    c = structure(1, 6.0, 1, 4, line_metric())
    c.update(TimedPoint(1, (0.0,), 5, 10))
    for step in (c.query, lambda t: c.update(None, t)):
        with pytest.raises(InvalidParameter):
            step(math.nan)
    with pytest.raises(PastTime):
        c.query(-100)
    assert c.query(5).center_ids == [1]


def test_arrival_before_last_query_raises(structure):
    c = structure(1, 6.0, 1, 4, line_metric())
    c.update(TimedPoint(1, (0.0,), 1, 10))
    c.query(5)
    with pytest.raises(NonMonotoneArrival):
        c.update(TimedPoint(2, (1.0,), 3, 10))
    # The rejected arrival changed nothing.
    assert c.query(5).center_ids == [1]


def test_query_and_arrival_at_the_current_time_are_legal(structure):
    c = structure(1, 6.0, 1, 4, line_metric())
    c.update(TimedPoint(1, (0.0,), 1, 10))
    assert c.query(1).center_ids == [1]
    assert c.query(1).center_ids == [1]
    c.query(4)
    c.update(TimedPoint(2, (1.0,), 4, 20))
    assert c.query(4).centers


def test_peak_stored_is_readable_on_both(structure):
    c = structure(1, 6.0, 1, 4, line_metric())
    assert c.peak_stored == 0
    c.update(TimedPoint(1, (0.0,), 1, 3))
    peak = c.peak_stored
    assert peak >= 1
    c.query(5)
    assert c.stored_points() == 0 and c.peak_stored == peak


def test_a_ladder_below_the_data_has_no_feasible_guess(structure):
    """Bounds (1, 1) give the one rung gamma = 1; three points 10 apart fit
    no single cluster of radius 2 * gamma."""
    c = structure(1, 1.0, 1, 1, line_metric())
    for i, x in enumerate((0.0, 10.0, 20.0), 1):
        c.update(TimedPoint(i, (x,), i, 100))
    with pytest.raises(NoFeasibleGuess):
        c.query(3)


def test_an_empty_structure_answers_no_centers_for_one_op(structure):
    c = structure(1, 6.0, 1, 4, line_metric())
    c.update(TimedPoint(1, (0.0,), 1, 3))
    c.update(TimedPoint(2, (1.0,), 2, 4))
    c.query(5)  # both points have expired
    ops = c.ops
    sol = c.query(6)
    assert sol.centers == [] and sol.radius == 0.0
    assert sol.guess_used == c.states[0].gamma
    assert c.ops == ops + 1  # the smallest rung is the only one scanned


def test_update_takes_one_signature(structure):
    """`update(p)` and `update(p, p.t_arr)` take an arrival, `update(None, t)`
    only expires, and `update(None)` or an arrival at another time is a
    typed error."""
    c = structure(1, 6.0, 1, 4, line_metric())
    with pytest.raises(InvalidParameter):
        c.update(None)
    p1 = TimedPoint(1, (0.0,), 1, 3)
    c.update(p1, p1.t_arr)
    with pytest.raises(InvalidParameter):
        c.update(TimedPoint(2, (1.0,), 2, 9), 5)
    c.update(TimedPoint(2, (1.0,), 2, 9))
    c.update(None, 5)  # point 1 expires
    assert c.query(5).center_ids == [2]
    c.update(None, 9)  # point 2 expires
    assert c.stored_points() == 0
    with pytest.raises(PastTime):
        c.update(None, 8)
