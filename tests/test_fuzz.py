"""Stateful fuzzing of both structures through their shared interface.

One machine drives either structure with interleaved arrivals, queries
(which are also the expiry-only advance), witnesses and calls that must
fail with a typed error, and runs the structure's audit suite after every
step. Queries are checked against the radius bound of the guess used and,
at no more than ORACLE_CAP active points, against the exact optimum.
"""

import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from dynkcenter import EuclideanMetric, TimedPoint
from dynkcenter.audits import VanishingTracker
from dynkcenter.errors import (
    DuplicateId,
    InvertedLifetime,
    NoCurrentQuery,
    NonMonotoneArrival,
    PastTime,
)
from dynkcenter.oracle import exact_kcenter, radius
from dynkcenter.runner import ALGORITHMS
from dynkcenter.two_approx import TwoApproxClustering

# Distinct coordinates, one per arrival, so every distance lies within the
# bounds the ladder is built from.
PALETTE = [tuple(x) for x in np.random.default_rng(0).random((40, 2))]
D_MIN, D_MAX = EuclideanMetric(2).extremes(
    [TimedPoint(i, x, i, i + 1) for i, x in enumerate(PALETTE)]
)
ORACLE_CAP = 8
SLACK = 1 + 1e-12  # rounding of the triangle inequality behind a radius bound


class Structures(RuleBasedStateMachine):
    @initialize(
        algorithm=st.sampled_from(list(ALGORITHMS)),
        k=st.integers(1, 3),
        epsilon=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def build(self, algorithm, k, epsilon):
        cls, self.audit = ALGORITHMS[algorithm]
        self.c = cls(k, epsilon, D_MIN, D_MAX, EuclideanMetric(2))
        self.oracle = EuclideanMetric(2)
        self.tracker = VanishingTracker()
        self.points = []
        self.now = 0
        self.answer = None  # guess of the last query, None after an update

    def active(self):
        return [p for p in self.points if p.t_del > self.now]

    @precondition(lambda self: len(self.points) < len(PALETTE))
    @rule(gap=st.integers(0, 3), life=st.integers(1, 12))
    def arrive(self, gap, life):
        last = self.points[-1].t_arr if self.points else 0
        t = max(self.now + gap, last + 1)
        p = TimedPoint(len(self.points), PALETTE[len(self.points)], t, t + life)
        self.c.update(p)
        self.points.append(p)
        self.now = t
        self.answer = None

    @rule(gap=st.integers(0, 6))
    def query(self, gap):
        self.now += gap
        sol = self.c.query(self.now)
        self.answer = sol.guess_used
        active = self.active()
        if not active:
            assert sol.centers == []
            return
        assert {c.id for c in sol.centers} <= {p.id for p in active}
        assert 1 <= len(sol.centers) <= self.c.k
        rad = radius(self.oracle, sol.centers, active)
        assert rad <= self.c.FACTOR * sol.guess_used * SLACK
        # With at most k distinct active points the optimum is 0, but the
        # smallest guess may still merge two of them; the bound needs more.
        if self.c.k < len(active) <= ORACLE_CAP:
            opt = exact_kcenter(self.oracle, active, self.c.k, ORACLE_CAP)
            assert rad <= (self.c.FACTOR + self.c.epsilon) * opt.radius * SLACK

    @precondition(lambda self: hasattr(self.c, "witness") and self.answer is not None)
    @rule()
    def witness(self):
        w = self.c.witness()
        rung = self.c.ladder.guesses.index(self.answer)
        if w is None:
            assert rung == 0
            return
        below = self.c.ladder.guesses[rung - 1]
        active = self.active()
        assert len({p.id for p in w}) == self.c.k + 1
        assert {p.id for p in w} <= {p.id for p in active}
        for i, a in enumerate(w):
            for b in w[i + 1 :]:
                assert self.oracle.distance(a, b) > 2 * below
        if len(active) <= ORACLE_CAP:
            assert exact_kcenter(self.oracle, active, self.c.k, ORACLE_CAP).radius > below

    @precondition(lambda self: hasattr(self.c, "witness") and self.answer is None)
    @rule()
    def stale_witness(self):
        with pytest.raises(NoCurrentQuery):
            self.c.witness()

    @precondition(lambda self: self.now >= 2)
    @rule(back=st.integers(1, 3))
    def past_query(self, back):
        with pytest.raises(PastTime):
            self.c.query(max(self.now - back, 1))

    @precondition(lambda self: self.now >= 2 and len(self.points) < len(PALETTE))
    @rule(back=st.integers(1, 3))
    def past_arrival(self, back):
        t = max(self.now - back, 1)
        p = TimedPoint(len(self.points), PALETTE[len(self.points)], t, t + 5)
        with pytest.raises(NonMonotoneArrival):
            self.c.update(p)

    def rejected(self, error, p):
        """The update raises `error` and changes nothing: no op is counted,
        and the audits and later answers see the same points as before."""
        ops, stored = self.c.ops, self.c.stored_points()
        with pytest.raises(error):
            self.c.update(p)
        assert (self.c.ops, self.c.stored_points()) == (ops, stored)

    def next_arrival(self):
        return max(self.now, self.points[-1].t_arr + 1 if self.points else 1)

    @precondition(lambda self: len(self.points) < len(PALETTE))
    @rule(life=st.sampled_from([0, -1, -5, math.nan]))
    def inverted_lifetime(self, life):
        t = self.next_arrival()
        self.rejected(InvertedLifetime,
                      TimedPoint(len(self.points), PALETTE[len(self.points)], t, t + life))

    @precondition(lambda self: isinstance(self.c, TwoApproxClustering)
                  and any(p.t_del > self.next_arrival() for p in self.points))
    @rule(pick=st.integers(0, len(PALETTE)))
    def duplicate_id(self, pick):
        t = self.next_arrival()
        active = [p for p in self.points if p.t_del > t]
        q = active[pick % len(active)]
        self.rejected(DuplicateId, TimedPoint(q.id, PALETTE[-1], t, t + 5))

    @invariant()
    def audited(self):
        self.audit(self.c, self.active(), self.now, self.tracker)


Structures.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestStructures = Structures.TestCase
