"""The invariant audits: one injected fault per invariant name, and audits
that only read.

Each fault case builds a small structure on the line, breaks one invariant
and expects the audit to name it, and the guess, as the first fault a walk
of every rung in the order of the checks meets. Structures whose rungs
share one state are audited once per run of rungs, so the cases include
faults that only some rungs of such a run see.
"""

import heapq
import re
from functools import partial

import pytest

from dynkcenter import SixApproxClustering, TimedPoint, TwoApproxClustering
from dynkcenter.audits import VanishingTracker, audit_six_approx, audit_two_approx
from dynkcenter.core import GuessLadder
from dynkcenter.errors import InvariantViolation
from dynkcenter.runner import ALGORITHMS
from conftest import line_metric, line_points
from test_replay_digests import _build, _stream, case, replay

A, B = (1, 0.0, 1, 50), (2, 10.0, 2, 50)  # two points far apart on every rung below


def point(pid, x, t_arr, t_del):
    return TimedPoint(pid, (float(x),), t_arr, t_del)


def build(cls, spec, k=2, guesses=(1.0,)):
    """A structure of class cls over the ladder `guesses`, after the
    arrivals of spec, and those points."""
    pts = line_points(spec)
    c = cls(k, 1.0, 1, 1, line_metric(), ladder=GuessLadder(1.0, guesses))
    for p in pts:
        c.update(p)
    return c, pts


two, six = partial(build, TwoApproxClustering), partial(build, SixApproxClustering)


def move(x, src, dst):
    """Moves point x between two member or unclustered dicts, counters untouched."""
    del src[x.id]
    dst[x.id] = x


# Each fault returns the audit to run and the guess its message names: the
# gamma, or the rung's index for the tracker.


def center_separation():
    c, pts = two([A, B])
    c.states[0].clusters[1].center = point(3, 1.0, 2, 50)
    return lambda: audit_two_approx(c, pts), "guess 1.0"


def center_separation_at_the_top_of_a_run():
    """One state on rungs 2*gamma = 2, 4, 8: a center 8 from the other
    breaks separation only at the top rung."""
    c, pts = two([A, B], guesses=(1.0, 2.0, 4.0))
    assert c._groups == [(0, 3)]
    c.states[0].clusters[1].center = point(3, 8.0, 2, 50)
    return lambda: audit_two_approx(c, pts), "guess 4.0"


def membership_radius():
    c, pts = two([A, (2, 5.0, 2, 50), (3, 3.0, 3, 40)])  # 3 joins 2's cluster
    st = c.states[0]
    move(pts[2], st.clusters[1].members, st.clusters[0].members)
    return lambda: audit_two_approx(c, pts), "guess 1.0"


def first_fit():
    # 2*gamma = 4: point 3 fits both centers and joins the first.
    c, pts = two([A, (2, 5.0, 2, 50), (3, 2.5, 3, 40)], guesses=(2.0,))
    st = c.states[0]
    move(pts[2], st.clusters[0].members, st.clusters[1].members)
    return lambda: audit_two_approx(c, pts), "guess 2.0"


def unclustered_separation():
    c, pts = two([A, (2, 5.0, 2, 50), (3, 2.5, 3, 40)], guesses=(2.0,))
    st = c.states[0]
    move(pts[2], st.clusters[0].members, st.unclustered)
    return lambda: audit_two_approx(c, pts), "guess 2.0"


def fullness():
    c, pts = two([A, B])
    st = c.states[0]
    st.unclustered[2] = st.clusters.pop().center
    return lambda: audit_two_approx(c, pts), "guess 1.0"


def counter_correctness():
    c, pts = two([A, (2, 0.5, 2, 40)], k=1)
    cl = c.states[0].clusters[0]
    cl.persistent += 1
    cl.vanishing -= 1
    return lambda: audit_two_approx(c, pts), "guess 1.0"


def balance():
    pts = line_points([(1, 0.0, 1, 5), (2, 0.5, 2, 50), (3, 1.0, 3, 40)])
    c = TwoApproxClustering.single_guess(1, 1.0, line_metric())
    c._recluster = lambda st: None  # no reclustering round ever starts
    for p in pts:
        c.update(p)
    return lambda: audit_two_approx(c, pts), "guess 1.0"


def stored_set_at_a_rung():
    c, pts = two([A, (2, 0.5, 2, 40)], k=1)
    cl = c.states[0].clusters[0]
    del cl.members[2]
    cl.vanishing -= 1
    return lambda: audit_two_approx(c, pts), "guess 1.0"


def stored_set_queue_length():
    c, pts = two([A, (2, 0.5, 2, 40)], k=1)
    heapq.heappop(c.queue)
    return lambda: audit_two_approx(c, pts), None


def stored_set_queue_duplicate():
    """One active point queued twice and another not at all: the length
    is right, and point 2 would expire twice while point 1 never does."""
    c, pts = two([A, (2, 0.5, 2, 40)], k=1)
    c.queue[1] = c.queue[0]
    return lambda: audit_two_approx(c, pts), None


def stored_set_queue_key():
    c, pts = two([A, (2, 0.5, 2, 40)], k=1)
    t_del, t_arr, p = c.queue[0]
    c.queue[0] = (t_del + 20, t_arr, p)  # point 2 would expire at 60, not 40
    return lambda: audit_two_approx(c, pts), None


def vanishing_monotonicity():
    c, pts = two([A, (2, 0.5, 2, 40)], k=1)  # point 2 expires first: vanishing
    tracker = VanishingTracker()
    tracker.observe(c)
    c.states[0].clusters[0].center = point(1, 0.0, 1, 30)  # now point 2 outlives it
    return lambda: tracker.observe(c), "guess 0"


def vanishing_monotonicity_in_a_joined_run():
    """Point 2 is persistent on rung 0 alone; then rungs 1 and 2 join rung
    0's state, so it reverts on rung 1, the first rung where it was vanishing."""
    c, pts = two([A, (2, 0.5, 2, 40)], k=1, guesses=(1.0, 2.0, 4.0))
    st = c.states[0]
    c._copy(st, st)
    st.clusters[0].center = point(1, 0.0, 1, 30)
    tracker = VanishingTracker()
    tracker.observe(c)
    c._share(1, 3, st)
    return lambda: tracker.observe(c), "guess 1"


def attractor_separation():
    c, pts = six([A, B])
    c.states[0].attractors[1].point = point(3, 1.0, 2, 50)
    return lambda: audit_six_approx(c, pts, 2), "guess 1.0"


def representative_too_far():
    c, pts = six([A, B])
    c.states[0].attractors[0].rep = point(3, 3.0, 3, 50)
    return lambda: audit_six_approx(c, pts, 2), "guess 1.0"


def representative_arrived_first():
    c, pts = six([(1, 0.0, 2, 50)])
    c.states[0].attractors[0].rep = point(3, 0.5, 1, 50)
    return lambda: audit_six_approx(c, pts, 2), "guess 1.0"


def expired_point_stored():
    c, pts = six([(1, 0.0, 1, 5), (2, 10.0, 2, 50)])
    return lambda: audit_six_approx(c, pts[1:], 5), "guess 1.0"  # no update at 5


def coverage_without_representatives():
    c, pts = six([A, B])
    c.states[0].attractors.clear()
    return lambda: audit_six_approx(c, pts, 2), "guess 1.0"


def coverage_beyond_4_gamma():
    c, pts = six([A, B])
    del c.states[0].attractors[1]  # point 2 is 10 from the one representative left
    return lambda: audit_six_approx(c, pts, 2), "guess 1.0"


def two_middle_rung_copy():
    """The middle rung of a run of three gets its own copy of the state,
    and only that copy is broken."""
    c, pts = two([A, B], guesses=(1.0, 2.0, 4.0))
    assert c._groups == [(0, 3)]
    st = c.states[1]
    c._copy(st, st)
    st.clusters[0].persistent += 1
    return lambda: audit_two_approx(c, pts), "guess 2.0"


def six_middle_rung_copy():
    c, pts = six([A, B], guesses=(1.0, 2.0, 4.0))
    assert c._groups == [(0, 3)]
    st = c.states[1]
    c._copy(st, st)
    st.orphans[3] = point(3, 1.0, 1, 2)
    return lambda: audit_six_approx(c, pts, 2), "guess 2.0"


FAULTS = [
    ("center-separation", center_separation),
    ("center-separation", center_separation_at_the_top_of_a_run),
    ("membership-radius", membership_radius),
    ("first-fit", first_fit),
    ("unclustered-separation", unclustered_separation),
    ("fullness", fullness),
    ("counter-correctness", counter_correctness),
    ("balance", balance),
    ("stored-set", stored_set_at_a_rung),
    ("stored-set", stored_set_queue_length),
    ("stored-set", stored_set_queue_duplicate),
    ("stored-set", stored_set_queue_key),
    ("vanishing-monotonicity", vanishing_monotonicity),
    ("vanishing-monotonicity", vanishing_monotonicity_in_a_joined_run),
    ("attractor-separation", attractor_separation),
    ("representative-validity", representative_too_far),
    ("representative-validity", representative_arrived_first),
    ("expired-point-stored", expired_point_stored),
    ("coverage", coverage_without_representatives),
    ("coverage", coverage_beyond_4_gamma),
    ("counter-correctness", two_middle_rung_copy),
    ("expired-point-stored", six_middle_rung_copy),
]


@pytest.mark.parametrize("invariant, fault", FAULTS, ids=[f.__name__ for _, f in FAULTS])
def test_one_injected_fault_is_named(invariant, fault):
    audit, guess = fault()
    with pytest.raises(InvariantViolation) as e:
        audit()
    assert e.value.invariant == invariant
    if guess is None:  # the expiry heap, which no guess owns
        assert "guess" not in str(e.value)
    else:
        assert re.search(rf"{re.escape(guess)}(?![\d.])", str(e.value))


def observable(c):
    """What an audit must leave as it found it."""
    return (c.ops, c.update_ops, c.metric.evals, c.stored_points(), c.peak_stored,
            list(getattr(c, "peak_per_guess", ())), list(c._groups))


def audited(c, algo):
    """c, with its structure's audits run after every update, each
    checked to leave c's counters, sizes, peaks and groups unchanged."""
    _, audit = ALGORITHMS[algo]
    update, tracker, arrived = c.update, VanishingTracker(), []

    def update_then_audit(p, t):
        update(p, t)
        if p is not None:
            arrived.append(p)
        before = observable(c)
        audit(c, [x for x in arrived if x.t_del > t], t, tracker)
        assert observable(c) == before

    c.update = update_then_audit
    return c


@pytest.mark.parametrize("seed", range(0, 150, 10))
def test_audits_only_read(seed):
    """A replay audited after every update ends with the same per-update
    digests as one that is not."""
    _, algo, kind, n, dim, k, epsilon, reclustering = case(seed)
    gen = _stream(kind, n, dim, seed)
    every = 1 + seed % 3
    plain = replay(algo, gen, _build(algo, gen, k, epsilon, reclustering), every)
    checked = replay(algo, gen, audited(_build(algo, gen, k, epsilon, reclustering), algo), every)
    assert checked == plain
