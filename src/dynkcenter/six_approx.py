"""(6+eps)-approximate dynamic k-center with sublinear working memory.

Per radius guess the structure stores at most k+1 pairwise-separated
attractors, one representative per attractor (the longest-lived point it
has attracted), and orphaned representatives whose attractors were evicted
or expired. Queries greedily cover the representative set. An arrival p
replaces a representative r it outlives in the (t_del, t_arr) order; the
shell takes arrivals in strictly increasing time, so p comes after r and
that is r.t_del <= p.t_del.

Neighbouring rungs whose states are equal share one attractor list and
orphan dict; `LadderClustering` keeps these groups. A rung's next state
depends only on its state, the update and the outcomes of its tests
d(a, p) <= 2*gamma, so an update is applied once per group of rungs that
share a state, in one pass over the groups. An arrival follows the cut
rule of the (2+eps) arrival: one scan of a group's attractors at its
first rung lo decides p there and notes the least distance in
(2*gamma_lo, 2*gamma_top], top being its last rung. Without one, the usual
case, the group stays whole; with one, `LadderClustering._part` cuts off
the rungs whose 2*gamma is at least that distance, on a copy of the state
taken before p changes it, and they are scanned in turn. Each part joins
the group before it when their states are equal. An expiry purges each
group and learns the next expiry time. It joins nothing: neighbours that
a purge makes equal stay apart until the next arrival, which joins every
part it passes. Counters keep their per-rung meaning: a group of m rungs
counts m ops per operation and m evaluations per test, and an arrival
computes each distance once, through the backend's `_dist`, and adds its
evaluations to the metric's counter itself. An expiry before the next
expiry time drops nothing and counts one op per attractor and orphan of
each rung: the held count `_held`, which each arrival sums part by part
and each purge recomputes, so such an expiry costs O(1).

``update(p)`` takes one arrival at its own time, and ``update(None, t)``
only drops what has expired by t; see `LadderClustering.update`. Active
ids must be unique; the caller keeps them so, as too few are stored to check.
"""

from __future__ import annotations

import math

from .core import GuessLadder, LadderClustering, Metric, deletion_key
from .errors import MetricError, NoFeasibleGuess
from .oracle import Solution, greedy_cover

# One update does at most UPDATE_OPS_FACTOR * (3k+3+H) ops per rung on an
# H-ordered stream. With B = 3k+3+H, the space bound on |A|+|R| before the
# update, and |A| <= k+1 between updates:
#   _purge        one op per attractor and per orphan left:    <= B
#   insert scan   |A| tests, then |within| + 1 for a new rep:  <= 2k+3
#                 or 1 for a new attractor:                    <= k+2
#   _cleanup      only after a new attractor, so |A|+|R| <= B+1:
#                 eviction (k+1)+1, then orphan drop |A|+|R|:  <= B+k+3
# which sums to at most 2B+2k+5 <= 3B+2 <= 4B, as B >= 3k+3 >= 6.
UPDATE_OPS_FACTOR = 4


class _Attractor:
    __slots__ = ("point", "rep")

    def __init__(self, point, rep):
        self.point, self.rep = point, rep


class SixApproxGuessState:
    __slots__ = ("gamma", "attractors", "orphans")
    SHARED = ("attractors", "orphans")

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.attractors = []  # list of _Attractor
        self.orphans = {}  # point id -> point (reps whose attractor left)

    def reps(self):
        """All stored representatives, active first, then orphans."""
        return [a.rep for a in self.attractors] + list(self.orphans.values())

    def sizes(self):
        return len(self.attractors), len(self.attractors) + len(self.orphans)


def _same(a: SixApproxGuessState, b: SixApproxGuessState) -> bool:
    """Equal states: the same attractors with the same representatives, in
    order, and the same orphans. Orphan order is never observable."""
    if len(a.attractors) != len(b.attractors) or a.orphans.keys() != b.orphans.keys():
        return False
    for x, y in zip(a.attractors, b.attractors):
        if x.point.id != y.point.id or x.rep.id != y.rep.id:
            return False
    return True


class SixApproxClustering(LadderClustering):
    FACTOR = 6.0
    State = SixApproxGuessState
    _same = staticmethod(_same)

    def __init__(
        self,
        k: int,
        epsilon: float,
        d_min: float,
        d_max: float,
        metric: Metric,
        ladder: GuessLadder | None = None,
    ):
        super().__init__(k, epsilon, d_min, d_max, metric, ladder)
        self.peak_per_guess = [0] * len(self.states)
        # No stored point expires before this time, and until then an expiry
        # only counts `_held` ops; see `_expire`.
        self._next_expiry = math.inf
        self._held = 0

    @staticmethod
    def _copy(dst, src):
        dst.attractors = [_Attractor(a.point, a.rep) for a in src.attractors]
        dst.orphans = dict(src.orphans)

    # -- update ------------------------------------------------------------

    def _arrive(self, p):
        """Insert p once per part of each group, in one pass; see the module
        docstring."""
        groups = []
        memo = {}  # attractor id -> its distance to p, one call each
        states, two_g, dist, q = self.states, self._two_g, self.metric._dist, p.payload
        t_del, evals, held = p.t_del, 0, 0
        for hi, end in self._groups:
            while hi < end:  # one part [lo, hi) of the group per pass
                lo, st = hi, states[hi]
                g, top, cut = two_g[lo], two_g[end - 1], math.inf
                # Count the attractors within 2*gamma, keep the one of smallest
                # id whose representative p outlives, and note the least
                # distance that some rung up to top passes.
                within, best = 0, None
                for a in st.attractors:
                    d = memo.get(a.point.id)
                    if d is None:
                        try:
                            d = memo[a.point.id] = dist(a.point.payload, q)
                        except (TypeError, IndexError, ValueError) as e:  # as `Metric.distance`
                            raise MetricError(f"cannot measure d({a.point.id}, {p.id}): {e}") from e
                    if d <= g:
                        within += 1
                        if a.rep.t_del <= t_del and (best is None or a.point.id < best.point.id):
                            best = a
                    elif d <= top and d < cut:
                        cut = d
                hi = self._part(lo, end, cut) if cut <= top else end
                m, n = hi - lo, len(st.attractors)
                evals += m * n
                if not within:
                    st.attractors.append(_Attractor(p, p))
                    self._next_expiry = min(self._next_expiry, p.t_del)
                    ops = self.ops
                    self._cleanup(st)
                    self.ops += m * (n + 1) + (m - 1) * (self.ops - ops)
                    # Only a new attractor grows a guess, so only here can its peak rise.
                    size, peaks = sum(st.sizes()), self.peak_per_guess
                    for i in range(lo, hi):
                        if peaks[i] < size:
                            peaks[i] = size
                elif best is None:  # p is discarded for these guesses
                    self.ops += m * (n + within)
                else:  # the displaced representative is dropped
                    best.rep = p
                    self.ops += m * (n + within + 1)
                held += m * (len(st.attractors) + len(st.orphans))
                self._join(groups, lo, hi)
        # The loop counted every rung's tests and read `_dist` past the counter.
        self.metric.evals += evals
        self._groups = groups
        self._held = held

    def _expire(self, t):
        """Purge each group once, counting its ops once per rung. Before
        `_next_expiry` a purge would drop nothing, so it is only counted, in
        O(1): `_held` is the sum over rungs of |attractors| + |orphans|,
        which every arrival sums part by part and every purge recomputes.
        Neighbours a purge leaves equal stay apart until the next arrival."""
        if t < self._next_expiry:
            self.ops += self._held
        else:
            self._held = 0  # each purge adds what its rungs keep
            self._next_expiry = min([self._purge(lo, hi, t) for lo, hi in self._groups])

    def _purge(self, lo, hi, t):
        """Drop every stored point with t_del <= t from the state of rungs
        [lo, hi), counting its ops once per rung, and return the earliest
        t_del kept; no representative expires before its attractor. An
        expired attractor's surviving representative becomes an orphan.
        Filters in place, as the containers are shared, and adds what the
        rungs keep to `_held`."""
        st = self.states[lo]
        keep, nxt = [], math.inf
        for a in st.attractors:
            if a.point.t_del > t:
                keep.append(a)
                if a.point.t_del < nxt:
                    nxt = a.point.t_del
            elif a.rep.t_del > t:
                st.orphans[a.rep.id] = a.rep
        self.ops += (hi - lo) * (len(st.attractors) + len(st.orphans))
        if len(keep) < len(st.attractors):
            st.attractors[:] = keep
        expired = []
        for pid, q in st.orphans.items():
            if q.t_del <= t:
                expired.append(pid)
            elif q.t_del < nxt:
                nxt = q.t_del
        for pid in expired:
            del st.orphans[pid]
        self._held += (hi - lo) * (len(st.attractors) + len(st.orphans))
        return nxt

    def _cleanup(self, st: SixApproxGuessState):
        if len(st.attractors) == self.k + 2:
            a_min = min(st.attractors, key=lambda a: deletion_key(a.point))
            st.attractors.remove(a_min)
            st.orphans[a_min.rep.id] = a_min.rep
            self.ops += len(st.attractors) + 1
        if len(st.attractors) == self.k + 1:
            t_min_key = min(deletion_key(a.point) for a in st.attractors)
            drop = [
                pid for pid, q in st.orphans.items() if deletion_key(q) < t_min_key
            ]
            self.ops += len(st.attractors) + len(st.orphans)
            for pid in drop:
                del st.orphans[pid]

    # -- query -------------------------------------------------------------

    def _answer(self) -> Solution:
        """Greedy 2*gamma cover of the representatives, at the smallest
        feasible guess; with nothing stored, no centers at the smallest."""
        for lo, hi in self._groups:
            st = self.states[lo]
            if len(st.attractors) > self.k:
                self.ops += hi - lo
                continue
            reps = sorted(st.reps(), key=lambda q: q.id)
            for rung in self.states[lo:hi]:
                sol = greedy_cover(self.metric, reps, 2.0 * rung.gamma, self.k)
                self.ops += 1 + len(reps)
                if sol is not None:
                    sol.guess_used = rung.gamma
                    return sol
        raise NoFeasibleGuess("no guess admits a k-cover of its representatives")

    # -- instrumentation ----------------------------------------------------

    def audit_space(self):
        """Current (|A|, |R|) per guess; read only, as only `update` raises peaks."""
        return [st.sizes() for st in self.states]

    @property
    def peak_stored(self) -> int:
        """Largest |A|+|R| any one guess has held."""
        return max(self.peak_per_guess, default=0)

    def stored_points(self) -> int:
        return sum((hi - lo) * sum(self.states[lo].sizes()) for lo, hi in self._groups)
