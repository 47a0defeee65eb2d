"""(6+eps)-approximate dynamic k-center with sublinear working memory.

Per radius guess the structure stores at most k+1 pairwise-separated
attractors, one representative per attractor (the longest-lived point it
has attracted), and orphaned representatives whose attractors were evicted
or expired. Queries greedily cover the representative set.
"""

from __future__ import annotations

from .core import GuessLadder, LadderClustering, Metric, deletion_key
from .errors import NoFeasibleGuess
from .oracle import Solution, greedy_cover


class _Attractor:
    __slots__ = ("point", "rep")

    def __init__(self, point):
        self.point = point
        self.rep = point  # a new attractor represents itself


class SixApproxGuessState:
    __slots__ = ("gamma", "attractors", "orphans")

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.attractors = []  # list of _Attractor
        self.orphans = {}  # point id -> point (reps whose attractor left)

    def reps(self):
        """All stored representatives, active first, then orphans."""
        return [a.rep for a in self.attractors] + list(self.orphans.values())

    def sizes(self):
        return len(self.attractors), len(self.attractors) + len(self.orphans)


class SixApproxClustering(LadderClustering):
    FACTOR = 6.0
    State = SixApproxGuessState

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

    # -- update ------------------------------------------------------------

    def update(self, p):
        t = p.t_arr
        self._advance(t, p)
        for gi, st in enumerate(self.states):
            self._purge(st, t)
            two_g = 2.0 * st.gamma
            within = []
            for a in st.attractors:
                self.ops += 1
                if self.metric.distance(a.point, p) <= two_g:
                    within.append(a)
            if not within:
                st.attractors.append(_Attractor(p))
                self.ops += 1
                self._cleanup(st)
                # Only a new attractor grows a guess, so only here can its peak rise.
                self.peak_per_guess[gi] = max(self.peak_per_guess[gi], sum(st.sizes()))
            else:
                eligible = [
                    a for a in within if deletion_key(a.rep) < deletion_key(p)
                ]
                self.ops += len(within)
                if eligible:
                    a = min(eligible, key=lambda e: e.point.id)
                    a.rep = p  # the displaced representative is dropped
                    self.ops += 1
                # otherwise p is discarded for this guess

    def _purge(self, st: SixApproxGuessState, t):
        """Drop every stored point with t_del <= t. An expired attractor's
        surviving representative becomes an orphan."""
        keep = []
        for a in st.attractors:
            self.ops += 1
            if a.point.t_del <= t:
                if a.rep.t_del > t:
                    st.orphans[a.rep.id] = a.rep
            else:
                keep.append(a)
        st.attractors = keep
        expired = [pid for pid, q in st.orphans.items() if q.t_del <= t]
        self.ops += len(st.orphans)
        for pid in expired:
            del st.orphans[pid]

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

    def query(self, t) -> Solution:
        """Greedy 2*gamma cover of the representatives, at the smallest
        feasible guess; with nothing stored, no centers at the smallest."""
        self._advance(t)
        for st in self.states:
            self._purge(st, t)
        for st in self.states:
            self.ops += 1
            if len(st.attractors) > self.k:
                continue
            reps = sorted(st.reps(), key=lambda q: q.id)
            sol = greedy_cover(self.metric, reps, 2.0 * st.gamma, self.k)
            self.ops += len(reps)
            if sol is not None:
                sol.guess_used = st.gamma
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
        return sum(a + r for a, r in (st.sizes() for st in self.states))
