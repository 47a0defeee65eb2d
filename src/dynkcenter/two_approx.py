"""(2+eps)-approximate dynamic k-center with known deletion times.

Per radius guess the structure keeps an ordered list of centers, one
member set per cluster (the center included), an unclustered set, and
per-cluster persistent/vanishing counters. Member and unclustered sets are
plain dicts, point id -> point, so they iterate in append order and delete
in O(1). They are the one record of where a point lives: a deletion finds
the owner with at most k+1 membership tests. A member is vanishing if it
precedes its center in the (t_del, t_arr) order, else persistent. The
shell takes arrivals in strictly increasing time, so an arrival p comes
after every stored point and is vanishing iff p.t_del < its center's
t_del. A global heap of (t_del, t_arr, point) drives deletions; a
size-balance rule triggers suffix reclustering so that reassignment work
stays amortized O(k) per update.

Neighbouring rungs whose states are equal share one: `LadderClustering`
keeps these groups, and an update runs once per group, in one pass over
the groups. Rung i tests d <= 2*gamma_i, so inside a group [lo, hi) only a
tested distance in (2*gamma_lo, 2*gamma_(hi-1)] can have different
outcomes. One cut rule serves every change. The change runs at rung lo
and notes the least distance d it tested false, and `bisect_left(_two_g,
d, lo + 1, hi)` places the cut: it is hi, no cut, for a d above
2*gamma_(hi-1). The rungs below the cut keep the result; the rest leave
on a copy of the state taken before the change, to run it again and maybe
be cut again. The changes are an arrival's first-fit scan, which
`_arrive` runs and `_part` cuts, as for the (6+eps) arrival, and a
center's deletion (reassignment with `_place`, promotion with
`_open_longest_lived`) and a reclustering round, which `_step` runs and
cuts. Whether a round starts depends only on counters, the same
on every rung of a group. Counters keep their per-rung meaning: a group
of m rungs counts m ops per operation and m evaluations per test.

Equal neighbours are joined only around a step's parts. An arrival puts p
in one place on each rung, and two states that differ still differ with p
added, so no other group an arrival changes can equal its neighbour. An
expiry can make neighbours equal, when q sat in different places in them;
they then stay apart until a step next to them. That costs work but
changes no result, and the cheapest check tried, comparing neighbours that
lost q from different containers, cost more time than it saved: on a
2,000-point random stream it left 9.8 groups of 22 rungs per update, not
10.0.

Balance: no suffix of clusters has more persistent than vanishing plus
unclustered points. `_recluster` finds the first cluster whose suffix
breaks this, and `_rebuild` rebuilds from it and leaves none broken: for a
suffix starting before it, the clusters in between had sum(persistent -
vanishing) < 0, and no cluster it opens has a persistent point. So of an
arrival's changes only a persistent attach can break a suffix. A group
keeps a lower bound on its slack, |U| minus the largest suffix sum, which
`_recluster` sets exactly whenever it scans. A change that costs at most
one of it, an attach or a removal, scans only once the bound would fall
below zero; a center's deletion always scans. Elsewhere the update counts
the scan's len(clusters) ops without scanning.

An arrival's first-fit scan computes d(p, c) once per center c, through
`metric.distance`, into its own dict. The steps memoise their distances
by center: `_memo` maps a center's id to its row, point id -> d, and a
pair is looked up both ways round, so `_place` and `_open_longest_lived`
compute a pair once until the memo is emptied, at each arrival and at
each expiry that drops something. The arrival's dict is not in the memo,
so one update may compute a pair twice: in its expiry's steps and again
in its arrival's, or in the arrival's scan and again in a step the
arrival runs. A pool of at least ROW points is scanned as one
row: the memo's entries, one `Metric.block` column for the misses, and
numpy masks for the split at 2*gamma and the cut. Every test still counts
one evaluation in `metric.evals`, memoised or not, so the counters stay
per test.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from itertools import compress

import numpy as np

from .core import GuessLadder, LadderClustering, Metric, deletion_key
from .errors import DuplicateId, NoCurrentQuery, NoFeasibleGuess, PointNotFound
from .oracle import Solution

# Pools of at least this many points are scanned as one block row. In 2-D on
# a 2-core VM, either backend, the loop costs 0.75-0.95 us a point and the row
# 15-19 us plus 0.3-0.4 us a point: level at ~32 points, 0.65-0.77x the loop at
# 64. random-two-prescan's pools stay below 42; sliding-two-matrix's reach 499.
ROW = 64

_NO_ROW = {}  # the row of a center with none in the memo; never written


class _Cluster:
    # The center is its own first member, a vanishing one.
    __slots__ = ("center", "members", "persistent", "vanishing")

    def __init__(self, center):
        self.center = center
        self.members = {center.id: center}
        self.persistent = 0
        self.vanishing = 1

    def copy(self):
        cl = _Cluster.__new__(_Cluster)
        cl.center, cl.members = self.center, dict(self.members)
        cl.persistent, cl.vanishing = self.persistent, self.vanishing
        return cl


class TwoApproxGuessState:
    """Per-guess clustered structure (centers, member sets, unclustered).

    The rungs of a group share `clusters` and `unclustered`. `slack` is kept
    up to date at the group's first rung only: a lower bound on |U| minus
    the largest suffix sum of persistent - vanishing. While it is positive,
    a change that raises a suffix sum, or lowers |U|, by one cannot break
    balance, so the balance scan is counted but not made."""

    __slots__ = ("gamma", "slack", "clusters", "unclustered")
    SHARED = ("clusters", "unclustered")

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.slack = 0
        self.clusters = []
        self.unclustered = {}


def _same(a: TwoApproxGuessState, b: TwoApproxGuessState) -> bool:
    """Equal states: the same centers with the same members, counters and
    orders, and the same unclustered points in the same order; first-fit
    and `_open_longest_lived` can observe all of it. The sizes and counters
    come first, as they tell most unequal states apart."""
    if len(a.unclustered) != len(b.unclustered) or len(a.clusters) != len(b.clusters):
        return False
    for x, y in zip(a.clusters, b.clusters):
        if (x.center is not y.center or len(x.members) != len(y.members)
                or x.persistent != y.persistent):
            return False
    return all(list(x.members.keys()) == list(y.members.keys())
               for x, y in zip(a.clusters, b.clusters)
               ) and list(a.unclustered.keys()) == list(b.unclustered.keys())


class TwoApproxClustering(LadderClustering):
    """Dynamic clustering over the full guess ladder; `LadderClustering`
    runs the update and query path. An arrival is placed first-fit once per
    group of rungs that share a state, and a query returns the centers of
    the smallest guess with no unclustered point.
    """

    FACTOR = 2.0
    State = TwoApproxGuessState
    RECLUSTERS = True
    _same = staticmethod(_same)

    def __init__(
        self,
        k: int,
        epsilon: float,
        d_min: float,
        d_max: float,
        metric: Metric,
        reclustering_enabled: bool = True,
        ladder: GuessLadder | None = None,
    ):
        super().__init__(k, epsilon, d_min, d_max, metric, ladder)
        self.reclustering_enabled = reclustering_enabled
        self.queue = []  # heap of (t_del, t_arr, point), one per stored point
        self.peak_stored = 0
        self._last_query_index = None
        self._memo = {}  # center id -> {point id: distance}, this update only
        self._cut = math.inf  # the least distance a step found to cut its group at

    @classmethod
    def single_guess(cls, k, gamma, metric, reclustering_enabled=True, epsilon=2.0):
        """One-guess instance, as the adversarial-stream benchmark runs it."""
        ladder = GuessLadder(1.0, (gamma,))
        return cls(k, epsilon, gamma, gamma, metric, reclustering_enabled, ladder)

    @staticmethod
    def _copy(dst, src):
        dst.slack = src.slack
        dst.clusters = [cl.copy() for cl in src.clusters]
        dst.unclustered = dict(src.unclustered)

    # -- update ------------------------------------------------------------

    def _admit(self, p):
        """Rejects p's id while an active point has it: rung 0 holds all, in k+1 dicts."""
        st, pid = self.states[0], p.id
        q = st.unclustered.get(pid)
        for cl in st.clusters:
            q = q or cl.members.get(pid)
        if q is not None and q.t_del > p.t_arr:
            raise DuplicateId(f"point id {pid} is already active")

    def _arrive(self, p):
        """First-fit once per part of each group, in one pass; see the module
        docstring. The memo is emptied first, as it is keyed by point id:
        `_admit` lets p take the id of an expired point, and an expiry's steps
        may memoise a point that leaves later in the same pass."""
        self._memo.clear()
        k, scan, pid, t_del = self.k, self.reclustering_enabled, p.id, p.t_del
        states, two_g, distance = self.states, self._two_g, self.metric.distance
        dist = {}  # center id -> d(center, p), computed once per arrival
        groups, check = [], False
        tests = sized = 0
        for hi, end in self._groups:
            while hi < end:  # one part [lo, hi) of the group per pass
                lo, st = hi, states[hi]
                clusters = st.clusters
                g, cut = two_g[lo], math.inf
                for cl in clusters:
                    c = cl.center
                    d = dist.get(c.id)
                    if d is None:
                        d = dist[c.id] = distance(c, p)
                    if d <= g:
                        break
                    if d < cut:
                        cut = d  # the least distance tested false
                else:
                    cl = None  # no center within 2*gamma
                # Rungs from the cut on fit a center before cl: they leave.
                hi = self._part(lo, end, cut) if cut <= two_g[end - 1] else end
                m = hi - lo
                n = len(clusters)
                if cl is None:
                    tests += m * n
                    if n < k:
                        clusters.append(_Cluster(p))
                        n += 1
                        # The new cluster's suffix sum is -1, maybe above the others.
                        st.slack = min(st.slack, len(st.unclustered) + 1)
                    else:
                        st.unclustered[pid] = p
                    sized += m * n
                else:
                    tests += m * (clusters.index(cl) + 1)
                    sized += m * n
                    cl.members[pid] = p
                    if t_del < cl.center.t_del:  # p arrives after the center
                        cl.vanishing += 1
                    else:
                        cl.persistent += 1
                        if scan:
                            st.slack -= 1  # the suffix sums up to p's cluster rose by one
                            if st.slack < 0 and (t := self._recluster(st)) is not None:
                                self._step(groups, lo, hi, self._rebuild, t)
                                check = True
                                continue
                if check:  # the group after a rebuild's parts
                    self._join(groups, lo, hi)
                    check = False
                else:
                    groups.append((lo, hi))
        self._groups = groups
        heapq.heappush(self.queue, (p.t_del, p.t_arr, p))
        # The queue push; per rung, the attach, the opening or the unclustered
        # point, one op per test and, with reclustering, the balance scan.
        self.ops += 1 + len(self.states) + tests + (sized if scan else 0)
        self.metric.evals += tests - len(dist)  # `distance` counted the first of each
        # Only an arrival grows the stored set, so only here can the peak rise.
        self.peak_stored = max(self.peak_stored, self.stored_points())

    def _expire(self, t):
        """Delete every stored point with t_del <= t, once per group, in one
        pass per point, joining equal neighbours around a step's parts. Any
        move of the clock ends the last query's witness."""
        self._last_query_index = None
        queue = self.queue
        if not queue or queue[0][0] > t:
            return
        self._memo.clear()
        scan, states = self.reclustering_enabled, self.states
        while queue and queue[0][0] <= t:
            q = heapq.heappop(queue)[2]
            qid = q.id
            ops = 1  # the queue pop
            groups, check = [], False
            for grp in self._groups:
                lo, hi = grp
                st = states[lo]
                # The unclustered set first: it holds most points of the low rungs.
                if st.unclustered.pop(qid, None) is None:
                    i = 0
                    for cl in st.clusters:
                        if qid in cl.members:
                            break
                        i += 1
                    else:
                        raise PointNotFound(f"point {qid} not stored for guess {st.gamma}")
                    if cl.center is q:
                        self._step(groups, lo, hi, self._delete_center, i, q)
                        check = True
                        continue
                    del cl.members[qid]
                    cl.vanishing -= 1  # q expires before the center it is stored with
                m = hi - lo
                if scan:
                    ops += m * (len(st.clusters) + 1)  # the removal and the balance scan
                    st.slack -= 1  # |U| fell, or suffix sums rose, by one
                    if st.slack < 0 and (j := self._recluster(st)) is not None:
                        self._step(groups, lo, hi, self._rebuild, j)
                        check = True
                        continue
                else:
                    ops += m
                if check:  # the group after a step's parts
                    self._join(groups, lo, hi)
                    check = False
                else:
                    groups.append(grp)
            self._groups = groups
            self.ops += ops

    def _dist(self, x, c) -> float:
        """d(x, c) for a step, computed once until the memo is emptied and
        counted once per test: the memo keeps it in c's row, and looks in
        x's row too."""
        memo = self._memo
        d = memo.get(c.id, _NO_ROW).get(x.id)
        if d is None:
            d = memo.get(x.id, _NO_ROW).get(c.id)
        if d is None:
            d = memo.setdefault(c.id, {})[x.id] = self.metric.distance(x, c)
        else:
            self.metric.evals += 1
        return d

    def _step(self, groups, lo, hi, step, *args):
        """Run ``step(st, g, *args)`` for the group of rungs [lo, hi) and
        join the parts it leaves to groups, in order. The step runs at rung
        lo, g = 2*gamma_lo, and sets `_cut` to the least distance it tested
        false; `bisect_left` places it, at hi when no rung of the group
        passes it. Rungs below the cut agree with lo and keep its result,
        counted once per rung; the rest rerun the step from a copy taken
        before it."""
        states, two_g = self.states, self._two_g
        while lo < hi:
            st = states[lo]
            if hi - lo > 1:
                self._split(lo + 1, hi, st)
            ops, evals = self.ops, self.metric.evals
            self._cut = math.inf
            step(st, two_g[lo], *args)
            e = bisect_left(two_g, self._cut, lo + 1, hi)
            if e > lo + 1:
                self._share(lo + 1, e, st)
                self.ops += (e - lo - 1) * (self.ops - ops)
                self.metric.evals += (e - lo - 1) * (self.metric.evals - evals)
            self._join(groups, lo, e)
            lo = e

    def _place(self, st, x, candidates, g):
        """First-fit: attach x to the first candidate whose center is within
        g = 2*gamma; otherwise open a cluster at x while fewer than k exist,
        or leave x unclustered."""
        for cl in candidates:
            self.ops += 1
            d = self._dist(x, cl.center)
            if d <= g:
                self._attach(cl, x)
                return
            if d < self._cut:
                self._cut = d
        if len(st.clusters) < self.k:
            st.clusters.append(_Cluster(x))
        else:
            st.unclustered[x.id] = x
        self.ops += 1

    def _attach(self, cl: _Cluster, p):
        cl.members[p.id] = p
        if deletion_key(p) <= deletion_key(cl.center):
            cl.vanishing += 1
        else:
            cl.persistent += 1
        self.ops += 1

    def _open_longest_lived(self, st, pool, g):
        """Open a cluster at the longest-lived point of pool, a dict id ->
        point (the first one on ties), and move into it every pool point
        within g = 2*gamma of it. The rest stay in pool, in order."""
        self.ops += len(pool) + 1  # the scan for best, then its opening
        best = max(pool.values(), key=deletion_key)
        cl = _Cluster(best)
        st.clusters.append(cl)
        if len(pool) >= ROW:
            self._open_row(cl, pool, g)
        else:
            for x in pool.values():
                if x is not best:
                    self.ops += 1
                    d = self._dist(x, best)
                    if d <= g:
                        self._attach(cl, x)
                    elif d < self._cut:
                        self._cut = d
        for pid in cl.members:
            del pool[pid]

    def _open_row(self, cl, pool, g):
        """`_open_longest_lived`'s scan of a large pool as one row of
        distances to the new center cl, with the same results and counts.
        Every pool point within g joins cl as a vanishing member, as cl's
        center is the pool's longest-lived point."""
        best, memo = cl.center, self._memo
        bid = best.id
        ids, others = list(pool), list(pool.values())
        at = ids.index(bid)
        del ids[at], others[at]
        row = memo.setdefault(bid, {})
        for i in memo.keys() & set(ids):  # pairs kept the other way round
            d = memo[i].get(bid)
            if d is not None:
                row[i] = d
        if row:
            unknown = [i not in row for i in ids]
            misses = list(compress(others, unknown))
            if misses:
                col = self.metric.block(misses, [best])[:, 0].tolist()
                row.update(zip(compress(ids, unknown), col))
            self.metric.evals += len(others) - len(misses)  # `block` counted the misses
            d = np.fromiter(map(row.__getitem__, ids), float, len(ids))
        else:  # no pair known: one column for the whole pool
            d = self.metric.block(others, [best])[:, 0]
            row.update(zip(ids, d.tolist()))
        near = d <= g
        far = d[d > g]  # tested false; a NaN, as in the loop, cuts nothing
        if far.size:
            self._cut = min(self._cut, far.min().item())
        near = near.tolist()
        joined = list(compress(others, near))
        cl.members.update(zip(compress(ids, near), joined))
        cl.vanishing += len(joined)
        self.ops += len(others) + len(joined)  # a test each, then the attaches

    def _delete_center(self, st: TwoApproxGuessState, g, i, q):
        """Reassign the members of the cluster i of center q first-fit to
        later or new clusters, or the unclustered set; drop the cluster;
        promote the longest-lived unclustered point, if any; then restore
        balance."""
        cl = st.clusters[i]
        del cl.members[q.id]
        self.ops += 2  # finding the cluster, then removing q
        for x in cl.members.values():
            self._place(st, x, st.clusters[i + 1 :], g)
        del st.clusters[i]
        self.ops += 1
        if st.unclustered:  # changed in place, as the rungs of a group share it
            self._open_longest_lived(st, st.unclustered, g)
        if self.reclustering_enabled:
            self.ops += len(st.clusters)
            if (j := self._recluster(st)) is not None:
                self._rebuild(st, g, j)

    def _recluster(self, st: TwoApproxGuessState):
        """Where a reclustering round starts: the smallest index whose
        suffix has more persistent than vanishing-plus-unclustered points,
        which the backward pass meets last; None when no suffix has. Sets
        st.slack from the largest suffix sum it meets."""
        u_size = len(st.unclustered)
        j = len(st.clusters)
        suf, high = 0, -math.inf
        trigger = None
        for cl in reversed(st.clusters):
            j -= 1
            suf += cl.persistent - cl.vanishing
            if suf > high:
                high = suf
            if suf > u_size:
                trigger = j
        st.slack = u_size - high
        return trigger

    def _rebuild(self, st: TwoApproxGuessState, g, trigger):
        """Recluster the clusters from trigger on, with the unclustered
        points, opening at most k - trigger clusters at longest-lived points."""
        pool = {}
        for cl in st.clusters[trigger:]:
            pool.update(cl.members)
        pool.update(st.unclustered)
        self.ops += len(pool)
        del st.clusters[trigger:]
        for _ in range(trigger, self.k):
            if not pool:
                break
            self._open_longest_lived(st, pool, g)
        st.unclustered.clear()
        st.unclustered.update(pool)
        self.ops += len(pool)
        st.slack = 0  # the round leaves no suffix broken

    # -- query -------------------------------------------------------------

    def _answer(self) -> Solution:
        """Centers of the smallest guess with an empty unclustered set: the
        lowest rung of the first group with one."""
        for idx, _ in self._groups:
            st = self.states[idx]
            if not st.unclustered:
                self.ops += idx + 1  # one per rung scanned
                self._last_query_index = idx
                centers = [cl.center for cl in st.clusters]
                return Solution(
                    centers, 0.0 if not centers else None, guess_used=st.gamma
                )
        self.ops += len(self.states)
        raise NoFeasibleGuess("unclustered points remain at every guess")

    def witness(self):
        """k+1 points pairwise farther than 2*gamma' apart, for gamma' one
        ladder rung below the guess returned by the last query; None when
        that guess was already the smallest. Only valid until the next
        update."""
        if self._last_query_index is None:
            raise NoCurrentQuery("witness requires a query since the last update")
        if self._last_query_index == 0:
            return None
        st = self.states[self._last_query_index - 1]
        centers = [cl.center for cl in st.clusters]
        u = st.unclustered[min(st.unclustered)]  # the least id
        return centers + [u]

    # -- instrumentation ----------------------------------------------------

    def stored_points(self) -> int:
        """The queue and every rung each hold the whole active set."""
        return len(self.queue) * (len(self.states) + 1)
