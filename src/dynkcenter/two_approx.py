"""(2+eps)-approximate dynamic k-center with known deletion times.

Per radius guess the structure keeps an ordered list of centers, one
member set per cluster (the center included), an unclustered set, and
per-cluster persistent/vanishing counters. Member and unclustered sets are
insertion-ordered dicts keyed by point id, so they iterate in append order
and delete in O(1). They are the one record of where a point lives: a
deletion finds the owner with at most k+1 membership tests. A global expiry
queue drives deletions; a size-balance rule triggers suffix reclustering so
that reassignment work stays amortized O(k) per update.

An update is one pass over the rungs. An arrival computes d(p, center)
once per center and places p first-fit on every rung inline; an expiry
removes the point inline, and only a center's deletion calls out, to
`_delete_center`: it reassigns first-fit with `_place` and promotes with
`_open_longest_lived`, which opens a cluster at a pool's longest-lived
point and attaches the pool points within 2*gamma of it. Every
reclustering round calls it too.

Balance: no suffix of clusters has more persistent than vanishing plus
unclustered points. `_recluster` rebuilds from the first cluster whose
suffix breaks this and leaves none broken: for a suffix starting before it,
the clusters in between had sum(persistent - vanishing) < 0, and no cluster
it opens has a persistent point. So of an arrival's changes only a persistent
attach can break a suffix and run the scan. An expiry scans only while the
rung's clustered non-centers, the only points that can be persistent,
outnumber its unclustered points plus one vanishing center. Elsewhere the
update counts the scan's len(clusters) ops without scanning.

Neighbouring rungs test many of the same pairs, so each update memoises
d(x, y) by the pair of point ids and computes every pair once. Every test
still counts one evaluation in `metric.evals`, memoised or not, so the
counters stay per test.
"""

from __future__ import annotations

from .core import DeletionQueue, GuessLadder, LadderClustering, Metric, deletion_key
from .errors import NoCurrentQuery, NoFeasibleGuess, PointNotFound
from .oracle import Solution


class _Points(dict):
    """Point id -> point, iterating over the points in insertion order."""

    __slots__ = ()
    size = property(len)

    def __iter__(self):
        return iter(self.values())


class _Cluster:
    # The center is its own first member, a vanishing one.
    __slots__ = ("center", "key", "members", "persistent", "vanishing")

    def __init__(self, center):
        self.center = center
        self.key = deletion_key(center)
        self.members = _Points({center.id: center})
        self.persistent = 0
        self.vanishing = 1


class TwoApproxGuessState:
    """Per-guess clustered structure (centers, member sets, unclustered)."""

    __slots__ = ("gamma", "clusters", "unclustered")

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.clusters = []
        self.unclustered = _Points()


class TwoApproxClustering(LadderClustering):
    """Dynamic clustering over the full guess ladder; `LadderClustering`
    runs the update and query path. An arrival is placed first-fit on every
    rung, and a query returns the centers of the smallest guess with no
    unclustered point.
    """

    FACTOR = 2.0
    State = TwoApproxGuessState
    RECLUSTERS = True

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
        self.queue = DeletionQueue()
        self.peak_stored = 0
        self._last_query_index = None
        self._memo = {}  # (smaller id, larger id) -> distance, this update only

    @classmethod
    def single_guess(cls, k, gamma, metric, reclustering_enabled=True, epsilon=2.0):
        """One-guess instance, as the adversarial-stream benchmark runs it."""
        ladder = GuessLadder(1.0, (gamma,))
        return cls(k, epsilon, gamma, gamma, metric, reclustering_enabled, ladder)

    # -- update ------------------------------------------------------------

    def _arrive(self, p):
        """First-fit on every rung in one pass; only a persistent attach
        runs the balance scan. See the module docstring."""
        self._memo.clear()
        k, scan, pid, key = self.k, self.reclustering_enabled, p.id, deletion_key(p)
        dist = {}  # center id -> d(p, center), computed once per arrival
        tests = 0  # each one op and one evaluation
        ops = 1  # the queue push
        for st in self.states:
            two_g = 2.0 * st.gamma
            clusters = st.clusters
            ops += 1  # the attach, the opening or the unclustered point
            for cl in clusters:
                tests += 1
                c = cl.center
                d = dist.get(c.id)
                if d is None:
                    d = dist[c.id] = self._dist(p, c)
                if d <= two_g:
                    cl.members[pid] = p
                    if key > cl.key:
                        cl.persistent += 1
                        self._recluster(st)
                        break
                    cl.vanishing += 1
                    if scan:
                        ops += len(clusters)
                    break
            else:
                if len(clusters) < k:
                    clusters.append(_Cluster(p))
                else:
                    st.unclustered[pid] = p
                if scan:
                    ops += len(clusters)
        self.queue.push(p)
        self.ops += ops + tests
        self.metric.evals += tests - len(dist)  # `_dist` counted the first of each
        # Only an arrival grows the stored set, so only here can the peak rise.
        self.peak_stored = max(self.peak_stored, self.stored_points())

    def _expire(self, t):
        """Delete every stored point with t_del <= t, on every rung, in one
        pass per point. Any move of the clock ends the last query's witness."""
        self._last_query_index = None
        head = self.queue.peek_key()
        if head is None or head[0] > t:
            return
        self._memo.clear()
        scan = self.reclustering_enabled
        while head is not None and head[0] <= t:
            q = self.queue.pop()
            qid, key = q.id, deletion_key(q)
            n = len(self.queue)  # what every rung holds once q is gone
            ops = 1  # the queue pop
            for st in self.states:
                # The unclustered set first: it holds most points of the low rungs.
                if st.unclustered.pop(qid, None) is not None:
                    ops += 1
                else:
                    for cl in st.clusters:
                        if qid in cl.members:
                            break
                    else:
                        raise PointNotFound(f"point {qid} not stored for guess {st.gamma}")
                    if cl.center.id == qid:
                        self._delete_center(st, cl, q)
                    else:
                        del cl.members[qid]
                        ops += 1
                        if key <= cl.key:
                            cl.vanishing -= 1
                        else:
                            cl.persistent -= 1
                # A suffix breaks balance only if its persistent points, at
                # most n - |U| - l, outnumber its vanishing center and U.
                if n - len(st.clusters) - 1 > 2 * len(st.unclustered):
                    self._recluster(st)
                elif scan:
                    ops += len(st.clusters)
            self.ops += ops
            head = self.queue.peek_key()

    def _dist(self, x, y) -> float:
        """d(x, y), computed once per update and counted once per test."""
        key = (x.id, y.id) if x.id < y.id else (y.id, x.id)
        d = self._memo.get(key)
        if d is None:
            d = self._memo[key] = self.metric.distance(x, y)
        else:
            self.metric.evals += 1
        return d

    def _place(self, st, x, candidates):
        """First-fit: attach x to the first candidate whose center is within
        2*gamma; otherwise open a cluster at x while fewer than k exist, or
        leave x unclustered."""
        two_g = 2.0 * st.gamma
        for cl in candidates:
            self.ops += 1
            if self._dist(x, cl.center) <= two_g:
                self._attach(cl, x)
                return
        if len(st.clusters) < self.k:
            st.clusters.append(_Cluster(x))
        else:
            st.unclustered[x.id] = x
        self.ops += 1

    def _attach(self, cl: _Cluster, p):
        cl.members[p.id] = p
        if deletion_key(p) <= cl.key:
            cl.vanishing += 1
        else:
            cl.persistent += 1
        self.ops += 1

    def _open_longest_lived(self, st, pool) -> list:
        """Open a cluster at the pool's longest-lived point (the first one
        on ties) and attach every other pool point within 2*gamma of it.
        Returns the points left over, in pool order."""
        self.ops += len(pool) + 1  # the scan for best, then its opening
        best = max(pool, key=deletion_key)
        cl = _Cluster(best)
        st.clusters.append(cl)
        two_g = 2.0 * st.gamma
        rest = []
        for x in pool:
            if x is best:
                continue
            self.ops += 1
            if self._dist(x, best) <= two_g:
                self._attach(cl, x)
            else:
                rest.append(x)
        return rest

    def _delete_center(self, st: TwoApproxGuessState, cl: _Cluster, q):
        """Reassign the members of center q's cluster first-fit to later or
        new clusters, or the unclustered set; drop the cluster; then promote
        the longest-lived unclustered point, if any."""
        i = st.clusters.index(cl)
        del cl.members[q.id]
        self.ops += 2  # finding the cluster, then removing q
        for x in cl.members:
            self._place(st, x, st.clusters[i + 1 :])
        del st.clusters[i]
        self.ops += 1
        if st.unclustered:
            rest = self._open_longest_lived(st, st.unclustered)
            st.unclustered = _Points((x.id, x) for x in rest)

    def _recluster(self, st: TwoApproxGuessState):
        if not self.reclustering_enabled:
            return
        # Smallest index whose suffix has more persistent than
        # vanishing-plus-unclustered points: the backward pass meets it last.
        u_size = len(st.unclustered)
        j = len(st.clusters)
        self.ops += j
        suf = 0
        trigger = None
        for cl in reversed(st.clusters):
            j -= 1
            suf += cl.persistent - cl.vanishing
            if suf > u_size:
                trigger = j
        if trigger is None:
            return

        pool = [x for cl in st.clusters[trigger:] for x in cl.members]
        pool += st.unclustered
        self.ops += len(pool)
        del st.clusters[trigger:]
        for _ in range(trigger, self.k):
            if not pool:
                break
            pool = self._open_longest_lived(st, pool)
        st.unclustered = _Points((x.id, x) for x in pool)
        self.ops += len(pool)

    # -- query -------------------------------------------------------------

    def _answer(self) -> Solution:
        """Centers of the smallest guess with an empty unclustered set."""
        for idx, st in enumerate(self.states):
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
        u = min(st.unclustered, key=lambda q: q.id)
        return centers + [u]

    # -- instrumentation ----------------------------------------------------

    def stored_points(self) -> int:
        """The queue and every rung each hold the whole active set."""
        return len(self.queue) * (len(self.states) + 1)
