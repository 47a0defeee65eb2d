"""Runtime invariant audits for both algorithms.

These are full-structure checks meant to run after every update in
verification mode. They need the true active set, which the algorithms do
not necessarily store, so the caller (harness or test) supplies it. They
only read, and take every distance from `Metric.block` on a cloned metric,
so audits never pollute an algorithm's own counters.

A run of neighbouring rungs whose containers (those State.SHARED names)
are the same objects is one state, read once at its first rung: the
gamma-free checks and the distance blocks. Each rung tests its own 2*gamma
or 4*gamma against the blocks' extremes, and only a rung that fails walks
them, in the order of the checks, to name the fault a walk of all would.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import deletion_key
from .errors import InvariantViolation
from .six_approx import UPDATE_OPS_FACTOR, SixApproxClustering
from .two_approx import TwoApproxClustering


def _runs(clustering):
    """(state, fresh) per rung; fresh unless it holds the previous rung's containers."""
    prev = None
    for st in clustering.states:
        yield st, prev is None or any(getattr(st, n) is not getattr(prev, n) for n in st.SHARED)
        prev = st


def audit_two_approx(clustering: TwoApproxClustering, active_points):
    """Check the full invariant suite of the (2+eps) structure, the expiry
    heap's entries included. Raises InvariantViolation naming the failed
    invariant, the guess and the offending point(s)."""
    metric = clustering.metric.clone()
    active_ids = {p.id for p in active_points}
    queued = [q.id for _, _, q in clustering.queue]
    if len(queued) != len(active_ids) or set(queued) != active_ids:
        raise InvariantViolation(
            "stored-set", f"queue holds {sorted(queued)} != active {sorted(active_ids)}")
    for t_del, t_arr, q in clustering.queue:
        if (t_del, t_arr) != deletion_key(q):
            raise InvariantViolation("stored-set", f"queue key {(t_del, t_arr)} of point {q.id}")
    for st, fresh in _runs(clustering):
        g = st.gamma
        two_g = 2.0 * g
        if fresh:
            centers = [cl.center for cl in st.clusters]
            stored = [x for cl in st.clusters for x in cl.members.values()]
            stored += st.unclustered.values()
            # Each stored point's cluster index, len(centers) for an unclustered one.
            sizes = [len(cl.members) for cl in st.clusters] + [len(st.unclustered)]
            owner = np.repeat(np.arange(len(centers) + 1), sizes)
            cc, xc = metric.block(centers, centers), metric.block(stored, centers)
            np.fill_diagonal(cc, np.inf)  # no center is a pair with itself
            # A rung passes the 2*gamma checks iff near <= 2*gamma < far: near is
            # the farthest member from its center, far the nearest pair that must
            # be farther apart, two centers or a point and a center before its own.
            cols, col = np.arange(len(centers)), owner[:, None]
            near = np.max(xc[cols == col], initial=-np.inf)
            far = min(np.min(cc, initial=np.inf), np.min(xc[cols < col], initial=np.inf))
        if not near <= two_g < far:
            for i, j in combinations(range(len(centers)), 2):
                if cc[i, j] <= two_g:
                    raise InvariantViolation("center-separation", f"guess {g}: "
                                             f"d({centers[i].id},{centers[j].id}) <= 2*gamma")
            for x, i, d in zip(stored, owner, xc):
                fits = np.flatnonzero(d <= two_g).tolist()
                if i < len(centers):
                    if d[i] > two_g:
                        raise InvariantViolation("membership-radius",
                                                 f"guess {g}: point {x.id} in cluster {i}")
                    if fits[:1] != [i]:
                        raise InvariantViolation("first-fit", f"guess {g}: point {x.id} in "
                                                 f"cluster {i}, lowest fit {fits}")
                elif fits:
                    raise InvariantViolation("unclustered-separation", f"guess {g}: point {x.id} "
                                             f"within 2*gamma of center {centers[fits[0]].id}")
        if not fresh:
            continue  # the gamma-free checks passed at the run's first rung
        if st.unclustered and len(st.clusters) != clustering.k:
            raise InvariantViolation(
                "fullness", f"guess {g}: |U|={len(st.unclustered)}, l={len(st.clusters)}")
        for i, cl in enumerate(st.clusters):
            ck = deletion_key(cl.center)
            p_true = sum(1 for x in cl.members.values() if deletion_key(x) > ck)
            v_true = len(cl.members) - p_true
            if (cl.persistent, cl.vanishing) != (p_true, v_true):
                raise InvariantViolation(
                    "counter-correctness", f"guess {g} cluster {i}: stored "
                    f"({cl.persistent},{cl.vanishing}) actual ({p_true},{v_true})")
        if clustering.reclustering_enabled:
            suf = 0  # persistent minus vanishing over the suffix from j
            for j in range(len(st.clusters) - 1, -1, -1):
                suf += st.clusters[j].persistent - st.clusters[j].vanishing
                if suf > len(st.unclustered):
                    raise InvariantViolation("balance", f"guess {g}: suffix {j} unbalanced")
        ids = [x.id for x in stored]
        if len(ids) != len(active_ids) or set(ids) != active_ids:
            raise InvariantViolation(
                "stored-set", f"guess {g}: stored {sorted(ids)} != active {sorted(active_ids)}")


class VanishingTracker:
    """Asserts that no point ever reverts from vanishing to persistent
    (per guess) before it expires."""

    def __init__(self):
        self._vanishing = []  # per rung, the ids vanishing at the last observe

    def observe(self, clustering: TwoApproxClustering):
        """Unclustered points are vanishing by definition. A run of rungs
        keeps one set of vanishing ids, and a rung whose set from the last
        observe is the one its run just checked is not checked again."""
        before, self._vanishing = self._vanishing, []
        for gi, (st, fresh) in enumerate(_runs(clustering)):
            seen = before[gi] if gi < len(before) else ()
            if fresh:
                persistent, vanishing = [], set(st.unclustered)
                for cl in st.clusters:
                    ck = deletion_key(cl.center)
                    persistent += [x for x in cl.members.values() if deletion_key(x) > ck]
                    vanishing.update(x.id for x in cl.members.values() if deletion_key(x) <= ck)
            if fresh or seen is not checked:
                for x in persistent:
                    if x.id in seen:
                        raise InvariantViolation("vanishing-monotonicity",
                                                 f"guess {gi}, point {x.id} reverted to persistent")
                checked = seen
            # Expired ids are forgotten, so ids can be reused across tests.
            self._vanishing.append(vanishing)


def audit_six_approx(clustering: SixApproxClustering, active_points, t):
    """Check attractor separation, representative validity, expiry, and the
    4*gamma coverage guarantees of the (6+eps) structure."""
    metric = clustering.metric.clone()
    keyed = [(deletion_key(x), x) for x in active_points]
    for st, fresh in _runs(clustering):
        g = st.gamma
        two_g = 2.0 * g
        if fresh:
            pts = st.attractors
            points = [a.point for a in pts]
            aa = metric.block(points, points)
            np.fill_diagonal(aa, np.inf)
            ra = metric.block([a.rep for a in pts], points).diagonal()
            # A rung passes the 2*gamma checks iff near <= 2*gamma < far.
            near, far = np.max(ra, initial=-np.inf), np.min(aa, initial=np.inf)
            early = any(a.rep.t_arr < a.point.t_arr for a in pts)
        if early or not near <= two_g < far:
            for i, a in enumerate(pts):
                for j in range(i + 1, len(pts)):
                    if aa[i, j] <= two_g:
                        raise InvariantViolation("attractor-separation", f"guess {g}: "
                                                 f"d({a.point.id},{pts[j].point.id}) <= 2*gamma")
                if a.rep.t_arr < a.point.t_arr or ra[i] > two_g:
                    raise InvariantViolation("representative-validity",
                                             f"guess {g}: rep {a.rep.id} of attractor {a.point.id}")
        if fresh:
            reps = st.reps()
            for q in reps + points:
                if q.t_del <= t:
                    raise InvariantViolation("expired-point-stored", f"guess {g}: point {q.id}")
            if len(pts) <= clustering.k:
                covered = active_points
            else:
                min_key = min(deletion_key(a.point) for a in pts)
                covered = [x for key, x in keyed if key >= min_key]
            if covered and not reps:
                raise InvariantViolation(
                    "coverage", f"guess {g}: no representatives but {covered[0].id} active")
            # Each covered point's distance to its nearest representative.
            gap = np.min(metric.block(covered, reps), axis=1, initial=np.inf)
        if np.max(gap, initial=-np.inf) > 4.0 * g:
            x = covered[np.flatnonzero(gap > 4.0 * g)[0]]
            raise InvariantViolation(
                "coverage", f"guess {g}: active point {x.id} farther than 4*gamma")


def audit_six_space(clustering: SixApproxClustering, h: int):
    """Per-guess storage (current and peak) must stay within 3k+3+H points."""
    bound = 3 * clustering.k + 3 + h
    sizes = clustering.audit_space()
    for gi, ((n_a, n_r), peak) in enumerate(zip(sizes, clustering.peak_per_guess)):
        if max(n_a + n_r, peak) > bound:
            raise InvariantViolation(
                "space-bound", f"guess index {gi}: |A|+|R| = {n_a + n_r}, peak {peak} > {bound}")


def audit_six_update(clustering: SixApproxClustering, h: int):
    """The latest update's ops must stay within UPDATE_OPS_FACTOR * (3k+3+H)
    per rung, the worst-case bound derived in `six_approx`."""
    bound = len(clustering.states) * UPDATE_OPS_FACTOR * (3 * clustering.k + 3 + h)
    if clustering.update_ops > bound:
        raise InvariantViolation(
            "update-bound", f"{clustering.update_ops} ops in one update > {bound} "
            f"({len(clustering.states)} rungs, k={clustering.k}, H={h})")
