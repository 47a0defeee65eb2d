"""Runtime invariant audits for both algorithms.

These are full-structure checks meant to run after every update in
verification mode. They need the true active set, which the algorithms do
not necessarily store, so the caller (harness or test) supplies it. All
distances are evaluated on a cloned metric so audits never pollute an
algorithm's own counters.
"""

from __future__ import annotations

from .core import deletion_key
from .errors import InvariantViolation
from .six_approx import UPDATE_OPS_FACTOR, SixApproxClustering
from .two_approx import TwoApproxClustering


def audit_two_approx(clustering: TwoApproxClustering, active_points):
    """Check the full invariant suite of the (2+eps) structure.

    Raises InvariantViolation naming the failed invariant, the guess and
    the offending point(s).
    """
    metric = clustering.metric.clone()
    active_ids = {p.id for p in active_points}
    if len(clustering.queue) != len(active_ids):
        raise InvariantViolation(
            "stored-set",
            f"queue holds {len(clustering.queue)} points, {len(active_ids)} active",
        )
    for gi, st in enumerate(clustering.states):
        g = st.gamma
        two_g = 2.0 * g
        centers = [cl.center for cl in st.clusters]

        for i, ci in enumerate(centers):
            for cj in centers[i + 1 :]:
                if metric.distance(ci, cj) <= two_g:
                    raise InvariantViolation(
                        "center-separation",
                        f"guess {g}: d({ci.id},{cj.id}) <= 2*gamma",
                    )

        for i, cl in enumerate(st.clusters):
            for x in cl.members:
                if metric.distance(x, cl.center) > two_g:
                    raise InvariantViolation(
                        "membership-radius", f"guess {g}: point {x.id} in cluster {i}"
                    )
                fits = [
                    j
                    for j, other in enumerate(centers)
                    if metric.distance(x, other) <= two_g
                ]
                if not fits or fits[0] != i:
                    raise InvariantViolation(
                        "first-fit",
                        f"guess {g}: point {x.id} in cluster {i}, lowest fit {fits}",
                    )

        for x in st.unclustered:
            for c in centers:
                if metric.distance(x, c) <= two_g:
                    raise InvariantViolation(
                        "unclustered-separation",
                        f"guess {g}: point {x.id} within 2*gamma of center {c.id}",
                    )

        if st.unclustered.size > 0 and len(st.clusters) != clustering.k:
            raise InvariantViolation(
                "fullness", f"guess {g}: |U|={st.unclustered.size}, l={len(st.clusters)}"
            )

        for i, cl in enumerate(st.clusters):
            ck = deletion_key(cl.center)
            p_true = sum(1 for x in cl.members if deletion_key(x) > ck)
            v_true = cl.members.size - p_true
            if cl.persistent != p_true or cl.vanishing != v_true:
                raise InvariantViolation(
                    "counter-correctness",
                    f"guess {g} cluster {i}: stored ({cl.persistent},{cl.vanishing})"
                    f" actual ({p_true},{v_true})",
                )

        if clustering.reclustering_enabled:
            suf_p = suf_v = 0
            for j in range(len(st.clusters) - 1, -1, -1):
                suf_p += st.clusters[j].persistent
                suf_v += st.clusters[j].vanishing
                if suf_p > st.unclustered.size + suf_v:
                    raise InvariantViolation(
                        "balance", f"guess {g}: suffix {j} unbalanced"
                    )

        stored = [x.id for cl in st.clusters for x in cl.members]
        stored += [x.id for x in st.unclustered]
        if len(stored) != len(active_ids) or set(stored) != active_ids:
            raise InvariantViolation(
                "stored-set",
                f"guess {g}: stored {sorted(stored)} != active {sorted(active_ids)}",
            )


class VanishingTracker:
    """Asserts that no point ever reverts from vanishing to persistent
    (per guess) before it expires."""

    def __init__(self):
        self._vanishing = set()

    def observe(self, clustering: TwoApproxClustering):
        snap = self._classification(clustering)
        for key, is_vanishing in snap.items():
            if key in self._vanishing and not is_vanishing:
                raise InvariantViolation(
                    "vanishing-monotonicity",
                    f"guess {key[0]}, point {key[1]} reverted to persistent",
                )
            if is_vanishing:
                self._vanishing.add(key)
        # Forget expired entries so ids can be reused across tests.
        self._vanishing &= set(snap)

    @staticmethod
    def _classification(clustering: TwoApproxClustering):
        """(guess index, point id) -> True when vanishing. Unclustered
        points are vanishing by definition."""
        out = {}
        for gi, st in enumerate(clustering.states):
            for cl in st.clusters:
                ck = deletion_key(cl.center)
                for x in cl.members:
                    out[(gi, x.id)] = deletion_key(x) <= ck
            for x in st.unclustered:
                out[(gi, x.id)] = True
        return out


def audit_six_approx(clustering: SixApproxClustering, active_points, t):
    """Check attractor separation, representative validity, expiry, and the
    4*gamma coverage guarantees of the (6+eps) structure."""
    metric = clustering.metric.clone()
    for st in clustering.states:
        g = st.gamma
        two_g = 2.0 * g
        pts = st.attractors
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                if metric.distance(a.point, b.point) <= two_g:
                    raise InvariantViolation(
                        "attractor-separation",
                        f"guess {g}: d({a.point.id},{b.point.id}) <= 2*gamma",
                    )
            if a.rep.t_arr < a.point.t_arr or metric.distance(a.rep, a.point) > two_g:
                raise InvariantViolation(
                    "representative-validity",
                    f"guess {g}: rep {a.rep.id} of attractor {a.point.id}",
                )
        for q in st.reps() + [a.point for a in pts]:
            if q.t_del <= t:
                raise InvariantViolation(
                    "expired-point-stored", f"guess {g}: point {q.id}"
                )

        reps = st.reps()
        if len(st.attractors) <= clustering.k:
            covered = active_points
        else:
            min_key = min(deletion_key(a.point) for a in st.attractors)
            covered = [x for x in active_points if deletion_key(x) >= min_key]
        for x in covered:
            if not reps:
                raise InvariantViolation(
                    "coverage", f"guess {g}: no representatives but {x.id} active"
                )
            if min(metric.distance(x, r) for r in reps) > 4.0 * g:
                raise InvariantViolation(
                    "coverage", f"guess {g}: active point {x.id} farther than 4*gamma"
                )


def audit_six_space(clustering: SixApproxClustering, h: int):
    """Per-guess storage (current and peak) must stay within 3k+3+H points."""
    bound = 3 * clustering.k + 3 + h
    sizes = clustering.audit_space()
    for gi, ((n_a, n_r), peak) in enumerate(zip(sizes, clustering.peak_per_guess)):
        if max(n_a + n_r, peak) > bound:
            raise InvariantViolation(
                "space-bound",
                f"guess index {gi}: |A|+|R| = {n_a + n_r}, peak {peak} > {bound}",
            )


def audit_six_update(clustering: SixApproxClustering, h: int):
    """The latest update's ops must stay within UPDATE_OPS_FACTOR * (3k+3+H)
    per rung, the worst-case bound derived in `six_approx`."""
    bound = len(clustering.states) * UPDATE_OPS_FACTOR * (3 * clustering.k + 3 + h)
    if clustering.update_ops > bound:
        raise InvariantViolation(
            "update-bound",
            f"{clustering.update_ops} ops in one update > {bound} "
            f"({len(clustering.states)} rungs, k={clustering.k}, H={h})",
        )
