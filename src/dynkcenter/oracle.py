"""Ground-truth computations: cluster radius, exact k-center by
enumeration, and the greedy threshold covering used by the space-efficient
query."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Metric
from .errors import EmptyCenters, EmptyPoints, TooLargeForEnumeration

ENUMERATION_CAP = 16


@dataclass
class Solution:
    """Centers and the guess they were found at. `radius` is 0.0 with no
    centers, else `exact_kcenter`'s optimum, or None where the caller measures it."""

    centers: list
    radius: float | None
    guess_used: float | None = None

    @property
    def center_ids(self):
        return [c.id for c in self.centers]


def radius(metric: Metric, centers, points) -> float:
    """max over points of the distance to the closest center."""
    if not centers:
        raise EmptyCenters("radius needs at least one center")
    if not points:
        raise EmptyPoints("radius needs at least one point")
    return _worst(metric.block(points, centers))


def _worst(d) -> float:
    """Max over rows of the row minimum; 0.0, not -0.0, when that is zero."""
    return max(0.0, float(d.min(axis=1).max()))


def exact_kcenter(metric: Metric, points, k: int, cap: int = ENUMERATION_CAP) -> Solution:
    """Optimal k-center by enumerating all size-k subsets.

    Ties between optimal subsets resolve to the lexicographically smallest
    id tuple, so the oracle is deterministic. Each subset is scored from
    the columns of one n x n `Metric.block`, which counts n * n evaluations.
    """
    if len(points) > cap:
        raise TooLargeForEnumeration(f"{len(points)} points > cap {cap}")
    if not points:
        raise EmptyPoints("exact_kcenter needs at least one point")
    pts = sorted(points, key=lambda p: p.id)
    if len(pts) <= k:
        return Solution(list(pts), 0.0)
    d = metric.block(pts, pts)
    r, combo = min((_worst(d[:, c]), c) for c in combinations(range(len(pts)), k))
    return Solution([pts[i] for i in combo], r)


def greedy_cover(metric: Metric, points, threshold: float, k: int):
    """Scan points in the given order, opening a new center whenever a point
    is farther than threshold from all current centers.

    Returns None as soon as more than k centers would be needed (a signal
    that no k-cover at this threshold exists, not a failure); otherwise the
    selected centers. A yes/no threshold test, so it measures no radius.
    """
    centers = []
    for q in points:
        if not centers or min(metric.distance(q, c) for c in centers) > threshold:
            centers.append(q)
            if len(centers) > k:
                return None
    return Solution(centers, None if centers else 0.0)
