"""Work on the k and epsilon axes, in the style of criteria c08/c09, which
vary only n.

The claim for both structures is O~(k/epsilon) work per update: the ladder
has O(log(d_max/d_min) / epsilon) rungs, and each rung does O(k) work per
update. One fixed sliding stream (3,000 points in the plane, window 500)
is replayed with a query after every arrival, as `run --queries every`
does, and `ops` counts the work of both.
"""

from __future__ import annotations

import pytest

from dynkcenter import SixApproxClustering, TwoApproxClustering, sliding_window_stream
from dynkcenter.streamgen import uniform_coords

KS = (1, 2, 4, 8, 16)
K_FOR_EPSILON = 4

# Linear in k means ops per update = a + b*k with a, b >= 0, so doubling k
# at most doubles it.
PER_DOUBLING = 2.0
# Per-rung work does not depend on epsilon, so ops per (k * rung) should
# not move from epsilon = 1 to 0.25. A per-rung cost that grew as 1/epsilon
# (quadratic total work in 1/epsilon) would move it 4x; the bound sits at
# the geometric mean of the claim (1x) and that violation, 2x either way.
PER_RUNG = 2.0


@pytest.fixture(scope="module")
def stream():
    return sliding_window_stream(uniform_coords(3000, 2, 0)[0], 500)


def ops_per_update(cls, k, epsilon, gen):
    """Ops per arrival, its query included, and the ladder's rung count."""
    s = gen.stream
    c = cls(k, epsilon, s.d_min, s.d_max, gen.metric.clone())
    for p in s.points:
        c.update(p)
        c.query(p.t_arr)
    return c.ops / len(s.points), len(c.states)


@pytest.fixture(scope="module", params=[TwoApproxClustering, SixApproxClustering],
                ids=["two", "six"])
def grid(request, stream):
    """Ops per update at epsilon 1 for each k in KS, and (ops, rungs) at
    K_FOR_EPSILON for epsilon 1 and 0.25."""
    at_one = {k: ops_per_update(request.param, k, 1.0, stream) for k in KS}
    quarter = ops_per_update(request.param, K_FOR_EPSILON, 0.25, stream)
    return at_one, quarter


def test_ops_at_most_double_per_doubling_of_k(grid):
    at_one, _ = grid
    ops = [at_one[k][0] for k in KS]
    ratios = [b / a for a, b in zip(ops, ops[1:])]
    assert all(r <= PER_DOUBLING for r in ratios), (ops, ratios)


def test_ops_per_rung_do_not_move_with_epsilon(grid):
    at_one, (ops, rungs) = grid
    one_ops, one_rungs = at_one[K_FOR_EPSILON]
    assert rungs > 2 * one_rungs  # the finer ladder really is finer
    ratio = (ops / rungs) / (one_ops / one_rungs)
    assert 1 / PER_RUNG <= ratio <= PER_RUNG, ratio
