from dynkcenter import EuclideanMetric, MatrixMetric, TimedPoint


def line_points(coords_times):
    """[(id, x, t_arr, t_del), ...] -> points on the real line."""
    return [TimedPoint(i, (float(x),), ta, td) for i, x, ta, td in coords_times]


def line_metric():
    return EuclideanMetric(1)


def on_a_matrix(gen):
    """The stream's points with index payloads, and a `MatrixMetric` of
    their distances from `EuclideanMetric.block`."""
    points = gen.stream.points
    table = gen.metric.clone().block(points, points)
    return ([TimedPoint(p.id, i, p.t_arr, p.t_del) for i, p in enumerate(points)],
            MatrixMetric(table))


def assert_groups_tile_and_share(c, maximal):
    """The groups of a ladder structure tile its rungs in order, every rung
    of a group holds its first rung's containers (those State.SHARED
    names), and, where `maximal`, no two neighbouring groups hold equal
    states. Returns whether two neighbouring groups hold equal states."""
    groups = c._groups
    assert [lo for lo, _ in groups] == [0] + [hi for _, hi in groups[:-1]]
    assert groups[-1][1] == len(c.states)
    shared = c.State.SHARED
    for lo, hi in groups:
        head = c.states[lo]
        assert lo < hi
        assert all(getattr(st, name) is getattr(head, name)
                   for st in c.states[lo:hi] for name in shared)
    equal = any(c._same(c.states[a], c.states[b])
                for (a, _), (b, _) in zip(groups, groups[1:]))
    assert not (maximal and equal)
    return equal
