from dynkcenter import EuclideanMetric, TimedPoint


def line_points(coords_times):
    """[(id, x, t_arr, t_del), ...] -> points on the real line."""
    return [TimedPoint(i, (float(x),), ta, td) for i, x, ta, td in coords_times]


def line_metric():
    return EuclideanMetric(1)


def assert_groups_tile_and_share(c, maximal):
    """The groups of a ladder structure tile its rungs in order, every rung
    of a group holds its first rung's containers (those State.SHARED
    names), and, where `maximal`, no two neighbouring groups hold equal
    states."""
    groups = c._groups
    assert [lo for lo, _ in groups] == [0] + [hi for _, hi in groups[:-1]]
    assert groups[-1][1] == len(c.states)
    shared = c.State.SHARED
    for lo, hi in groups:
        head = c.states[lo]
        assert lo < hi
        assert all(getattr(st, name) is getattr(head, name)
                   for st in c.states[lo:hi] for name in shared)
    if maximal:
        for (a, _), (b, _) in zip(groups, groups[1:]):
            assert not c._same(c.states[a], c.states[b])
