"""Seeded generators of lifetime-annotated streams, plus the exact
measurer of deletion-order tameness (the smallest H such that any two
points separated by at least H intervening arrivals are deleted in arrival
order). A coordinate stream's distance bounds are measured by
`validate_stream`; the adversarial stream declares its own."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EuclideanMetric,
    EventStream,
    MatrixMetric,
    Metric,
    TimedPoint,
    validate_stream,
)
from .errors import InvalidH, InvalidParameter, StreamError


@dataclass
class GeneratedStream:
    stream: EventStream
    metric: Metric
    declared_h: int | None


def uniform_coords(n: int, dim: int, seed: int):
    """(coords, rng): n points drawn uniformly from [0,1]^dim, and the seeded
    generator they came from, for any further draws."""
    if n < 1 or dim < 1:
        raise InvalidParameter(f"need n >= 1 and dim >= 1, got {n} and {dim}")
    # Counter-based generator: the stream is a pure function of the seed.
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.random((n, dim)), rng


def _euclidean_stream(coords, t_arrs, t_dels, declared_h):
    coords = np.asarray(coords, dtype=float)
    points = [
        TimedPoint(i, tuple(coords[i]), int(t_arrs[i]), int(t_dels[i]))
        for i in range(len(coords))
    ]
    metric = EuclideanMetric(coords.shape[1])
    return GeneratedStream(validate_stream(points, metric), metric, declared_h)


def sliding_window_stream(payloads, window: int) -> GeneratedStream:
    """Point i arrives at time i+1 and lives exactly `window` steps; such
    streams are 0-ordered."""
    if window < 1:
        raise InvalidParameter(f"window must be >= 1, got {window}")
    n = len(payloads)
    t_arrs = [i + 1 for i in range(n)]
    t_dels = [i + 1 + window for i in range(n)]
    return _euclidean_stream(payloads, t_arrs, t_dels, declared_h=0)


def random_lifetime_stream(n: int, payload_dim: int, max_life: int, seed: int) -> GeneratedStream:
    """Uniform payloads in [0,1]^dim; lifetime of point i drawn uniformly
    from 1..max_life. Same seed, same stream."""
    if max_life < 1:
        raise InvalidParameter(f"need max_life >= 1, got {max_life}")
    coords, rng = uniform_coords(n, payload_dim, seed)
    lives = rng.integers(1, max_life + 1, size=n)
    t_arrs = [i + 1 for i in range(n)]
    t_dels = [t_arrs[i] + int(lives[i]) for i in range(n)]
    return _euclidean_stream(coords, t_arrs, t_dels, declared_h=None)


def h_bounded_stream(n: int, h: int, payload_dim: int, seed: int) -> GeneratedStream:
    """Deletion order equals arrival order except inside consecutive blocks
    of h+1 arrivals, which are seed-permuted; measure_h(result) <= h by
    construction."""
    if not (0 <= h < n):
        raise InvalidH(f"need 0 <= h < n, got h={h}, n={n}")
    coords, rng = uniform_coords(n, payload_dim, seed)
    ranks = np.arange(n)
    block = h + 1
    for start in range(0, n, block):
        stop = min(start + block, n)
        ranks[start:stop] = rng.permutation(ranks[start:stop])
    t_arrs = [i + 1 for i in range(n)]
    t_dels = [n + 2 + int(ranks[i]) for i in range(n)]
    return _euclidean_stream(coords, t_arrs, t_dels, declared_h=h)


def adversarial_quadratic_stream(n: int, gamma: float) -> GeneratedStream:
    """The sequence that makes the (2+eps) structure quadratic when the
    size-balance reclustering is disabled.

    2n points over an explicit distance matrix: a short-lived anchor p0, a
    tight long-lived blob at 1.5*gamma from the anchor, and n short-lived
    points at 2.5*gamma from the anchor and from each other but 1.5*gamma
    from the blob, so each can open a fresh cluster that soon dies.
    """
    if n < 3:
        raise InvalidParameter(f"need n >= 3, got {n}")
    if not (0 < gamma < np.inf):
        raise InvalidParameter(f"gamma must be positive and finite, got {gamma}")
    m = 2 * n
    blob = slice(1, n)  # indices of the long-lived blob
    late = slice(n, m)  # indices of the short-lived batch
    table = np.zeros((m, m))
    table[blob, blob] = 0.1 * gamma
    table[late, late] = 2.5 * gamma
    table[0, blob] = table[blob, 0] = 1.5 * gamma
    table[0, late] = table[late, 0] = 2.5 * gamma
    table[late, blob] = table[blob, late] = 1.5 * gamma
    np.fill_diagonal(table, 0.0)
    metric = MatrixMetric(table)
    points = []
    for i in range(m):
        t_arr = i + 1
        if i == 0:
            t_del = t_arr + n + 1
        elif i < n:
            t_del = t_arr + 2 * n - 1
        else:
            t_del = t_arr + 2
        points.append(TimedPoint(i, i, t_arr, t_del))
    stream = EventStream(points, 0.1 * gamma, 2.5 * gamma)
    return GeneratedStream(stream, metric, declared_h=None)


def measure_h(stream: EventStream) -> int:
    """Smallest H such that the stream is H-ordered, in O(n log n) time and
    O(n) memory. Deletion ties resolve by (t_del, t_arr). A time outside
    the signed 64-bit range raises StreamError."""
    n = len(stream.points)
    if n < 2:
        return 0
    try:
        t_arr = np.fromiter((p.t_arr for p in stream.points), dtype=np.int64, count=n)
        t_del = np.fromiter((p.t_del for p in stream.points), dtype=np.int64, count=n)
    except OverflowError as e:
        raise StreamError(f"a time outside the signed 64-bit range: {e}") from e
    arrival = np.argsort(t_arr, kind="stable")
    t_arr, t_del = t_arr[arrival], t_del[arrival]
    # Rank in (t_del, t_arr) order, equal keys sharing a rank; ranks are
    # compared, never combined arithmetically, so no time can overflow.
    order = np.lexsort((t_arr, t_del))
    by_del, by_arr = t_del[order], t_arr[order]
    new_key = np.ones(n, dtype=bool)
    new_key[1:] = (by_del[1:] != by_del[:-1]) | (by_arr[1:] != by_arr[:-1])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(new_key)
    # The first earlier point that outlives point j is where the prefix
    # maximum of the ranks first exceeds j's rank; that is j itself or later
    # when no earlier point outlives j.
    first = np.searchsorted(np.maximum.accumulate(rank), rank, side="right")
    # A violating pair with m intermediate arrivals forces H >= m + 1.
    return max(0, int((np.arange(n) - first).max()))
