"""Points with lifetimes, metrics, the guess ladder, and stream validation.

Everything here is shared by both clustering algorithms: the point type,
the two metric backends (Euclidean coordinates and an explicit distance
matrix), the geometric ladder of radius guesses, the (t_del, t_arr) total
order used for every latest-deletion selection, the expiry priority queue,
and stream parsing/validation.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import reprlib
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    DistanceOutOfRange,
    DuplicateArrival,
    DuplicateId,
    IndexOutOfRange,
    InvalidBeta,
    InvalidBounds,
    InvalidParameter,
    InvertedLifetime,
    MalformedRecord,
    MetricError,
    NonMonotoneArrival,
    PastTime,
    TooFewPoints,
)

# Default size limit for O(n^2)/O(n^3) exhaustive validation passes.
PAIRWISE_CHECK_CAP = 500

# Most rungs a guess ladder may span, counted from the rung nearest 1.0,
# where `_floor_log` starts its walk. Every update does work on every rung,
# and a tiny beta would otherwise walk or build for hours.
MAX_RUNGS = 100_000

# Side of the square tiles in which the vectorized `extremes` scans the
# upper triangle of pairs: 256 x 256 = 2**16 pair distances per tile, so its
# memory stays bounded whatever n is.
_TILE = 256


@dataclass(frozen=True)
class TimedPoint:
    """A metric-space element with a lifetime [t_arr, t_del).

    The payload is a tuple of coordinates under a Euclidean metric, or a row
    index under a matrix metric.
    """

    id: int
    payload: object
    t_arr: int
    t_del: int


def deletion_key(p: TimedPoint):
    """Total order used for expiry and every latest-deletion selection."""
    return (p.t_del, p.t_arr)


class Metric:
    """Distance backend with a per-instance evaluation counter.

    Every ``distance`` call increments ``evals``, and ``extremes`` adds one
    per pair it covers; the time-bound acceptance checks are stated in
    terms of this counter, so it is part of the contract rather than debug
    output.
    """

    def __init__(self):
        self.evals = 0

    def distance(self, p: TimedPoint, q: TimedPoint) -> float:
        self.evals += 1
        try:
            return self._dist(p.payload, q.payload)
        except (TypeError, IndexError) as e:  # a payload this metric cannot read
            raise MetricError(f"cannot measure d({p.id}, {q.id}): {e}") from e

    def _dist(self, a, b) -> float:
        raise NotImplementedError

    def extremes(self, points) -> tuple:
        """(min, max) distance over all pairs of `points`.

        Counts n(n-1)/2 evaluations, one per pair, whichever backend scans.
        Raises TooFewPoints below two points, MetricError as `distance` does.
        """
        n = len(points)
        if n < 2:
            raise TooFewPoints("need at least two points")
        try:
            lo, hi = self._extremes(points)
        except (TypeError, IndexError, ValueError) as e:
            raise MetricError(f"cannot measure the pairwise distances: {e}") from e
        self.evals += n * (n - 1) // 2
        return lo, hi

    def _extremes(self, points) -> tuple:
        """Scalar scan for backends without a vectorized one."""
        lo, hi = math.inf, -math.inf
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                d = self._dist(p.payload, q.payload)
                lo = min(lo, d)
                hi = max(hi, d)
        return lo, hi

    def clone(self):
        """Fresh counter, same structure. Used to keep audit/oracle distance
        evaluations out of an algorithm's own counters."""
        raise NotImplementedError


class EuclideanMetric(Metric):
    def __init__(self, dim: int):
        super().__init__()
        if dim < 1:
            raise MetricError(f"dimension must be positive, got {dim}")
        self.dim = dim

    def _dist(self, a, b):
        if len(a) != self.dim or len(b) != self.dim:
            raise MetricError("payload dimension mismatch")
        # Squares by multiplication and added left to right from zero, as the
        # vectorized `extremes` takes them: `** 2` goes through libm pow, and
        # `sum` compensates float addition from CPython 3.12 on, so either
        # can round differently.
        s = 0.0
        for x, y in zip(a, b):
            d = x - y
            s += d * d
        return math.sqrt(s)

    def _extremes(self, points):
        x = np.array([p.payload for p in points], dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise MetricError("payload dimension mismatch")

        def squared(rows, cols):
            # Squares added column by column from zero, as `_dist`'s loop
            # adds them, so every distance equals the scalar one bit for
            # bit; sqrt is monotone, so it is taken of the extremes only.
            s = 0.0
            for k in range(self.dim):
                diff = x[rows, k, None] - x[None, cols, k]
                s = s + diff * diff
            return s

        lo, hi = _tile_extremes(len(x), squared)
        return math.sqrt(lo), math.sqrt(hi)

    def clone(self):
        return EuclideanMetric(self.dim)


class MatrixMetric(Metric):
    """Explicit n x n distance table.

    The constructor checks symmetry, non-negativity, a zero diagonal and
    (for n <= PAIRWISE_CHECK_CAP) the triangle inequality over all triples.
    """

    def __init__(self, table):
        super().__init__()
        t = np.asarray(table, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise MetricError("matrix metric table must be square")
        if (t < 0).any():
            raise MetricError("negative distance in matrix metric")
        if (np.diag(t) != 0).any():
            raise MetricError("nonzero diagonal in matrix metric")
        if (t != t.T).any():
            raise MetricError("asymmetric matrix metric")
        n = t.shape[0]
        if n <= PAIRWISE_CHECK_CAP:
            for r in range(n):
                if (t > t[:, r][:, None] + t[r][None, :]).any():
                    raise MetricError(
                        f"triangle inequality violated via intermediate {r}"
                    )
        self.table = t
        self.n = n

    def _dist(self, a, b):
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexOutOfRange(f"matrix metric index out of range: {a}, {b}")
        return float(self.table[a][b])

    def _extremes(self, points):
        idx = np.array([p.payload for p in points])
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or (
            (idx < 0) | (idx >= self.n)
        ).any():
            raise IndexOutOfRange("matrix metric index out of range in points")
        return _tile_extremes(
            len(idx), lambda rows, cols: self.table[np.ix_(idx[rows], idx[cols])]
        )

    def clone(self):
        m = MatrixMetric.__new__(MatrixMetric)
        Metric.__init__(m)
        m.table = self.table
        m.n = self.n
        return m


def _tile_extremes(n: int, block):
    """Min and max of `block(rows, cols)`, an array of pair values for two
    slices of 0..n-1, over all pairs i < j, one tile at a time. A NaN value
    propagates, so callers comparing against bounds see it."""
    upper = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)
    lo, hi = np.inf, -np.inf
    for r in range(0, n - 1, _TILE):
        rows = slice(r, min(r + _TILE, n))
        for c in range(r, n, _TILE):
            vals = block(rows, slice(c, min(c + _TILE, n)))
            if c == r:
                m = rows.stop - r
                vals = vals[upper[:m, :m]]
            lo = np.minimum(lo, vals.min())
            hi = np.maximum(hi, vals.max())
    return float(lo), float(hi)


@dataclass(frozen=True)
class GuessLadder:
    """Radius guesses: non-empty, finite, non-negative (0 is legal) and strictly
    increasing; `build_guess_ladder` makes the geometric (1+beta)^i."""

    beta: float
    guesses: tuple

    def __post_init__(self):
        g = self.guesses  # strictly increasing, so its ends bound every guess
        if not (g and 0 <= g[0] and g[-1] < math.inf and all(a < b for a, b in zip(g, g[1:]))):
            raise InvalidParameter("guesses must be non-empty, finite, non-negative and "
                                   f"strictly increasing, got {reprlib.repr(g)}")

    def __len__(self):
        return len(self.guesses)

    def __iter__(self):
        return iter(self.guesses)


def _floor_log(base: float, x: float) -> int:
    """floor(log_base(x)) by repeated multiplication, exact at powers."""
    i, v = 0, 1.0
    if v <= x:
        while v * base <= x:
            v *= base
            i += 1
    else:
        while v > x:
            v /= base
            i -= 1
    return i


def build_guess_ladder(d_min: float, d_max: float, beta: float) -> GuessLadder:
    if not (0 < d_min <= d_max < math.inf):
        raise InvalidBounds(f"need 0 < d_min <= d_max < inf, got {d_min}, {d_max}")
    if not (0 < beta < math.inf):
        raise InvalidBeta(f"beta must be positive and finite, got {beta}")
    base = 1.0 + beta
    if base == 1.0:
        raise InvalidBeta(f"1 + beta rounds to 1.0 for beta {beta}")
    span = (math.log(max(d_max, 1.0)) - math.log(min(d_min, 1.0))) / math.log1p(beta)
    if span > MAX_RUNGS:
        raise InvalidBeta(
            f"beta {beta} would need about {span:.3g} rungs from 1.0 to cover "
            f"[{d_min}, {d_max}], more than {MAX_RUNGS}"
        )
    i_lo = _floor_log(base, d_min)
    i_hi = _floor_log(base, d_max)
    if base**i_hi < d_max:
        i_hi += 1
    guesses = tuple(base**i for i in range(i_lo, i_hi + 1))
    return GuessLadder(beta, guesses)


class LadderClustering:
    """The shell both structures share: one state per rung of a geometric
    ladder of radius guesses, strictly increasing arrivals, a clock that
    never runs backwards, and answers of radius at most FACTOR * gamma at
    the smallest feasible guess gamma, hence the FACTOR + epsilon ratio.

    A subclass sets FACTOR and State (its per-guess state, built from
    gamma) and supplies the three steps of the one update and query path:
    ``_expire(t)`` drops what has expired by t, ``_arrive(p)`` applies an
    arrival to every rung, and ``_answer()`` answers at the smallest
    feasible guess. It also provides ``stored_points()`` and
    ``peak_stored``. RECLUSTERS says whether it has the size-balance
    reclustering that ``reclustering_enabled`` switches.
    """

    FACTOR: float
    State: type
    RECLUSTERS = False

    def __init__(
        self,
        k: int,
        epsilon: float,
        d_min: float,
        d_max: float,
        metric: Metric,
        ladder: GuessLadder | None = None,
    ):
        if not isinstance(k, Integral) or k < 1:
            raise InvalidParameter(f"k must be an integer >= 1, got {k!r}")
        if not (0 < epsilon < math.inf):
            raise InvalidBeta(f"epsilon must be positive and finite, got {epsilon}")
        self.k = k
        self.epsilon = epsilon
        self.metric = metric
        self.ladder = ladder if ladder is not None else build_guess_ladder(
            d_min, d_max, epsilon / self.FACTOR
        )
        self.states = [self.State(g) for g in self.ladder]
        self.ops = 0  # structural operation counter
        self.update_ops = 0  # ops of the latest update
        self._last_arrival = -math.inf
        self._now = -math.inf  # latest time seen by update or query

    def update(self, p=None, t=None):
        """``update(p)`` or ``update(p, p.t_arr)`` takes one arrival at its
        own time; ``update(None, t)`` only advances the clock to t, dropping
        what has expired. ``update(None)`` raises InvalidParameter."""
        if p is not None:
            if t is None:
                t = p.t_arr
        elif t is None:
            raise InvalidParameter("update(None) needs an explicit time")
        self._advance(t, p)
        ops = self.ops
        self._expire(t)
        if p is not None:
            self._arrive(p)
        self.update_ops = self.ops - ops

    def query(self, t):
        """Drop what has expired by t, then answer at the smallest feasible
        guess."""
        self._advance(t)
        self._expire(t)
        return self._answer()

    def _advance(self, t, p=None):
        """Move the clock to t, first checking that t is a number, that time
        does not run backwards and that an arrival p comes at its own time
        t, after the previous one."""
        if p is not None:
            if t != p.t_arr:
                raise InvalidParameter(f"arrival {p.id} at time {t}, not at its t_arr {p.t_arr}")
            if p.t_arr <= self._last_arrival:
                raise NonMonotoneArrival(f"arrival {p.t_arr} not after {self._last_arrival}")
            if p.t_arr < self._now:
                raise NonMonotoneArrival(f"arrival {p.t_arr} before time {self._now}")
        if not t >= self._now:  # also true for a NaN t
            if t != t:
                raise InvalidParameter(f"time {t} is not a number")
            raise PastTime(f"time {t} is before time {self._now}")
        self._now = t
        if p is not None:
            self._last_arrival = p.t_arr


class DeletionQueue:
    """Min-heap over (t_del, t_arr); holds the active inserted points."""

    def __init__(self):
        self._heap = []

    def push(self, p: TimedPoint):
        heapq.heappush(self._heap, (p.t_del, p.t_arr, p))

    def peek_key(self):
        if not self._heap:
            return None
        t_del, t_arr, _ = self._heap[0]
        return (t_del, t_arr)

    def pop(self) -> TimedPoint:
        return heapq.heappop(self._heap)[2]

    def __len__(self):
        return len(self._heap)


@dataclass
class EventStream:
    """Arrival-ordered points plus their distance bounds, declared or measured."""

    points: list
    d_min: float
    d_max: float


def validate_stream(
    points,
    metric: Metric,
    d_min: float | None = None,
    d_max: float | None = None,
    pairwise_cap: int = PAIRWISE_CHECK_CAP,
) -> EventStream:
    """Check lifetimes and id and arrival uniqueness, and decide the
    stream's distance bounds; points are returned sorted by arrival time.

    With no bounds, one `Metric.extremes` scan measures them, (1.0, 1.0)
    below two points. With both, the same scan checks them, but only when
    len(points) <= pairwise_cap; pass 0 to disable it. Exactly one bound
    raises InvalidBounds. Scans count on a clone, not on `metric`.
    """
    if (d_min is None) != (d_max is None):
        raise InvalidBounds("give both distance bounds or neither")
    pts = sorted(points, key=lambda p: p.t_arr)
    arrivals, ids = set(), set()
    for p in pts:
        if p.t_arr >= p.t_del:
            raise InvertedLifetime(f"point {p.id}: t_arr={p.t_arr} >= t_del={p.t_del}")
        if p.t_arr in arrivals:
            raise DuplicateArrival(f"arrival time {p.t_arr} used twice")
        if p.id in ids:
            raise DuplicateId(f"point id {p.id} used twice")
        arrivals.add(p.t_arr)
        ids.add(p.id)
    if d_min is None:
        d_min, d_max = metric.clone().extremes(pts) if len(pts) >= 2 else (1.0, 1.0)
    elif 2 <= len(pts) <= pairwise_cap:
        lo, hi = metric.clone().extremes(pts)
        if not (d_min <= lo and hi <= d_max):
            raise DistanceOutOfRange(
                f"{_pair_outside(metric.clone(), pts, d_min, d_max, lo, hi)} "
                f"outside [{d_min}, {d_max}]"
            )
    return EventStream(pts, d_min, d_max)


def _pair_outside(metric: Metric, points, d_min, d_max, lo, hi) -> str:
    """Names the first pair, in scan order, whose distance lies outside the
    bounds; falls back to the extremes if no single distance does."""
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            d = metric.distance(p, q)
            if not (d_min <= d <= d_max):
                return f"d({p.id},{q.id})={d}"
    return f"distances in [{lo}, {hi}]"


def pairwise_extremes(metric: Metric, points) -> tuple:
    """Min and max pairwise distance; see `Metric.extremes`."""
    return metric.extremes(points)


# ---------------------------------------------------------------------------
# Stream file format: JSONL, one point per line, plus an optional CSV
# distance-matrix sidecar for matrix-metric streams.


def save_stream_jsonl(points, path):
    with open(path, "w") as f:
        for p in sorted(points, key=lambda q: q.t_arr):
            row = {"id": p.id, "t_arr": p.t_arr, "t_del": p.t_del}
            if not isinstance(p.payload, int):
                row["coords"] = list(p.payload)
            f.write(json.dumps(row) + "\n")


def load_stream_jsonl(path):
    points = []
    int_types, number_types = {int}, {int, float}  # a JSON true or false is a bool
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    pid, t_arr, t_del = ints = row["id"], row["t_arr"], row["t_del"]
                    if not int_types.issuperset(map(type, ints)):  # one test in the usual case
                        if not number_types.issuperset(map(type, ints)):
                            raise ValueError(f"id and times {ints} must be numbers")
                        pid, t_arr, t_del = map(int, ints)
                        if (pid, t_arr, t_del) != ints:
                            raise ValueError(f"id and times {ints} must be integers")
                    if "coords" in row:
                        c = row["coords"]
                        if type(c) is not list or not number_types.issuperset(map(type, c)):
                            raise ValueError(f"coords {c!r} is not an array of numbers")
                        payload = tuple(map(float, c))
                        if not all(map(math.isfinite, payload)):
                            raise ValueError("non-finite coordinate")
                    else:
                        payload = pid
                    point = TimedPoint(pid, payload, t_arr, t_del)
                except (KeyError, TypeError, ValueError, OverflowError) as e:
                    raise MalformedRecord(f"{path} line {lineno}: {e!r}") from e
                points.append(point)
    except UnicodeDecodeError:
        # Text is decoded a chunk at a time, so find the line that fails.
        with open(path, "rb") as f:
            for lineno, line in enumerate(f, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise MalformedRecord(f"{path} line {lineno}: {e!r}") from e
        raise
    return points


def save_matrix_csv(table, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for row in table:
            w.writerow([repr(float(x)) for x in row])


def load_matrix_csv(path) -> np.ndarray:
    """The distance table of a CSV sidecar, as an n x n float array."""
    try:
        with warnings.catch_warnings():
            # An empty file is rejected below, not warned about.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as e:
        raise MetricError(f"bad matrix file {path}: {e}") from e
    if table.size == 0:
        raise MetricError(f"bad matrix file {path}: no rows")
    if not np.isfinite(table).all():
        raise MetricError(f"bad matrix file {path}: non-finite distance")
    return table
