"""Points with lifetimes, metrics, the guess ladder, and stream validation.

Everything here is shared by both clustering algorithms: the point type,
the two metric backends (Euclidean coordinates and an explicit distance
matrix), the geometric ladder of radius guesses, the (t_del, t_arr) total
order used for every latest-deletion selection and expiry, and stream
parsing/validation.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import operator
import reprlib
import warnings
from bisect import bisect_left
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

# Side of the square tiles in which `Metric._pairs` walks the upper
# triangle of pairs through `_block`, 2**16 distances a tile whatever n is,
# and the rows that `load_matrix_csv` parses at a time.
_TILE = 256

# Relative slack of `MatrixMetric`'s triangle check. Let u = 2**-53, the
# unit roundoff, and let every entry be within a relative e of a true
# metric's distance d. Then t[a, c] <= (1+e) d(a, c) <= (1+e) (d(a, b) +
# d(b, c)) <= (1+e)/(1-e) (t[a, b] + t[b, c]), and the check's rounded sum
# and product lose at most a factor (1-u) each. So no true metric fails
# while 1 + TOL >= (1+e) / ((1-e) (1-u)**2), that is TOL >= 2e + 2u to
# first order. Correctly rounded entries (e = u) need 4u. `EuclideanMetric`
# in dimension m has e <= (m+4)u/2: the rounded difference, square and m-1
# additions, halved by the square root, and the root's own rounding; so
# its tables need (m+6)u. 2**-48 = 32u covers m <= 25, and 1 + TOL is
# exact. A table that breaks the inequality by more fails.
TRIANGLE_TOL = 2.0**-48


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


# p -> (p.t_del, p.t_arr): the total order of expiry and of every
# latest-deletion selection. An attrgetter, so that `max(pool, key=...)`
# and the update's key reads stay in C.
deletion_key = operator.attrgetter("t_del", "t_arr")


class Metric:
    """Distance backend with a per-instance evaluation counter.

    Every ``distance`` call adds one to ``evals``, every ``block`` one per
    entry of the array it returns, and ``extremes`` one per pair it covers;
    the time-bound acceptance checks are stated in terms of this counter,
    so it is part of the contract rather than debug output. A backend
    supplies ``_dist(a, b)`` over two payloads and may supply ``_block(xs,
    ys)``, their array over two non-empty payload lists, whose every entry
    equals ``_dist``'s bit for bit. A structure that calls ``_dist`` itself,
    as the (6+eps) arrival does, owns the ``evals`` count of those calls,
    and raises MetricError for an unreadable payload as ``distance`` does.
    """

    def __init__(self):
        self.evals = 0

    def distance(self, p: TimedPoint, q: TimedPoint) -> float:
        self.evals += 1
        try:
            return self._dist(p.payload, q.payload)
        except (TypeError, IndexError, ValueError) as e:  # a payload this metric cannot read
            raise MetricError(f"cannot measure d({p.id}, {q.id}): {e}") from e

    def _dist(self, a, b) -> float:
        raise NotImplementedError

    def block(self, ps, qs) -> np.ndarray:
        """The |ps| x |qs| array of distances d(p, q), each equal to
        `distance`'s. Raises MetricError as `distance` does."""
        if not (len(ps) and len(qs)):
            return np.empty((len(ps), len(qs)))
        try:
            d = self._block([p.payload for p in ps], [q.payload for q in qs])
        except (TypeError, IndexError, ValueError) as e:
            raise MetricError(f"cannot measure the distances: {e}") from e
        self.evals += d.size
        return d

    def _block(self, xs, ys) -> np.ndarray:
        """Scalar loop for backends without a vectorized one."""
        return np.array([[self._dist(x, y) for y in ys] for x in xs], dtype=float)

    def extremes(self, points) -> tuple:
        """(min, max) distance over all pairs of `points`, in one `_pairs`
        walk; counts n(n-1)/2 evaluations, one per pair. Raises TooFewPoints
        below two points, MetricError as `distance` does."""
        n = len(points)
        if n < 2:
            raise TooFewPoints("need at least two points")
        lo, hi = np.inf, -np.inf
        for _, _, vals, upper in self._pairs(points):
            if upper is not None:
                vals = vals[upper]
            lo = np.minimum(lo, vals.min())
            hi = np.maximum(hi, vals.max())
        self.evals += n * (n - 1) // 2
        return float(lo), float(hi)

    def _pairs(self, points):
        """Yields (r, c, vals, upper) per _TILE x _TILE tile of the pairs i < j,
        in row-major order, each read once by `_block`: vals[a, b] is
        d(points[r + a], points[c + b]); upper masks a < b on diagonal tiles, else
        None. Counts no evaluations; raises MetricError as `distance` does."""
        xs = [p.payload for p in points]
        upper = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)
        for r in range(0, len(xs) - 1, _TILE):
            rows = xs[r : r + _TILE]
            for c in range(r, len(xs), _TILE):
                try:
                    vals = self._block(rows, xs[c : c + _TILE])
                except (TypeError, IndexError, ValueError) as e:
                    raise MetricError(f"cannot measure the pairwise distances: {e}") from e
                yield r, c, vals, upper[: len(rows), : len(rows)] if c == r else None

    def clone(self):
        """Fresh counter, same structure. Used to keep audit/oracle distance
        evaluations out of an algorithm's own counters."""
        raise NotImplementedError


class EuclideanMetric(Metric):
    def __init__(self, dim: int):
        super().__init__()
        if not isinstance(dim, Integral) or dim < 1:
            raise MetricError(f"dimension must be a positive integer, got {dim!r}")
        self.dim = dim

    def _dist(self, a, b):
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError("payload dimension mismatch")
        # Squares by multiplication and added left to right from zero, as
        # `_block` takes them: `** 2` goes through libm pow, and `sum`
        # compensates float addition from CPython 3.12 on, so either can
        # round differently.
        if self.dim == 2:
            # The loop below unrolled for the plane, `gen`'s default: its
            # operations in its order, (0.0 + d*d) + e*e, so it equals the
            # loop bit for bit for any payload type, and so `_block` wherever
            # the loop does. The `zip` loop, not its arithmetic, is most of
            # a 2-D call's cost.
            (x0, x1), (y0, y1) = a, b
            d, e = x0 - y0, x1 - y1
            return math.sqrt(0.0 + d * d + e * e)
        s = 0.0
        for x, y in zip(a, b):
            d = x - y
            s += d * d
        return math.sqrt(s)

    def _block(self, xs, ys):
        x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
        if x.shape[1:] != (self.dim,) or y.shape[1:] != (self.dim,):
            raise MetricError("payload dimension mismatch")
        # Column by column, in place, as `_dist`'s loop adds them; 0.0 plus
        # the first square is that square.
        s = np.subtract.outer(x[:, 0], y[:, 0])
        s *= s
        for k in range(1, self.dim):
            d = np.subtract.outer(x[:, k], y[:, k])
            d *= d
            s += d
        return np.sqrt(s, out=s)

    def clone(self):
        return EuclideanMetric(self.dim)


class MatrixMetric(Metric):
    """Explicit n x n distance table.

    The constructor checks symmetry, non-negativity, a zero diagonal and
    (for n <= PAIRWISE_CHECK_CAP) the triangle inequality over all triples,
    up to the rounding that TRIANGLE_TOL allows.
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
            # A two-edge sum that overflows to inf breaks no inequality.
            with np.errstate(over="ignore"):
                for r in range(n):
                    bound = t[:, r][:, None] + t[r][None, :]
                    bound *= 1 + TRIANGLE_TOL
                    if (t > bound).any():
                        raise MetricError(f"triangle inequality violated via intermediate {r}")
        self.table = t
        self.n = n

    def _dist(self, a, b):
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexOutOfRange(f"matrix metric index out of range: {a}, {b}")
        return float(self.table[a][b])

    def _block(self, xs, ys):
        idx = np.array(xs), np.array(ys)
        if any(i.ndim != 1 or i.dtype.kind not in "iu" or ((i < 0) | (i >= self.n)).any()
               for i in idx):
            raise IndexOutOfRange("matrix metric index out of range in points")
        return self.table[np.ix_(*idx)]

    def clone(self):
        m = MatrixMetric.__new__(MatrixMetric)
        Metric.__init__(m)
        m.table = self.table
        m.n = self.n
        return m


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
    feasible guess.
    It also provides ``stored_points()`` and ``peak_stored``, and may add
    checks of an arrival in ``_admit(p)``. RECLUSTERS says whether it has
    the size-balance reclustering that ``reclustering_enabled`` switches.

    Neighbouring rungs whose states are equal share one. `_groups` lists
    the [lo, hi) rung ranges, in order, whose entries in `states` keep their
    own gamma but hold the same containers, the attributes State.SHARED
    names. Rung i tests d <= `_two_g[i]`, so a test's outcome differs inside
    a group only for a d between its end rungs' 2*gamma. Both arrivals cut
    by one rule, in `_part`: the least such d tested at the group's first
    rung cuts it at `bisect_left(_two_g, d)`. The subclass supplies
    ``_same(a, b)``, state equality, and ``_copy(dst, src)``, which gives
    dst its own copy of src's containers.
    An update builds the new group list part by part, and `_join` joins a
    part to the group before it when their states are equal; each structure
    says where it joins. An expiry may leave equal neighbours apart, and
    they stay apart until a later update joins them. Whether they are
    joined changes no result, only the work.
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
        given = ladder is not None
        self.ladder = ladder if given else build_guess_ladder(d_min, d_max, epsilon / self.FACTOR)
        if not self.FACTOR * self.ladder.guesses[-1] < math.inf:  # the top rung's radius bound
            msg = f"{self.FACTOR} x the top guess {self.ladder.guesses[-1]} overflows"
            raise InvalidParameter(msg) if given else InvalidBounds(f"d_max {d_max}: {msg}")
        self.states = [self.State(g) for g in self.ladder]
        self._two_g = [2.0 * g for g in self.ladder]
        # All rungs start empty, so they start as one group.
        self._groups = [(0, len(self.states))]
        self._share(0, len(self.states), self.states[0])
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

    def _share(self, lo, hi, st):
        """Point rungs [lo, hi) at st's containers."""
        shared = [(name, getattr(st, name)) for name in self.State.SHARED]
        for rung in self.states[lo:hi]:
            for name, value in shared:
                setattr(rung, name, value)

    def _split(self, lo, hi, st):
        """Give rungs [lo, hi) their own copy of st's containers."""
        self._copy(self.states[lo], st)
        self._share(lo + 1, hi, self.states[lo])

    def _part(self, lo, end, cut):
        """Cut group [lo, end) before rung lo's state changes, at the first
        rung whose 2*gamma is at least cut: the rungs from there to end leave
        on a copy, and that rung is returned."""
        hi = bisect_left(self._two_g, cut, lo + 1, end)
        self._split(hi, end, self.states[lo])
        return hi

    def _join(self, groups, lo, hi):
        """Append rungs [lo, hi) to groups, joined to the last group if their
        states are equal."""
        if groups and self._same(self.states[groups[-1][0]], self.states[lo]):
            self._share(lo, hi, self.states[groups[-1][0]])
            groups[-1] = (groups[-1][0], hi)
        else:
            groups.append((lo, hi))

    def _admit(self, p):
        """A subclass's own checks of an arrival p, before anything changes."""

    def _advance(self, t, p=None):
        """Move the clock to t, first checking that t is a number, that time
        does not run backwards and that an arrival p ends after it starts
        and comes at its own time t, after the previous one."""
        if p is not None:
            if not p.t_del > p.t_arr:  # also true for a NaN t_del
                raise InvertedLifetime(f"point {p.id}: t_del={p.t_del} not after t_arr={p.t_arr}")
            if t != p.t_arr:
                raise InvalidParameter(f"arrival {p.id} at time {t}, not at its t_arr {p.t_arr}")
            if p.t_arr <= self._last_arrival:
                raise NonMonotoneArrival(f"arrival {p.t_arr} not after {self._last_arrival}")
            if p.t_arr < self._now:
                raise NonMonotoneArrival(f"arrival {p.t_arr} before time {self._now}")
            self._admit(p)
        if not t >= self._now:  # also true for a NaN t
            if t != t:
                raise InvalidParameter(f"time {t} is not a number")
            raise PastTime(f"time {t} is before time {self._now}")
        self._now = t
        if p is not None:
            self._last_arrival = p.t_arr


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
) -> EventStream:
    """Check lifetimes and id and arrival uniqueness, and decide the
    stream's distance bounds; points are returned sorted by arrival time.

    With no bounds, a `Metric.extremes` walk measures them, (1.0, 1.0) below
    two points. With both and len(points) <= PAIRWISE_CHECK_CAP (read at the
    call), a `Metric._pairs` walk checks them, up to the first pair outside (NaN
    is) in tile order. One bound alone is InvalidBounds; walks count on a clone.
    """
    if (d_min is None) != (d_max is None):
        raise InvalidBounds("give both distance bounds or neither")
    pts = sorted(points, key=lambda p: p.t_arr)
    arrivals, ids = set(), set()
    for p in pts:
        if not p.t_del > p.t_arr:  # also true for a NaN t_del
            raise InvertedLifetime(f"point {p.id}: t_del={p.t_del} not after t_arr={p.t_arr}")
        if p.t_arr in arrivals:
            raise DuplicateArrival(f"arrival time {p.t_arr} used twice")
        if p.id in ids:
            raise DuplicateId(f"point id {p.id} used twice")
        arrivals.add(p.t_arr)
        ids.add(p.id)
    if d_min is None:
        d_min, d_max = metric.clone().extremes(pts) if len(pts) >= 2 else (1.0, 1.0)
    elif 2 <= len(pts) <= PAIRWISE_CHECK_CAP:
        for r, c, vals, upper in metric.clone()._pairs(pts):
            outside = ~((d_min <= vals) & (vals <= d_max))
            if upper is not None:
                outside &= upper
            if outside.any():
                i, j = np.argwhere(outside)[0]
                raise DistanceOutOfRange(f"d({pts[r + i].id},{pts[c + j].id})={float(vals[i, j])} "
                                         f"outside [{d_min}, {d_max}]")
    return EventStream(pts, d_min, d_max)


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
    """The points of a JSONL stream file, whose lines end at LF, CR LF or a
    lone CR. Every record carries `coords`, or none does and a point's id is
    its matrix row; a record unlike the first, or unreadable or not UTF-8,
    is a MalformedRecord naming the file and line."""
    points = []
    coords = None  # whether the records carry coords, as the first one says
    int_types, number_types = {int}, {int, float}  # a JSON true or false is a bool
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f.read().splitlines(), 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
                pid, t_arr, t_del = ints = row["id"], row["t_arr"], row["t_del"]
                if not int_types.issuperset(map(type, ints)):  # one test in the usual case
                    if not number_types.issuperset(map(type, ints)):
                        raise ValueError(f"id and times {ints} must be numbers")
                    pid, t_arr, t_del = map(int, ints)
                    if (pid, t_arr, t_del) != ints:
                        raise ValueError(f"id and times {ints} must be integers")
                if coords is None:
                    coords = "coords" in row
                elif ("coords" in row) != coords:
                    raise ValueError(f"point {pid} {'lacks' if coords else 'has'} "
                                     "coords, unlike the first record")
                if coords:
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
    return points


def save_matrix_csv(table, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for row in table:
            w.writerow([repr(float(x)) for x in row])


def load_matrix_csv(path) -> np.ndarray:
    """The distance table of a CSV sidecar, as an n x n float array, read
    _TILE rows at a time into an anonymous mapping sized by the first row,
    so that freeing the table unmaps it: a freed table on the heap leaves a
    hole that small allocations split, and each later load grows the heap."""
    rows = 0
    try:
        with open(path) as f, warnings.catch_warnings():
            # A blank line and the empty block at the end are not warned about.
            warnings.filterwarnings("ignore", "(loadtxt: input|Input line .*) contained no data")
            while (block := np.loadtxt(f, delimiter=",", ndmin=2, max_rows=_TILE)).size:
                if not rows:
                    n = block.shape[1]
                    table = np.frombuffer(mmap.mmap(-1, n * n * 8)).reshape(n, n)
                if block.shape != table[rows : rows + len(block)].shape:
                    raise ValueError(f"rows past {rows} do not fit a {n} x {n} table")
                if not np.isfinite(block).all():
                    raise ValueError("non-finite distance")
                table[rows : rows + len(block)] = block
                rows += len(block)
    except ValueError as e:
        raise MetricError(f"bad matrix file {path}: {e}") from e
    if not rows:
        raise MetricError(f"bad matrix file {path}: no rows")
    return table[:rows]
