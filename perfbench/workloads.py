"""The benchmark's workloads and the seeded inputs they replay.

Every workload uses k=3, epsilon=1 and 2-dimensional points, and queries
after every arrival. Inputs are built from the library's own generators,
written in the stream file format, and handed to the program under test
as files plus (when the workload declares them) distance bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynkcenter import core, streamgen
from dynkcenter.six_approx import SixApproxClustering
from dynkcenter.two_approx import TwoApproxClustering

K = 3
EPSILON = 1.0
DIM = 2
STRUCTURES = {"two": TwoApproxClustering, "six": SixApproxClustering}
TRIES = 64  # generator seeds per benchmark seed, see `prepare`


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str  # "two" | "six"
    n: int  # points in the stream, all loaded, validated and measured
    arrivals: int  # arrivals replayed per pass, from the first
    # Arrivals before the timed ones: each pass replays the rest from a copy
    # of a structure that has taken these, so passes are shorter and a run
    # gets more of them.
    warm: int
    kind: str  # "random" (random_lifetime_stream) | "sliding" (sliding_window_stream)
    life: int  # max_life for "random", window for "sliding"
    matrix: bool  # replay on MatrixMetric from a CSV sidecar
    prescan: bool  # bounds from core.pairwise_extremes instead of declared
    rungs: range | None  # ladder sizes a seed's stream may give; None: any


WORKLOADS = (
    Workload(
        name="random-two-prescan",
        why=(
            "default CLI path: O(n^2) prescan dominates set-up, and ~32 active "
            "points make the (2+eps) update bound by distance calls"
        ),
        algorithm="two",
        n=2000,
        arrivals=2000,
        warm=0,
        kind="random",
        life=64,
        matrix=False,
        prescan=True,
        rungs=range(22, 23),
    ),
    Workload(
        name="sliding-six",
        why=(
            "(6+eps) structure on the 0-ordered window it was designed for; "
            "greedy-cover queries and measure_h's n x n matrices show here"
        ),
        algorithm="six",
        n=6000,
        arrivals=2000,
        # The window fills after 1000 cheap arrivals; the timed ones delete.
        # (A copy of a structure on a distance table would copy the table,
        # so sliding-two-matrix does not warm up.)
        warm=1000,
        kind="sliding",
        life=1000,
        matrix=False,
        prescan=False,
        rungs=range(61, 64),
    ),
    Workload(
        name="sliding-two-matrix",
        why=(
            "~500 active points on a distance table: center-deletion "
            "reassignment sets the (2+eps) update tail, sidecar parsing sets set-up"
        ),
        algorithm="two",
        n=2000,
        arrivals=2000,
        warm=0,
        kind="sliding",
        life=500,
        matrix=True,
        prescan=False,
        rungs=range(22, 23),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Inputs:
    """What the benchmark knows about one generated workload instance.

    The program under test sees only `stream_path`, `matrix_path` and, for
    workloads without a prescan, the declared bounds. The arrays are kept
    for the answer checks; the generators number points in arrival order,
    so a point's id is its row. The matrix workload's table holds the
    Euclidean distances of `coords`, so the checks compute from `coords`
    on every workload.
    """

    workload: Workload
    stream_path: Path
    matrix_path: Path | None
    d_min: float
    d_max: float
    t_arr: np.ndarray
    t_del: np.ndarray
    coords: np.ndarray  # n x DIM, by point id (row i is point i)

    def distances(self, ids, to_ids) -> np.ndarray:
        """len(ids) x len(to_ids) distances, by numpy on the coordinates."""
        diff = self.coords[ids][:, None, :] - self.coords[to_ids][None, :, :]
        return np.sqrt((diff**2).sum(axis=2))


def _distance_table(coords: np.ndarray) -> np.ndarray:
    table = np.empty((len(coords), len(coords)))
    for i in range(len(coords)):
        table[i] = np.sqrt(((coords - coords[i]) ** 2).sum(axis=1))
    return table


def _generate(workload: Workload, seed: int):
    if workload.kind == "random":
        return streamgen.random_lifetime_stream(workload.n, DIM, workload.life, seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return streamgen.sliding_window_stream(rng.random((workload.n, DIM)), workload.life)


def prepare(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's stream from `seed` and write it to `workdir`.

    Every update and query does work per rung of the guess ladder, and the
    rung count follows the closest pair, which varies a lot from seed to
    seed (20 to 28 rungs over ten seeds of random-two-prescan). So the seed
    picks the first of the generator seeds seed*TRIES, seed*TRIES+1, ...
    whose stream gives one of the workload's rung counts, and every seed
    replays a stream of the same shape.
    """
    structure = STRUCTURES[workload.algorithm]
    for sub_seed in range(seed * TRIES, (seed + 1) * TRIES):
        gen = _generate(workload, sub_seed)
        ladder = structure(K, EPSILON, gen.stream.d_min, gen.stream.d_max,
                           core.EuclideanMetric(DIM)).ladder
        rungs = len(ladder)
        if workload.rungs is None or rungs in workload.rungs:
            break
    else:
        raise RuntimeError(f"no stream with rungs in {workload.rungs} for seed {seed}")
    n = workload.n
    points = sorted(gen.stream.points, key=lambda p: p.t_arr)
    coords = np.array([p.payload for p in points], dtype=float)
    t_arr = np.array([p.t_arr for p in points], dtype=np.int64)
    t_del = np.array([p.t_del for p in points], dtype=np.int64)
    d_min, d_max = gen.stream.d_min, gen.stream.d_max

    workdir.mkdir(parents=True, exist_ok=True)
    stream_path = workdir / "stream.jsonl"
    matrix_path = None
    if workload.matrix:
        table = _distance_table(coords)
        matrix_path = workdir / "matrix.csv"
        core.save_matrix_csv(table, matrix_path)
        off_diagonal = table[~np.eye(n, dtype=bool)]
        d_min, d_max = float(off_diagonal.min()), float(off_diagonal.max())
        del table, off_diagonal  # not kept: it would count in this process's peak RSS
        points = [core.TimedPoint(p.id, p.id, p.t_arr, p.t_del) for p in points]
    core.save_stream_jsonl(points, stream_path)
    return Inputs(workload, stream_path, matrix_path, d_min, d_max, t_arr, t_del, coords)
