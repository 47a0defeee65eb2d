"""Set-up and replay through the library's public API, in the order
`dynkcenter run` makes its calls, plus the answer checks and the drift
guard against `runner.run`.

Everything the program does is timed from outside, one call at a time;
the checks use numpy on the generated coordinates and never the
program's own counters.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from dynkcenter import core, runner, streamgen
from dynkcenter.two_approx import TwoApproxClustering

from workloads import EPSILON, K, STRUCTURES, Inputs

RADIUS_FACTOR = {"two": 2.0, "six": 6.0}  # radius <= factor * gamma_used
DRIFT_PREFIX = 300  # arrivals compared against runner.run
# Relative slack for comparing a numpy distance with the program's own.
FLOAT_SLACK = 1e-9


def _direct(name, fn, *args, memory=False):
    return fn(*args)


@dataclass
class Setup:
    """The program's state once the first update can run."""

    stream: core.EventStream
    metric: core.Metric
    d_min: float
    d_max: float
    clustering: object
    extremes_evals: int


def set_up(inputs: Inputs, call=_direct) -> Setup:
    """Load, bound, validate, measure H and construct, as `dynkcenter run`
    does. `call(name, fn, *args)` makes each library call; a tracer passes
    its own to record spans."""
    w = inputs.workload
    points = call("core.load_stream_jsonl", core.load_stream_jsonl, inputs.stream_path)
    if w.matrix:
        table = call("core.load_matrix_csv", core.load_matrix_csv, inputs.matrix_path)
        metric = call("core.MatrixMetric", core.MatrixMetric, table)
        del table
    else:
        metric = call("core.EuclideanMetric", core.EuclideanMetric, len(points[0].payload))
    probe = metric.clone()
    if w.prescan:
        d_min, d_max = call("core.pairwise_extremes", core.pairwise_extremes, probe, points)
    else:
        d_min, d_max = inputs.d_min, inputs.d_max
    stream = call(
        "core.validate_stream", core.validate_stream, points, metric.clone(), d_min, d_max
    )
    call("streamgen.measure_h", streamgen.measure_h, stream, memory=True)
    cls = STRUCTURES[w.algorithm]
    clustering = call(f"{cls.__module__.rsplit('.', 1)[-1]}.__init__",
                      cls, K, EPSILON, d_min, d_max, metric)
    return Setup(stream, metric, d_min, d_max, clustering, probe.evals)


def fresh_clustering(setup: Setup, algorithm: str):
    """A new structure on a fresh metric counter, for a further pass."""
    return STRUCTURES[algorithm](K, EPSILON, setup.d_min, setup.d_max, setup.metric.clone())


def peak_stored(clustering) -> int:
    """The report's `peak_stored` column for either structure."""
    if isinstance(clustering, TwoApproxClustering):
        return clustering.peak_stored
    return max(clustering.peak_per_guess, default=0)


@dataclass
class Pass:
    """One replay of the stream: per-call times and what was answered."""

    update_ns: array = field(default_factory=lambda: array("q"))
    query_ns: array = field(default_factory=lambda: array("q"))
    # Per arrival: (gamma, center ids, witness ids or None), or None on error.
    answers: list = field(default_factory=list)
    # Per arrival, for the first `rows` arrivals: stored, peak, evals, ops.
    rows: list = field(default_factory=list)
    update_evals: int = 0
    update_ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_stored: int = 0
    rungs: int = 0


def replay(clustering, points, rows: int = 0, tracer=None) -> Pass:
    """Per arrival: `update(p)` and `query(t)`, each timed on its own, then
    `witness()` on the (2+eps) structure, untimed: its cost follows the
    unclustered set one rung below the answer, which swings from 8 to 92
    points between seeds of sliding-two-matrix at the same shape, and
    `dynkcenter run` never calls it. Any exception is a failed operation
    and the replay goes on."""
    two = isinstance(clustering, TwoApproxClustering)
    metric = clustering.metric
    clock = time.perf_counter_ns
    out = Pass(rungs=len(clustering.states))
    for i, p in enumerate(points):
        if tracer is not None:
            tracer.arrival = i
        evals, ops = metric.evals, clustering.ops
        t0 = clock()
        try:
            clustering.update(p)
        except Exception as e:  # a failed update is counted, not fatal
            out.failed += 1
            out.errors.append(f"update t={p.t_arr}: {e!r}")
        t1 = clock()
        out.update_evals += metric.evals - evals
        out.update_ops += clustering.ops - ops
        answer = None
        t2 = clock()
        try:
            sol = clustering.query(p.t_arr)
        except Exception as e:  # a failed query is counted, not fatal
            sol = None
            out.failed += 1
            out.errors.append(f"query t={p.t_arr}: {e!r}")
        t3 = clock()
        out.update_ns.append(t1 - t0)
        out.query_ns.append(t3 - t2)
        if sol is not None:
            try:
                wit = clustering.witness() if two else None
            except Exception as e:  # a failed witness fails its query
                out.failed += 1
                out.errors.append(f"witness t={p.t_arr}: {e!r}")
            else:
                answer = (
                    sol.guess_used,
                    tuple(c.id for c in sol.centers),
                    None if wit is None else tuple(q.id for q in wit),
                )
        out.answers.append(answer)
        if i < rows:
            out.rows.append(
                (clustering.stored_points(), peak_stored(clustering), metric.evals, clustering.ops)
            )
    if tracer is not None:
        tracer.arrival = None
    out.peak_stored = peak_stored(clustering)
    return out


def _farthest_first_radius(inputs: Inputs, active: np.ndarray) -> float:
    """Radius of k farthest-first centers: at most twice the optimum."""
    nearest = inputs.distances(active, active[:1])[:, 0]
    for _ in range(K - 1):
        far = active[int(nearest.argmax())]
        nearest = np.minimum(nearest, inputs.distances(active, [far])[:, 0])
    return float(nearest.max())


@dataclass
class Checked:
    failures: list = field(default_factory=list)
    radii: list = field(default_factory=list)  # per arrival, None if unanswered
    ratio_max: float = 0.0


def check_answers(inputs: Inputs, answers, ladder) -> Checked:
    """Check every answer against the true active set.

    The radius over the active set must be at most 2*gamma (two) or
    6*gamma (six). A witness must be k+1 active points pairwise farther
    than 2*gamma' apart, gamma' the rung below. The ratio divides the
    radius by the larger of the farthest-first lower bound and gamma'.
    """
    algorithm = inputs.workload.algorithm
    factor = RADIUS_FACTOR[algorithm]
    rung = {g: i for i, g in enumerate(ladder)}
    out = Checked()
    for i, answer in enumerate(answers):
        out.radii.append(None)
        if answer is None:
            continue
        t = inputs.t_arr[i]
        active = np.nonzero(inputs.t_del[: i + 1] > t)[0]
        gamma, centers, witness = answer
        where = f"t={t}"
        if not set(centers) <= set(active.tolist()) or len(centers) > K:
            out.failures.append(f"{where}: centers {centers} not <= k active points")
            continue
        if not centers:
            out.failures.append(f"{where}: no centers for {len(active)} active points")
            continue
        rad = float(inputs.distances(active, list(centers)).min(axis=1).max())
        out.radii[i] = rad
        if rad > factor * gamma * (1 + FLOAT_SLACK):
            out.failures.append(f"{where}: radius {rad} > {factor} * gamma {gamma}")
            continue
        lb = _farthest_first_radius(inputs, active) / 2.0
        if witness is not None:
            below = ladder[rung[gamma] - 1] if rung.get(gamma, 0) > 0 else None
            ok = (
                below is not None
                and len(witness) == K + 1
                and len(set(witness)) == K + 1
                and set(witness) <= set(active.tolist())
            )
            if ok:
                d = inputs.distances(list(witness), list(witness))
                ok = bool((d[~np.eye(K + 1, dtype=bool)] > 2.0 * below).all())
            if not ok:
                out.failures.append(f"{where}: bad witness {witness} below gamma {gamma}")
                continue
            lb = max(lb, below)
        if lb > 0:
            out.ratio_max = max(out.ratio_max, rad / lb)
    return out


def drift_guard(inputs: Inputs, setup: Setup, first: Pass, radii) -> list:
    """Compare the replay's first queries with `runner.run`'s report rows
    for the same config on the same stream prefix; return mismatches."""
    w = inputs.workload
    prefix = setup.stream.points[: len(first.rows)]
    config = runner.RunConfig(
        algorithm=w.algorithm,
        k=K,
        epsilon=EPSILON,
        d_min=setup.d_min,
        d_max=setup.d_max,
        queries="every",
    )
    try:
        report = runner.run(
            config, core.EventStream(prefix, setup.d_min, setup.d_max), setup.metric.clone()
        )
    except Exception as e:  # the guard reports a failing runner, not crash on it
        return [f"runner.run failed on the prefix: {e!r}"]
    mismatches = []
    for i, (row, ours, answer, rad) in enumerate(
        zip(report.rows, first.rows, first.answers, radii)
    ):
        theirs = (row["stored_points"], row["peak_stored"], row["distance_evals"],
                  row["structural_ops"])
        same_radius = (rad is None) == (row["radius"] is None) and (
            rad is None or abs(rad - row["radius"]) <= FLOAT_SLACK * max(rad, 1.0)
        )
        if answer is None or answer[0] != row["gamma"] or ours != theirs or not same_radius:
            mismatches.append(
                f"arrival {i}: runner {row['gamma']}, {row['radius']}, {theirs} vs "
                f"replay {answer and answer[0]}, {rad}, {ours}"
            )
    if len(report.rows) != len(first.rows):
        mismatches.append(f"runner gave {len(report.rows)} rows for {len(first.rows)}")
    return mismatches
