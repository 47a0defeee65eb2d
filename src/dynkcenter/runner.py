"""Stream replay, verification and benchmarking shared by the CLI and the
test suite."""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace

from .audits import (
    VanishingTracker,
    audit_six_approx,
    audit_six_space,
    audit_six_update,
    audit_two_approx,
)
from .core import EventStream, Metric
from .errors import InvalidParameter, InvariantViolation
from .oracle import ENUMERATION_CAP, exact_kcenter, radius
from .six_approx import SixApproxClustering
from .streamgen import measure_h
from .two_approx import TwoApproxClustering

CSV_COLUMNS = (
    "time",
    "active_size",
    "radius",
    "oracle_radius",
    "ratio",
    "gamma",
    "distance_evals",
    "structural_ops",
    "stored_points",
    "peak_stored",
    "measured_h",
)


@dataclass
class RunConfig:
    algorithm: str  # "two" | "six"
    k: int
    epsilon: float
    d_min: float
    d_max: float
    queries: object = "end"  # "every" | "end" | list of arrival times
    verify: bool = False
    reclustering_enabled: bool = True
    oracle_cap: int = ENUMERATION_CAP
    single_gamma: float | None = None  # one-guess mode for benchmarks


@dataclass
class RunReport:
    rows: list = field(default_factory=list)
    wall_time: float = 0.0
    clustering: object = None  # the replayed structure, in its final state

    def to_csv(self, path):
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for row in self.rows:
                f.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# `h` is the stream's H; unknown tameness means H = inf, which bounds nothing.
def _audit_two(clustering, active, t, tracker, h=math.inf):
    audit_two_approx(clustering, active)
    tracker.observe(clustering)


def _audit_six(clustering, active, t, tracker, h=math.inf):
    audit_six_approx(clustering, active, t)
    audit_six_space(clustering, h)
    audit_six_update(clustering, h)


# Algorithm name -> (structure class, audit run after every update under
# verify). The only place that tells the algorithms apart.
ALGORITHMS = {
    "two": (TwoApproxClustering, _audit_two),
    "six": (SixApproxClustering, _audit_six),
}


def make_clustering(config: RunConfig, metric: Metric):
    if config.algorithm not in ALGORITHMS:
        raise InvalidParameter(
            f"unknown algorithm {config.algorithm!r}; expected one of "
            f"{', '.join(ALGORITHMS)}"
        )
    cls, _ = ALGORITHMS[config.algorithm]
    if not cls.RECLUSTERS:
        if not config.reclustering_enabled or config.single_gamma is not None:
            raise InvalidParameter(
                f"algorithm {config.algorithm!r} has no reclustering: it takes "
                "neither reclustering off nor the one-guess adversarial benchmark"
            )
        return cls(config.k, config.epsilon, config.d_min, config.d_max, metric)
    if config.single_gamma is not None:
        return cls.single_guess(
            config.k, config.single_gamma, metric, config.reclustering_enabled, config.epsilon
        )
    return cls(config.k, config.epsilon, config.d_min, config.d_max, metric,
               config.reclustering_enabled)


def _query_times(queries, points) -> set:
    """Every arrival time, the last one ("end"), or the listed arrival times."""
    arrivals = {p.t_arr for p in points}
    if queries == "every":
        return arrivals
    if queries == "end":
        return {p.t_arr for p in points[-1:]}
    missing = sorted(set(queries) - arrivals)
    if missing:
        raise InvalidParameter(f"query times {missing} are not arrival times")
    return set(queries)


def run(config: RunConfig, stream: EventStream, metric: Metric) -> RunReport:
    """Replay the stream in the arrival order `EventStream` keeps, querying
    per the schedule; a point out of order raises NonMonotoneArrival.

    Under verify the invariant audits (for six with the 3k+3+H space bound
    and the per-update op bound) run after every update, at most
    `oracle_cap` points may be active, and every radius must be within
    FACTOR + eps of the enumerated optimum.
    """
    if config.oracle_cap < 1:
        raise InvalidParameter(f"oracle cap must be >= 1, got {config.oracle_cap}")
    query_times = _query_times(config.queries, stream.points)
    clustering = make_clustering(config, metric)
    _, audit = ALGORITHMS[config.algorithm]
    oracle_metric = metric.clone()
    ratio_bound = clustering.FACTOR + config.epsilon
    h = measure_h(stream)
    tracker = VanishingTracker()
    report = RunReport(clustering=clustering)
    started = _time.perf_counter()
    # Arrivals not yet known to have expired; pruned only when an audit or
    # a query reads the active set, which then holds at least p.
    active = []
    for p in stream.points:
        t = p.t_arr
        clustering.update(p)
        active.append(p)
        query = t in query_times
        if config.verify or query:
            active = [x for x in active if x.t_del > t]
        if config.verify:
            if len(active) > config.oracle_cap:
                raise InvariantViolation(
                    "oracle-cap",
                    f"t={t}: {len(active)} active points exceed cap {config.oracle_cap}",
                )
            audit(clustering, active, t, tracker, h)
        if not query:
            continue
        sol = clustering.query(t)
        rad = radius(oracle_metric, sol.centers, active)
        opt = ratio = None
        if config.verify:
            opt = exact_kcenter(oracle_metric, active, config.k, config.oracle_cap).radius
            # An optimum of 0 is matched only by a radius of 0.
            ratio = rad / opt if opt > 0 else (1.0 if rad == 0 else math.inf)
            if rad > ratio_bound * opt:
                raise InvariantViolation(
                    "approximation-ratio",
                    f"t={t}: radius {rad} > {ratio_bound} * {opt}; "
                    f"centers {sol.center_ids}, active {[x.id for x in active]}",
                )
        report.rows.append(
            {
                "time": t,
                "active_size": len(active),
                "radius": rad,
                "oracle_radius": opt,
                "ratio": ratio,
                "gamma": sol.guess_used,
                "distance_evals": metric.evals,
                "structural_ops": clustering.ops,
                "stored_points": clustering.stored_points(),
                "peak_stored": clustering.peak_stored,
                "measured_h": h,
            }
        )
    report.wall_time = _time.perf_counter() - started
    return report


def bench(make_stream, config: RunConfig, sizes) -> list:
    """Replay one stream per size, without queries, and report operation
    totals and the ops(2n)/ops(n) growth ratios. `make_stream(n)` must
    return a GeneratedStream."""
    rows = []
    for n in sizes:
        gen = make_stream(n)
        metric = gen.metric.clone()
        report = run(replace(config, queries=()), gen.stream, metric)
        rows.append(
            {
                "n": n,
                "structural_ops": report.clustering.ops,
                "distance_evals": metric.evals,
                "wall_time": report.wall_time,
                "peak_stored": report.clustering.peak_stored,
            }
        )
    for i in range(1, len(rows)):
        if rows[i]["n"] == 2 * rows[i - 1]["n"]:
            rows[i]["growth_ratio"] = (
                rows[i]["structural_ops"] / rows[i - 1]["structural_ops"]
            )
    return rows
