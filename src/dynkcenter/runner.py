"""Stream replay, verification and benchmarking shared by the CLI and the
test suite."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from .audits import VanishingTracker, audit_six_approx, audit_two_approx
from .core import EventStream, GuessLadder, Metric
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
    queries: object = "end"  # "every" | "end" | list of times
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


def _max_concurrent_active(points) -> int:
    events = sorted((p.t_arr, 1, p.t_del) for p in points)
    active = []
    peak = 0
    for t_arr, _, t_del in events:
        active = [d for d in active if d > t_arr]
        active.append(t_del)
        peak = max(peak, len(active))
    return peak


def _audit_two(clustering, active, t, tracker):
    audit_two_approx(clustering, active)
    tracker.observe(clustering)


def _audit_six(clustering, active, t, tracker):
    audit_six_approx(clustering, active, t)


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
    options = {}
    if cls.RECLUSTERS:
        options["reclustering_enabled"] = config.reclustering_enabled
    elif not config.reclustering_enabled or config.single_gamma is not None:
        raise InvalidParameter(
            f"algorithm {config.algorithm!r} has no reclustering: it takes "
            "neither reclustering off nor the one-guess adversarial benchmark"
        )
    if config.single_gamma is not None:
        g = config.single_gamma
        options["ladder"] = GuessLadder(g, g, 1.0, (g,))
    return cls(config.k, config.epsilon, config.d_min, config.d_max, metric, **options)


def run(config: RunConfig, stream: EventStream, metric: Metric) -> RunReport:
    """Replay the stream in arrival order, querying per the schedule.

    With verify enabled, the full invariant suite runs after every update
    and every query's radius is checked against the enumeration oracle; the
    bound for the approximation ratio is the structure's FACTOR + eps.
    """
    points = sorted(stream.points, key=lambda p: p.t_arr)
    if config.verify and points:
        peak = _max_concurrent_active(points)
        if peak > config.oracle_cap:
            raise InvariantViolation(
                "oracle-cap",
                f"max concurrent active {peak} exceeds cap {config.oracle_cap}",
            )
    clustering = make_clustering(config, metric)
    _, audit = ALGORITHMS[config.algorithm]
    oracle_metric = metric.clone()
    ratio_bound = clustering.FACTOR + config.epsilon
    h = measure_h(stream) if points else 0
    tracker = VanishingTracker()
    report = RunReport(clustering=clustering)
    started = _time.perf_counter()

    query_times = set()
    if isinstance(config.queries, (list, tuple)):
        query_times = set(config.queries)

    def do_query(t, active):
        sol = clustering.query(t)
        rad = oracle_r = ratio = None
        if active:
            if sol.centers:
                rad = radius(oracle_metric, sol.centers, active)
            if config.verify:
                opt = exact_kcenter(oracle_metric, active, config.k, config.oracle_cap)
                oracle_r = opt.radius
                if oracle_r > 0 and rad is not None:
                    ratio = rad / oracle_r
                    if rad > ratio_bound * oracle_r:
                        raise InvariantViolation(
                            "approximation-ratio",
                            f"t={t}: radius {rad} > {ratio_bound} * {oracle_r}; "
                            f"centers {sol.center_ids}, active "
                            f"{[x.id for x in active]}",
                        )
                elif rad is not None and oracle_r == 0:
                    ratio = 1.0 if rad == 0 else float("inf")
                    if rad != 0:
                        raise InvariantViolation(
                            "approximation-ratio",
                            f"t={t}: optimum 0 but returned radius {rad}",
                        )
        else:
            rad = 0.0
        report.rows.append(
            {
                "time": t,
                "active_size": len(active),
                "radius": rad,
                "oracle_radius": oracle_r,
                "ratio": ratio,
                "gamma": sol.guess_used,
                "distance_evals": metric.evals,
                "structural_ops": clustering.ops,
                "stored_points": clustering.stored_points(),
                "peak_stored": clustering.peak_stored,
                "measured_h": h,
            }
        )

    # Arrivals not yet known to have expired; pruned only when an audit or
    # a query reads the active set.
    active = []
    last = points[-1] if points else None
    for p in points:
        t = p.t_arr
        clustering.update(p)
        active.append(p)
        query = (
            config.queries == "every"
            or t in query_times
            or (config.queries == "end" and p is last)
        )
        if config.verify or query:
            active[:] = [x for x in active if x.t_del > t]
        if config.verify:
            audit(clustering, active, t, tracker)
        if query:
            do_query(t, active)
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
