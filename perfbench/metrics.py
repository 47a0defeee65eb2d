"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same names; `selftest.py` checks that the two
agree. `moves` and `on` record which end-to-end metric a layer metric
should move, and on which workload, before anything is measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class Printed:
    name: str
    unit: str
    what: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    what: str
    moves: str
    on: str


# Latencies are taken over the timed arrivals, each call at its best
# time over the run's passes (see run.run_untraced).
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "load, bounds, validate, measure_h and construction; best of the run's set-ups"),
    EndToEnd("updates_per_s", "1/s", "higher", 0.25,
             "arrivals per second of update(p) plus query(t)"),
    EndToEnd("update_us_p50", "us", "lower", 0.25, "median latency of one update(p)"),
    EndToEnd("query_us_p50", "us", "lower", 0.25,
             "median latency of one query(t); witness() is called untimed"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, "the run process's ru_maxrss"),
    EndToEnd("peak_stored", "points", "lower", 0.2,
             "peak_stored (two) or max(peak_per_guess) (six), as in the report CSV"),
    EndToEnd("radius_ratio_max", "ratio", "lower", 0.25,
             "highest answer radius over a certified lower bound on OPT"),
)

# Printed with every untimed run, with their sample counts, but not in its
# JSON result: over ten seeds their spread exceeded the largest bound
# allowed (0.25) whenever other load on the machine lasted through a few
# runs (see README.md), so a bound on them would fail changes at random.
TAIL = (
    Printed("update_us_p99", "us", "99th-percentile latency of one update(p)"),
    Printed("query_us_p99", "us",
            "99th-percentile latency of one query(t); witness() is called untimed"),
)

_SETUP = "setup_s"
_UPDATE = "update_us_p50, update_us_p99, updates_per_s"
_QUERY = "query_us_p50, query_us_p99"

PER_LAYER = (
    Layer("core.load_s", "s", "lower", "load_stream_jsonl", _SETUP, "all (small)"),
    Layer("core.metric_s", "s", "lower",
          "the metric and its bounds: load_matrix_csv + MatrixMetric, or "
          "EuclideanMetric + pairwise_extremes when prescanning",
          _SETUP, "random-two-prescan, sliding-two-matrix"),
    Layer("core.extremes_evals", "count", "lower", "distance evaluations of pairwise_extremes",
          _SETUP, "random-two-prescan (zero elsewhere)"),
    Layer("core.validate_s", "s", "lower", "validate_stream", _SETUP, "all (small)"),
    Layer("streamgen.measure_h_s", "s", "lower", "measure_h", _SETUP, "sliding-six"),
    Layer("streamgen.measure_h_peak_mb", "MB", "lower", "tracemalloc peak of measure_h",
          "setup_s, peak_rss_mb", "sliding-six"),
    Layer("clustering.init_s", "s", "lower", "the structure's constructor", _SETUP, "all (small)"),
    Layer("core.distance_s", "s", "lower", "Metric.distance under update and query spans",
          _UPDATE, "random-two-prescan, sliding-six (small on sliding-two-matrix)"),
    Layer("core.distance_calls", "count", "lower",
          "Metric.distance calls under update and query spans", _UPDATE,
          "random-two-prescan, sliding-six"),
    Layer("core.distance_repeat", "calls/pair", "lower",
          "distance calls per distinct unordered point pair within one update", _UPDATE,
          "random-two-prescan, sliding-six"),
    Layer("clustering.update_self_s", "s", "lower",
          "update minus its distance calls (two_approx or six_approx)", _UPDATE, "all"),
    Layer("clustering.evals_per_update", "evals/update", "lower",
          "metric.evals delta over update calls", _UPDATE, "all"),
    Layer("clustering.ops_per_update", "ops/update", "lower",
          "ops delta over update calls", _UPDATE, "all"),
    Layer("clustering.rungs", "count", "lower", "len(states)", "peak_stored", "all"),
    Layer("clustering.query_s", "s", "lower", "query plus witness, children included",
          _QUERY, "all"),
    Layer("clustering.query_self_s", "s", "lower",
          "query plus witness minus greedy_cover and distance children", _QUERY, "all"),
    Layer("oracle.greedy_cover_calls_per_query", "calls/query", "lower",
          "greedy_cover calls, wrapped at the name six_approx calls it by", _QUERY,
          "sliding-six (zero elsewhere)"),
    Layer("trace.overhead_frac", "fraction", "lower",
          "traced replay time / untraced replay time - 1", "none; the tracing cost", "all"),
)
