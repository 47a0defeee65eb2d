"""Dynamic k-center clustering where each point's deletion time is known
at arrival: a (2+eps)-approximation with amortized-efficient updates, a
space-efficient (6+eps)-approximation, exact oracles, stream generators,
and an instrumented replay harness."""

from .core import (
    EuclideanMetric,
    EventStream,
    GuessLadder,
    MatrixMetric,
    Metric,
    TimedPoint,
    build_guess_ladder,
    deletion_key,
    pairwise_extremes,
    validate_stream,
)
from .oracle import Solution, exact_kcenter, greedy_cover, radius
from .runner import RunConfig, RunReport, bench, run
from .six_approx import SixApproxClustering
from .streamgen import (
    GeneratedStream,
    adversarial_quadratic_stream,
    h_bounded_stream,
    measure_h,
    random_lifetime_stream,
    sliding_window_stream,
)
from .two_approx import TwoApproxClustering

__all__ = [
    "EuclideanMetric",
    "EventStream",
    "GeneratedStream",
    "GuessLadder",
    "MatrixMetric",
    "Metric",
    "RunConfig",
    "RunReport",
    "SixApproxClustering",
    "Solution",
    "TimedPoint",
    "TwoApproxClustering",
    "adversarial_quadratic_stream",
    "bench",
    "build_guess_ladder",
    "deletion_key",
    "exact_kcenter",
    "greedy_cover",
    "h_bounded_stream",
    "measure_h",
    "pairwise_extremes",
    "radius",
    "random_lifetime_stream",
    "run",
    "sliding_window_stream",
    "validate_stream",
]
