"""Replay benchmark for both clustering structures.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the workload's stream from the seed, then for S seconds replays
the workload's arrivals pass after pass, timing every update and query,
with a few timed set-ups of the library spread evenly between the passes.
Each call is reported at its best time over the passes, and set-up at
its best time over the set-ups. Every answer is checked against the true
active set. A run's last line printed is one JSON object: {"correct",
"attempted", "failed", "metrics"}; `all` makes one run of each workload
in turn. With --trace 1 a
separate run records spans around every public call and reports the
per-layer metrics instead; end-to-end numbers never come from it.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import dynkcenter  # noqa: E402
except ImportError as e:
    sys.exit(f"error: the library under test is not in {ROOT / 'src'}: {e}")

from metrics import PER_LAYER  # noqa: E402
from replay import (  # noqa: E402
    DRIFT_PREFIX,
    check_answers,
    drift_guard,
    fresh_clustering,
    replay,
    set_up,
)
from tracing import Tracer  # noqa: E402
from workloads import BY_NAME, prepare  # noqa: E402

# Set-ups per run, spread evenly over its seconds; the prescan makes one
# set-up of random-two-prescan take 3-4 s, so this fits a 30 s run. A
# cheap set-up is also repeated while set-ups have taken under
# SETUP_SHARE of the run, to get more samples of it.
SETUPS = 5
SETUP_SHARE = 0.1


class Result:
    """What one run prints: metrics with units and sample counts, plus
    failed operations and notes."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failures and drift, first few are printed
        self.metrics = {}  # name -> (value, unit, samples note)
        self.printed = {}  # the same, for figures printed but not in the JSON
        self.notes = []

    def put(self, name, value, unit, samples=""):
        self.metrics[name] = (value, unit, samples)

    def show(self, name, value, unit, samples=""):
        self.printed[name] = (value, unit, samples)

    def absorb(self, one_pass, checks=None, reference=None):
        """Count a pass's operations and failures; later passes must give
        the `reference` answers, the first pass's for the same arrivals."""
        self.attempted += len(one_pass.update_ns) + len(one_pass.query_ns)
        self.failed += one_pass.failed
        self.problems += one_pass.errors
        if checks is not None:
            self.failed += len(checks.failures)
            self.problems += checks.failures
        if reference is not None:
            differ = sum(a != b for a, b in zip(one_pass.answers, reference))
            self.failed += differ
            if differ:
                self.problems.append(f"{differ} answers differ from the first pass")

    @property
    def correct(self):
        return self.failed == 0 and not self.problems

    def lines(self):
        w = self.workload
        yield (f"# {w.name} seed={self.seed}: {w.algorithm} structure, n={w.n} "
               f"(all checked, arrivals {w.warm} to {w.arrivals} timed per pass), "
               f"{'matrix' if w.matrix else 'euclidean'} metric, "
               f"{'prescan' if w.prescan else 'declared'} bounds")
        for name, (value, unit, samples) in [*self.metrics.items(), *self.printed.items()]:
            yield f"{name:36s} {value:>16.6g} {unit:12s} {samples}"
        frac = self.failed / self.attempted if self.attempted else 0.0
        yield (f"{'failed_frac':36s} {frac:>16.6g} {'fraction':12s} "
               f"{self.failed} of {self.attempted} operations")
        yield from self.notes
        for problem in self.problems[:10]:
            yield f"! {problem}"

    def json(self):
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in self.metrics.items()},
        })


def _best_us(times):
    """Each call's fastest time over the passes' `times`, in microseconds."""
    return np.array(times).min(axis=0) / 1e3


def _check_and_guard(result, inputs, setup, first, ladder):
    checks = check_answers(inputs, first.answers, ladder)
    result.absorb(first, checks)
    result.problems += drift_guard(inputs, setup, first, checks.radii)
    return checks


def _timed_set_up(inputs):
    gc.collect()
    t0 = time.perf_counter()
    setup = set_up(inputs)
    return setup, time.perf_counter() - t0


def run_untraced(workload, seed, seconds, workdir) -> Result:
    """Replay pass after pass for `seconds`, with at least SETUPS set-ups
    spread evenly between the passes. Every pass makes the same calls on
    the same state, so each call's fastest time over the passes is its cost
    with the least interference from other load on the machine; the
    latency and throughput figures are taken over those per-call bests.
    Set-up is reported at its fastest for the same reason. The machine's
    speed drifts over seconds, so both kinds of sample are spread over the
    run."""
    result = Result(workload, seed)
    inputs = prepare(workload, seed, workdir)
    setup, took = _timed_set_up(inputs)
    setup_s = [took]
    warm, arrivals = workload.warm, workload.arrivals
    timed = setup.stream.points[warm:arrivals]
    ladder = setup.clustering.ladder.guesses
    gc.collect()
    # The first pass replays and checks the whole stream, before the clock
    # starts; later ones replay the timed arrivals.
    first = replay(setup.clustering, setup.stream.points, rows=DRIFT_PREFIX)
    reference = first.answers[warm:arrivals]
    update_ns, query_ns = [first.update_ns[warm:arrivals]], [first.query_ns[warm:arrivals]]
    if warm:
        warmed = fresh_clustering(setup, workload.algorithm)
        replay(warmed, setup.stream.points[:warm])
    started = time.perf_counter()
    while len(setup_s) < SETUPS or time.perf_counter() - started < seconds:
        elapsed = time.perf_counter() - started
        # A pass follows every set-up, so slow set-ups cannot crowd out passes.
        if len(setup_s) <= SETUPS * elapsed / seconds or sum(setup_s) < SETUP_SHARE * elapsed:
            setup = None  # only one set-up's state is alive at a time
            setup, took = _timed_set_up(inputs)
            setup_s.append(took)
        clustering = copy.deepcopy(warmed) if warm else fresh_clustering(setup, workload.algorithm)
        gc.collect()
        later = replay(clustering, timed)
        clustering = None
        result.absorb(later, reference=reference)
        update_ns.append(later.update_ns)
        query_ns.append(later.query_ns)
    checks = _check_and_guard(result, inputs, setup, first, ladder)

    update_us, query_us = _best_us(update_ns), _best_us(query_ns)
    passes = len(update_ns)
    note = f"{len(timed)} calls, each the best of {passes} passes"
    result.put("setup_s", min(setup_s), "s", f"best of {len(setup_s)} set-ups")
    result.put("updates_per_s", len(timed) / ((update_us.sum() + query_us.sum()) / 1e6), "1/s",
               f"{len(timed)} arrivals of update + query, each the best of {passes} passes")
    result.put("update_us_p50", float(np.percentile(update_us, 50)), "us", note)
    result.put("query_us_p50", float(np.percentile(query_us, 50)), "us", note)
    result.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
               "ru_maxrss of this process")
    result.put("peak_stored", first.peak_stored, "points",
               f"{first.rungs} rungs, {len(first.answers)} arrivals")
    result.put("radius_ratio_max", checks.ratio_max, "ratio",
               f"max over {len(first.answers)} checked queries")
    result.show("update_us_p99", float(np.percentile(update_us, 99)), "us", note)
    result.show("query_us_p99", float(np.percentile(query_us, 99)), "us", note)
    return result


def _layer_metrics(tracer, setup, traced, overhead):
    """Per-layer figures from the spans; replay figures are per pass."""
    def spans(*suffixes):
        return [s for s in tracer.spans if s.name.endswith(suffixes)]

    def total_s(group):
        return sum(s.end - s.start for s in group) / 1e9

    passes = len(traced)
    n = passes * len(traced[0].update_ns)
    updates = spans(".update")
    queries = spans(".query", ".witness")
    replayed = updates + queries + spans("greedy_cover")
    pairs = sum(s.pairs for s in updates)
    measure_h = spans("measure_h")
    return {
        "core.load_s": total_s(spans("load_stream_jsonl")),
        "core.metric_s": total_s(spans("load_matrix_csv", "MatrixMetric", "EuclideanMetric",
                                       "pairwise_extremes")),
        "core.extremes_evals": setup.extremes_evals,
        "core.validate_s": total_s(spans("validate_stream")),
        "streamgen.measure_h_s": total_s(measure_h),
        "streamgen.measure_h_peak_mb": measure_h[0].peak_bytes / 2**20,
        "clustering.init_s": total_s(spans("__init__")),
        "core.distance_s": sum(s.dist_ns for s in replayed) / 1e9 / passes,
        "core.distance_calls": sum(s.dist_calls for s in replayed) // passes,
        "core.distance_repeat": sum(s.dist_calls for s in updates) / pairs if pairs else 1.0,
        "clustering.update_self_s": sum(s.self_ns for s in updates) / 1e9 / passes,
        "clustering.evals_per_update": sum(p.update_evals for p in traced) / n,
        "clustering.ops_per_update": sum(p.update_ops for p in traced) / n,
        "clustering.rungs": traced[0].rungs,
        "clustering.query_s": total_s(queries) / passes,
        "clustering.query_self_s": sum(s.self_ns for s in queries) / 1e9 / passes,
        "oracle.greedy_cover_calls_per_query": len(spans("greedy_cover")) / n,
        "trace.overhead_frac": overhead,
    }


def run_traced(workload, seed, seconds, workdir) -> Result:
    """One traced set-up, then pairs of an untraced and a traced pass for
    `seconds`. The replay layers are reported per pass; the tracing
    overhead compares per-call bests of the two kinds of pass."""
    result = Result(workload, seed)
    inputs = prepare(workload, seed, workdir)
    tracer = Tracer()
    setup = set_up(inputs, call=tracer.call)
    points = setup.stream.points[: workload.arrivals]
    ladder = setup.clustering.ladder.guesses

    gc.collect()
    started = time.perf_counter()
    first = replay(setup.clustering, points, rows=DRIFT_PREFIX)
    plain, traced = [first], []
    while not traced or time.perf_counter() - started < seconds:
        if traced:
            gc.collect()
            plain.append(replay(fresh_clustering(setup, workload.algorithm), points))
            result.absorb(plain[-1], reference=first.answers)
            plain[-1].answers = None
        clustering = fresh_clustering(setup, workload.algorithm)
        gc.collect()
        with tracer.instrument(clustering):
            traced.append(replay(clustering, points, tracer=tracer))
        result.absorb(traced[-1], reference=first.answers)
        traced[-1].answers = None
        if len(traced) == 1:
            written = len(tracer.spans)  # set-up and one traced pass
    _check_and_guard(result, inputs, setup, first, ladder)

    def best_total(passes):
        return (_best_us([p.update_ns for p in passes]).sum()
                + _best_us([p.query_ns for p in passes]).sum())

    overhead = best_total(traced) / best_total(plain) - 1
    values = _layer_metrics(tracer, setup, traced, overhead)
    for layer in PER_LAYER:
        result.put(layer.name, values[layer.name], layer.unit,
                   f"moves {layer.moves} on {layer.on}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path, written)
    result.notes.append(f"# {len(traced)} traced passes of {len(points)} arrivals; the "
                        f"{written} spans of set-up and the first are in "
                        f"{spans_path.relative_to(ROOT)}")
    return result


def run_workload(workload, seed, seconds, trace) -> Result:
    """One benchmark run; the generated inputs are removed afterwards."""
    workdir = OUT / f"inputs-{workload.name}-{seed}-{os.getpid()}"
    try:
        if trace:
            return run_traced(workload, seed, seconds, workdir)
        return run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(BY_NAME), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = (ROOT / "src" / "dynkcenter").resolve()
    if Path(dynkcenter.__file__).resolve().parent != src:
        sys.exit(f"error: dynkcenter imported from {dynkcenter.__file__}, not {src}")
    names = list(BY_NAME) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(BY_NAME[name], args.seed, args.seconds, args.trace)
        for line in result.lines():
            print(line)
        print(result.json(), flush=True)


if __name__ == "__main__":
    main()
