"""The replay runner's one algorithm table and its shared replay loop."""

import dataclasses

import pytest

from dynkcenter import (
    SixApproxClustering,
    adversarial_quadratic_stream,
    random_lifetime_stream,
    runner,
    sliding_window_stream,
)
from dynkcenter.errors import InvalidParameter, InvariantViolation
from dynkcenter.streamgen import uniform_coords

CONFIG = runner.RunConfig(algorithm="two", k=2, epsilon=1.0, d_min=0.05, d_max=2.0)


def config(**changes):
    return dataclasses.replace(CONFIG, **changes)


@pytest.mark.parametrize("changes", [
    {"algorithm": "three"},
    {"algorithm": "six", "reclustering_enabled": False},
    {"algorithm": "six", "single_gamma": 1.0},
], ids=["unknown-algorithm", "six-without-reclustering", "six-single-guess"])
def test_make_clustering_rejects(changes):
    gen = random_lifetime_stream(5, 2, 4, seed=0)
    with pytest.raises(InvalidParameter):
        runner.make_clustering(config(**changes), gen.metric)


def test_single_gamma_builds_one_rung():
    gen = random_lifetime_stream(5, 2, 4, seed=0)
    c = runner.make_clustering(
        config(single_gamma=0.7, reclustering_enabled=False), gen.metric
    )
    assert c.ladder.guesses == (0.7,) and not c.reclustering_enabled


@pytest.mark.parametrize("algorithm", list(runner.ALGORITHMS))
def test_bench_replays_without_queries(algorithm):
    gen = random_lifetime_stream(60, 2, 8, seed=3)
    cls, _ = runner.ALGORITHMS[algorithm]
    metric = gen.metric.clone()
    c = cls(2, 1.0, 0.05, 2.0, metric)
    for p in gen.stream.points:
        c.update(p)
    [row] = runner.bench(lambda n: gen, config(algorithm=algorithm), [60])
    assert (row["structural_ops"], row["distance_evals"], row["peak_stored"]) == (
        c.ops, metric.evals, c.peak_stored
    )


def test_end_query_reads_the_final_state():
    gen = random_lifetime_stream(40, 2, 8, seed=4)
    end = runner.run(config(queries="end"), gen.stream, gen.metric.clone())
    every = runner.run(config(queries="every"), gen.stream, gen.metric.clone())
    assert len(end.rows) == 1
    assert end.rows[0]["time"] == every.rows[-1]["time"]
    assert end.rows[0]["radius"] == every.rows[-1]["radius"]
    assert end.rows[0]["gamma"] == every.rows[-1]["gamma"]


ADVERSARIAL = {"d_min": 1.0, "d_max": 1.0, "single_gamma": 1.0}


@pytest.mark.parametrize("make, n, changes, expected", [
    (lambda n: adversarial_quadratic_stream(n, 1.0), 200, ADVERSARIAL, (3174, 639, 402)),
    (lambda n: adversarial_quadratic_stream(n, 1.0), 200,
     {**ADVERSARIAL, "reclustering_enabled": False}, (81197, 40000, 402)),
    (lambda n: random_lifetime_stream(n, 2, 64, 0), 1000, {"k": 3}, (130027, 33269, 480)),
], ids=["adversarial", "adversarial-no-reclustering", "random"])
def test_two_approx_counters_are_pinned(make, n, changes, expected):
    """Exact ops, evals and peak of the (2+eps) structure: a refactor that
    moves a counter increment or places a point differently shows here."""
    [row] = runner.bench(make, config(**changes), [n])
    assert (row["structural_ops"], row["distance_evals"], row["peak_stored"]) == expected


def test_verify_stops_at_the_oracle_cap():
    """The cap is checked against the most points ever active at once."""
    gen = random_lifetime_stream(30, 2, 8, seed=2)
    pts = gen.stream.points
    peak = max(sum(q.t_arr <= p.t_arr < q.t_del for q in pts) for p in pts)
    runner.run(config(verify=True, oracle_cap=peak), gen.stream, gen.metric.clone())
    with pytest.raises(InvariantViolation) as e:
        runner.run(config(verify=True, oracle_cap=peak - 1), gen.stream, gen.metric.clone())
    assert e.value.invariant == "oracle-cap"


def test_verify_checks_the_six_space_bound(monkeypatch):
    """Without eviction a guess of the (6+eps) structure outgrows 3k+3+H
    points on a 0-ordered stream, and verify says so."""
    coords, _ = uniform_coords(40, 2, seed=1)
    gen = sliding_window_stream(coords, window=10)
    six = config(algorithm="six", verify=True, queries="every",
                 d_min=gen.stream.d_min, d_max=gen.stream.d_max)
    runner.run(six, gen.stream, gen.metric.clone())
    monkeypatch.setattr(SixApproxClustering, "_cleanup", lambda self, st: None)
    with pytest.raises(InvariantViolation) as e:
        runner.run(six, gen.stream, gen.metric.clone())
    assert e.value.invariant == "space-bound"


@pytest.mark.parametrize("make, expected", [
    (lambda: random_lifetime_stream(1000, 2, 64, 0), (282692, 64918, [
        10, 10, 10, 11, 13, 14, 14, 14, 16, 15, 15, 15, 14,
        13, 11, 9, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7])),
    (lambda: sliding_window_stream(uniform_coords(1000, 2, 0)[0], 50), (279278, 66274, [
        10, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,
        9, 9, 7, 6, 5, 3, 3, 3, 3, 3, 3, 3, 3])),
], ids=["random", "sliding"])
def test_six_approx_counters_are_pinned(make, expected):
    """Exact ops, evals and per-guess peak |A|+|R| of the (6+eps)
    structure, k=3, eps=1, over the same ladder as the (2+eps) pins."""
    gen = make()
    metric = gen.metric.clone()
    report = runner.run(config(algorithm="six", k=3, queries=()), gen.stream, metric)
    c = report.clustering
    assert (c.ops, metric.evals, c.peak_per_guess) == expected


def test_verify_checks_the_six_update_bound(monkeypatch):
    """A cleanup that walks every guess's storage instead of its own keeps
    the space bound but breaks the per-update op bound, and verify says so."""
    coords, _ = uniform_coords(40, 2, seed=1)
    gen = sliding_window_stream(coords, window=10)
    six = config(algorithm="six", verify=True, queries="every",
                 d_min=gen.stream.d_min, d_max=gen.stream.d_max)
    runner.run(six, gen.stream, gen.metric.clone())
    cleanup = SixApproxClustering._cleanup

    def cleanup_walking_every_guess(self, st):
        cleanup(self, st)
        self.ops += sum(sum(other.sizes()) for other in self.states)

    monkeypatch.setattr(SixApproxClustering, "_cleanup", cleanup_walking_every_guess)
    with pytest.raises(InvariantViolation) as e:
        runner.run(six, gen.stream, gen.metric.clone())
    assert e.value.invariant == "update-bound"
