"""Sameness across commits: per-update digests of replays of both
structures, a seeded grid and a list of named cases, and per-row digests
of `runner.run` reports, checked against `replay_digests.json`.

Each digest hashes what an update leaves observable: every rung's state,
`ops`, `evals`, `stored_points()`, the peaks and, where the update is
followed by a query, the answer's rung index, center ids, witness ids and
its radius over the active set as the report writes it (`runner._fmt`).
A report's digest hashes each row's CSV text, as `dynkcenter run --report`
writes it. Raw distances are never hashed, so the file does not depend on
how a platform rounds the last bit of a float that no test can observe.

A change that alters results on purpose regenerates the file and says
which replays changed and why:

    PYTHONPATH=src python tests/test_replay_digests.py          # regenerate
    PYTHONPATH=src python tests/test_replay_digests.py --check  # compare
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

from dynkcenter import (
    RunConfig,
    SixApproxClustering,
    TwoApproxClustering,
    adversarial_quadratic_stream,
    h_bounded_stream,
    random_lifetime_stream,
    run,
    sliding_window_stream,
    validate_stream,
)
from dynkcenter.errors import NoFeasibleGuess
from dynkcenter.oracle import radius
from dynkcenter.runner import CSV_COLUMNS, _fmt
from dynkcenter.streamgen import uniform_coords
from conftest import on_a_matrix
from test_two_approx import rung_state

DIGESTS = pathlib.Path(__file__).with_name("replay_digests.json")
N_CASES = 150


def case(seed):
    """The replay a seed names: its structure, stream, k, epsilon and
    whether (2+eps) reclusters; together the seeds cover every combination
    of structure and stream kind, and k = 1..4 with each epsilon."""
    algo = "six" if seed % 3 == 2 else "two"
    kind = ("random", "sliding", "hbounded")[seed // 3 % 3]
    k = 1 + seed % 4
    epsilon = (0.5, 1.0, 2.0)[seed // 9 % 3]
    reclustering = algo == "two" and seed // 27 % 2 == 0
    n = 12 + seed * 7 % 29
    dim = 1 + seed % 2
    name = f"{seed}-{algo}-{kind}-n{n}-k{k}-e{epsilon}" + ("-rc" if reclustering else "")
    return name, algo, kind, n, dim, k, epsilon, reclustering


def _stream(kind, n, dim, seed):
    if kind == "random":
        return random_lifetime_stream(n, dim, 2 + seed % 11, seed)
    if kind == "sliding":
        return sliding_window_stream(uniform_coords(n, dim, seed)[0], 2 + seed % 9)
    return h_bounded_stream(n, seed % 6, dim, seed)


def _two_state(c):
    return [rung_state(st) for st in c.states]


def _six_state(c):
    """Per rung, the attractor, representative and orphan ids."""
    return [
        ([(a.point.id, a.rep.id) for a in st.attractors], sorted(st.orphans))
        for st in c.states
    ] + [c.peak_per_guess]


def _build(algo, gen, k, epsilon, reclustering, single_gamma=None):
    s, metric = gen.stream, gen.metric.clone()
    if single_gamma is not None:
        return TwoApproxClustering.single_guess(k, single_gamma, metric, reclustering, epsilon)
    if algo == "two":
        return TwoApproxClustering(k, epsilon, s.d_min, s.d_max, metric, reclustering)
    return SixApproxClustering(k, epsilon, s.d_min, s.d_max, metric)


def replay(algo, gen, c, every):
    """One 12-hex-digit digest per update: of each row of `replay_rows`."""
    return [_digest(json.dumps(row, separators=(",", ":")))
            for row in replay_rows(algo, gen, c, every)]


def replay_rows(algo, gen, c, every):
    """What each update of structure c over gen's stream leaves observable,
    one row per update, made as the update is applied.

    Arrivals come in order; every third one is preceded by a clock-only
    update to its own time, which does the expiry on its own; a query
    follows every update whose index is a multiple of `every`. After the
    last arrival the clock moves on in steps of 3 until every point has
    expired.
    """
    s = gen.stream
    state = _two_state if algo == "two" else _six_state
    oracle_metric = gen.metric.clone()
    gammas = list(c.ladder)
    points = s.points
    end = max(p.t_del for p in points)
    events = []
    for i, p in enumerate(points):
        if i % 3 == 1:
            events.append((None, p.t_arr))
        events.append((p, p.t_arr))
    events += [(None, t) for t in range(points[-1].t_arr + 1, end + 1, 3)]

    arrived = []
    for i, (p, t) in enumerate(events):
        c.update(p, t)
        if p is not None:
            arrived.append(p)
        row = [c.ops, c.metric.evals, c.update_ops, c.stored_points(), c.peak_stored,
               state(c)]
        if i % every == 0:
            active = [x for x in arrived if t < x.t_del]
            try:
                sol = c.query(t)
            except NoFeasibleGuess:
                row.append("infeasible")
            else:
                rad = radius(oracle_metric, sol.centers, active) if active else 0.0
                row += [gammas.index(sol.guess_used), sol.center_ids, _fmt(rad),
                        c.ops]
                if algo == "two":
                    w = c.witness()
                    row.append(None if w is None else [x.id for x in w])
        yield row


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def replay_digest(seed):
    """The seeded case's name and its replay's digests; a query follows
    every update whose index is a multiple of 1 + seed % 3."""
    name, algo, kind, n, dim, k, epsilon, reclustering = case(seed)
    gen = _stream(kind, n, dim, seed)
    return name, replay(algo, gen, _build(algo, gen, k, epsilon, reclustering), 1 + seed % 3)


# Replays outside the seeded grid, as (algo, stream, n, gamma, k, epsilon,
# reclustering, one guess): the adversarial stream over its distance table
# on both structures' full ladders, and the one-guess (2+eps) structure at
# gamma, as the adversarial benchmark runs it; last, (2+eps) at epsilon 0.25
# on sliding and random streams, 85 to 89 rungs whose groups split and
# merge. (6+eps) never reclusters, and gamma is unused on a full ladder
# over a sliding or random stream.
NAMED_CASES = [
    ("two", "adv", 12, 1.0, 2, 1.0, True, False),
    ("two", "adv", 16, 1.0, 1, 0.5, False, False),
    ("two", "adv", 10, 2.0, 3, 2.0, False, False),
    ("six", "adv", 12, 1.0, 2, 1.0, True, False),
    ("six", "adv", 16, 2.0, 1, 0.5, True, False),
    ("six", "adv", 10, 1.0, 3, 2.0, True, False),
    ("two", "adv", 20, 1.0, 2, 2.0, True, True),
    ("two", "adv", 20, 1.0, 2, 2.0, False, True),
    ("two", "adv", 14, 2.0, 1, 1.0, True, True),
    ("two", "random", 30, 0.3, 2, 2.0, True, True),
    ("two", "random", 31, 0.2, 3, 0.5, False, True),
    ("two", "sliding", 50, 1.0, 3, 0.25, True, False),
    ("two", "sliding", 60, 1.0, 3, 0.25, False, False),
    ("two", "random", 42, 1.0, 3, 0.25, True, False),
    ("two", "random", 50, 1.0, 3, 0.25, False, False),
]


def named_digest(spec):
    """A named case's name and its replay's digests. The stream's size n
    sets the query spacing, 1 + n % 3, and a random or sliding stream's
    seed, n, and dimension, 1 + n % 2; a sliding window holds 2 + n % 9
    points."""
    algo, kind, n, gamma, k, epsilon, reclustering, single = spec
    name = (f"{'single' if single else 'full'}-{algo}-{kind}-n{n}-g{gamma}-k{k}-e{epsilon}"
            + ("-rc" if reclustering and algo == "two" else ""))
    if kind == "adv":
        gen = adversarial_quadratic_stream(n, gamma)
    elif kind == "sliding":
        gen = sliding_window_stream(uniform_coords(n, 1 + n % 2, n)[0], 2 + n % 9)
    else:
        gen = random_lifetime_stream(n, 1 + n % 2, 9, n)
    c = _build(algo, gen, k, epsilon, reclustering, gamma if single else None)
    return name, replay(algo, gen, c, 1 + n % 3)


# Reports of `dynkcenter run` and `verify` with `--prescan --queries every`,
# as (command, algo, stream, n, k, epsilon): random and sliding Euclidean
# streams in the plane and the adversarial stream over its distance table
# at gamma 1. Under verify every row carries the enumerated optimum, so at
# most 16 points are active: a random stream's points live at most 12 steps
# and a sliding window holds 10.
REPORT_CASES = [
    ("run", "two", "random", 80, 3, 1.0),
    ("run", "six", "random", 80, 3, 1.0),
    ("run", "two", "sliding", 90, 3, 0.5),
    ("run", "six", "sliding", 90, 3, 0.5),
    ("run", "two", "adv", 20, 2, 1.0),
    ("run", "six", "adv", 20, 2, 1.0),
    ("verify", "two", "random", 40, 2, 1.0),
    ("verify", "six", "random", 40, 2, 1.0),
    ("verify", "two", "sliding", 45, 3, 1.0),
    ("verify", "six", "sliding", 45, 3, 1.0),
    ("verify", "two", "adv", 8, 2, 1.0),
    ("verify", "six", "adv", 8, 2, 1.0),
]


def report_digest(spec):
    """A report case's name and one digest per report row. The stream's
    size n is also a random or sliding stream's seed."""
    command, algo, kind, n, k, epsilon = spec
    name = f"report-{command}-{algo}-{kind}-n{n}-k{k}-e{epsilon}"
    if kind == "adv":
        gen = adversarial_quadratic_stream(n, 1.0)
    elif kind == "sliding":
        gen = sliding_window_stream(uniform_coords(n, 2, n)[0], 10)
    else:
        gen = random_lifetime_stream(n, 2, 12, n)
    metric = gen.metric.clone()
    stream = validate_stream(gen.stream.points, metric)  # the bounds --prescan measures
    config = RunConfig(algo, k, epsilon, stream.d_min, stream.d_max, queries="every",
                       verify=command == "verify")
    rows = run(config, stream, metric).rows
    return name, [_digest(",".join(_fmt(row[c]) for c in CSV_COLUMNS)) for row in rows]


def all_digests():
    """Every replay and report by name. The named cases and the reports
    come before the seeded grid, so that one added at the end of
    `NAMED_CASES` or `REPORT_CASES` only adds lines to the recorded file."""
    return dict([named_digest(spec) for spec in NAMED_CASES]
                + [report_digest(spec) for spec in REPORT_CASES]
                + [replay_digest(seed) for seed in range(N_CASES)])


def first_difference(recorded, current):
    """None when the two agree; else a line naming the first replay, and
    the first update in it, that differs."""
    for name in sorted(recorded.keys() | current.keys()):
        if name not in current:
            return f"replay {name} is recorded but no longer replayed"
        if name not in recorded:
            return f"replay {name} is replayed but not recorded"
    for name, old in recorded.items():
        new = current[name]
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b:
                return f"replay {name} differs first at update {i}"
        if len(old) != len(new):
            return f"replay {name} has {len(new)} updates, {len(old)} recorded"
    return None


def test_replays_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert first_difference(recorded, all_digests()) is None


def test_a_distance_table_replays_like_its_points():
    """One replay, two backends: each seeded replay runs again under a
    `MatrixMetric` of its stream's own distances, with index payloads,
    and every update leaves the same row: ops, evals, stored points, rung
    states and peaks, and the answer's rung, center ids, radius and
    witness. `EuclideanMetric.distance` and `block` round alike, so the
    rows are equal, not close."""
    for seed in range(N_CASES):
        name, algo, kind, n, dim, k, epsilon, reclustering = case(seed)
        gen = _stream(kind, n, dim, seed)
        points, table = on_a_matrix(gen)
        on_table = dataclasses.replace(
            gen, stream=dataclasses.replace(gen.stream, points=points), metric=table)
        every = 1 + seed % 3
        rows = zip(replay_rows(algo, gen, _build(algo, gen, k, epsilon, reclustering), every),
                   replay_rows(algo, on_table, _build(algo, on_table, k, epsilon, reclustering),
                               every),
                   strict=True)
        for i, (a, b) in enumerate(rows):  # compared at once: a row holds live peaks
            assert a == b, f"replay {name} differs first at update {i}"


def main(argv):
    current = all_digests()
    if argv == ["--check"]:
        diff = first_difference(json.loads(DIGESTS.read_text()), current)
        if diff is not None:
            print(f"{DIGESTS.name} is stale: {diff}", file=sys.stderr)
            return 1
        print(f"{DIGESTS.name}: all {len(current)} replays match")
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [--check]", file=sys.stderr)
        return 2
    lines = (f"{json.dumps(name)}: {json.dumps(d)}" for name, d in current.items())
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(current)} replays to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
