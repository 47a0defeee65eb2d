"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and `metrics.py`/`workloads.py` agree, that a
tiny run of every workload prints every metric with its unit and passes
its checks, and that each check can fail: inactive centers, a radius over
the bound and a bad witness must each give failed operations.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from unittest import mock

import run  # puts the repository's src/ on sys.path
from dynkcenter.core import TimedPoint
from dynkcenter.oracle import Solution
from metrics import END_TO_END, PER_LAYER, TAIL
from workloads import STRUCTURES, WORKLOADS

# Small enough that every workload runs in about a second.
TINY = {"random-two-prescan": (200, 64), "sliding-six": (300, 60), "sliding-two-matrix": (150, 40)}


def tiny(workload):
    n, life = TINY[workload.name]
    warm = life if workload.warm else 0
    return dataclasses.replace(workload, n=n, arrivals=n, warm=warm, life=life, rungs=None)


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def check_prints_everything(workload, trace):
    result = run.run_workload(workload, seed=5, seconds=0.2, trace=trace)
    expected = PER_LAYER if trace else END_TO_END
    printed = list(result.lines())
    out = json.loads(result.json())
    assert out["correct"] and out["failed"] == 0, (workload.name, printed)
    assert out["attempted"] >= 2 * workload.n, out["attempted"]
    assert list(out["metrics"]) == [m.name for m in expected]
    for m in expected:
        assert out["metrics"][m.name]["unit"] == m.unit, m.name
    for m in expected + (() if trace else TAIL):
        assert any(line.split()[:1] == [m.name] and m.unit in line.split() for line in printed), (
            m.name, printed)
    assert any(line.startswith("failed_frac ") for line in printed)


def fixed_center(real_query):
    """Always point 0 at the smallest guess: not active once the window moves."""
    def query(self, t):
        real_query(self, t)  # witness() needs a real query before it
        return Solution([TimedPoint(0, 0, 1, 2)], None, guess_used=self.states[0].gamma)
    return query


def one_rung_low(real_query):
    """The true centers, but claimed at the rung below the guess they were
    found at: some of their radii break the bound there, and a bound any
    looser than (1+beta) times the true one would let them all pass."""
    def query(self, t):
        sol = real_query(self, t)
        i = [st.gamma for st in self.states].index(sol.guess_used)
        return Solution(sol.centers, None, guess_used=self.states[max(i - 1, 0)].gamma)
    return query


def duplicated_witness(real_witness):
    def witness(self):
        w = real_witness(self)
        return None if w is None else w[:-1] + w[:1]
    return witness


def witness_two_rungs_below(real_witness):
    """The witness of the rung below the one a witness must come from: its
    points need only be 2*gamma'' apart, gamma'' < gamma'."""
    def witness(self):
        self._last_query_index -= 1
        try:
            return real_witness(self)
        finally:
            self._last_query_index += 1
    return witness


def expect_failures(workload, cls, name, stub, problem):
    """Run `workload` with `cls.name` replaced by `stub`; the checks must
    report failures whose message names `problem`."""
    with mock.patch.object(cls, name, stub):
        result = run.run_workload(workload, seed=5, seconds=0.2, trace=0)
    assert result.failed > 0 and not result.correct, (workload.name, problem)
    assert json.loads(result.json())["failed"] == result.failed
    assert any(problem in p for p in result.problems), (
        workload.name, problem, result.problems[:3])


def check_checks_can_fail(workload):
    cls = STRUCTURES[workload.algorithm]
    expect_failures(workload, cls, "query", fixed_center(cls.query), "not <= k active points")
    expect_failures(workload, cls, "query", one_rung_low(cls.query), " * gamma ")
    if workload.algorithm == "two":
        for corrupt in (duplicated_witness, witness_two_rungs_below):
            expect_failures(workload, cls, "witness", corrupt(cls.witness), "bad witness")


def main():
    check_benchmark_json()
    for workload in map(tiny, WORKLOADS):
        for trace in (0, 1):
            check_prints_everything(workload, trace)
        check_checks_can_fail(workload)
        print(f"ok {workload.name}")
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
