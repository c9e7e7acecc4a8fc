"""Tests of the benchmark itself: seeded generators, the outcome gate and
the tracer.  Run with `PYTHONPATH=src python -m pytest perfbench`."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import stq
import run
import tracer
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["escape", "random"])
def test_generators_repeat_by_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


def test_rounds_keep_the_same_mix():
    for name in ("escape", "random"):
        kinds = {tuple(n for n, _ in rnd) for rnd in workloads.build(name, 3)}
        assert len(kinds) == 1


def test_expected_table_names_real_fixtures():
    assert set(workloads.FIXTURE_EXPECTED) <= set(stq.fixture_names())


def test_fixture_gate_flags_a_wrong_verdict():
    fig11 = stq.model.serialize_task(stq.fixture("fig11"))
    p = run.untraced_pass(stq, [[("fig7a", fig11)]], 0.0,
                          workloads.fixture_mismatch)
    assert p.mismatches[0] == ("fig7a: expected infeasible:I_A, "
                              "got infeasible:II")
    assert set(p.mismatches) == {p.mismatches[0]}


def test_escape_faces_counts_distinct_breakpoints():
    # one target point and one box sharing its u: u in {0, 2}, v in {0, 1, 3}
    target = stq.point(0, 0)
    box = stq.Diamond(stq.from_lightcone(0, 1), stq.from_lightcone(2, 3))
    nu, nv = 4, 5
    want = ((nu - 1) * (nv - 1) + nu * (nv - 1) + (nu - 1) * nv + nu * nv)
    assert tracer.escape_faces(target, [box]) == want


def _sample() -> list[list[tuple[str, str]]]:
    """A fast cross-section of all three workloads, as one round."""
    fixtures = [t for t in workloads.build("fixtures", 0)[0]
                if t[0] != "triangle"]
    return [fixtures + workloads.build("escape", 1)[0][:2]
            + workloads.build("random", 1)[0]]


def test_traced_run_matches_untraced_and_restores_stq():
    rounds = _sample()
    originals = (stq.simulate, stq.qsim.apply_unitary,
                 stq.engine.worldline_intersects_region,
                 stq.planner.check_task, stq.qsim.State.tensor)
    plain = run.untraced_pass(stq, rounds, 0.0)
    tr = tracer.Tracer(time.process_time)
    traced = run.traced_pass(stq, tr, rounds, plain.rounds)
    assert traced.digest == plain.digest
    assert traced.counts == plain.counts
    assert (stq.simulate, stq.qsim.apply_unitary,
            stq.engine.worldline_intersects_region,
            stq.planner.check_task, stq.qsim.State.tensor) == originals
    assert not tr.missing

    m = run.per_layer(tr, plain, traced)
    assert set(m) == {e["name"] for e in BENCHMARK["per_layer"]}
    # self times partition the task spans
    assert m["trace.coverage"][0] == pytest.approx(1.0, abs=0.05)
    assert m["geometry.escape_exists.calls"][0] > 0
    assert m["qsim.apply_unitary.ops_computed"][0] > 0
    assert m["engine.key_assignments_computed"][0] > 0


def test_random_workload_makes_no_escape_search():
    rounds = workloads.build("random", 5)[:1]
    tr = tracer.Tracer(time.process_time)
    run.traced_pass(stq, tr, rounds, 1)
    assert tr.per_name()["geometry.escape_exists"]["calls"] == 0


def test_end_to_end_names_match_benchmark_json():
    p = run.untraced_pass(stq, workloads.build("random", 2)[:4], 0.0)
    assert p.attempted >= run.MIN_SAMPLES
    m = run.end_to_end(p, [0.1, 0.2])
    assert set(m) == {e["name"] for e in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _, _ in m.values())
