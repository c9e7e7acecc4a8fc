from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stq
from oracles import b1_violations, brute_causal_leq
from stq import planner
from stq.engine import simulate, validate_plan
from stq.feasibility import Verdict, check_task
from stq.model import (AccessStructure, embed_access_structure, fixture,
                       parse_task, serialize_task)
from stq.planner import Plan, PlanningError, Unsupported, plan_task
from test_feasibility import random_corners, summoning_task

FEASIBLE = ["fig1", "fig10", "fig12", "fig13", "fig14", "fig15", "triangle"]
INFEASIBLE = ["fig7a", "fig7b", "fig7c", "fig7d", "fig11"]


@pytest.mark.parametrize("name", FEASIBLE)
def test_feasible_fixtures_plan_and_audit_clean(task_of, plan_of, name):
    plan = plan_of(name)
    assert isinstance(plan, Plan)
    assert plan.kind == task_of(name).kind
    assert plan.events
    assert all("op" in e for e in plan.events)
    validate_plan(plan)  # only raises


@pytest.mark.parametrize("name", INFEASIBLE)
def test_infeasible_fixtures_are_refused_with_the_verdict(task_of, name):
    with pytest.raises(PlanningError, match="checker rejected") as refusal:
        plan_task(task_of(name))
    assert not isinstance(refusal.value, Unsupported)


@pytest.mark.parametrize("name", FEASIBLE)
def test_planning_is_deterministic(task_of, name):
    a = plan_task(task_of(name)).to_json()
    b = plan_task(task_of(name)).to_json()
    assert a == b
    body = json.loads(a)
    assert set(body) == {"kind", "notes", "events"}


def test_plan_lines(plan_of):
    plan = plan_of("fig12")
    lines = plan.lines()
    assert lines[0] == f"plan for summoning task: {len(plan.events)} events"
    assert len(lines) == 1 + len(plan.notes)
    assert all(line.startswith("  ") for line in lines[1:])


def test_unsupported_is_exported_as_a_planning_error():
    assert stq.Unsupported is Unsupported
    assert issubclass(Unsupported, PlanningError)


def test_abstract_structure_must_be_embedded_first(task_of):
    with pytest.raises(Unsupported, match="embed"):
        plan_task(task_of("embed3"))
    base = task_of("embed3")
    s = AccessStructure(base.parties, base.authorized, base.unauthorized)
    plan = plan_task(embed_access_structure(s))
    validate_plan(plan)


MULTIPLE_CALL = """
task summoning:multiple_call_multiple_return
start (0.5, -1.5)
diamond D1 c=(0, -1) r=(1, -1)
diamond D2 c=(2, 0.2) r=(3, 0)
authorized D1 D2
"""


def test_multiple_call_variant_is_read_as_assembly():
    task = parse_task(MULTIPLE_CALL)
    assert (task.kind, task.variant) == ("state_assembly", None)
    assert serialize_task(task).startswith("task state_assembly\n")
    assert simulate(plan_task(task)).passed


def test_unrestricted_variant_is_check_only(task_of):
    task = dataclasses.replace(task_of("fig12"), variant="unrestricted")
    with pytest.raises(Unsupported, match="feasibility check"):
        plan_task(task)


CHAIN4 = """
task summoning:single_call_single_return
start (-5, 0)
diamond D0 c=(0, 0) r=(2, 0)
diamond D1 c=(10, 0) r=(12, 0)
diamond D2 c=(20, 0) r=(22, 0)
diamond D3 c=(30, 0) r=(32, 0)
"""


def test_four_diamond_relay_plans_and_passes():
    task = parse_task(CHAIN4)
    plan = plan_task(task)
    assert plan.notes == ["relay order D0 -> D1 -> D2 -> D3"]
    validate_plan(plan)
    assert simulate(plan).passed
    # the start sees the first call point, so the first hop is a move
    assert plan.events[1] == {"op": "move", "token": "psi",
                              "path": [task.start, task.diamonds["D0"].c]}


def test_relay_teleports_when_the_start_misses_the_first_call(plan_of):
    events = plan_of("fig12").events
    assert events[1]["op"] == "create_pair"
    assert [e["pair"] for e in events if e["op"] == "bell"] == [["psi", "F0"]]


# fig14's ring plus a late diamond whose return sees every call: peeling
# removes D3 and stalls on the ring, so no relay chain exists
RING_AND_LATE = serialize_task(fixture("fig14")) + \
    "diamond D3 c=(5, 0, 0) r=(9, 0, 0)\n"


def test_four_diamonds_without_a_chain_need_the_star_code():
    task = parse_task(RING_AND_LATE)
    assert check_task(task).feasible
    with pytest.raises(Unsupported, match="star code"):
        plan_task(task)


# three integer diamonds in 2+1 dimensions, each call seeing one other
# return around a cycle and no return seeing every call: a ring, so B1
# fails
RING = [((0, -3, -1), (12, 1, -6)), ((3, 4, -2), (9, 6, 1)),
        ((2, 0, 4), (5, -1, 3))]


def connected_corners(rng, ring):
    """random_corners, after RING if asked, thinned first come first kept
    to at most 12 pairwise causally connected diamonds."""
    kept = list(RING) if ring else []
    for c, r in random_corners(rng):
        if all(len(c) == len(c2) and (brute_causal_leq(c, r2)
                                      or brute_causal_leq(c2, r))
               for c2, r2 in kept):
            kept.append((c, r))
    return kept[:12]


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_single_call_plans_follow_the_peel(seed, ring):
    corners = connected_corners(random.Random(seed), ring)
    task = summoning_task(corners, "single_call_single_return")
    assert check_task(task).feasible
    reach = [{j for j, (c, _) in enumerate(corners) if brute_causal_leq(c, r)}
             for _, r in corners]
    chain = not b1_violations(reach)
    if not chain and len(corners) > 3:
        with pytest.raises(Unsupported, match="star code"):
            plan_task(task)
        return
    plan = plan_task(task)
    # a qutrit triple rides the ring when it has one; every other plan
    # is the relay, which exists exactly when B1 holds
    assert plan.notes[0].startswith("relay" if len(corners) != 3 else
                                    ("ring", "relay") if chain else "ring")
    assert simulate(plan).passed


def test_two_diamond_relay_is_dimension_agnostic(task_of):
    plan = plan_task(dataclasses.replace(task_of("fig12"), secret_dim=5))
    validate_plan(plan)


def test_ring_of_three_needs_a_qutrit(task_of):
    # the rotation trick is tied to the 2-of-3 code; with spacelike returns
    # no relay ordering exists either, so planning must give up
    with pytest.raises(Unsupported):
        plan_task(dataclasses.replace(task_of("fig14"), secret_dim=2))


def test_three_collections_need_a_qutrit(task_of):
    with pytest.raises(Unsupported, match="secret_dim"):
        plan_task(dataclasses.replace(task_of("triangle"), secret_dim=2))


# authorized D1 beside authorized D1+D3: both ends of the channel pick D1,
# and the ciphertext must still reach D1 whenever it is called
NESTED = """
task state_assembly
dim 2
secret_dim 3
start (-1, 0, 0)
diamond D1 c=(5, 1, 3) r=(10, 1, 3)
diamond D2 c=(1, -2, 1) r=(5, -2, 1)
diamond D3 c=(2, 3, 2) r=(5, 3, 2)
authorized D1 D3
authorized D1
unauthorized D2
"""


def test_nested_collections_receive_the_state():
    report = simulate(plan_task(parse_task(NESTED)))
    assert report.min_fidelity == pytest.approx(1.0)
    assert report.passed


def test_two_collections_carry_any_dimension(task_of):
    plan = plan_task(dataclasses.replace(task_of("fig1"), secret_dim=7))
    validate_plan(plan)


def test_transfer_plan_needs_a_qutrit(task_of):
    with pytest.raises(Unsupported):
        plan_task(dataclasses.replace(task_of("fig15"), secret_dim=2))


# Planar waypoints.  Beyond one spatial dimension the planner has no
# complete meeting point and tries fixed candidates in order; these pin
# which candidate wins, with the corners chosen so it can be read off.

def planar_assembly(d2_return_t, second_auth=False):
    """D1 alone is authorized (and D2 too when `second_auth`); D1 D2 is
    excluded unless D2 is authorized."""
    lines = ["task state_assembly", "dim 2", "secret_dim 3",
             "start (-10, 0, 0)",
             "diamond D1 c=(0, 0, 0) r=(8, 0, 0)",
             f"diamond D2 c=(0, 1, 1) r=({d2_return_t}, 1, 1)"
             if second_auth else
             f"diamond D2 c=(2, 1, 0) r=({d2_return_t}, 1, 0)",
             "authorized D1"]
    lines.append("authorized D2" if second_auth else "unauthorized D1 D2")
    return parse_task("\n".join(lines) + "\n")


def moves_of(plan, token):
    return [e for e in plan.events if e["op"] == "move" and e["token"] == token]


def check_passes(plan):
    validate_plan(plan)
    assert simulate(plan).passed


def test_planar_guard_waits_at_the_corner_barycenter():
    # D1's key part is released on "D1 called, D2 not": the waypoint must
    # see both calls.  Corners (0,0,0) (8,0,0) (2,1,0) (4,1,0) average to
    # (3.5, 0.5, 0), which sees both calls and precedes D1's return.  D2's
    # call point would also do; the barycenter is tried first.
    plan = plan_task(planar_assembly(4))
    wait, release = moves_of(plan, "k0.D1.0")
    assert wait["path"] == [stq.point(-10, 0, 0), stq.point(3.5, 0.5, 0)]
    assert release["path"][0] == stq.point(3.5, 0.5, 0)
    assert release["guard"] == {"called": ["D1"], "not_called": ["D2"]}
    check_passes(plan)


def test_planar_guard_falls_back_to_a_call_point():
    # D2 returns at t = 30, so the barycenter (10, 0.5, 0) is after D1's
    # return (8, 0, 0); D1's call misses D2's call, and D2's call point
    # (2, 1, 0) is the first candidate that works.
    plan = plan_task(planar_assembly(30))
    wait, release = moves_of(plan, "k0.D1.0")
    assert wait["path"] == [stq.point(-10, 0, 0), stq.point(2, 1, 0)]
    assert release["path"] == [stq.point(2, 1, 0), stq.point(8, 0, 0)]
    check_passes(plan)


def test_planar_decision_point_is_the_corner_barycenter():
    # Two collections share the ciphertext, held where both calls are
    # seen: the corners (0,0,0) (0,1,1) (8,0,0) (8,1,1) average to
    # (4, 0.5, 0.5), after both calls and before both returns.
    plan = plan_task(planar_assembly(8, second_auth=True))
    hold, to_d1, to_d2 = moves_of(plan, "psi")
    here = stq.point(4, 0.5, 0.5)
    assert hold["path"] == [stq.point(-10, 0, 0), here]
    assert to_d1["path"] == [here, stq.point(8, 0, 0)]
    assert to_d2["path"] == [here, stq.point(8, 1, 1)]
    assert to_d2["guard"] == {"called": ["D2"], "not_called": ["D1"]}
    check_passes(plan)


PLANAR = """
task localize_exclude
dim 2
start (0, 0, 0)
region A {
    diamond c=(4, 0, 0) r=(6, 0, 0)
}
authorized A
"""


def test_planar_localization_is_refused():
    with pytest.raises(Unsupported, match="one spatial dimension"):
        plan_task(parse_task(PLANAR))


def overlapping_collections(n):
    lines = ["task localize_exclude", "start (0, 0)"]
    for i in range(n):
        lines.append(f"region R{i} {{")
        lines.append(f"    box u=[{2 + i}, 20] v=[{2 + i}, 20]")
        lines.append("}")
        lines.append(f"authorized R{i}")
    return parse_task("\n".join(lines))


def test_four_collections_are_refused():
    assert plan_task(overlapping_collections(3))
    with pytest.raises(Unsupported, match="up to three"):
        plan_task(overlapping_collections(4))


# two diamonds that never see each other: condition II fails with both
# self-links
SPACELIKE_SUMMONING = """
task summoning:single_call_single_return
dim 1
secret_dim 3
start (-5, 0)
diamond D1 c=(0, -2) r=(2, -2)
diamond D2 c=(0, 2) r=(2, 2)
"""


@pytest.mark.parametrize("name", ["fig7a", "fig7c", "spacelike-summoning"])
def test_a_checker_that_vouches_wrongly_is_an_internal_error(
        monkeypatch, task_of, name):
    # the planner's own guards on conditions I_A and II raise, under
    # python -O too, where an assert would be gone and a TypeError follow
    task = (parse_task(SPACELIKE_SUMMONING) if name == "spacelike-summoning"
            else task_of(name))
    monkeypatch.setattr(planner, "check_task",
                        lambda task: Verdict(True, ()))
    with pytest.raises(RuntimeError, match="internal error"):
        plan_task(task)


def test_moves_follow_listed_paths(plan_of):
    plan = plan_of("fig10")
    moves = [e for e in plan.events if e["op"] == "move"]
    assert moves
    for e in moves:
        assert len(e["path"]) >= 2
