from __future__ import annotations

import dataclasses
import json

import pytest

import stq
from stq import planner
from stq.engine import validate_plan
from stq.feasibility import Verdict
from stq.model import AccessStructure, embed_access_structure, parse_task
from stq.planner import Plan, PlanningError, Unsupported, plan_task

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


def test_multiple_call_variant_redirects_to_assembly(task_of):
    task = dataclasses.replace(task_of("fig12"),
                               variant="multiple_call_multiple_return",
                               authorized=(("D1", "D2"),))
    with pytest.raises(Unsupported, match="state_assembly"):
        plan_task(task)


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


def test_four_diamond_summoning_is_refused():
    with pytest.raises(Unsupported, match="up to three diamonds"):
        plan_task(parse_task(CHAIN4))


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


def test_two_collections_carry_any_dimension(task_of):
    plan = plan_task(dataclasses.replace(task_of("fig1"), secret_dim=7))
    validate_plan(plan)


def test_transfer_plan_needs_a_qutrit(task_of):
    with pytest.raises(Unsupported):
        plan_task(dataclasses.replace(task_of("fig15"), secret_dim=2))


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
