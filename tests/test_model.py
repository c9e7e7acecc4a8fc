from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stq.feasibility import check_task
from stq.geometry import Diamond, Region, point
from stq.model import (TaskError, TaskFormatError, TaskSpec,
                       embed_access_structure, fixture, fixture_names,
                       parse_task, serialize_task)

ALL_FIXTURES = ["embed3", "fig1", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "fig7a", "fig7b", "fig7c", "fig7d",
                "triangle"]


def test_fixture_names():
    assert fixture_names() == ALL_FIXTURES


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_round_trip(name):
    task = fixture(name)
    text = serialize_task(task)
    again = parse_task(text)
    assert serialize_task(again) == text
    assert again.kind == task.kind
    assert again.dim == task.dim
    assert sorted(again.regions) == sorted(task.regions)
    assert sorted(again.diamonds) == sorted(task.diamonds)
    assert again.authorized == task.authorized
    assert again.unauthorized == task.unauthorized


def test_parse_minimal_task():
    task = parse_task("""
    # a one-region toy
    task localize_exclude
    dim 1
    start (0, 0)
    region A {
        box u=[1, 3] v=[1, 3]
    }
    authorized A
    """)
    assert task.kind == "localize_exclude"
    assert task.start == point(0, 0)
    assert list(task.regions) == ["A"]
    assert task.authorized == (("A",),)


def test_region_box_sugar_equals_diamond_form():
    via_box = parse_task("""
    task localize_exclude
    start (0, 0)
    region A {
        box u=[1, 3] v=[5, 9]
    }
    authorized A
    """)
    d = via_box.regions["A"].diamonds[0]
    assert (d.c.u, d.r.u, d.c.v, d.r.v) == (1, 3, 5, 9)


def test_multi_name_line_is_one_set():
    task = parse_task("""
    task localize_exclude
    start (0, 0)
    region A {
        box u=[1, 2] v=[1, 2]
    }
    region B {
        box u=[4, 5] v=[4, 5]
    }
    authorized A B
    """)
    assert task.authorized == (("A", "B"),)
    label, union = task.collection(("A", "B"))
    assert label == "A+B"
    assert union == task.regions["A"].diamonds + task.regions["B"].diamonds


def test_assembly_name_set_is_its_named_diamonds():
    task = parse_task("""
    task state_assembly
    start (-1, 0)
    diamond D1 c=(0, 0) r=(2, 0)
    diamond D2 c=(1, 1) r=(3, 1)
    diamond D3 c=(0, 3) r=(1, 3)
    authorized D1 D2
    """)
    assert task.collection(("D1", "D2")) == (
        "D1+D2", (task.diamonds["D1"], task.diamonds["D2"]))


def test_set_label():
    assert TaskSpec.set_label(("D1", "D2")) == "D1+D2"


REGION_A = "region A {\n box u=[1,2] v=[1,2]\n}\n"
REGION_B = "region B {\n box u=[4,5] v=[4,5]\n}\n"


@pytest.mark.parametrize("text,fragment", [
    ("task nonsense\nstart (0,0)\n", "kind"),
    ("task summoning:weird\nstart (0,0)\ndiamond D c=(0,0) r=(1,0)\n",
     "variant"),
    ("task localize_exclude\nstart (0, 0)\n" + REGION_A, "authorized"),
    ("task localize_exclude\n" + REGION_A + "authorized A\n", "start"),
    ("task localize_exclude\nstart (0, 0)\n" + REGION_A +
     "authorized B\n", "unknown"),
    ("task state_assembly\nstart (0,0)\ndiamond D c=(0,0) r=(1,0)\n"
     "authorized D\nauthorized D\n", "duplicate"),
    ("task localize_exclude\nstart (0, 0)\n" + REGION_A +
     "authorized A\nauthorized A\n", "duplicate name set 'A'"),
    ("task localize_exclude\nstart (0, 0)\n" + REGION_A + REGION_B +
     "authorized A\nunauthorized B\nunauthorized B\n",
     "duplicate name set 'B'"),
    ("task state_assembly\nstart (-1, 0)\ndiamond D1 c=(0,0) r=(1,0)\n"
     "authorized D1 D1\n", "duplicate names in set 'D1+D1'"),
    ("task localize_exclude\nstart (0, 0)\n" + REGION_A +
     "authorized A A\n", "duplicate names in set 'A+A'"),
    ("task access_structure\nparty A\nparty B\nauthorized A A\n",
     "duplicate names in set 'A+A'"),
    ("task access_structure\nparty A\nparty B\n"
     "authorized A B\nauthorized A B\n", "duplicate name set 'A+B'"),
    ("task access_structure\nparty A\nauthorized A\n"
     "unauthorized B\n", "unknown party 'B'"),
])
def test_invalid_tasks_are_rejected(text, fragment):
    with pytest.raises(TaskError) as err:
        parse_task(text)
    assert fragment in str(err.value)


DIAMOND_LINE = ("task summoning:single_call_single_return\n"
                "start (-1, 0)\ndiamond D {}\n")


@pytest.mark.parametrize("body", [
    "c=(0, 0) r=(1, 0.5)", "r=(1, 0.5) c=(0, 0)", "c=(0, 0)r=(1, 0.5)",
    "c =(0, 0) r =(1, 0.5)", "  c=(0,0)   r=(1,0.5)  ",
], ids=["plain", "reversed", "no-gap", "space-before-equals", "padded"])
def test_diamond_bodies_parse_to_one_diamond(body):
    task = parse_task(DIAMOND_LINE.format(body))
    assert task.diamonds["D"] == Diamond(point(0, 0), point(1, 0.5))


@pytest.mark.parametrize("body", [
    "c= (0, 0) r=(1, 0)", "c=(0, 0)", "c=(0, 0) r=(1, 0", "c=(0, 0) x=(1, 0)",
    "c=(0, 0) r=(1, 0) junk", "",
], ids=["space-after-equals", "missing-r", "unterminated", "unknown-key",
        "trailing-text", "empty"])
def test_malformed_diamond_bodies_are_rejected(body):
    with pytest.raises(TaskFormatError) as err:
        parse_task(DIAMOND_LINE.format(body))
    assert err.value.line == 3


def test_repeated_diamond_key_is_rejected():
    with pytest.raises(TaskFormatError, match="diamond needs") as err:
        parse_task(DIAMOND_LINE.format("c=(0, 0) r=(1, 0) c=(0, 0)"))
    assert err.value.line == 3


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(TaskFormatError) as err:
        parse_task("task localize_exclude\nstart what\n")
    assert err.value.line == 2


NON_FINITE_SITES = {
    "start": "task state_assembly\nstart ({}, 0)\n"
             "diamond D c=(0, 0) r=(1, 0)\nauthorized D\n",
    "diamond corner": "task state_assembly\nstart (-1, 0)\n"
                      "diamond D c=(0, 0) r=(1, {})\nauthorized D\n",
    "box bound": "task localize_exclude\nstart (0, 0)\nregion A {{\n"
                 " box u=[1, 2] v=[1, {}]\n}}\nauthorized A\n",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("site", sorted(NON_FINITE_SITES))
def test_non_finite_numbers_are_rejected(site, value):
    text = NON_FINITE_SITES[site].format(value)
    with pytest.raises(TaskFormatError, match="not finite") as err:
        parse_task(text)
    lines = text.splitlines()
    assert value in lines[err.value.line - 1]


def test_non_causal_diamond_is_rejected():
    with pytest.raises(TaskError):
        parse_task("task summoning:single_call_single_return\n"
                   "start (0, 0)\ndiamond D c=(0, 0) r=(0, 5)\n")


def test_duplicate_names_are_rejected():
    with pytest.raises(TaskError):
        parse_task("task summoning:single_call_single_return\n"
                   "start (-1, 0)\n"
                   "diamond D c=(0, 0) r=(1, 0)\n"
                   "diamond D c=(2, 0) r=(3, 0)\n")


def test_dim_mismatch_is_rejected():
    with pytest.raises(TaskError):
        parse_task("task summoning:single_call_single_return\n"
                   "dim 2\nstart (-1, 0, 0)\n"
                   "diamond D c=(0, 0) r=(1, 0)\n")


def test_pit_task_shape_is_validated():
    # drop one diamond of a pair from the packaged transfer task
    task = fixture("fig15")
    with pytest.raises(TaskError, match="six diamonds"):
        dataclasses.replace(task, diamonds={
            k: v for k, v in task.diamonds.items() if k != "a2"})


@pytest.mark.parametrize("fields, fragment", [
    (dict(kind="state_assembly", diamonds={"D": Diamond(point(0, 0),
                                                        point(1, 0))}),
     "start"),
    (dict(kind="localize_exclude", start=point(0, 0)), "authorized"),
    (dict(kind="access_structure", parties=("A", "A"),
          authorized=(("A",),)), "duplicate party"),
    (dict(kind="access_structure", parties=("A",), authorized=(("B",),)),
     "unknown party"),
    (dict(kind="summoning", variant="sometimes", start=point(0, 0)),
     "variant"),
], ids=["no-start", "no-authorized", "twin-parties", "unknown-party",
        "bad-variant"])
def test_tasks_built_in_code_are_validated(fields, fragment):
    with pytest.raises(TaskError, match=fragment):
        TaskSpec(**fields)


def test_tasks_are_frozen():
    task = fixture("fig12")
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.secret_dim = 5
    with pytest.raises(TaskError, match="variant"):
        dataclasses.replace(task, variant="sometimes")


def test_a_checked_task_cannot_change_under_its_verdict():
    task = fixture("fig1")
    verdict = check_task(task)
    with pytest.raises(AttributeError):
        task.regions.clear()
    with pytest.raises(TypeError):
        task.diamonds["D"] = Diamond(point(0, 0), point(1, 0))
    assert sorted(task.regions) == ["A1", "A2", "U1"]
    assert check_task(task) is verdict and verdict.feasible

    # the task keeps its own copy of the mappings it was built from
    given = dict(task.regions)
    built = dataclasses.replace(task, regions=given)
    given.clear()
    assert built.regions == task.regions

    # every copy path rebuilds the task, so the copy is checked afresh
    for twin in (copy.copy(task), copy.deepcopy(task),
                 pickle.loads(pickle.dumps(task)), dataclasses.replace(task)):
        assert twin == task and twin is not task
        assert twin._verdict is None
        assert check_task(twin) == verdict


def test_pit_pairs_are_sorted():
    pairs = fixture("fig15").pit_pairs()
    assert [p[0] for p in pairs] == ["a", "b", "c"]


def test_variant_round_trips_in_kind_line():
    task = fixture("fig12")
    assert task.variant == "single_call_single_return"
    text = serialize_task(task)
    assert "summoning:single_call_single_return" in text


# ---------------------------------------------------------------- embedding


def struct(parties, auth, unauth):
    return TaskSpec(kind="access_structure", parties=tuple(parties),
                    authorized=tuple(tuple(s) for s in auth),
                    unauthorized=tuple(tuple(s) for s in unauth))


def test_embed_layout():
    s = struct("AB", [("A", "B")], [("A",)])
    task = embed_access_structure(s)
    assert task.kind == "localize_exclude"
    assert sorted(task.regions) == ["A", "B"]
    pa = task.regions["A"].diamonds[0]
    pb = task.regions["B"].diamonds[0]
    assert pa.c == pa.r  # point diamonds
    assert pa.c.t == pb.c.t == 0.0
    assert pa.c.x != pb.c.x
    assert task.start is not None and task.start.t < 0


def test_embed_fixture_parses_as_localize_exclude():
    task = embed_access_structure(fixture("embed3"))
    text = serialize_task(task)
    again = parse_task(text)
    assert again.authorized == task.authorized


def test_embed_takes_only_structures():
    with pytest.raises(TaskError, match="not an access structure"):
        embed_access_structure(fixture("fig1"))


# a tiny grammar fuzz: serialize triangles of random point diamonds and
# parse them back, exercising number formatting round trips
coords = st.integers(-40, 40).map(lambda k: k / 4.0)


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=4,
                unique=True))
def test_serialize_parse_summoning_round_trip(spots):
    diamonds = {}
    for i, (t, x) in enumerate(spots):
        diamonds[f"D{i}"] = Diamond(point(t, x), point(t + 2.0, x))
    task = TaskSpec(kind="summoning", variant="single_call_single_return",
                    dim=1, start=point(-200.0, 0.0), diamonds=diamonds)
    again = parse_task(serialize_task(task))
    assert sorted(again.diamonds) == sorted(diamonds)
    for name, d in diamonds.items():
        assert again.diamonds[name].c == d.c
        assert again.diamonds[name].r == d.r
