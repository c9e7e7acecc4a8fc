from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import b1_violations, brute_causal_leq
from stq.feasibility import Verdict, check_task
from stq.model import (TaskError, TaskSpec, embed_access_structure, fixture,
                       parse_task)

# verdicts the rest of the suite leans on; each pair is (fixture, feasible)
GOLDEN = [
    ("embed3", True),
    ("fig1", True),
    ("fig10", True),
    ("fig11", False),
    ("fig12", True),
    ("fig13", True),
    ("fig14", True),
    ("fig15", True),
    ("fig7a", False),
    ("fig7b", False),
    ("fig7c", False),
    ("fig7d", False),
    ("triangle", True),
]


@pytest.mark.parametrize("name,feasible", GOLDEN)
def test_fixture_verdicts(task_of, name, feasible):
    verdict = check_task(task_of(name))
    assert verdict.feasible is feasible
    assert bool(verdict.violations) is (not feasible)


@pytest.mark.parametrize("name,condition", [
    ("fig7a", "I_A"),
    ("fig7b", "I_B"),
    ("fig7c", "II"),
    ("fig7d", "III"),
    ("fig11", "II"),
])
def test_single_failure_fixtures_name_their_condition(task_of, name,
                                                      condition):
    verdict = check_task(task_of(name))
    assert [v.condition for v in verdict.violations] == [condition]


def test_three_diamond_ring_fails_only_under_unrestricted_calls(task_of):
    ring = task_of("fig14")
    assert check_task(ring).feasible

    flipped = dataclasses.replace(ring, variant="unrestricted")
    verdict = check_task(flipped)
    assert not verdict.feasible
    assert [(v.condition, v.subject) for v in verdict.violations] == [
        ("B1", ("D0", "D1", "D2"))]


def _coords(p):
    return ", ".join(str(v) for v in p)


def summoning_task(corners, variant="unrestricted"):
    """Summoning over diamonds D0, D1, ... with the given (call, return)
    coordinate tuples; the start sees every return."""
    dim = len(corners[0][0]) - 1
    lines = [f"task summoning:{variant}", f"dim {dim}",
             f"start ({_coords((-100,) + (0,) * dim)})"]
    lines += [f"diamond D{i} c=({_coords(c)}) r=({_coords(r)})"
              for i, (c, r) in enumerate(corners)]
    return parse_task("\n".join(lines) + "\n")


def random_corners(rng):
    dim, n = rng.randint(1, 2), rng.randint(1, 12)
    corners = []
    for _ in range(n):
        c = (rng.randint(0, 5), *(rng.randint(-4, 4) for _ in range(dim)))
        dur = rng.randint(0, 12)
        step = (dur, *(rng.randint(-(dur // 2), dur // 2)
                       for _ in range(dim)))
        corners.append((c, tuple(a + b for a, b in zip(c, step))))
    return corners


@given(st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_unrestricted_verdict_matches_the_subset_walk(seed):
    corners = random_corners(random.Random(seed))
    verdict = check_task(summoning_task(corners))
    reach = [{j for j, (c, _) in enumerate(corners) if brute_causal_leq(c, r)}
             for _, r in corners]
    walk = b1_violations(reach)
    assert verdict.feasible is (not walk)
    # peeling reports the one set where it stalls, and that set violates B1
    assert [v.condition for v in verdict.violations] == ["B1"] * bool(walk)
    for v in verdict.violations:
        assert tuple(int(nm[1:]) for nm in v.subject) in walk


def test_sixty_diamond_unrestricted_task_gets_a_verdict():
    # 58 late diamonds whose returns see every call peel off first and
    # leave the two early ones; 2^60 subsets are far past any walk
    late = [((100 + i, 0), (400, 0)) for i in range(58)]
    apart = [((0, -50), (1, -50)), ((0, 50), (1, 50))]
    verdict = check_task(summoning_task(late + apart))
    assert [(v.condition, v.subject) for v in verdict.violations] == [
        ("B1", ("D58", "D59"))]
    close = [((0, -50), (1, -50)), ((0, -49), (2, -49))]
    assert check_task(summoning_task(late + close)).feasible


def test_verdict_lines():
    assert check_task(fixture("fig1")).lines() == ["feasible"]
    lines = check_task(fixture("fig11")).lines()
    assert lines[0] == "infeasible"
    assert len(lines) == 2
    assert lines[1].startswith("  II [")


def test_violations_sort_by_condition_rank_then_subject():
    task = fixture("fig7a")
    # push the start so far up that exclusion breaks too; both condition
    # kinds must then appear, reachability first
    spoiled = dataclasses.replace(
        task, unauthorized=task.authorized + task.unauthorized)
    verdict = check_task(spoiled)
    conds = [v.condition for v in verdict.violations]
    assert conds == sorted(conds, key=["I_A", "I_B", "II", "III",
                                       "B1"].index)


PLANAR = """
task localize_exclude
dim 2
start (0, 0, 0)
region A {
    diamond c=(4, 0, 0) r=(6, 0, 0)
}
region U {
    diamond c=(5, 2, 0) r=(7, 2, 0)
}
authorized A
"""


def test_higher_dimensional_exclusion_is_refused():
    assert check_task(parse_task(PLANAR)).feasible
    with pytest.raises(TaskError, match="one spatial dimension"):
        check_task(parse_task(PLANAR + "unauthorized U\n"))


# ---------------------------------------------------------- structures


def struct(parties, auth, unauth=()):
    return TaskSpec(kind="access_structure", parties=tuple(parties),
                    authorized=tuple(tuple(s) for s in auth),
                    unauthorized=tuple(tuple(s) for s in unauth))


def test_structure_hand_verdicts():
    assert check_task(struct("AB", [("A", "B")], [("A",)])).feasible
    assert check_task(
        struct("ABC", [("A", "B"), ("B", "C")], [("A", "C")])).feasible

    disjoint = check_task(struct("AB", [("A",), ("B",)]))
    assert not disjoint.feasible
    assert disjoint.violations[0].condition == "II"

    swallowed = check_task(struct("ABC", [("A", "B")], [("A", "B", "C")]))
    assert not swallowed.feasible
    assert swallowed.violations[0].condition == "III"
    assert swallowed.violations[0].subject == ("A+B", "A+B+C")


def test_structure_verdict_matches_fixture(task_of):
    base = task_of("embed3")
    s = struct(base.parties, base.authorized, base.unauthorized)
    assert s == base
    assert check_task(s) == check_task(base)


PARTIES = "ABCDE"


def subsets(parties):
    names = list(parties)
    pool = [tuple(c) for r in range(1, len(names) + 1)
            for c in itertools.combinations(names, r)]
    return st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                    unique=True).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(PARTIES[:n]),
                        subsets(PARTIES[:n]),
                        subsets(PARTIES[:n]))))
def test_structure_agrees_with_its_embedding(data):
    parties, auth, unauth = data
    # an authorized set may not reappear verbatim among the unauthorized
    unauth = tuple(s for s in unauth if s not in auth)[:8]
    s = struct(parties, auth, unauth)
    abstract = check_task(s)
    embedded = check_task(embed_access_structure(s))
    assert abstract.feasible == embedded.feasible
    assert ([(v.condition, v.subject) for v in abstract.violations]
            == [(v.condition, v.subject) for v in embedded.violations])


def test_verdict_is_hashable_value_object():
    a = check_task(fixture("fig11"))
    b = check_task(fixture("fig11"))
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, Verdict)
