"""Feasibility conditions for spacetime distribution tasks.

Four geometric conditions cover every task family here:

  I_A   each authorized target lies at least partly in the start's future;
  I_B   for each excluded set, something launched at the start can run to
        future infinity without ever touching that set;
  II    every two authorized targets are causally connected somewhere, so
        no-cloning cannot be violated by serving both independently;
  III   exclusion is compatible with delivery: either an escape route
        through the authorized target dodges the excluded set, or (for
        call-based tasks) the authorized collection keeps a diamond whose
        release decision can see a distinguishing call.

Summoning without call restrictions needs the stronger B1: in every
subset of diamonds some member's return sees every call in the subset.
B1 holds exactly when the diamonds can be peeled one at a time, each
peeled member's return seeing every call still left, so it is decided by
peeling rather than by walking all 2^n subsets.  When peeling stalls, the
diamonds left form a violating subset, and that one set is the B1 witness;
other violating subsets are not listed.

A verdict lists every violated condition with the sets that witness it,
in a fixed order, so infeasibility is always explained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .geometry import Diamond, causal_leq, connected, escape_exists
from .model import AccessStructure, TaskError, TaskSpec

_CONDITION_RANK = {"I_A": 0, "I_B": 1, "II": 2, "III": 3, "B1": 4}


@dataclass(frozen=True)
class Violation:
    condition: str
    subject: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.condition} [{', '.join(self.subject)}]: {self.detail}"


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    violations: tuple[Violation, ...]

    def lines(self) -> list[str]:
        if self.feasible:
            return ["feasible"]
        return ["infeasible"] + [f"  {v}" for v in self.violations]


def _verdict(violations: Iterable[Violation]) -> Verdict:
    ordered = tuple(sorted(
        violations,
        key=lambda v: (_CONDITION_RANK[v.condition], v.subject)))
    return Verdict(not ordered, ordered)


def check_task(task: TaskSpec) -> Verdict:
    """Decide feasibility of a validated task and explain any failure."""
    task.validate()
    if task.kind == "localize_exclude":
        return _check_localize_exclude(task)
    if task.kind == "state_assembly":
        return _check_assembly(task)
    if task.kind == "summoning":
        return _check_summoning(task)
    if task.kind == "pit":
        # validate() already enforced the pair topology, which is the whole
        # feasibility story for transfer tasks.
        return Verdict(True, ())
    return check_access_structure(task.access_structure())


# --------------------------------------------------------------------
# I_A and II, shared by every geometric family
# --------------------------------------------------------------------

# Per task kind: the detail of an I_A and of a II violation.
_REACH_DETAIL = {
    "localize_exclude": (
        "no diamond of the region lies in the start's causal future",
        "the two regions are everywhere spacelike separated"),
    "state_assembly": (
        "no diamond of the collection can receive anything from the start",
        "no diamond of either collection can signal any diamond of the "
        "other"),
    "summoning": (
        "the return point cannot receive anything from the start",
        "neither diamond's call can reach the other's return"),
}


def _reach_violations(task: TaskSpec,
                      auth: Sequence[tuple[str, tuple[Diamond, ...]]],
                      pairwise: bool = True) -> list[Violation]:
    """I_A for each authorized collection, then (if `pairwise`) II for
    each two of them.  `auth` holds `TaskSpec.collection` values."""
    assert task.start is not None
    start = task.start
    ia, ii = _REACH_DETAIL[task.kind]
    out = []
    for label, ds in auth:
        for d in ds:
            if causal_leq(start, d.r):
                break
        else:
            out.append(Violation("I_A", (label,), ia))
    if pairwise:
        for (la, da), (lb, db) in itertools.combinations(auth, 2):
            if not _linked(da, db):
                out.append(Violation("II", (la, lb), ii))
    return out


def _linked(da: Sequence[Diamond], db: Sequence[Diamond]) -> bool:
    """Is some diamond of `da` causally connected to some diamond of `db`?"""
    for a in da:
        for b in db:
            if connected(a, b):
                return True
    return False


# --------------------------------------------------------------------
# localize-exclude
# --------------------------------------------------------------------


def _check_localize_exclude(task: TaskSpec) -> Verdict:
    assert task.start is not None
    if task.dim != 1 and task.unauthorized:
        raise TaskError(
            "escape conditions are only decided exactly in one spatial "
            "dimension; higher-dimensional exclusion tasks are not supported")
    auth = [task.collection(s) for s in task.authorized]
    excl = [task.collection(s) for s in task.unauthorized]
    out = _reach_violations(task, auth)

    for lu, du in excl:
        if not escape_exists(task.start, du):
            out.append(Violation(
                "I_B", (lu,),
                "every causal curve from the start eventually enters the "
                "excluded set"))

    for la, da in auth:
        for lu, du in excl:
            if not escape_exists(da, du):
                out.append(Violation(
                    "III", (la, lu),
                    "every causal curve through the authorized region is "
                    "trapped by the excluded set"))

    return _verdict(out)


# --------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------


def _check_assembly(task: TaskSpec) -> Verdict:
    out = _reach_violations(task,
                            [task.collection(s) for s in task.authorized])
    for sa in task.authorized:
        for su in task.unauthorized:
            if not _exclusion_separable(task, sa, su):
                out.append(Violation(
                    "III", (task.set_label(sa), task.set_label(su)),
                    "the collection sits inside the excluded one and no "
                    "member's return sees a distinguishing call"))
    return _verdict(out)


def _exclusion_separable(task: TaskSpec, auth: Sequence[str],
                         excl: Sequence[str]) -> bool:
    """Can releases at `auth` be conditioned so `excl` alone learns nothing?

    Trivially yes when the authorized collection has a diamond outside the
    excluded one.  Otherwise some authorized diamond's return must see a
    call point that belongs only to the excluded collection, so the release
    can be withheld when that extra call fires.
    """
    extra = [n for n in auth if n not in excl]
    if extra:
        return True
    only_excl = [n for n in excl if n not in auth]
    for na in auth:
        r = task.diamonds[na].r
        for ne in only_excl:
            if causal_leq(task.diamonds[ne].c, r):
                return True
    return False


# --------------------------------------------------------------------
# summoning
# --------------------------------------------------------------------


def _check_summoning(task: TaskSpec) -> Verdict:
    """Each diamond D is its own collection, the one `task.collection`
    gives the set (D,).  Single-call summoning adds II; unrestricted
    summoning adds B1 instead, which implies it."""
    single = task.variant == "single_call_single_return"
    out = _reach_violations(
        task, [(nm, (d,)) for nm, d in task.diamonds.items()],
        pairwise=single)
    if not single:
        stuck = b1_peel(task)[1]
        if stuck:
            out.append(Violation(
                "B1", stuck,
                "no member's return sees every call in this subset"))
    return _verdict(out)


def b1_peel(task: TaskSpec) -> tuple[list[str], tuple[str, ...]]:
    """Peel a summoning task's diamonds: remove, lowest name index first,
    a member whose return sees every call still left.

    A member that sees a set sees each of its subsets, so which member goes
    first does not change what is left when peeling stalls.  Returns the
    peel order and those stalled members: none exactly when B1 holds,
    else the B1 witness.  Read backwards, a full peel order is a relay
    chain, each call seeing the return of every later station.
    """
    names = list(task.diamonds)
    # reach[i] = bitmask of diamonds whose call the i-th return can see.
    reach = []
    for nm in names:
        r = task.diamonds[nm].r
        mask = 0
        for j, other in enumerate(names):
            if causal_leq(task.diamonds[other].c, r):
                mask |= 1 << j
        reach.append(mask)
    order: list[str] = []
    left = (1 << len(names)) - 1
    while left:
        peel = next((i for i in range(len(names))
                     if left >> i & 1 and left & ~reach[i] == 0), None)
        if peel is None:
            break
        order.append(names[peel])
        left &= ~(1 << peel)
    return order, tuple(nm for i, nm in enumerate(names) if left >> i & 1)


# --------------------------------------------------------------------
# abstract access structures
# --------------------------------------------------------------------


def check_access_structure(structure: AccessStructure) -> Verdict:
    """Feasibility of an abstract structure, before any embedding.

    Mirrors the geometric conditions: two authorized sets must share a
    party (II), and no authorized set may be contained in an unauthorized
    one (III).  Reachability conditions are vacuous abstractly, since the
    embedding is free to place the start early.
    """
    out: list[Violation] = []
    auth = [(TaskSpec.set_label(s), frozenset(s)) for s in structure.authorized]
    excl = [(TaskSpec.set_label(s), frozenset(s)) for s in structure.unauthorized]
    for (la, sa), (lb, sb) in itertools.combinations(auth, 2):
        if not sa & sb:
            out.append(Violation(
                "II", (la, lb),
                "disjoint authorized sets would have to clone the state"))
    for la, sa in auth:
        for lu, su in excl:
            if sa <= su:
                out.append(Violation(
                    "III", (la, lu),
                    "an unauthorized coalition contains a full authorized set"))
    return _verdict(out)
