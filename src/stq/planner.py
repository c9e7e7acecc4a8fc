"""Protocol synthesis: turn a feasible task into an executable event schedule.

A plan is an ordered list of events over named tokens.  Quantum tokens are
qutrit slots (or qudit, per the task's secret dimension); classical tokens
are key digits, key-share digits, and measurement outcomes.  Event shapes:

    {"op": "source",      "label": L, "at": P}
    {"op": "encode",      "code": "edge23", "input": L, "outputs": [L...],
                          "at": P}
    {"op": "create_pair", "labels": [L, L], "at": P}
    {"op": "key",         "name": K, "at": P}
    {"op": "split",       "source": K, "parts": [L...], "at": P}
    {"op": "pad",         "token": L, "key": K, "at": P}
    {"op": "bell",        "pair": [L, L], "outcome": O, "at": P,
                          "guard": G?}
    {"op": "broadcast",   "value": O, "at": P}
    {"op": "move",        "token": L, "path": [P...], "guard": G?}

A guard is {"called": [name...], "not_called": [name...]}; it is evaluated
against the scenario's call pattern at the event's decision point (a move's
first waypoint), where every named call point must be causally visible.
Each split is an independent additive share of its source, so holding every
part of one split reveals the key and holding fewer reveals nothing.

Plans never draw randomness: key values, outcomes, and states are the
simulator's business.  Planning the same task twice gives identical plans.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .geometry import (Diamond, Point, causal_leq, earliest_point_after,
                       escape_exists, extract_escape_path, from_lightcone,
                       linked_pairs, reached, region_in_future, to_lightcone)
from .model import TaskSpec
from .feasibility import b1_peel, check_task, release_witnesses

Guard = dict
Event = dict


class PlanningError(RuntimeError):
    """The task cannot be planned.  Raised as is when the checker rejects
    the task; every other refusal is an `Unsupported`."""


class Unsupported(PlanningError):
    """A named limitation of the planner: it has no schedule for a task
    the checker did not reject."""


@dataclass
class Plan:
    kind: str
    task: TaskSpec
    events: list[Event]
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, Point):
                return [x.t, *x.x]
            if isinstance(x, dict):
                return {k: enc(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [enc(v) for v in x]
            return x
        body = {"kind": self.kind,
                "notes": self.notes,
                "events": [enc(e) for e in self.events]}
        return json.dumps(body, indent=2)

    def lines(self) -> list[str]:
        out = [f"plan for {self.kind} task: {len(self.events)} events"]
        out.extend(f"  {n}" for n in self.notes)
        return out


def plan_task(task: TaskSpec) -> Plan:
    """Synthesize a protocol for a feasible task; deterministic."""
    verdict = check_task(task)
    if not verdict.feasible:
        raise PlanningError("the checker rejected the task:\n" +
                            "\n".join(verdict.lines()[1:]))
    if task.kind == "localize_exclude":
        return _plan_localize_exclude(task)
    if task.kind == "state_assembly":
        return _plan_assembly(task)
    if task.kind == "summoning":
        if task.variant == "single_call_single_return":
            return _plan_single_call(task)
        raise Unsupported(
            "unrestricted summoning admits no finite event schedule here; "
            "the feasibility check is the supported surface")
    if task.kind == "pit":
        return _plan_pit(task)
    raise Unsupported(
        "abstract access structures are planned after embedding; "
        "run embed first")


# --------------------------------------------------------------------
# shared geometry helpers
# --------------------------------------------------------------------


def _meet(after: Sequence[Point], before: Sequence[Point],
          tries: Callable[[], Iterable[Point]]) -> Point | None:
    """A point seeing every point of `after` and preceding every point of
    `before`, or None.  In one spatial dimension the light-cone join of
    `after` is the only candidate, and it is complete: if it fails, no
    point works.  Higher dimensions try the candidates `tries()` lists."""
    if after[0].dim == 1:
        us, vs = zip(*map(to_lightcone, after))
        cands: Iterable[Point] = (from_lightcone(max(us), max(vs)),)
    else:
        cands = tries()
    for p in cands:
        if (all(causal_leq(q, p) for q in after)
                and all(causal_leq(p, q) for q in before)):
            return p
    return None


def _barycenter(pts: Sequence[Point]) -> Point:
    n = len(pts)
    return Point(sum(q.t for q in pts) / n,
                 tuple(sum(q.x[i] for q in pts) / n
                       for i in range(pts[0].dim)))


def _decision_point(da: Diamond, db: Diamond, start: Point) -> Point | None:
    """A point after the start that sees both call points and precedes
    both returns; in higher dimensions the corner barycenter is tried."""
    return _meet((da.c, db.c, start), (da.r, db.r),
                 lambda: (_barycenter((da.c, db.c, da.r, db.r)),))


def _guard_point(task: TaskSpec, start: Point, guard: Guard,
                 dest: Diamond) -> Point:
    """A waypoint that sees every call named in a guard, is reachable from
    the start, and still precedes the delivery return.  Higher dimensions
    try the corner barycenter of the named diamonds (when there are two or
    more), then their call points.
    """
    names = [*guard.get("called", ()), *guard.get("not_called", ())]
    ds = [task.diamonds[nm] for nm in names]

    def tries() -> list[Point]:
        corners = [q for dd in ds for q in (dd.c, dd.r)]
        return ([_barycenter(corners)] if len(ds) > 1 else []) + [
            dd.c for dd in ds]

    p = _meet([start, *(dd.c for dd in ds)], (dest.r,), tries)
    if p is None:
        raise Unsupported(
            "no waypoint sees the calls of " + ", ".join(names) +
            " before the release diamond's return")
    return p


def _hold(events: list[Event], token: str, start: Point, at: Point,
          branches: list[tuple[Diamond, Guard]]) -> None:
    """Move `token` from the start to the decision point `at`, then on to
    each branch's return when that branch's guard holds."""
    events.append({"op": "move", "token": token, "path": [start, at]})
    for dest, guard in branches:
        events.append({"op": "move", "token": token, "path": [at, dest.r],
                       "guard": guard})


def _base_point(anchors: Sequence[Point]) -> Point:
    """A point in the common causal past of all anchors."""
    first = anchors[0]
    if first.dim == 1:
        us, vs = zip(*(to_lightcone(a) for a in anchors))
        return from_lightcone(min(us) - 2.0, min(vs) - 2.0)
    x0 = first.x
    t0 = min(a.t - _dist(x0, a.x) for a in anchors) - 1.0
    return Point(t0, x0)


def _dist(xa: tuple, xb: tuple) -> float:
    return sum((p - q) ** 2 for p, q in zip(xa, xb)) ** 0.5


def _earliest_entry(ds: Sequence[Diamond], start: Point) -> Point:
    for d in ds:
        p = earliest_point_after(d, start)
        if p is not None:
            return p
    raise RuntimeError("internal error: no diamond of the region lies in "
                       "the start's future; condition I_A should have "
                       "caught this")


# How localize-exclude plans say the state travels, per number of
# authorized collections.
_CHANNEL_NOTES = (
    "single collection: the padded state travels directly",
    "two collections: one shared channel carries the state",
    "three collections: 2-of-3 qutrit shares, one per channel; each "
    "collection decodes from its two",
)


def _encode(events: list[Event], at: Point) -> list[str]:
    """Encode the source into three ((2,3)) shares at `at`."""
    shares = [f"sh{i}" for i in range(3)]
    events.append({"op": "encode", "code": "edge23", "input": "psi",
                   "outputs": shares, "at": at})
    return shares


def _channels(task: TaskSpec,
              events: list[Event]) -> list[tuple[str, tuple[int, ...]]]:
    """Source the state at the start and open one channel per edge.

    One or two authorized collections share a channel carrying the state
    itself.  Three get one ((2,3)) share per pair of collections, so each
    collection holds two shares.  Returns (token, indices of the
    authorized sets it serves) for every channel.
    """
    n = len(task.authorized)
    if n > 3:
        raise Unsupported(
            "pairwise channel coding is implemented for up to three "
            "authorized collections; use scheme_cost for the general scaling")
    if n == 3 and task.secret_dim != 3:
        raise Unsupported(
            "three collections ride the 2-of-3 qutrit code: secret_dim "
            "must be 3")
    events.append({"op": "source", "label": "psi", "at": task.start})
    if n < 3:
        return [("psi", tuple(range(n)))]
    return list(zip(_encode(events, task.start),
                    itertools.combinations(range(3), 2)))


# --------------------------------------------------------------------
# localize-exclude
# --------------------------------------------------------------------


def _plan_localize_exclude(task: TaskSpec) -> Plan:
    if task.dim != 1:
        raise Unsupported(
            "localize-exclude planning routes classical keys along exact "
            "light-cone escape paths and supports one spatial dimension")
    assert task.start is not None
    start = task.start
    auth = [task.collection(s) for s in task.authorized]
    excl = [task.collection(s) for s in task.unauthorized]
    m = len(excl)
    events: list[Event] = []
    edges = _channels(task, events)
    notes = [_CHANNEL_NOTES[len(auth) - 1]]

    # escape curves, computed up front so the key origin can precede them
    ib_curves: dict[str, list[Point]] = {}
    iii_curves: dict[tuple[str, str], list[Point]] = {}
    for lu, du in excl:
        ib_curves[lu] = extract_escape_path(start, du)
        for la, da in auth:
            iii_curves[la, lu] = extract_escape_path(da, du)

    base = _base_point([start, *(c[0] for c in ib_curves.values()),
                        *(c[0] for c in iii_curves.values())])

    for idx, (share, members) in enumerate(edges):
        targets = [auth[ai] for ai in members]
        key = f"k{idx}"
        events.append({"op": "key", "name": key, "at": base})
        # the encrypting copy rides the start's own escape curves; each
        # part passes through the start, where the pad consumes the
        # reassembled key
        _split_along(events, key, f"{key}.s", base,
                     [[base] + ib_curves[lu] for lu, _ in excl]
                     or [[base, start]])
        events.append({"op": "pad", "token": share, "key": key, "at": start})

        for la, ds in targets:
            _split_along(events, key, f"{key}.{la}.", base,
                         [[base] + iii_curves[la, lu] for lu, _ in excl]
                         or [[base, start, _earliest_entry(ds, start)]])
            notes.append(f"key {key}: copy for {la} in {max(m, 1)} "
                         "independently routed parts")

        _route_cipher(events, notes, share, idx, start, base, targets)

    return Plan("localize_exclude", task, events, notes)


def _split_along(events: list[Event], key: str, prefix: str, at: Point,
                 paths: list[list[Point]]) -> None:
    """Split `key` at `at` into parts `prefix`0, 1, ..., one per path, and
    move each part along its path."""
    parts = [f"{prefix}{l}" for l in range(len(paths))]
    events.append({"op": "split", "source": key, "parts": parts, "at": at})
    for part, path in zip(parts, paths):
        events.append({"op": "move", "token": part, "path": path})


def _route_cipher(events: list[Event], notes: list[str], share: str,
                  idx: int, start: Point, base: Point,
                  targets: list[tuple[str, tuple[Diamond, ...]]]) -> None:
    """Send one padded share through every target region, directly if a
    causal chain exists, else by teleporting onto a half-pair whose
    worldline threads a connected diamond of each region."""
    if len(targets) == 1:
        la, ds = targets[0]
        events.append({"op": "move", "token": share,
                       "path": [start, _earliest_entry(ds, start)]})
        notes.append(f"channel {idx}: ciphertext direct to {la}")
        return

    for (l1, ds1), (l2, ds2) in (targets, targets[::-1]):
        # enter a diamond of ds1 from the start, then one of ds2 from
        # there: the first such pair in diamond order
        hops = ((p, earliest_point_after(d2, p))
                for p in (earliest_point_after(d1, start) for d1 in ds1)
                if p is not None for d2 in ds2)
        chain = next((hop for hop in hops if hop[1] is not None), None)
        if chain:
            events.append({"op": "move", "token": share,
                           "path": [start, *chain]})
            notes.append(f"channel {idx}: ciphertext direct {l1} then {l2}")
            return

    # no direct chain: thread a pre-placed half-pair through a connected
    # diamond of each region and teleport the ciphertext onto it
    (la, ra), (lb, rb) = targets
    witness = next(linked_pairs(ra, rb), None)
    if witness is None:
        raise RuntimeError("internal error: the two regions are not "
                           "connected; condition II should have caught this")
    dfrom, dto = witness
    pair_base = _base_point([base, dfrom.c])
    ehalf, ghost = f"E{idx}", f"E{idx}~"
    events.append({"op": "create_pair", "labels": [ehalf, ghost],
                   "at": pair_base})
    events.append({"op": "move", "token": ehalf,
                   "path": [pair_base, start]})
    events.append({"op": "move", "token": ghost,
                   "path": [pair_base, dfrom.c, dto.r]})
    events.append({"op": "bell", "pair": [share, ehalf],
                   "outcome": f"o{idx}", "at": start})
    events.append({"op": "broadcast", "value": f"o{idx}", "at": start})
    notes.append(f"channel {idx}: no direct chain; ciphertext teleported "
                 f"onto a half-pair threading {la} and {lb}")


# --------------------------------------------------------------------
# state assembly
# --------------------------------------------------------------------


def _plan_assembly(task: TaskSpec) -> Plan:
    assert task.start is not None
    start = task.start
    events: list[Event] = []
    edges = _channels(task, events)
    notes: list[str] = []

    for idx, (share, members) in enumerate(edges):
        key = f"k{idx}"
        events.append({"op": "key", "name": key, "at": start})
        events.append({"op": "pad", "token": share, "key": key, "at": start})

        for ai in members:
            names = task.authorized[ai]
            la = task.set_label(names)
            rules = [_release_rule(task, names, unames)
                     for unames in task.unauthorized or [()]]
            parts = [f"{key}.{la}.{l}" for l in range(len(rules))]
            events.append({"op": "split", "source": key, "parts": parts,
                           "at": start})
            for part, (dname, guard) in zip(parts, rules):
                dest = task.diamonds[dname]
                _hold(events, part, start,
                      _guard_point(task, start, guard, dest), [(dest, guard)])
            notes.append(f"key {key}: copy for {la} released only at "
                         "called diamonds, one part per excluded collection")

        _route_assembly_cipher(task, events, notes, share, idx, start,
                               [task.authorized[ai] for ai in members])

    return Plan("state_assembly", task, events, notes)


def _release_rule(task: TaskSpec, auth_names: Sequence[str],
                  excl_names: Sequence[str]) -> tuple[str, Guard]:
    """Pick the diamond and call predicate releasing one key part: the
    first of condition III's witnesses (`release_witnesses`) whose return
    the start reaches.  The release fires when that member is called and
    none of the private calls it sees fired.
    """
    assert task.start is not None
    for nm, visible in release_witnesses(task, auth_names, excl_names):
        if region_in_future(task.diamonds[nm], task.start):
            guard: Guard = {"called": [nm]}
            if visible:
                guard["not_called"] = visible
            return nm, guard
    raise Unsupported(
        "no release diamond sees a call distinguishing "
        f"{'+'.join(auth_names)} from {'+'.join(excl_names)}")


def _route_assembly_cipher(task: TaskSpec, events: list[Event],
                           notes: list[str], share: str, idx: int,
                           start: Point,
                           targets: list[tuple[str, ...]]) -> None:
    if len(targets) == 1:
        # a key part's release diamond is a member the start reaches
        la, ds = task.collection(targets[0])
        d = next(reached(start, ds), None)
        if d is None:
            raise RuntimeError(f"internal error: ciphertext cannot reach "
                               f"{la}; condition I_A should have caught this")
        events.append({"op": "move", "token": share, "path": [start, d.r]})
        notes.append(f"channel {idx}: ciphertext direct to "
                     f"{targets[0][ds.index(d)]}")
        return

    names_a, names_b = targets
    for na in names_a:
        for nb in names_b:
            p = _decision_point(task.diamonds[na], task.diamonds[nb], start)
            if p is None:
                continue
            _hold(events, share, start, p, [
                (task.diamonds[na], {"called": [na]}),
                (task.diamonds[nb], {"called": [nb], "not_called": [na]})])
            notes.append(f"channel {idx}: ciphertext held at a point seeing "
                         f"calls of {na} and {nb}, handed to {na} if called, "
                         f"else to {nb} if called")
            return
    raise Unsupported(
        f"no diamond pair of {task.set_label(names_a)} and "
        f"{task.set_label(names_b)} admits a common decision point "
        "reachable from the start")


# --------------------------------------------------------------------
# summoning
# --------------------------------------------------------------------


def _plan_single_call(task: TaskSpec) -> Plan:
    names = sorted(task.diamonds)
    n = len(names)
    if n == 3:
        rot = _plan_rotation(task, names)
        if rot is not None:
            return rot
    order, stuck = b1_peel(task)
    if not stuck:
        return _plan_chain(task, order[::-1])
    if n == 3 and task.secret_dim != 3:
        raise Unsupported("the three diamonds only fit a ring, which rides "
                          "the 2-of-3 qutrit code: secret_dim must be 3")
    if n > 3:
        raise Unsupported(
            f"{n} diamonds admit no relay chain; single-call summoning "
            "without one needs the star code, which is not implemented")
    raise RuntimeError("internal error: no relay order or ring fits; "
                       "condition II should have caught this")


def _sees(task: TaskSpec, caller: str, returner: str) -> bool:
    return causal_leq(task.diamonds[caller].c, task.diamonds[returner].r)


def _hop(events: list[Event], token: str, at: Point, to: Point, i: int,
         guard: Guard | None = None) -> str:
    """Bring `token` from `at` to `to` and return the token resting there.

    An unguarded hop whose start precedes `to` is a move.  Otherwise the
    token is teleported onto the half-pair F{i}~ waiting at `to`; the Bell
    measurement at `at` carries the guard.
    """
    if guard is None and causal_leq(at, to):
        events.append({"op": "move", "token": token, "path": [at, to]})
        return token
    base = _base_point([at, to])
    half, ghost = f"F{i}", f"F{i}~"
    events.append({"op": "create_pair", "labels": [half, ghost], "at": base})
    events.append({"op": "move", "token": half, "path": [base, at]})
    events.append({"op": "move", "token": ghost, "path": [base, to]})
    bell: Event = {"op": "bell", "pair": [token, half], "outcome": f"t{i}",
                   "at": at}
    if guard is not None:
        bell["guard"] = guard
    events.append(bell)
    events.append({"op": "broadcast", "value": f"t{i}", "at": at})
    return ghost


def _plan_rotation(task: TaskSpec, names: list[str]) -> Plan | None:
    assert task.start is not None
    if task.secret_dim != 3:
        return None  # the ring uses the qutrit code; a relay can still work
    start = task.start
    order = None
    for perm in (names, [names[0], names[2], names[1]]):
        if all(_sees(task, perm[i], perm[(i + 1) % 3]) for i in range(3)):
            order = perm
            break
    if order is None:
        return None
    events: list[Event] = [{"op": "source", "label": "psi", "at": start}]
    shares = _encode(events, start)
    notes = [f"ring order {' -> '.join(order)}: each share waits at its "
             "diamond's call point, staying for a local call and otherwise "
             "passing to the next return"]
    for i, nm in enumerate(order):
        dd = task.diamonds[nm]
        nxt = task.diamonds[order[(i + 1) % 3]]
        carrier = _hop(events, shares[i], start, dd.c, i)
        if carrier != shares[i]:
            notes.append(f"share for {nm} teleported to its call point")
        events.append({"op": "move", "token": carrier, "path": [dd.c, dd.r],
                       "guard": {"called": [nm]}})
        events.append({"op": "move", "token": carrier, "path": [dd.c, nxt.r],
                       "guard": {"not_called": [nm]}})
    return Plan("summoning", task, events, notes)


def _plan_chain(task: TaskSpec, order: list[str]) -> Plan:
    """Relay plan for a transitively ordered line of diamonds.

    The state is moved or teleported onto the first station's call point,
    and a half-pair waits at every later call point except the last.  Each
    station keeps the state for a local call and otherwise teleports it
    one station down (the bell is guarded by the local call bit alone).
    The last station is reached by the previous one's carry move, so it
    needs no pair of its own.  Every return sees every broadcast it needs
    because earlier call points precede later returns in the relay order.
    """
    assert task.start is not None
    start = task.start
    events: list[Event] = [{"op": "source", "label": "psi", "at": start}]
    notes = [f"relay order {' -> '.join(order)}"]
    prev_token, prev_at = "psi", start
    for i, nm in enumerate(order):
        if i == len(order) - 1 and i > 0:
            break  # served by the previous station's carry move
        dd = task.diamonds[nm]
        carrier = _hop(events, prev_token, prev_at, dd.c, i,
                       {"not_called": [order[i - 1]]} if i else None)
        events.append({"op": "move", "token": carrier,
                       "path": [dd.c, dd.r], "guard": {"called": [nm]}})
        if i + 1 == len(order) - 1:
            events.append({"op": "move", "token": carrier,
                           "path": [dd.c, task.diamonds[order[-1]].r],
                           "guard": {"not_called": [nm]}})
        prev_token, prev_at = carrier, dd.c
    return Plan("summoning", task, events, notes)


# --------------------------------------------------------------------
# party-independent transfer
# --------------------------------------------------------------------


def _plan_pit(task: TaskSpec) -> Plan:
    assert task.start is not None
    if task.secret_dim != 3:
        raise Unsupported("transfer rides the 2-of-3 qutrit code: "
                          "secret_dim must be 3")
    start = task.start
    events: list[Event] = [{"op": "source", "label": "psi", "at": start}]
    shares = _encode(events, start)
    notes = ["one 2-of-3 share per diamond pair, held at a point seeing "
             "both parties' calls and handed to whichever called alone"]
    for i, (pname, d1, d2) in enumerate(task.pit_pairs()):
        p = _decision_point(d1, d2, start)
        if p is None:
            raise Unsupported(
                f"pair {pname!r} admits no common decision point")
        n1, n2 = f"{pname}1", f"{pname}2"
        _hold(events, shares[i], start, p, [
            (d1, {"called": [n1], "not_called": [n2]}),
            (d2, {"called": [n2], "not_called": [n1]})])
    return Plan("pit", task, events, notes)
