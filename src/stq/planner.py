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
from typing import Iterable, Sequence

from .geometry import (Diamond, Point, Region, causal_leq,
                       earliest_point_after, escape_exists,
                       extract_escape_path, from_lightcone, point,
                       to_lightcone)
from .model import TaskSpec
from .feasibility import b1_peel, check_task

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

    def to_json(self, indent: int = 2) -> str:
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
        return json.dumps(body, indent=indent)

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


def _decision_point(da: Diamond, db: Diamond,
                    also_after: Point | None = None) -> Point | None:
    """A point seeing both call points and preceding both returns.

    In one spatial dimension the light-cone componentwise maximum of the
    call points is the canonical choice and is complete: if it fails, no
    point works.  In higher dimensions the corner barycenter is tried and
    verified; failure there only means this pair is not used.
    """
    if da.dim == 1:
        ua, va = to_lightcone(da.c)
        ub, vb = to_lightcone(db.c)
        u, v = max(ua, ub), max(va, vb)
        if also_after is not None:
            us, vs = to_lightcone(also_after)
            u, v = max(u, us), max(v, vs)
        p = from_lightcone(u, v)
    else:
        coords = [da.c, db.c, da.r, db.r]
        t = sum(q.t for q in coords) / 4
        xs = tuple(sum(q.x[i] for q in coords) / 4 for i in range(da.dim))
        p = Point(t, xs)
        if also_after is not None and not causal_leq(also_after, p):
            return None
    for pre in (da.c, db.c):
        if not causal_leq(pre, p):
            return None
    if also_after is not None and not causal_leq(also_after, p):
        return None
    for post in (da.r, db.r):
        if not causal_leq(p, post):
            return None
    return p


def _guard_point(task: TaskSpec, start: Point, guard: Guard,
                 dest: Diamond) -> Point:
    """A waypoint that sees every call named in a guard, is reachable from
    the start, and still precedes the delivery return.

    One spatial dimension takes the light-cone join of the start and the
    named call points, which is complete.  Higher dimensions try the call
    points themselves and the corner barycenter of the named diamonds.
    """
    names = [*guard.get("called", ()), *guard.get("not_called", ())]
    ds = [task.diamonds[nm] for nm in names]

    def good(p: Point) -> bool:
        return (causal_leq(start, p) and causal_leq(p, dest.r)
                and all(causal_leq(dd.c, p) for dd in ds))

    if task.dim == 1:
        us, vs = zip(*(to_lightcone(q) for q in [start] + [dd.c for dd in ds]))
        p = from_lightcone(max(us), max(vs))
        if good(p):
            return p
    else:
        cands = [dd.c for dd in ds]
        if len(ds) > 1:
            corners = [q for dd in ds for q in (dd.c, dd.r)]
            t = sum(q.t for q in corners) / len(corners)
            xs = tuple(sum(q.x[i] for q in corners) / len(corners)
                       for i in range(task.dim))
            cands.insert(0, Point(t, xs))
        for p in cands:
            if good(p):
                return p
    raise Unsupported(
        "no waypoint sees the calls of " + ", ".join(names) +
        " before the release diamond's return")


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


def _earliest_entry(region: Region, start: Point) -> tuple[Diamond, Point]:
    for d in region.diamonds:
        p = earliest_point_after(d, start)
        if p is not None:
            return d, p
    raise RuntimeError("internal error: no diamond of the region lies in "
                       "the start's future; condition I_A should have "
                       "caught this")


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
    d = task.secret_dim
    auth = [(task.set_label(s), task.region_union(s)) for s in task.authorized]
    excl = [(task.set_label(s), task.region_union(s)) for s in task.unauthorized]
    n, m = len(auth), len(excl)
    if n > 3:
        raise Unsupported(
            "pairwise channel coding is implemented for up to three "
            "authorized collections; use scheme_cost for the general scaling")
    if n == 3 and task.secret_dim != 3:
        raise Unsupported(
            "three collections ride the 2-of-3 qutrit code: secret_dim "
            "must be 3")

    events: list[Event] = []
    notes: list[str] = []
    events.append({"op": "source", "label": "psi", "at": start})

    # share per pairwise channel (or the secret itself when alone)
    if n == 1:
        edges = [("psi", [auth[0]])]
        notes.append("single collection: the padded state travels directly")
    elif n == 2:
        edges = [("psi", [auth[0], auth[1]])]
        notes.append("two collections: one shared channel carries the state")
    else:
        pair_list = list(itertools.combinations(range(3), 2))
        shares = [f"sh{i}" for i in range(3)]
        events.append({"op": "encode", "code": "edge23", "input": "psi",
                       "outputs": shares, "at": start})
        edges = [(shares[i], [auth[a], auth[b]])
                 for i, (a, b) in enumerate(pair_list)]
        notes.append("three collections: 2-of-3 qutrit shares, one per "
                     "channel; each collection decodes from its two")

    # escape curves, computed up front so the key origin can precede them
    ib_curves: dict[str, list[Point]] = {}
    iii_curves: dict[tuple[str, str], list[Point]] = {}
    for lu, ru in excl:
        ib_curves[lu] = extract_escape_path(start, ru.diamonds)
        for la, ra in auth:
            iii_curves[la, lu] = extract_escape_path(ra, ru.diamonds)

    anchor_pts: list[Point] = [start]
    for curve in ib_curves.values():
        anchor_pts.append(curve[0])
    for curve in iii_curves.values():
        anchor_pts.append(curve[0])
    base = _base_point(anchor_pts)

    for idx, (share, targets) in enumerate(edges):
        key = f"k{idx}"
        events.append({"op": "key", "name": key, "at": base})
        # the encrypting copy rides the start's own escape curves
        parts = [f"{key}.s{l}" for l in range(max(m, 1))]
        events.append({"op": "split", "source": key, "parts": parts,
                       "at": base})
        if m == 0:
            events.append({"op": "move", "token": parts[0],
                           "path": [base, start]})
        else:
            # each part rides the full escape curve; it passes through the
            # start, where the pad consumes the reassembled key
            for l, (lu, _) in enumerate(excl):
                events.append({"op": "move", "token": parts[l],
                               "path": [base] + ib_curves[lu]})
        events.append({"op": "pad", "token": share, "key": key, "at": start})

        for la, region in targets:
            parts = [f"{key}.{la}.{l}" for l in range(max(m, 1))]
            events.append({"op": "split", "source": key, "parts": parts,
                           "at": base})
            if m == 0:
                entry = _earliest_entry(region, start)
                events.append({"op": "move", "token": parts[0],
                               "path": [base, start, entry[1]]})
            else:
                for l, (lu, _) in enumerate(excl):
                    curve = iii_curves[la, lu]
                    events.append({"op": "move", "token": parts[l],
                                   "path": [base] + curve})
            notes.append(f"key {key}: copy for {la} in {max(m, 1)} "
                         "independently routed parts")

        _route_cipher(task, events, notes, share, idx, start, base,
                      [t for t in targets])

    return Plan("localize_exclude", task, events, notes)


def _route_cipher(task: TaskSpec, events: list[Event], notes: list[str],
                  share: str, idx: int, start: Point, base: Point,
                  targets: list[tuple[str, Region]]) -> None:
    """Send one padded share through every target region, directly if a
    causal chain exists, else by teleporting onto a half-pair whose
    worldline threads a connected diamond of each region."""
    if len(targets) == 1:
        la, region = targets[0]
        entry = _earliest_entry(region, start)
        events.append({"op": "move", "token": share,
                       "path": [start, entry[1]]})
        notes.append(f"channel {idx}: ciphertext direct to {la}")
        return

    (la, ra), (lb, rb) = targets
    for first, second in (((la, ra), (lb, rb)), ((lb, rb), (la, ra))):
        chain = None
        for d1 in first[1].diamonds:
            p = earliest_point_after(d1, start)
            if p is None:
                continue
            for d2 in second[1].diamonds:
                q = earliest_point_after(d2, p)
                if q is not None:
                    chain = (p, q)
                    break
            if chain:
                break
        if chain:
            events.append({"op": "move", "token": share,
                           "path": [start, chain[0], chain[1]]})
            notes.append(f"channel {idx}: ciphertext direct "
                         f"{first[0]} then {second[0]}")
            return

    # no direct chain: thread a pre-placed half-pair through a connected
    # diamond of each region and teleport the ciphertext onto it
    witness = None
    for dfrom in ra.diamonds:
        for dto in rb.diamonds:
            if causal_leq(dfrom.c, dto.r):
                witness = (dfrom, dto)
                break
            if causal_leq(dto.c, dfrom.r):
                witness = (dto, dfrom)
                break
        if witness:
            break
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
    auth = [(task.set_label(s), list(s)) for s in task.authorized]
    excl = [(task.set_label(s), list(s)) for s in task.unauthorized]
    n, m = len(auth), len(excl)
    if n > 3:
        raise Unsupported(
            "pairwise channel coding is implemented for up to three "
            "authorized collections; use scheme_cost for the general scaling")
    if n == 3 and task.secret_dim != 3:
        raise Unsupported(
            "three collections ride the 2-of-3 qutrit code: secret_dim "
            "must be 3")

    events: list[Event] = []
    notes: list[str] = []
    events.append({"op": "source", "label": "psi", "at": start})

    if n == 1:
        edges = [("psi", [0])]
    elif n == 2:
        edges = [("psi", [0, 1])]
    else:
        shares = [f"sh{i}" for i in range(3)]
        events.append({"op": "encode", "code": "edge23", "input": "psi",
                       "outputs": shares, "at": start})
        edges = [(shares[i], list(pair))
                 for i, pair in enumerate(itertools.combinations(range(3), 2))]

    for idx, (share, members) in enumerate(edges):
        key = f"k{idx}"
        events.append({"op": "key", "name": key, "at": start})
        events.append({"op": "pad", "token": share, "key": key, "at": start})

        for ai in members:
            la, names = auth[ai]
            parts = [f"{key}.{la}.{l}" for l in range(max(m, 1))]
            events.append({"op": "split", "source": key, "parts": parts,
                           "at": start})
            rules = ([_release_rule(task, names, ())] if m == 0 else
                     [_release_rule(task, names, unames)
                      for _, unames in excl])
            for l, (dname, guard) in enumerate(rules):
                dest = task.diamonds[dname]
                gp = _guard_point(task, start, guard, dest)
                events.append({"op": "move", "token": parts[l],
                               "path": [start, gp]})
                events.append({"op": "move", "token": parts[l],
                               "path": [gp, dest.r], "guard": guard})
            notes.append(f"key {key}: copy for {la} released only at "
                         "called diamonds, one part per excluded collection")

        _route_assembly_cipher(task, events, notes, share, idx, start,
                               [auth[ai] for ai in members])

    return Plan("state_assembly", task, events, notes)


def _release_rule(task: TaskSpec, auth_names: Sequence[str],
                  excl_names: Sequence[str]) -> tuple[str, Guard]:
    """Pick the diamond and call predicate releasing one key part.

    If the authorized collection owns a diamond outside the excluded one,
    release there whenever it is called.  Otherwise release at a member
    whose return sees a call point private to the excluded collection, and
    withhold when any such visible private call fired.
    """
    assert task.start is not None
    extra = [nm for nm in auth_names if nm not in excl_names]
    for nm in extra:
        if causal_leq(task.start, task.diamonds[nm].r):
            return nm, {"called": [nm]}
    private = [nm for nm in excl_names if nm not in auth_names]
    for nm in auth_names:
        if not causal_leq(task.start, task.diamonds[nm].r):
            continue
        r = task.diamonds[nm].r
        visible = [pe for pe in private
                   if causal_leq(task.diamonds[pe].c, r)]
        if visible:
            return nm, {"called": [nm], "not_called": visible}
    raise Unsupported(
        "no release diamond sees a call distinguishing "
        f"{'+'.join(auth_names)} from {'+'.join(excl_names)}")


def _route_assembly_cipher(task: TaskSpec, events: list[Event],
                           notes: list[str], share: str, idx: int,
                           start: Point,
                           targets: list[tuple[str, list[str]]]) -> None:
    if len(targets) == 1:
        la, names = targets[0]
        for nm in names:
            if causal_leq(start, task.diamonds[nm].r):
                events.append({"op": "move", "token": share,
                               "path": [start, task.diamonds[nm].r]})
                notes.append(f"channel {idx}: ciphertext direct to {nm}")
                return
        raise Unsupported(f"ciphertext cannot reach {la}")

    (la, names_a), (lb, names_b) = targets
    for na in names_a:
        for nb in names_b:
            p = _decision_point(task.diamonds[na], task.diamonds[nb],
                                also_after=start)
            if p is None:
                continue
            events.append({"op": "move", "token": share, "path": [start, p]})
            events.append({"op": "move", "token": share,
                           "path": [p, task.diamonds[na].r],
                           "guard": {"called": [na]}})
            events.append({"op": "move", "token": share,
                           "path": [p, task.diamonds[nb].r],
                           "guard": {"called": [nb], "not_called": [na]}})
            notes.append(f"channel {idx}: ciphertext held at a point seeing "
                         f"calls of {na} and {nb}, handed to {na} if called, "
                         f"else to {nb} if called")
            return
    raise Unsupported(
        f"no diamond pair of {la} and {lb} admits a common decision point "
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
    shares = [f"sh{i}" for i in range(3)]
    events.append({"op": "encode", "code": "edge23", "input": "psi",
                   "outputs": shares, "at": start})
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
    shares = [f"sh{i}" for i in range(3)]
    events.append({"op": "encode", "code": "edge23", "input": "psi",
                   "outputs": shares, "at": start})
    notes = ["one 2-of-3 share per diamond pair, held at a point seeing "
             "both parties' calls and handed to whichever called alone"]
    for i, (pname, d1, d2) in enumerate(task.pit_pairs()):
        p = _decision_point(d1, d2, also_after=start)
        if p is None:
            raise Unsupported(
                f"pair {pname!r} admits no common decision point")
        n1, n2 = f"{pname}1", f"{pname}2"
        events.append({"op": "move", "token": shares[i], "path": [start, p]})
        events.append({"op": "move", "token": shares[i],
                       "path": [p, d1.r],
                       "guard": {"called": [n1], "not_called": [n2]}})
        events.append({"op": "move", "token": shares[i],
                       "path": [p, d2.r],
                       "guard": {"called": [n2], "not_called": [n1]}})
    return Plan("pit", task, events, notes)
