from __future__ import annotations

import collections
import copy
import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from oracles import (enumerated_scenarios, haar_state, polyline_touches_boxes,
                     reduced)
from stq import engine, geometry, qsim, schemes
from stq.engine import (CollectorResult, EngineError, ScenarioResult,
                        SimulationReport, pit_cheat_chi_probability, simulate,
                        validate_plan)
from stq.geometry import Diamond, Region, causal_leq, point
from stq.model import TaskError, TaskSpec, embed_access_structure, parse_task
from stq.planner import Plan, PlanningError, plan_task

SIMULATED = ["fig1", "fig10", "fig12", "fig13", "fig14", "fig15", "triangle"]


@pytest.mark.parametrize("name", SIMULATED)
def test_fixture_plans_simulate_clean(report_of, name):
    report = report_of(name)
    assert report.passed
    if report.min_fidelity is not None:
        assert report.min_fidelity >= 1.0 - 1e-9
    if report.max_leak is not None:
        assert report.max_leak <= 1e-9
    assert report.lines()[-1] == "PASS"


def test_embedded_structure_simulates_clean(task_of):
    report = simulate(plan_task(embed_access_structure(task_of("embed3"))))
    assert report.passed


def test_simulation_is_deterministic(task_of, report_of):
    fresh = simulate(plan_task(task_of("fig13")))
    cached = report_of("fig13")
    assert fresh.lines() == cached.lines()
    assert fresh.min_fidelity == cached.min_fidelity
    assert fresh.max_leak == cached.max_leak


def test_transfer_certification_is_exact(report_of):
    report = report_of("fig15")
    assert report.kind == "pit"
    assert len(report.scenarios) == 6
    for sc in report.scenarios:
        assert sc.chi_probability is not None
        assert abs(sc.chi_probability - 1.0) <= 1e-12
    assert report.min_chi is not None and report.min_chi >= 1.0 - 1e-12


def test_two_codeword_cheat_is_caught():
    # the best decoy's pass probability, which bounds every decoy's
    assert abs(pit_cheat_chi_probability() - 1.0 / 9.0) <= 1e-9


def test_leak_is_the_distance_to_a_mixed_reference():
    # a view of two slots plus the reference, purified by one more slot
    dims = (2, 3, 3, 2)
    psi = haar_state(qsim.Register(list(zip("vwre", dims))),
                     np.random.default_rng(21))
    dm = reduced(psi.vec, dims, (0, 1, 2))
    mixed = np.kron(reduced(psi.vec, dims, (0, 1)), np.eye(3) / 3)
    want = 0.5 * np.abs(np.linalg.eigvalsh(dm - mixed)).sum()
    assert abs(engine._leak_of(dm, 3) - want) < 1e-12
    assert want > 0.1


# --------------------------------------------------------- scenario shape


def _event_point(ev):
    return ev["at"] if "at" in ev else ev["path"][0]


def test_assembly_battery_is_the_scored_member_sets(task_of, report_of):
    # every collection is scored where exactly its diamonds call, so the
    # battery is the distinct member sets of the authorized and
    # unauthorized lines, by size and then by names: 7 of the 16 patterns
    task, report = task_of("fig13"), report_of("fig13")
    members = {tuple(sorted(s)) for s in task.authorized + task.unauthorized}
    assert ([sc.calls for sc in report.scenarios]
            == sorted(members, key=lambda s: (len(s), s)))
    assert len(report.scenarios) == 7
    assert all(sc.collectors for sc in report.scenarios)
    assert report.lines()[0].startswith(
        "simulated state_assembly plan: 7 scenario(s)")


def _pattern_mismatches(plan):
    """Where a call pattern run alone disagrees with the pruned battery:
    every one of the 2^n patterns either scores nothing and is refused, or
    gives exactly the scenario the full report holds for it."""
    report = simulate(plan)
    pruned = {sc.calls: sc for sc in report.scenarios}
    names = sorted(plan.task.diamonds)
    out = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            try:
                alone = simulate(plan, calls=combo).scenarios
            except ValueError as exc:
                if "scores no collection" not in str(exc):
                    raise
                if combo in pruned:
                    out.append(f"{combo}: refused but in the battery")
                continue
            if alone != [pruned.get(combo)]:
                out.append(f"{combo}: {alone} vs {pruned.get(combo)}")
    return out


def test_pruned_battery_keeps_every_scored_pattern(plan_of):
    assert _pattern_mismatches(plan_of("fig13")) == []
    rng = random.Random(11)
    compared = 0
    for i in range(60):
        text = _random_task(rng, 1 + i % 2, summoning=False)
        try:
            plan = plan_task(parse_task(text))
        except (TaskError, PlanningError):
            continue
        compared += 1
        assert _pattern_mismatches(plan) == [], text
    assert compared >= 10


def test_calls_outside_the_light_cone_change_nothing(task_of, plan_of):
    # switching one extra call on may only affect events that can see it
    task = task_of("fig13")
    plan = plan_of("fig13")
    zero_keys = {ev["name"]: (0, 0) for ev in plan.events
                 if ev["op"] == "key"}
    names = sorted(task.diamonds)
    fired = {}
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            tr = engine._run(plan, frozenset(combo), zero_keys)
            fired[frozenset(combo)] = set(tr.fired)
    for pattern, seen in fired.items():
        for extra in names:
            if extra in pattern:
                continue
            call = task.diamonds[extra].c
            diff = seen ^ fired[pattern | {extra}]
            for idx in diff:
                assert causal_leq(call, _event_point(plan.events[idx]))


def test_independent_split_blocks_commute(plan_of):
    # the two per-collection key routings share nothing but the key itself,
    # so scheduling them in either order must give the same report
    plan = plan_of("fig13")
    baseline = simulate(plan)
    events = list(plan.events)
    psi = events[0]["label"]
    i0, i1 = [i for i, e in enumerate(events) if e["op"] == "split"]
    j = next(i for i, e in enumerate(events)
             if i > i1 and e["op"] == "move" and e["token"] == psi)
    reordered = dataclasses.replace(
        plan, events=events[:i0] + events[i1:j] + events[i0:i1] + events[j:])
    report = simulate(reordered)
    assert report.passed
    assert report.lines() == baseline.lines()


# --------------------------------------------------------- plan audits


def tampered(plan, mutate):
    twin = dataclasses.replace(plan, events=copy.deepcopy(plan.events))
    mutate(twin.events)
    return twin


def test_audit_rejects_cloned_guard_branches(plan_of):
    plan = plan_of("fig12")

    def clone_guarded(events):
        guarded = next(e for e in events
                       if e["op"] == "move" and e.get("guard"))
        events.append(copy.deepcopy(guarded))

    with pytest.raises(EngineError, match="cannot be copied"):
        validate_plan(tampered(plan, clone_guarded))


def test_audit_rejects_backward_moves(plan_of):
    plan = plan_of("fig12")

    def reverse_first_move(events):
        mv = next(e for e in events if e["op"] == "move")
        mv["path"] = list(reversed(mv["path"]))

    with pytest.raises(EngineError, match="not causal"):
        validate_plan(tampered(plan, reverse_first_move))


def test_audit_rejects_guards_outside_the_light_cone(task_of, plan_of):
    task, plan = task_of("fig12"), plan_of("fig12")

    def blind_guard(events):
        mv = next(e for e in events if e["op"] == "move" and e.get("guard"))
        at = mv["path"][0]
        blind = next(nm for nm in sorted(task.diamonds)
                     if not causal_leq(task.diamonds[nm].c, at))
        mv["guard"] = {"called": [blind]}

    with pytest.raises(EngineError, match="not visible"):
        validate_plan(tampered(plan, blind_guard))


def test_audit_rejects_unguarded_moves_after_branching(plan_of):
    plan = plan_of("fig12")

    def continue_unguarded(events):
        mv = next(e for e in events if e["op"] == "move" and e.get("guard"))
        start = mv["path"][0]
        events.append({"op": "move", "token": mv["token"],
                       "path": [start, start]})

    with pytest.raises(EngineError, match="unguarded move"):
        validate_plan(tampered(plan, continue_unguarded))


def test_audit_rejects_second_sources_and_reserved_labels(plan_of):
    plan = plan_of("fig12")
    src = next(e for e in plan.events if e["op"] == "source")

    with pytest.raises(EngineError, match="single source"):
        validate_plan(tampered(
            plan, lambda evs: evs.append({"op": "source", "label": "psi2",
                                          "at": src["at"]})))

    def rename(events):
        events[events.index(next(e for e in events
                                 if e["op"] == "source"))]["label"] = "ref"

    with pytest.raises(EngineError, match="reserved"):
        validate_plan(tampered(plan, rename))


def test_audit_rejects_broadcasts_before_their_outcome(plan_of):
    plan = plan_of("fig12")

    def swap_bell_and_broadcast(events):
        i = events.index(next(e for e in events if e["op"] == "bell"))
        j = events.index(next(e for e in events if e["op"] == "broadcast"))
        events[i], events[j] = events[j], events[i]

    with pytest.raises(EngineError, match="unknown outcome"):
        validate_plan(tampered(plan, swap_bell_and_broadcast))


def test_audit_rejects_moves_of_unknown_tokens(plan_of):
    plan = plan_of("fig12")
    with pytest.raises(EngineError, match="unknown token"):
        validate_plan(tampered(
            plan, lambda evs: evs.append(
                {"op": "move", "token": "ghost",
                 "path": [point(0, 0), point(1, 0)]})))


def test_audit_rejects_pads_with_unknown_keys(plan_of):
    plan = plan_of("fig1")

    def rename_key(events):
        next(e for e in events if e["op"] == "pad")["key"] = "nope"

    with pytest.raises(EngineError, match="unknown key"):
        validate_plan(tampered(plan, rename_key))


def test_audit_requires_a_key_copy_at_the_pad_point(plan_of):
    plan = plan_of("fig1")
    pad = next(e for e in plan.events if e["op"] == "pad")
    parts = {p for e in plan.events if e["op"] == "split"
             for p in e["parts"]}

    def drop_pad_visit(events):
        for ev in events:
            if (ev["op"] == "move" and ev["token"] in parts
                    and pad["at"] in ev["path"]):
                ev["path"] = [p for p in ev["path"] if p != pad["at"]]

    with pytest.raises(EngineError, match="no complete copy"):
        validate_plan(tampered(plan, drop_pad_visit))


def test_audit_rejects_reused_pad_keys(plan_of):
    plan = plan_of("triangle")

    def pad_twice(events):
        i = events.index(next(e for e in events if e["op"] == "pad"))
        events.insert(i + 1, copy.deepcopy(events[i]))

    with pytest.raises(EngineError, match="second pad"):
        validate_plan(tampered(plan, pad_twice))


def _pad_after(events, i, token):
    """Pad `token` with a fresh key right after event `i`, where it rests."""
    at = events[i]["at"]
    events[i + 1:i + 1] = [{"op": "key", "name": "kx", "at": at},
                           {"op": "pad", "token": token, "key": "kx",
                            "at": at}]


def test_audit_rejects_pads_an_encode_would_drop(plan_of):
    plan = plan_of("triangle")

    def pad_the_input(events):
        src = next(e for e in events if e["op"] == "source")
        _pad_after(events, events.index(src), src["label"])

    with pytest.raises(EngineError, match="not be recorded"):
        validate_plan(tampered(plan, pad_the_input))


@pytest.mark.parametrize("half", [0, 1])
def test_audit_rejects_pads_a_teleport_would_drop(plan_of, half):
    # half 0 is measured in the Bell event, half 1 receives the state
    plan = plan_of("triangle")

    def pad_a_pair_half(events):
        pair = next(e for e in events if e["op"] == "create_pair")
        _pad_after(events, events.index(pair), pair["labels"][half])

    with pytest.raises(EngineError, match="not be recorded"):
        validate_plan(tampered(plan, pad_a_pair_half))


def test_audit_rejects_key_parts_crossing_their_excluded_region(task_of,
                                                                plan_of):
    task, plan = task_of("fig1"), plan_of("fig1")
    inside = task.collection(task.unauthorized[0])[1][0].c

    def reroute(events):
        split = next(e for e in events if e["op"] == "split")
        part = split["parts"][0]
        mv = next(e for e in events
                  if e["op"] == "move" and e["token"] == part)
        detour = [p for p in mv["path"] if causal_leq(p, inside)]
        mv["path"] = detour + [inside, mv["path"][-1]]

    with pytest.raises(EngineError, match="crosses the excluded region"):
        validate_plan(tampered(plan, reroute))


def test_audit_rejects_discontinuous_moves(plan_of):
    plan = plan_of("fig12")

    def teleport_without_a_channel(events):
        mv = next(e for e in events if e["op"] == "move")
        p0 = mv["path"][0]
        mv["path"] = [point(p0.t, p0.x[0] + 0.5), mv["path"][-1]]

    with pytest.raises(EngineError, match="resting position"):
        validate_plan(tampered(plan, teleport_without_a_channel))


def _pad_after_branching(plan):
    """Pad the last quantum token to branch, at its resting point, after
    its guarded branches: if one fires, the token no longer rests there."""
    quantum = {lab for e in plan.events
               for lab in ([e["label"]] if e["op"] == "source"
                           else e["outputs"] if e["op"] == "encode"
                           else e["labels"] if e["op"] == "create_pair"
                           else [])}

    def pad(events):
        mv = next(e for e in reversed(events) if e["op"] == "move"
                  and e.get("guard") and e["token"] in quantum)
        at = mv["path"][0]
        events += [{"op": "key", "name": "kx", "at": at},
                   {"op": "pad", "token": mv["token"], "key": "kx",
                    "at": at}]

    return tampered(plan, pad)


def _measure_an_orphaned_half(plan):
    """fig12's Bell measurement consumes F0, the far half of F0~; measure
    F0~ itself before it branches, so no far half is left to receive."""
    def measure(events):
        rest = next(e for e in events if e["op"] == "move"
                    and e["token"] == "F0~")["path"][-1]
        del events[events.index(next(e for e in events if e.get("guard"))):]
        events += [{"op": "create_pair", "labels": ["G", "G~"], "at": rest},
                   {"op": "bell", "pair": ["G", "F0~"], "outcome": "tx",
                    "at": rest}]

    return tampered(plan, measure)


def _encode_a_qubit(plan):
    return dataclasses.replace(
        plan, task=dataclasses.replace(plan.task, secret_dim=2))


def _pad_a_transfer_share(plan):
    """The receiver of a transfer would undo the pad without its key."""
    def pad(events):
        enc = next(e for e in events if e["op"] == "encode")
        _pad_after(events, events.index(enc), enc["outputs"][0])

    return tampered(plan, pad)


def _create_pair(labels):
    """Append a created pair, at the point the last move leaves from."""
    def create(events):
        at = next(e for e in reversed(events) if e["op"] == "move")["path"][0]
        events.append({"op": "create_pair", "labels": labels, "at": at})

    return lambda plan: tampered(plan, create)


def _measure_one_slot_twice(plan):
    def measure(events):
        next(e for e in events if e["op"] == "bell")["pair"] = ["F0", "F0"]

    return tampered(plan, measure)


def _pair_before_source(plan):
    """fig12's created pair moved in front of its source."""
    def reorder(events):
        pair = next(e for e in events if e["op"] == "create_pair")
        events.remove(pair)
        events.insert(0, pair)

    return tampered(plan, reorder)


def _drop_the_source(plan):
    """fig1 without its source and the events that act on psi: only key
    parts are left, and no state to score them against."""
    def drop(events):
        events[:] = [e for e in events if e["op"] not in ("source", "pad")
                     and e.get("token") != "psi"]

    return tampered(plan, drop)


def _for_an_access_structure(plan):
    """fig12's plan handed an abstract access structure as its task."""
    return dataclasses.replace(plan, task=TaskSpec(
        kind="access_structure", parties=("A", "B"),
        authorized=(("A",),)))


def _share_named_ref(plan):
    """fig14's third share renamed, in every event, to the reference slot."""
    def rename(events):
        for ev in events:
            for k, v in ev.items():
                if v == "sh2":
                    ev[k] = "ref"
                elif isinstance(v, list):
                    ev[k] = ["ref" if x == "sh2" else x for x in v]

    return tampered(plan, rename)


@pytest.mark.parametrize("name, tamper, message", [
    ("fig12", _pad_after_branching, "only further guarded branches"),
    ("fig13", _pad_after_branching, "only further guarded branches"),
    ("fig14", _pad_after_branching, "only further guarded branches"),
    ("fig12", _measure_an_orphaned_half, "far half 'F0' is no longer alive"),
    ("fig14", _encode_a_qubit, "qutrit code"),
    ("fig15", _pad_a_transfer_share, "carries no pads"),
    ("fig12", _create_pair(["psi2", "F0~"]), "'F0~' is already taken"),
    ("fig12", _create_pair(["ref", "F0~"]), "'ref' is reserved"),
    ("fig12", _create_pair(["F0", "G"]), "'F0' is already taken"),
    ("fig12", _measure_one_slot_twice, "measures 'F0' against itself"),
    ("fig14", _share_named_ref, "'ref' is reserved"),
    ("fig12", _pair_before_source, "cannot precede the source"),
    ("fig1", _drop_the_source, "has no source"),
    ("fig12", _for_an_access_structure, "plan its embedding"),
], ids=["branched-fig12", "branched-fig13", "branched-fig14",
        "orphaned-fig12", "qubit-fig14", "padded-transfer-fig15",
        "live-label-pair-fig12", "ref-pair-fig12", "spent-label-pair-fig12",
        "self-bell-fig12", "ref-share-fig14", "pair-before-source-fig12",
        "no-source-fig1", "access-structure-fig12"])
def test_audit_rejects_what_the_interpreter_cannot_run(plan_of, name,
                                                       tamper, message):
    with pytest.raises(EngineError, match=message):
        validate_plan(tamper(plan_of(name)))


def _earlier(p):
    return point(p.t - 1, *p.x)


def _first(events, op):
    return next(e for e in events if e["op"] == op)


def _unknown_guard(events):
    next(e for e in events if e.get("guard"))["guard"] = {"called": ["Dz9"]}


def _encode_elsewhere(events):
    enc = _first(events, "encode")
    enc["at"] = _earlier(enc["at"])


def _split_unknown_key(events):
    _first(events, "split")["source"] = "nokey"


def _split_before_key(events):
    split = _first(events, "split")
    split["at"] = _earlier(split["at"])


def _repeat_a_part(events):
    first, second = [e for e in events if e["op"] == "split"]
    second["parts"][0] = first["parts"][0]


def _pad_elsewhere(events):
    pad = _first(events, "pad")
    pad["at"] = _earlier(pad["at"])


def _bell_elsewhere(events):
    bell = _first(events, "bell")
    bell["at"] = _earlier(bell["at"])


def _bell_pair_swapped(events):
    bell = _first(events, "bell")
    bell["pair"] = bell["pair"][::-1]


def _broadcast_early(events):
    cast = _first(events, "broadcast")
    cast["at"] = _earlier(cast["at"])


def _part_moved_from_elsewhere(events):
    part = _first(events, "split")["parts"][0]
    mv = next(e for e in events if e["op"] == "move" and e["token"] == part)
    mv["path"] = [_earlier(mv["path"][0]), *mv["path"][1:]]


@pytest.mark.parametrize("name, mutate, message", [
    ("fig12", _unknown_guard, "guard names unknown diamond 'Dz9'"),
    ("fig14", _encode_elsewhere, "input does not rest at the encode point"),
    ("fig13", _split_unknown_key, "split of an unknown key"),
    ("fig13", _split_before_key, "split precedes its key"),
    ("fig13", _repeat_a_part, "part 'k0.Da1\\+Db1.0' already exists"),
    ("fig13", _pad_elsewhere, "token does not rest at the pad point"),
    ("fig12", _bell_elsewhere, "'psi' does not rest at the measurement"),
    ("fig12", _bell_pair_swapped, "second slot must be half of a created"),
    ("fig12", _broadcast_early, "broadcast precedes its outcome"),
    ("fig13", _part_moved_from_elsewhere,
     "move does not start at the part's resting position"),
], ids=["unknown-guard", "encode-elsewhere", "split-unknown-key",
        "split-before-key", "repeated-part", "pad-elsewhere",
        "bell-elsewhere", "bell-pair-swapped", "broadcast-early",
        "part-moved-from-elsewhere"])
def test_audit_names_each_broken_rule(plan_of, name, mutate, message):
    # one tampering per audit rule that no other test reaches
    plan = plan_of(name)
    validate_plan(plan)
    with pytest.raises(EngineError, match=message):
        validate_plan(tampered(plan, mutate))


# ------------------------------------- key scoring against enumeration


def _score_mismatches(plan):
    """Where simulate's one-run scores differ from enumerating every key
    assignment: fidelity and leak beyond 1e-9, or any ok/reconstructed
    flag."""
    got = simulate(plan).scenarios
    want = enumerated_scenarios(plan)
    if [sc.calls for sc in got] != [sc.calls for sc in want]:
        return ["scenario batteries differ"]
    out = []
    for sg, sw in zip(got, want):
        flags = [[(c.label, c.role, c.ok, c.reconstructed)
                  for c in sc.collectors] for sc in (sg, sw)]
        if flags[0] != flags[1]:
            out.append(f"calls {sg.calls}: {flags[0]} vs {flags[1]}")
            continue
        for cg, cw in zip(sg.collectors, sw.collectors):
            for metric in ("fidelity", "leak"):
                vg, vw = getattr(cg, metric), getattr(cw, metric)
                if (vg is None) != (vw is None) or (
                        vg is not None and abs(vg - vw) > 1e-9):
                    out.append(f"calls {sg.calls} {cg.label}: {metric} "
                               f"{vg} vs {vw}")
    return out


@pytest.mark.parametrize("name", ["fig1", "fig10", "fig13", "triangle"])
def test_fixture_scores_match_key_enumeration(plan_of, name):
    assert _score_mismatches(plan_of(name)) == []


def _random_diamond(rng, name, dim):
    t, dur = rng.randint(0, 5), rng.randint(0, 6)
    xs = [rng.randint(-4, 4) for _ in range(dim)]
    c = ", ".join(str(v) for v in (t, *xs))
    r = ", ".join(str(v) for v in (t + dur, *xs))
    return f"diamond {name} c=({c}) r=({r})"


def _random_task(rng, dim, summoning):
    """State assembly over 2-3 diamonds with 1-2 authorized sets of size
    1-2 and one unauthorized set, or single-call summoning over 2-4
    diamonds; calls at integer t in [0, 5] and x in [-4, 4], durations
    0-6, start at t=-1 on the origin."""
    kind = ("summoning:single_call_single_return" if summoning
            else "state_assembly")
    names = [f"D{i + 1}" for i in range(rng.randint(2, 4 if summoning
                                                      else 3))]
    lines = [f"task {kind}", f"dim {dim}", "secret_dim 3",
             "start (" + ", ".join(["-1"] + ["0"] * dim) + ")"]
    lines += [_random_diamond(rng, nm, dim) for nm in names]
    if not summoning:
        for _ in range(rng.randint(1, 2)):
            lines.append("authorized " + " ".join(
                sorted(rng.sample(names, rng.randint(1, 2)))))
        lines.append("unauthorized " + " ".join(
            sorted(rng.sample(names, rng.randint(1, len(names))))))
    return "\n".join(lines) + "\n"


def test_random_scores_match_key_enumeration():
    # unfiltered: every plan the planner emits is compared, PASS or FAIL
    rng = random.Random(3)
    failures, compared, keyed, failing = [], 0, 0, 0
    for i in range(300):
        text = _random_task(rng, 1 + i % 2, summoning=i % 3 == 2)
        try:
            plan = plan_task(parse_task(text))
        except (TaskError, PlanningError):
            continue
        compared += 1
        keyed += any(ev["op"] == "key" for ev in plan.events)
        failing += not simulate(plan).passed
        failures += [f"task {i}: {m}" for m in _score_mismatches(plan)]
    assert failures == []
    assert compared >= 50 and keyed >= 20 and failing >= 1


# ------------------------------------------------ shared quantum histories


@pytest.mark.parametrize("name, patterns", [("fig14", 3), ("fig15", 6)])
def test_call_patterns_share_one_encode(monkeypatch, plan_of, name,
                                        patterns):
    # every pattern of these plans fires the same Bell measurements, so the
    # engine reaches the module's encode once per simulate
    encodes = []
    encode = schemes.code23_encode
    monkeypatch.setattr(schemes, "code23_encode",
                        lambda *args: encodes.append(args) or encode(*args))
    report = simulate(plan_of(name))
    assert len(report.scenarios) == patterns
    assert report.passed
    assert len(encodes) == 1


# a planner plan from the random workload: D3's call skips the second
# teleport, so its history is a prefix of the one D1 and D2 share
DIVERGING = """
task summoning:single_call_single_return
dim 1
secret_dim 3
start (-1, 0)
diamond D1 c=(5, -1) r=(9, -1)
diamond D2 c=(5, 0) r=(8, 0)
diamond D3 c=(0, -2) r=(2, -2)
"""

BRANCHING = """
task summoning:single_call_single_return
dim 1
secret_dim 3
start (-1, 0)
diamond D1 c=(0, -1) r=(5, -1)
diamond D2 c=(0, 1) r=(5, 1)
"""


def _branching_teleports():
    """A hand-built plan whose two patterns teleport different shares:
    D1's call sends share 0 through the pair A, D2's share 1 through B.
    The histories have equal length and differ in their last event, which
    the planner's plans never do."""
    task = parse_task(BRANCHING)
    s, p = task.start, point(2, 0)
    d1, d2 = task.diamonds["D1"].r, task.diamonds["D2"].r
    events = [
        {"op": "source", "label": "psi", "at": s},
        {"op": "encode", "code": "edge23", "input": "psi",
         "outputs": ["sh0", "sh1", "sh2"], "at": s},
        {"op": "create_pair", "labels": ["A", "A~"], "at": s},
        {"op": "create_pair", "labels": ["B", "B~"], "at": s},
        *({"op": "move", "token": lab, "path": [s, p]}
          for lab in ("sh0", "A", "sh1", "B", "sh2")),
        {"op": "bell", "pair": ["sh0", "A"], "outcome": "ma", "at": p,
         "guard": {"called": ["D1"]}},
        {"op": "bell", "pair": ["sh1", "B"], "outcome": "mb", "at": p,
         "guard": {"called": ["D2"], "not_called": ["D1"]}},
        {"op": "broadcast", "value": "ma", "at": p},
        {"op": "broadcast", "value": "mb", "at": p},
        {"op": "move", "token": "A~", "path": [s, d1]},
        {"op": "move", "token": "B~", "path": [s, d2]},
        {"op": "move", "token": "sh2", "path": [p, d1],
         "guard": {"called": ["D1"]}},
        {"op": "move", "token": "sh2", "path": [p, d2],
         "guard": {"called": ["D2"], "not_called": ["D1"]}},
    ]
    return Plan("summoning", task, events)


@pytest.mark.parametrize("build, patterns, bells", [
    (lambda: plan_task(parse_task(DIVERGING)), 3, 2),
    (_branching_teleports, 2, 2),
], ids=["planner-prefix", "branching-teleports"])
def test_diverging_histories_score_as_fresh_runs(monkeypatch, build,
                                                 patterns, bells):
    plan = build()
    projections = []
    project = qsim.bell_project
    monkeypatch.setattr(qsim, "bell_project",
                        lambda *args: projections.append(args)
                        or project(*args))
    shared = simulate(plan)
    assert len(projections) == bells
    histories = {tuple(i for i in sc.fired if plan.events[i]["op"] == "bell")
                 for sc in shared.scenarios}
    assert len(shared.scenarios) == patterns and len(histories) == 2
    assert shared.passed

    run = engine._run
    monkeypatch.setattr(engine, "_run",
                        lambda plan, calls, keys, states=None:
                        run(plan, calls, keys))
    assert simulate(plan).scenarios == shared.scenarios
    assert _score_mismatches(plan) == []


def _reorder_relay(bell_first, clash=False):
    """DIVERGING's relay plan, whose station at D3 branches F0~ twice: a
    guarded move (stay for D3's call) and a guarded Bell measurement (pass
    it on otherwise).  `bell_first` lists the measurement first; `clash`
    gives the move the measurement's guard, so both can fire together."""
    def mutate(events):
        mv = next(e for e in events if e["op"] == "move"
                  and e["token"] == "F0~" and e.get("guard"))
        bell = next(e for e in events if e["op"] == "bell" and e.get("guard"))
        assert bell["pair"][0] == "F0~"
        if bell_first:
            events.remove(mv)
            events.insert(events.index(bell) + 1, mv)
        if clash:
            mv["guard"] = copy.deepcopy(bell["guard"])

    return tampered(plan_task(parse_task(DIVERGING)), mutate)


@pytest.mark.parametrize("bell_first", [False, True])
def test_a_guarded_bell_leaves_its_slot_to_exclusive_branches(bell_first):
    # the measured slot stays put when the guard does not fire, so the
    # audit accepts the two exclusive branches in either order
    plan = _reorder_relay(bell_first)
    validate_plan(plan)
    report = simulate(plan)
    assert report.passed
    baseline = simulate(plan_task(parse_task(DIVERGING)))
    assert ([(sc.calls, sc.collectors) for sc in report.scenarios]
            == [(sc.calls, sc.collectors) for sc in baseline.scenarios])

    with pytest.raises(EngineError, match="cannot be copied"):
        validate_plan(_reorder_relay(bell_first, clash=True))


# ------------------------------------------- contacts and exclusion flags

# a task of the benchmark's escape family: the key part must thread a field
# of ten excluded boxes
ESCAPE = """
task localize_exclude
dim 1
secret_dim 3
start (0, 0)
region A1 {
    box u=[44, 47] v=[44, 47]
}
region A2 {
    box u=[46, 49] v=[52, 55]
}
region U1 {
    box u=[34, 36] v=[2, 3]
    box u=[4, 5] v=[11, 13]
    box u=[31, 33] v=[16, 19]
    box u=[7, 8] v=[16, 19]
    box u=[14, 16] v=[27, 28]
    box u=[25, 26] v=[11, 12]
    box u=[29, 30] v=[9, 10]
    box u=[1, 2] v=[14, 15]
    box u=[11, 13] v=[19, 20]
    box u=[14, 17] v=[12, 13]
}
authorized A1
authorized A2
unauthorized U1
"""


def _worldline_curves(plan):
    """The polyline of every event that makes a worldline piece: a birth
    point, or a move's path."""
    return [tuple(ev["path"]) if ev["op"] == "move" else (ev["at"],)
            for ev in plan.events
            if ev["op"] in ("source", "encode", "create_pair", "split",
                            "move")]


@pytest.mark.parametrize("name", ["fig10", "escape"])
def test_simulate_charts_each_worldline_once(monkeypatch, plan_of, name):
    plan = (plan_task(parse_task(ESCAPE)) if name == "escape"
            else plan_of(name))
    chart = geometry.WorldlineChart
    init, touches = chart.__init__, chart.touches
    charted, answered = [], []

    def counting_init(self, curve):
        init(self, curve)
        charted.append(tuple(curve))

    def counting_touches(self, boxes):
        hit = touches(self, boxes)
        bounds = tuple((b.u_lo, b.u_hi, b.v_lo, b.v_hi) for b in boxes)
        answered.append((id(self), bounds))
        assert hit == polyline_touches_boxes(self.uv, bounds)
        return hit

    monkeypatch.setattr(chart, "__init__", counting_init)
    monkeypatch.setattr(chart, "touches", counting_touches)
    assert simulate(plan).passed
    # no curve is charted more often than events make it, and no chart
    # is asked about one collection twice (charts live as long as the
    # table, so their ids are distinct)
    made = collections.Counter(_worldline_curves(plan))
    assert charted and not collections.Counter(charted) - made
    assert answered and len(set(answered)) == len(answered)


def _views(plan):
    """(trace, view) for every collection in every scenario of the plan's
    battery, scored there or not, and for caller groups also for every
    set of diamonds: views that hold a single code share come up there."""
    task = plan.task
    deliveries, exclusions = engine._collections_for(task)
    regions = [region for _, region, _ in deliveries + exclusions]
    geometric = task.kind == "localize_exclude"
    if not geometric:
        names = sorted(task.diamonds)
        regions += [Region("+".join(group),
                           tuple(task.diamonds[nm] for nm in group))
                    for r in range(1, len(names) + 1)
                    for group in itertools.combinations(names, r)]
    zero = {ev["name"]: (0, 0) for ev in plan.events if ev["op"] == "key"}
    for pattern in engine._battery(task, deliveries + exclusions):
        trace = engine._run(plan, pattern, zero)
        for region in regions:
            yield trace, engine._collect(trace, region, geometric)


def test_exclusion_flag_is_the_decoders(plan_of):
    # an exclusion decides its reconstruction flag classically; it must be
    # the flag the dense decoder reports, on every view of the fixtures,
    # an escape task and a seeded sample of assembly and summoning tasks
    plans = [plan_of(nm) for nm in SIMULATED if nm != "fig15"]
    plans.append(plan_task(parse_task(ESCAPE)))
    rng = random.Random(5)
    for i in range(120):
        try:
            plans.append(plan_task(parse_task(
                _random_task(rng, 1 + i % 2, summoning=i % 3 == 2))))
        except (TaskError, PlanningError):
            continue
    kinds = collections.Counter()
    for plan in plans:
        zero = {ev["name"]: (0, 0) for ev in plan.events
                if ev["op"] == "key"}
        for trace, view in _views(plan):
            usable = engine._usable(trace, view)
            found = engine._reconstruct(trace, view, zero,
                                        plan.task.secret_dim)[1]
            assert engine._decodable(usable) == found
            shares = {tok.share for tok in usable if tok.share is not None}
            kinds[any(tok.plain for tok in usable), min(len(shares), 2)] += 1
    # plain slots, and none, one or two distinct shares alone, all occur
    assert {(True, 0), (False, 0), (False, 1), (False, 2)} <= set(kinds)


# ----------------------------------------------------- access and calls


def test_access_restricts_scoring(task_of, plan_of):
    report = simulate(plan_of("fig1"), access="A1")
    labels = {c.label for sc in report.scenarios for c in sc.collectors}
    assert labels == {"A1"}

    report = simulate(plan_of("fig1"), access="U1")
    collectors = [c for sc in report.scenarios for c in sc.collectors]
    assert [c.role for c in collectors] == ["exclude"]

    with pytest.raises(ValueError, match="no authorized or excluded"):
        simulate(plan_of("fig1"), access="nope")


def test_access_runs_only_the_chosen_collections_patterns(task_of, plan_of,
                                                          report_of):
    # fig14 summons from three diamonds; D0's collection scores only in
    # the pattern where D0 alone calls
    report = simulate(plan_of("fig14"), access="D0")
    assert [sc.calls for sc in report.scenarios] == [("D0",)]
    assert report.lines()[0].startswith(
        "simulated summoning plan: 1 scenario(s)")
    for name in ("fig1", "fig13"):
        full = report_of(name)
        deliveries, exclusions = engine._collections_for(task_of(name))
        for label, *_ in deliveries + exclusions:
            alone = simulate(plan_of(name), access=label)
            assert len(alone.scenarios) == 1
            assert ([c.line() for sc in alone.scenarios
                     for c in sc.collectors]
                    == [c.line() for sc in full.scenarios
                        for c in sc.collectors if c.label == label])


def test_calls_restricts_the_battery(plan_of):
    report = simulate(plan_of("fig13"), calls=("Da1", "Db1"))
    assert [sc.calls for sc in report.scenarios] == [("Da1", "Db1")]
    assert report.passed

    with pytest.raises(ValueError, match="unknown call"):
        simulate(plan_of("fig13"), calls=("Dz9",))


@pytest.mark.parametrize("name, calls, access", [
    ("fig12", ("D1", "D2"), None),
    ("fig12", (), None),
    ("fig13", ("Da1",), None),
    ("fig13", ("Da1", "Db1"), "Da2+Db2"),
], ids=["two-calls", "no-call", "lone-call", "other-collection"])
def test_a_pattern_that_scores_nothing_is_refused(plan_of, name, calls,
                                                  access):
    pattern = "{" + ", ".join(calls) + "}"
    with pytest.raises(ValueError, match=re.escape(
            f"call pattern {pattern} scores no collection")):
        simulate(plan_of(name), calls=calls, access=access)


def test_localization_has_no_call_patterns(plan_of):
    with pytest.raises(ValueError, match="no call pattern"):
        simulate(plan_of("fig1"), calls=())


def test_transfer_scenarios_are_fixed(plan_of):
    with pytest.raises(ValueError, match="fixed by the task"):
        simulate(plan_of("fig15"), access="party1")
    with pytest.raises(ValueError, match="fixed by the task"):
        simulate(plan_of("fig15"), calls=("a1",))


def test_thirteen_diamond_assembly_simulates():
    # 2^13 call patterns, of which the three member sets score
    task = TaskSpec(
        kind="state_assembly", start=point(-1, 0),
        diamonds={f"D{i:02d}": Diamond(point(0, 2 * i - 12),
                                       point(30, 2 * i - 12))
                  for i in range(13)},
        authorized=(("D00",), ("D12",)), unauthorized=(("D03", "D07"),))
    report = simulate(plan_task(task))
    assert [sc.calls for sc in report.scenarios] == [
        ("D00",), ("D12",), ("D03", "D07")]
    assert report.passed


# ----------------------------------------------------------- formatting


def test_collector_lines():
    hit = CollectorResult("A1", "deliver", fidelity=1.0)
    assert hit.line() == "deliver A1: fidelity 1.000000000"
    miss = CollectorResult("U1", "exclude", leak=0.0, reconstructed=False)
    assert miss.line() == "exclude U1: leak 0.00e+00, reconstruction absent"
    bare = CollectorResult("U1", "exclude", leak=2e-12)
    assert bare.line() == "exclude U1: leak 2.00e-12"


def test_report_lines_truncate_long_batteries():
    scenarios = [
        ScenarioResult(calls=(f"D{i}",),
                       collectors=[CollectorResult(f"D{i}", "deliver",
                                                   fidelity=1.0)])
        for i in range(30)]
    report = SimulationReport("state_assembly", 1e-9, scenarios,
                              1.0, None, None, True)
    lines = report.lines()
    assert "  ..." in lines
    assert sum(1 for line in lines if line.startswith("  calls")) == 24
    assert lines[-1] == "PASS"
