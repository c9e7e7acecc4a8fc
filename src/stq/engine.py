"""Execute a plan over its scenario battery and certify it numerically.

The simulator is exact where exactness is cheap.  Per scenario the control
layer (guards tested against the call pattern) fixes which events fire; the
quantum layer then evolves a dense state vector through them with every
pad key at (0, 0).  No score depends on the key values: a collection that
holds all of a slot's keys undoes them exactly, and averaging a slot over a
key the collection lacks is the exact Weyl twirl of that slot.  Bell
measurements are collapsed onto the (0, 0) outcome: measuring any slot
against half of a fresh maximally entangled pair gives uniform outcome
probabilities, and the post-measurement states of the d*d outcomes differ
only by a known Weyl operator on the far half, which the later correction
undoes — so every reported fidelity and leak equals its average over
outcomes.  The engine asserts the uniformity it relies on rather than
assuming it.

Keys and corrections are Weyl operators carried in each token's record;
at (0, 0) they are the identity, so `simulate` applies none of them.  What
remains — the source, encodes, created pairs and fired Bell measurements —
is the scenario's quantum history, and scenarios that fire the same Bell
measurements share it: one `simulate` evolves each distinct history once.

Collection semantics differ by task family.  A localize-exclude region
possesses whatever crosses it: a token is collected if any fired segment
of its worldline intersects the region.  Assembly, summoning, and transfer
collections are caller groups served by sealed couriers: they receive
exactly the handovers — guarded moves that fired into their region, and
unguarded moves ending exactly on one of their return corners — plus any
broadcast whose origin can reach them.  A key counts as known once every
part of one of its split copies is in view.

Reconstruction is scored as squared fidelity with the maximally entangled
reference pair; exclusion as the trace distance between the collected view
(jointly with the reference slot) and the same view with the reference
maximally mixed, averaged over the classical values the collection holds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import qsim, schemes
from .geometry import (Diamond, Point, Region, causal_leq, path_is_causal,
                       region_in_future, worldline_intersects_region)
from .model import TaskSpec
from .planner import Plan

_UNIFORMITY_TOL = 1e-9


class EngineError(RuntimeError):
    """A plan failed an audit: it is malformed, acausal, or inconsistent."""


# --------------------------------------------------------------------
# report structures
# --------------------------------------------------------------------


def _fmt_calls(calls: Iterable[str]) -> str:
    return "{" + ", ".join(calls) + "}"


@dataclass
class CollectorResult:
    label: str
    role: str                      # "deliver" or "exclude"
    fidelity: float | None = None
    leak: float | None = None
    reconstructed: bool | None = None
    ok: bool = True

    def line(self) -> str:
        if self.role == "deliver":
            return f"deliver {self.label}: fidelity {self.fidelity:.9f}"
        tail = "" if self.reconstructed is None else (
            ", reconstruction " + ("possible" if self.reconstructed
                                   else "absent"))
        return f"exclude {self.label}: leak {self.leak:.2e}{tail}"


@dataclass
class ScenarioResult:
    calls: tuple[str, ...]
    collectors: list[CollectorResult] = field(default_factory=list)
    chi_probability: float | None = None
    fired: tuple[int, ...] = ()


@dataclass
class SimulationReport:
    kind: str
    tol: float
    scenarios: list[ScenarioResult]
    min_fidelity: float | None
    max_leak: float | None
    min_chi: float | None
    passed: bool
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"simulated {self.kind} plan: {len(self.scenarios)} "
               f"scenario(s), tol {self.tol:g}"]
        shown = 0
        for sc in self.scenarios:
            if not sc.collectors and sc.chi_probability is None:
                continue
            if shown >= 24:
                out.append("  ...")
                break
            shown += 1
            bits = [c.line() for c in sc.collectors]
            if sc.chi_probability is not None:
                bits.append(
                    f"check passes with prob {sc.chi_probability:.9f}")
            out.append(f"  calls {_fmt_calls(sc.calls)}: " + "; ".join(bits))
        if self.min_fidelity is not None:
            out.append(f"worst fidelity {self.min_fidelity:.9f}")
        if self.max_leak is not None:
            out.append(f"worst leak {self.max_leak:.2e}")
        if self.min_chi is not None:
            out.append(f"worst check probability {self.min_chi:.9f}")
        out.extend(f"note: {n}" for n in self.notes)
        out.append("PASS" if self.passed else "FAIL")
        return out


# --------------------------------------------------------------------
# static plan audit
# --------------------------------------------------------------------


_OPS = {"source", "encode", "create_pair", "key", "split", "pad", "bell",
        "broadcast", "move"}


def _guard_names(guard: dict | None) -> list[str]:
    if not guard:
        return []
    return [*guard.get("called", ()), *guard.get("not_called", ())]


def validate_plan(plan: Plan) -> None:
    """Audit a plan without running it.

    This is the one place that knows the plan rules; `_run` executes an
    audited plan and checks none of them.  The audit checks event shapes,
    token continuity (every move starts where its token rests), causal
    move paths, guard visibility (each named call point must causally
    precede the decision point), pairwise exclusivity of guarded branches
    of the same quantum token, and that a token which has branched takes
    only further guarded branches from the same resting point (no pad,
    encode, unguarded move or Bell measurement of it follows).  A guarded
    Bell measurement is such a branch of its first slot, which stays at
    rest there, since the slot is only measured when the guard fires.  Every
    quantum label a source, encode or created pair introduces is new to the
    plan and is not the reserved 'ref', since a reused label would name two
    slots.  A plan is for a spacetime task, not an abstract access
    structure.  It has exactly one source and creates no pair before it,
    so every quantum event acts on the state the source starts.  A Bell
    measurement takes two distinct slots, and its far half (the partner of
    its second slot) must still be alive, since it receives the teleported
    state.  An encode needs a qutrit secret, because the ((2,3)) code is a
    qutrit code.  It checks pad-key availability at the pad point,
    single-use pad keys, pads whose record no later event drops (an encode
    or a teleport would lose the token's pad stack), that transfer plans
    carry no pad, and — for localize-exclude plans — that the key part
    routed against each excluded region never touches it.  Raises
    EngineError with a specific message on the first violation.
    """
    task = plan.task
    if task.kind == "access_structure":
        raise EngineError("an access structure names parties, not places; "
                          "plan its embedding")
    qpos: dict[str, Point] = {}
    qguards: dict[str, list[dict]] = {}
    qbranched: set[str] = set()
    cpos: dict[str, Point] = {}
    cpaths: dict[str, list[list[Point]]] = {}
    keys: dict[str, Point] = {}
    splits: list[tuple[str, list[str]]] = []
    outcomes: dict[str, Point] = {}
    pair_of: dict[str, str] = {}
    padded: set[str] = set()           # tokens carrying a pad
    used_keys: set[str] = set()        # keys some pad already applied
    named: set[str] = set()            # every quantum label so far
    sourced = False

    def claim(labels: Sequence[str], what: str) -> None:
        for label in labels:
            if label == "ref":
                raise EngineError(f"{what}: the label 'ref' is reserved")
            if label in named:
                raise EngineError(
                    f"{what}: quantum label {label!r} is already taken")
            named.add(label)

    def reject_padded(label: str, what: str) -> None:
        if label in padded:
            raise EngineError(
                f"{what}: the pad on {label!r} would not be recorded past "
                "this event")

    def reject_branched(label: str, what: str) -> None:
        if label in qbranched:
            raise EngineError(
                f"{what}: {label!r} took a guarded branch; only further "
                "guarded branches from its resting point may follow")

    def check_guard(guard: dict | None, at: Point, what: str) -> None:
        for nm in _guard_names(guard):
            if nm not in task.diamonds:
                raise EngineError(
                    f"{what}: guard names unknown diamond {nm!r}")
            if not causal_leq(task.diamonds[nm].c, at):
                raise EngineError(
                    f"{what}: the call of {nm} is not visible at the "
                    "decision point")

    def note_qguard(label: str, guard: dict, what: str) -> None:
        for other in qguards.setdefault(label, []):
            exclusive = (
                set(other.get("called", ())) & set(guard.get("not_called", ()))
                or set(guard.get("called", ()))
                & set(other.get("not_called", ())))
            if not exclusive:
                raise EngineError(
                    f"{what}: token {label!r} has two guarded branches that "
                    "can fire together; a quantum token cannot be copied")
        qguards[label].append(guard)

    for i, ev in enumerate(plan.events):
        op = ev.get("op")
        what = f"event {i} ({op})"
        if op not in _OPS:
            raise EngineError(f"{what}: unknown op")
        if op == "source":
            if sourced:
                raise EngineError(f"{what}: a plan has a single source")
            sourced = True
            claim([ev["label"]], what)
            qpos[ev["label"]] = ev["at"]
        elif op == "encode":
            if task.secret_dim != 3:
                raise EngineError(
                    f"{what}: the 2-of-3 code is a qutrit code")
            if qpos.get(ev["input"]) != ev["at"]:
                raise EngineError(
                    f"{what}: input does not rest at the encode point")
            reject_branched(ev["input"], what)
            reject_padded(ev["input"], what)
            del qpos[ev["input"]]
            claim(ev["outputs"], what)
            for out in ev["outputs"]:
                qpos[out] = ev["at"]
        elif op == "create_pair":
            if not sourced:
                raise EngineError(f"{what}: a pair cannot precede the source")
            la, lb = ev["labels"]
            claim([la, lb], what)
            pair_of[la], pair_of[lb] = lb, la
            qpos[la] = qpos[lb] = ev["at"]
        elif op == "key":
            keys[ev["name"]] = ev["at"]
        elif op == "split":
            if ev["source"] not in keys:
                raise EngineError(f"{what}: split of an unknown key")
            if not causal_leq(keys[ev["source"]], ev["at"]):
                raise EngineError(f"{what}: split precedes its key")
            for part in ev["parts"]:
                if part in cpos:
                    raise EngineError(
                        f"{what}: part {part!r} already exists")
                cpos[part] = ev["at"]
                cpaths[part] = [[ev["at"]]]
            splits.append((ev["source"], list(ev["parts"])))
        elif op == "pad":
            if task.kind == "pit":
                raise EngineError(
                    f"{what}: a transfer plan carries no pads; the receiver "
                    "undoes no keys")
            if qpos.get(ev["token"]) != ev["at"]:
                raise EngineError(
                    f"{what}: token does not rest at the pad point")
            reject_branched(ev["token"], what)
            if ev["key"] not in keys:
                raise EngineError(f"{what}: pad with an unknown key")
            if ev["key"] in used_keys:
                raise EngineError(
                    f"{what}: key {ev['key']!r} is used by a second pad")
            used_keys.add(ev["key"])
            padded.add(ev["token"])
        elif op == "bell":
            la, lb = ev["pair"]
            if la == lb:
                raise EngineError(f"{what}: measures {la!r} against itself")
            for lab in (la, lb):
                if qpos.get(lab) != ev["at"]:
                    raise EngineError(
                        f"{what}: token {lab!r} does not rest at the "
                        "measurement point")
            if lb not in pair_of:
                raise EngineError(
                    f"{what}: second slot must be half of a created pair")
            if pair_of[lb] not in qpos:
                raise EngineError(
                    f"{what}: the far half {pair_of[lb]!r} is no longer "
                    "alive to receive the state")
            reject_branched(lb, what)
            if not ev.get("guard"):
                reject_branched(la, what)
            reject_padded(lb, what)
            reject_padded(pair_of[lb], what)
            if la in padded:
                padded.add(pair_of[lb])
            check_guard(ev.get("guard"), ev["at"], what)
            if ev.get("guard"):
                note_qguard(la, ev["guard"], what)
                qbranched.add(la)
            outcomes[ev["outcome"]] = ev["at"]
            del qpos[lb]
            if not ev.get("guard"):
                del qpos[la]
        elif op == "broadcast":
            if ev["value"] not in outcomes:
                raise EngineError(
                    f"{what}: broadcast of an unknown outcome")
            if not causal_leq(outcomes[ev["value"]], ev["at"]):
                raise EngineError(f"{what}: broadcast precedes its outcome")
        elif op == "move":
            lab, path = ev["token"], ev["path"]
            if not path_is_causal(path):
                raise EngineError(f"{what}: move path is not causal")
            guard = ev.get("guard")
            check_guard(guard, path[0], what)
            if lab in qpos:
                if qpos[lab] != path[0]:
                    raise EngineError(
                        f"{what}: move does not start at the token's "
                        "resting position")
                if guard:
                    note_qguard(lab, guard, what)
                    qbranched.add(lab)
                else:
                    if lab in qbranched:
                        raise EngineError(
                            f"{what}: unguarded move after a guarded "
                            f"branch of {lab!r}")
                    qpos[lab] = path[-1]
            elif lab in cpos:
                if cpos[lab] != path[0]:
                    raise EngineError(
                        f"{what}: move does not start at the part's "
                        "resting position")
                if not guard:
                    cpos[lab] = path[-1]
                    cpaths[lab].append(list(path))
            else:
                raise EngineError(
                    f"{what}: move of an unknown token {lab!r}")
    if not sourced:
        raise EngineError("the plan has no source")

    # pad-key availability: the key is born at the pad point, or a complete
    # split copy passes through it along unguarded moves.
    for i, ev in enumerate(plan.events):
        if ev.get("op") != "pad":
            continue
        key, at = ev["key"], ev["at"]
        if keys[key] == at:
            continue
        spot = Diamond(at, at)
        if not any(
            src == key and all(
                any(worldline_intersects_region(p, spot) for p in cpaths[part])
                for part in parts)
            for src, parts in splits
        ):
            raise EngineError(
                f"event {i} (pad): key {key!r} has no complete copy "
                "passing through the pad point")

    # localize-exclude: the part routed against each excluded region must
    # avoid it along its whole worldline.
    if task.kind == "localize_exclude" and task.unauthorized:
        m = len(task.unauthorized)
        zones = [task.collection(s)[1] for s in task.unauthorized]
        for src, parts in splits:
            if len(parts) != m:
                continue
            for l, part in enumerate(parts):
                for p in cpaths[part]:
                    if worldline_intersects_region(p, zones[l]):
                        raise EngineError(
                            f"part {part!r} crosses the excluded region "
                            "it is routed against")


# --------------------------------------------------------------------
# one scenario, one key assignment
# --------------------------------------------------------------------


@dataclass
class _Tok:
    """A quantum slot or a classical key part.  Parts use only the label
    and the two worldline records."""
    label: str
    alive: bool = True
    plain: bool = False
    share: int | None = None
    stack: list = field(default_factory=list)
    partner: str | None = None
    paths: list = field(default_factory=list)       # fired polylines
    handovers: list = field(default_factory=list)   # (endpoint, guarded)


@dataclass
class _Trace:
    state: qsim.State | None = None
    q: dict = field(default_factory=dict)
    c: dict = field(default_factory=dict)
    splits: list = field(default_factory=list)      # (key, [parts])
    casts: list = field(default_factory=list)       # (outcome, origin)
    outcomes: set = field(default_factory=set)
    fired: list = field(default_factory=list)


def _guard_ok(guard: dict | None, calls: frozenset[str]) -> bool:
    if not guard:
        return True
    return (all(nm in calls for nm in guard.get("called", ()))
            and all(nm not in calls for nm in guard.get("not_called", ())))


def _bell_collapse(state: qsim.State, i: int, la: str, lb: str,
                   d: int) -> qsim.State:
    prob, post = qsim.bell_project(state, la, lb, 0, 0)
    if abs(prob * d * d - 1.0) > _UNIFORMITY_TOL:
        raise EngineError(
            f"event {i} (bell): outcome probabilities are not "
            f"uniform (p00*d^2 = {prob * d * d:.6f}); collapsing "
            "onto one outcome would be unsound")
    return post


def _run(plan: Plan, calls: frozenset[str],
         key_values: dict[str, tuple[int, int]],
         states: dict | None = None) -> _Trace:
    """Execute the schedule for one call pattern and key assignment.

    Assumes a plan that `validate_plan` has accepted: every token an event
    names is alive and rests at the event's point, so nothing here tracks
    positions or re-checks a plan rule.  The one check left is numerical:
    the Bell outcome distribution must be uniform for the (0, 0) collapse
    to stand for every outcome.

    `states` maps a quantum history — the indices of the quantum events
    applied so far: source, encode, create_pair, a pad with a non-zero
    key, a fired Bell measurement — to the dense state after it.  Each
    step is looked up there before it is computed, so runs that share the
    dict share every state their histories have in common, and a step
    that raises is not stored.  A shared dict belongs to one plan and one
    key assignment.  A (0, 0) pad is the identity and is not applied; the
    token's stack still records it.
    """
    d = plan.task.secret_dim
    tr = _Trace()
    if states is None:
        states = {}
    history: tuple[int, ...] = ()

    def advance(i: int, step) -> None:
        nonlocal history
        history += (i,)
        state = states.get(history)
        if state is None:
            state = states[history] = step(tr.state)
        tr.state = state

    for i, ev in enumerate(plan.events):
        op = ev["op"]
        if op == "source":
            lab = ev["label"]
            advance(i, lambda _: qsim.maximally_entangled(d, ("ref", lab)))
            tr.q[lab] = _Tok(lab, plain=True, paths=[[ev["at"]]])
        elif op == "encode":
            advance(i, lambda s: schemes.code23_encode(s, ev["input"],
                                                       ev["outputs"]))
            tr.q[ev["input"]].alive = False
            for idx, out in enumerate(ev["outputs"]):
                tr.q[out] = _Tok(out, share=idx, paths=[[ev["at"]]])
        elif op == "create_pair":
            la, lb = ev["labels"]
            advance(i, lambda s: s.tensor(
                qsim.maximally_entangled(d, (la, lb))))
            tr.q[la] = _Tok(la, partner=lb, paths=[[ev["at"]]])
            tr.q[lb] = _Tok(lb, partner=la, paths=[[ev["at"]]])
        elif op == "key":
            pass
        elif op == "split":
            tr.splits.append((ev["source"], list(ev["parts"])))
            for part in ev["parts"]:
                tr.c[part] = _Tok(part, paths=[[ev["at"]]])
        elif op == "pad":
            a, b = key_values[ev["key"]]
            if (a, b) != (0, 0):
                advance(i, lambda s: schemes.qotp_encrypt(s, ev["token"],
                                                          (a, b)))
            tr.q[ev["token"]].stack.append(("pad", ev["key"]))
        elif op == "bell":
            if not _guard_ok(ev.get("guard"), calls):
                continue
            tr.fired.append(i)
            la, lb = ev["pair"]
            ta, tb = tr.q[la], tr.q[lb]
            ghost = tr.q[tb.partner]
            advance(i, lambda s: _bell_collapse(s, i, la, lb, d))
            ta.alive = tb.alive = False
            ghost.plain = ta.plain
            ghost.share = ta.share
            ghost.stack = ta.stack + [("teleport", ev["outcome"])]
            tr.outcomes.add(ev["outcome"])
        elif op == "broadcast":
            if ev["value"] in tr.outcomes:
                tr.fired.append(i)
                tr.casts.append((ev["value"], ev["at"]))
        elif op == "move":
            guard = ev.get("guard")
            if not _guard_ok(guard, calls):
                continue
            tr.fired.append(i)
            lab, path = ev["token"], ev["path"]
            tok = tr.q[lab] if lab in tr.q else tr.c[lab]
            tok.paths.append(list(path))
            tok.handovers.append((path[-1], bool(guard)))
    return tr


# --------------------------------------------------------------------
# collection
# --------------------------------------------------------------------


@dataclass
class _View:
    slots: list[str]
    keys: set[str]
    outcomes: set[str]


def _handed_over(handovers: Sequence[tuple[Point, bool]],
                 region: Region) -> bool:
    returns = [dd.r for dd in region.diamonds]
    for endpoint, guarded in handovers:
        if guarded:
            if region.contains(endpoint):
                return True
        elif any(endpoint == r for r in returns):
            return True
    return False


def _collect(trace: _Trace, region: Region, geometric: bool) -> _View:
    """What `region` collects: slots and parts whose worldline touches it
    when `geometric` (localize-exclude), else those handed over to it."""
    def hit(tok: _Tok) -> bool:
        if geometric:
            return any(worldline_intersects_region(p, region)
                       for p in tok.paths)
        return _handed_over(tok.handovers, region)

    slots = [lab for lab, tok in trace.q.items() if tok.alive and hit(tok)]
    parts = {lab for lab, tok in trace.c.items() if hit(tok)}
    known = {key for key, ps in trace.splits
             if all(p in parts for p in ps)}
    heard = {val for val, origin in trace.casts
             if region_in_future(region, origin)}
    return _View(sorted(slots), known, heard)


# --------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _reference(d: int) -> np.ndarray:
    """The maximally entangled reference pair as a read-only vector."""
    vec = qsim.maximally_entangled(d).vec
    vec.flags.writeable = False
    return vec


def _undo(state: qsim.State, tok: _Tok,
          key_values: dict[str, tuple[int, int]]) -> qsim.State:
    """Undo a token's pads, newest first.

    Its teleport corrections are not applied: the collapsed outcome is
    (0, 0), whose correction is the identity, and so is a pad with key
    (0, 0).  Both stay on the stack, which decides the keys and outcomes a
    view needs.
    """
    for kind, name in reversed(tok.stack):
        if kind == "pad" and key_values[name] != (0, 0):
            state = schemes.qotp_decrypt(state, tok.label, key_values[name])
    return state


def _reconstruct(trace: _Trace, view: _View,
                 key_values: dict[str, tuple[int, int]],
                 d: int) -> tuple[float, bool]:
    """Best decode from a view: (fidelity, whether a decode path existed)."""
    state = trace.state
    usable: list[_Tok] = []
    for lab in view.slots:
        tok = trace.q[lab]
        if all((name in view.keys) if kind == "pad"
               else (name in view.outcomes)
               for kind, name in tok.stack):
            usable.append(tok)
    for tok in usable:
        state = _undo(state, tok, key_values)
    secret = None
    plain = sorted((t for t in usable if t.plain), key=lambda t: t.label)
    if plain:
        secret = plain[0].label
    else:
        shares = sorted((t for t in usable if t.share is not None),
                        key=lambda t: (t.share, t.label))
        for ta, tb in itertools.combinations(shares, 2):
            if ta.share != tb.share:
                state = schemes.code23_decode(
                    state, (ta.share, tb.share), ta.label, tb.label)
                secret = ta.label
                break
    if secret is None:
        return 0.0, False
    dm = qsim.partial_trace(state, ["ref", secret])
    return qsim.fidelity(dm, _reference(d)), True


def _exclusion_dm(trace: _Trace, view: _View) -> np.ndarray:
    # reference slot last, so tracing out the tail leaves the view alone
    return qsim.partial_trace(trace.state, view.slots + ["ref"])


def _leak_of(dm: np.ndarray, d: int) -> float:
    """Trace distance between a view-and-reference density matrix and
    the same view with the reference (the last slot) maximally mixed."""
    n = dm.shape[0] // d
    red = np.trace(dm.reshape(n, d, n, d), axis1=1, axis2=3)
    # red (x) I/d, with the axes (view row, ref row, view col, ref col)
    mixed = np.multiply.outer(red, np.eye(d) / d).transpose(0, 2, 1, 3)
    return qsim.trace_distance(dm, mixed.reshape(n * d, n * d))


# --------------------------------------------------------------------
# scenario batteries and collections
# --------------------------------------------------------------------


def _battery(task: TaskSpec) -> list[frozenset[str]]:
    """The call patterns that score something, by size and then by sorted
    names: the one call-free scenario of localize-exclude, each diamond
    alone for summoning, and the distinct member sets of the authorized
    and unauthorized lines for assembly.  Any other assembly pattern would
    score no collection, since each is scored where exactly its diamonds
    call."""
    if task.kind == "localize_exclude":
        return [frozenset()]
    if task.kind == "summoning":
        return [frozenset({nm}) for nm in sorted(task.diamonds)]
    sets = {frozenset(s) for s in task.authorized + task.unauthorized}
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def _collections_for(task: TaskSpec):
    """(label, region, names) of every delivery and every exclusion.  A
    summoning task delivers to each diamond alone."""
    def coll(names):
        label, ds = task.collection(names)
        return label, Region(label, ds), names

    auth = ([(nm,) for nm in sorted(task.diamonds)]
            if task.kind == "summoning" else task.authorized)
    return ([coll(s) for s in auth],
            [coll(s) for s in task.unauthorized])


# --------------------------------------------------------------------
# the simulator
# --------------------------------------------------------------------


def simulate(plan: Plan, tol: float = 1e-9,
             max_key_enumeration: int = 3, key_samples: int = 24,
             access: str | None = None,
             calls: Iterable[str] | None = None) -> SimulationReport:
    """Run a plan over its scenario battery and score every collection.

    Every delivery set is scored in the scenario where exactly its
    diamonds call (localize-exclude has a single call-free scenario), and
    every excluded set in the scenario where exactly *its* diamonds call —
    which is what makes over-calling patterns the interesting ones.  So
    the battery holds just those patterns (see `_battery`): an assembly
    task runs the distinct member sets of its authorized and unauthorized
    lines, not all 2^n call patterns.  Each scenario runs once, with
    every pad key at (0, 0), and the scores are exact over all key values:
    a delivery undoes every pad on the slots it can use and traces the
    rest out, and an exclusion is scored through the exact Weyl twirl over
    the keys its view lacks (a collected slot padded with such a key
    averages to the maximally mixed state).  The scenarios share one table
    of dense states, so each distinct quantum history (see `_run`) is
    evolved once per call.

    `max_key_enumeration` and `key_samples` no longer change the result;
    they are kept because the benchmark tracer
    (`perfbench/tracer.py::_count_simulate`) reads them by name.  `access`
    restricts scoring to the one named collection; `calls` restricts the
    battery to the one given call pattern.  An unknown label or diamond,
    or a choice that leaves no collection to score, raises ValueError
    naming it rather than reporting a vacuous PASS.  Transfer tasks fix
    their own scenarios and accept neither.  EngineError means the plan
    failed its audit.
    """
    validate_plan(plan)
    task = plan.task
    d = task.secret_dim
    if task.kind == "pit":
        if access is not None or calls is not None:
            raise ValueError("transfer scenarios are fixed by the task")
        return _simulate_pit(plan, tol)
    if calls is not None:
        bad = set(calls) - set(task.diamonds)
        if bad:
            raise ValueError(f"unknown call diamonds {sorted(bad)}")
        if task.kind == "localize_exclude":
            raise ValueError("localize-exclude has no call pattern")

    zero = {ev["name"]: (0, 0) for ev in plan.events if ev["op"] == "key"}
    deliveries, exclusions = _collections_for(task)
    if access is not None:
        deliveries = [t for t in deliveries if t[0] == access]
        exclusions = [t for t in exclusions if t[0] == access]
        if not deliveries and not exclusions:
            raise ValueError(
                f"no authorized or excluded collection labeled {access!r}")
    geometric = task.kind == "localize_exclude"
    if calls is None:
        battery = _battery(task)
    else:
        battery = [frozenset(calls)]
        if battery[0] not in {frozenset(members)
                              for *_, members in deliveries + exclusions}:
            scope = "" if access is None else f" with access {access!r}"
            raise ValueError(
                f"call pattern {_fmt_calls(sorted(battery[0]))} scores no "
                f"collection{scope}")
    scenarios: list[ScenarioResult] = []
    fids: list[float] = []
    leaks: list[float] = []
    states: dict = {}

    for pattern in battery:
        trace = _run(plan, pattern, zero, states)
        res = ScenarioResult(calls=tuple(sorted(pattern)),
                             fired=tuple(trace.fired))
        for role, group in (("deliver", deliveries),
                            ("exclude", exclusions)):
            for label, region, members in group:
                if not geometric and frozenset(members) != pattern:
                    continue
                view = _collect(trace, region, geometric)
                fid, found = _reconstruct(trace, view, zero, d)
                if role == "deliver":
                    fids.append(fid)
                    res.collectors.append(CollectorResult(
                        label, role, fidelity=fid, reconstructed=found,
                        ok=fid >= 1.0 - tol))
                else:
                    leak = _twirl_leak(trace, view, d)
                    leaks.append(leak)
                    res.collectors.append(CollectorResult(
                        label, role, leak=leak, reconstructed=found,
                        ok=leak <= tol))
        scenarios.append(res)

    min_fid = min(fids) if fids else None
    max_leak = max(leaks) if leaks else None
    passed = ((min_fid is None or min_fid >= 1.0 - tol)
              and (max_leak is None or max_leak <= tol))
    notes = [f"{len(zero)} pad key(s), exact Weyl twirl over the keys "
             "each view lacks"]
    return SimulationReport(task.kind, tol, scenarios, min_fid,
                            max_leak, None, passed, notes)


def _twirl_leak(base: _Trace, view: _View, d: int) -> float:
    """Exclusion metric, exact over every key assignment.

    Averaging a collected slot over a uniform pad key it cannot undo is
    the Weyl twirl, which maps any state to the maximally mixed one;
    conditioned on the keys the view does hold, the blocks differ only by
    known unitaries, so the single all-zero-key run suffices.  Slot by
    slot is exact because `validate_plan` admits each key on one pad only.
    """
    dm = _exclusion_dm(base, view)
    dims = [d] * (len(view.slots) + 1)
    for idx, lab in enumerate(view.slots):
        tok = base.q[lab]
        if any(kind == "pad" and name not in view.keys
               for kind, name in tok.stack):
            dm = qsim.depolarize_slot(dm, dims, idx)
    return _leak_of(dm, d)


# --------------------------------------------------------------------
# party-independent transfer
# --------------------------------------------------------------------


def _pit_battery(task: TaskSpec) -> list[tuple[int, str, frozenset[str]]]:
    """All honest scenarios: the receiving party crossed with the choice
    of the pair whose share is left to the other party."""
    out = []
    pnames = [pname for pname, _, _ in task.pit_pairs()]
    for receiver in (1, 2):
        other = 3 - receiver
        for third in pnames:
            calls = {f"{p}{receiver}" for p in pnames if p != third}
            calls.add(f"{third}{other}")
            out.append((receiver, third, frozenset(calls)))
    return out


def _simulate_pit(plan: Plan, tol: float) -> SimulationReport:
    task = plan.task
    d = task.secret_dim
    pair_map = {pname: (d1, d2) for pname, d1, d2 in task.pit_pairs()}
    scenarios: list[ScenarioResult] = []
    fids: list[float] = []
    chis: list[float] = []

    states: dict = {}

    for receiver, third, calls in _pit_battery(task):
        tr = _run(plan, calls, {}, states)
        mine = [p for p in pair_map if p != third]
        region = Region("receiver", tuple(
            pair_map[p][receiver - 1] for p in mine))
        view = _collect(tr, region, geometric=False)
        toks = sorted(
            (tr.q[lab] for lab in view.slots
             if tr.q[lab].share is not None),
            key=lambda t: (t.share, t.label))
        if len(toks) != 2 or toks[0].share == toks[1].share:
            raise EngineError(
                "the receiver did not end up with two distinct code "
                f"shares in scenario {_fmt_calls(sorted(calls))}")
        # a transfer plan carries no pads, and its teleport corrections
        # are the identity, so there is nothing to undo before decoding
        state = schemes.code23_decode(
            tr.state, (toks[0].share, toks[1].share),
            toks[0].label, toks[1].label)
        fid = qsim.fidelity(
            qsim.partial_trace(state, ["ref", toks[0].label]),
            _reference(d))
        spare = 3 - toks[0].share - toks[1].share
        spares = [t for t in tr.q.values()
                  if t.alive and t.share == spare]
        if len(spares) != 1:
            raise EngineError("exactly one code share must be left over")
        other_region = Region(
            "other", (pair_map[third][2 - receiver],))
        if not _handed_over(spares[0].handovers, other_region):
            raise EngineError(
                "the left-over share was not delivered to the other party")
        chi = qsim.fidelity(
            qsim.partial_trace(state, [toks[1].label, spares[0].label]),
            schemes.chi_state())
        fids.append(fid)
        chis.append(chi)
        scenarios.append(ScenarioResult(
            calls=tuple(sorted(calls)), fired=tuple(tr.fired),
            collectors=[CollectorResult(
                f"party{receiver}", "deliver", fidelity=fid,
                ok=fid >= 1.0 - tol)],
            chi_probability=chi))

    min_fid = min(fids)
    min_chi = min(chis)
    passed = min_fid >= 1.0 - tol and min_chi >= 1.0 - tol
    return SimulationReport(
        "pit", tol, scenarios, min_fid, None, min_chi, passed,
        ["all honest receiver and left-over pair choices enumerated"])


def pit_cheat_chi_probability() -> float:
    """Best certification probability against the two-codeword cheat.

    A dishonest sender prepares two independent codewords: one whose
    shares reach the chosen receiver, and one of a decoy state that
    contributes the share kept by the other party.  The pass probability
    is a quadratic form in the decoy.  With the decoy purified as half of
    a maximally entangled (phi, anc) pair, the 3x3 operator
    M = 3 Tr_{a1,b2}[(|chi><chi| (x) I) rho_{a1,b2,anc}] gives decoy phi
    the pass probability <phi*|M|phi*>, so its largest eigenvalue is the
    best decoy's.  All three eigenvalues are 1/9: the two checked slots
    are maximally mixed and uncorrelated whatever the decoy.
    """
    state = qsim.maximally_entangled(3, ("ref", "psi"))
    state = schemes.code23_encode(state, "psi", ["a0", "a1", "a2"])
    state = state.tensor(qsim.maximally_entangled(3, ("phi", "anc")))
    state = schemes.code23_encode(state, "phi", ["b0", "b1", "b2"])
    state = schemes.code23_decode(state, (0, 1), "a0", "a1")
    rho = qsim.partial_trace(state, ["a1", "b2", "anc"]).reshape(9, 3, 9, 3)
    chi = schemes.chi_state()
    m = 3 * np.einsum("i,iajb,j->ab", chi.conj(), rho, chi)
    return float(np.linalg.eigvalsh(m)[-1])
