"""Spans and computed counters recorded around stq's layer boundaries.

Nothing in stq is edited.  `Tracer.install` replaces the public entry
points where their callers look them up -- the package attributes the
benchmark calls, the names the planner, checker and engine imported from
geometry and feasibility, and the `qsim` / `schemes` module attributes the
engine calls through -- and restores them on exit.

Each call becomes a span: name, start, end, parent span and task id, kept
in flat in-memory arrays and written out once at the end.  A span's self
time is its duration minus the time its child spans cover.  Counters whose
name ends in `_computed` are derived from call arguments or results, not
read from stq.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from collections import defaultdict

import numpy as np

TASK_SPAN = "bench.task"
LAYERS = ("model", "feasibility", "geometry", "planner", "engine", "qsim",
          "schemes")


# --------------------------------------------------------------------
# counters computed from call arguments and results
# --------------------------------------------------------------------


def _box_corners(obj):
    """(u_lo, u_hi, v_lo, v_hi) of a point, diamond, region or iterable of
    diamonds -- the boxes geometry's escape grid is built from."""
    if hasattr(obj, "t"):                      # a Point: degenerate box
        return [(obj.u, obj.u, obj.v, obj.v)]
    diamonds = obj.diamonds if hasattr(obj, "diamonds") else (
        [obj] if hasattr(obj, "c") else list(obj))
    return [(d.c.u, d.r.u, d.c.v, d.r.v) for d in diamonds]


def escape_faces(through, avoiding) -> int:
    """Faces of the escape grid: cells, both edge kinds and vertices over
    the distinct u and v breakpoints plus one sentinel on each side."""
    boxes = _box_corners(through) + _box_corners(avoiding)
    nu = len({b[0] for b in boxes} | {b[1] for b in boxes}) + 2
    nv = len({b[2] for b in boxes} | {b[3] for b in boxes}) + 2
    return (nu - 1) * (nv - 1) + nu * (nv - 1) + (nu - 1) * nv + nu * nv


def _count_escape(tr, args, kwargs, result):
    if len(args) >= 2:
        tr.counters["geometry.escape.faces_computed"] += escape_faces(
            args[0], args[1])


def _count_apply_unitary(tr, args, kwargs, result):
    _note_dim(tr, args, kwargs, result)
    n = args[0].vec.shape[0]
    k = args[1].shape[0]
    c = tr.counters
    c["qsim.apply_unitary.ops_computed"] += n * k      # complex mult-adds
    # state read and written once, gate read once, complex128
    c["qsim.apply_unitary.bytes_computed"] += 16 * (2 * n + k * k)


def _note_dim(tr, args, kwargs, result):
    for obj in (args[0] if args else None, result):
        vec = getattr(obj, "vec", None)
        if vec is not None and vec.shape[0] > tr.peak_dim:
            tr.peak_dim = vec.shape[0]


def _count_plan(tr, args, kwargs, result):
    tr.counters["planner.events"] += len(result.events)


def _count_simulate(tr, args, kwargs, result):
    """Scenarios from the report; key assignments from the plan's `key`
    events and simulate's enumeration rule (every Weyl pair per key while
    there are at most `max_key_enumeration` keys, else `key_samples`
    draws)."""
    tr.counters["engine.scenarios"] += len(result.scenarios)
    bound = tr.simulate_sig.bind(*args, **kwargs)
    bound.apply_defaults()
    plan = bound.arguments["plan"]
    if plan.task.kind == "pit":
        return
    keys = sum(1 for ev in plan.events if ev["op"] == "key")
    d = plan.task.secret_dim
    n = ((d * d) ** keys if keys <= bound.arguments["max_key_enumeration"]
         else bound.arguments["key_samples"])
    tr.counters["engine.key_assignments_computed"] += n


# --------------------------------------------------------------------
# the tracer
# --------------------------------------------------------------------


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.task = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.peak_dim = 0
        self.simulate_sig = None
        self.missing: list[str] = []
        self._task_run = self.wrap(TASK_SPAN, "bench", lambda fn, *a: fn(*a))

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def wrap(self, name: str, layer: str, fn, after=None):
        """`fn` with every call recorded as a span; `after(tracer, args,
        kwargs, result)` updates counters once the call returned."""
        nid = self._name_id(name, layer)
        clock = self.clock
        s_name, s_parent, s_task = (self.span_name, self.span_parent,
                                    self.span_task)
        s_start, s_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(s_name)
            s_name.append(nid)
            s_parent.append(self.current)
            s_task.append(self.task)
            s_end.append(0.0)
            self.current = i
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[i] = clock()
                self.current = s_parent[i]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def run_task(self, task_id: int, fn, *args):
        """`fn(*args)` under the root span of pipeline run `task_id`."""
        self.task = task_id
        try:
            return self._task_run(fn, *args)
        finally:
            self.task = -1

    def _sites(self, stq):
        """(owner, attribute, span name, layer, counter) for every entry
        point, named by the function's home module."""
        sites = [
            (stq, "parse_task", "model.parse_task", "model", None),
            (stq, "check_task", "feasibility.check_task", "feasibility",
             None),
            (stq, "plan_task", "planner.plan_task", "planner", _count_plan),
            (stq, "simulate", "engine.simulate", "engine", _count_simulate),
            # the re-check plan_task runs before planning
            (stq.planner, "check_task", "planner.check_task", "feasibility",
             None),
            (stq.feasibility, "escape_exists", "geometry.escape_exists",
             "geometry", _count_escape),
            (stq.planner, "escape_exists", "geometry.escape_exists",
             "geometry", _count_escape),
            (stq.planner, "extract_escape_path",
             "geometry.extract_escape_path", "geometry", _count_escape),
            (stq.engine, "worldline_intersects_region",
             "geometry.worldline_intersects_region", "geometry", None),
            (stq.engine, "validate_plan", "engine.validate_plan", "engine",
             None),
            (stq.qsim.State, "tensor", "qsim.State.tensor", "qsim",
             _note_dim),
        ]
        for mod, layer in ((stq.qsim, "qsim"), (stq.schemes, "schemes")):
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    counter = (_count_apply_unitary if attr == "apply_unitary"
                               else _note_dim if layer == "qsim" else None)
                    sites.append((mod, attr, f"{layer}.{attr}", layer,
                                  counter))
        return sites

    @contextlib.contextmanager
    def install(self, stq):
        """Swap every entry point for its traced form; undo on exit."""
        self.simulate_sig = inspect.signature(stq.simulate)
        saved = []
        try:
            for owner, attr, name, layer, after in self._sites(stq):
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, layer, fn, after))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # ----------------------------------------------------------------
    # analysis
    # ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.span_name, dtype=np.int32),
                "parent": np.array(self.span_parent, dtype=np.int32),
                "task": np.array(self.span_task, dtype=np.int32),
                "start": np.array(self.span_start, dtype=np.float64),
                "end": np.array(self.span_end, dtype=np.float64)}

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, busy seconds and self seconds per span name.  Busy time
        counts a span nested inside another of the same name once."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            idx = np.flatnonzero(a["name"] == nid)
            if idx.size == 0:
                out[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                continue
            # spans of one name in start order; one inside an earlier one
            # starts before the running maximum of the earlier ends
            ends = np.maximum.accumulate(a["end"][idx])
            outer = np.ones(idx.size, dtype=bool)
            outer[1:] = a["start"][idx][1:] >= ends[:-1]
            out[name] = {"calls": int(idx.size),
                         "busy_s": float(dur[idx][outer].sum()),
                         "self_s": float(self_s[idx].sum())}
        return out

    def layer_self(self, rows: dict) -> dict[str, float]:
        """Self seconds per layer, from `per_name()` rows."""
        totals = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for name, row in rows.items():
            totals[self.layers[self._ids[name]]] += row["self_s"]
        return totals

    def save(self, path) -> None:
        """Write every span, with the name and layer tables."""
        np.savez_compressed(path, names=np.array(self.names),
                            layers=np.array(self.layers), **self.arrays())
