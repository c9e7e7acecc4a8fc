"""Task descriptions and the .stq interchange format.

A task file is line oriented:

    # comment
    task localize_exclude            (or state_assembly, summoning:<variant>,
                                      pit, access_structure)
    dim 1
    secret_dim 3
    start (t, x, ...)
    party NAME                       (access_structure only)
    diamond NAME c=(t, x...) r=(t, x...)
    region NAME {
        diamond c=(t, x...) r=(t, x...)
        box u=[a, b] v=[c, d]        (sugar, one spatial dimension only)
    }
    authorized NAME NAME ...         (one name set per line)
    unauthorized NAME NAME ...

Coordinates and box bounds are finite decimal numbers; `nan`, `inf` and
values that overflow a float are parse errors.  Access-structure name sets
list parties; in every other task what a name set on an
authorized/unauthorized line denotes is `TaskSpec.collection`: the union of
the named regions for localize-exclude tasks, the named diamonds otherwise.
One name-set rule holds for all three kinds: a set is not empty, names no
name twice and names only known parties, regions or diamonds, and no set
repeats within the authorized lines or within the unauthorized lines.  A
set on both an authorized and an unauthorized line is not an error, since
the checker reports it as a condition-III violation.
`summoning:multiple_call_multiple_return` is read as the state_assembly
task it is.  Parse errors carry 1-based line numbers.  A `TaskSpec` is
frozen and validates itself when it is made, however it is made, so every
task in hand is valid.  The serializer emits a canonical form that parses
back to an identical task.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Sequence

from .geometry import (Diamond, Point, Region, causal_leq, connected,
                       from_lightcone, point)

SUMMONING_VARIANTS = ("single_call_single_return", "unrestricted")

_KINDS = ("localize_exclude", "state_assembly", "summoning", "pit",
          "access_structure")


class TaskError(ValueError):
    """Invalid task content."""


class TaskFormatError(TaskError):
    """Syntax error in a .stq file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class TaskSpec:
    """One spacetime task instance, valid from construction on.

    `__post_init__` raises TaskError on structural problems, so a parsed
    task, an embedded one, a `dataclasses.replace` copy and a task built in
    code are all validated once, when they are made.  The task is frozen;
    its `regions` and `diamonds` dicts must not be changed in place either.
    Geometry-level problems (unreachable regions etc.) are the feasibility
    checker's job."""

    kind: str
    dim: int = 1
    variant: str | None = None
    start: Point | None = None
    secret_dim: int = 3
    regions: dict[str, Region] = field(default_factory=dict)
    diamonds: dict[str, Diamond] = field(default_factory=dict)
    parties: tuple[str, ...] = ()
    authorized: tuple[tuple[str, ...], ...] = ()
    unauthorized: tuple[tuple[str, ...], ...] = ()

    # The verdict, stored on the instance by the first `check_task` call.
    # Not a field, so equality and repr still see the task alone, and a
    # `dataclasses.replace` copy is checked afresh.
    _verdict = None

    # ---- naming helpers -------------------------------------------------

    @staticmethod
    def set_label(names: Sequence[str]) -> str:
        """Canonical label of a name set, used in verdicts and plans."""
        return "+".join(names)

    def collection(self, names: Sequence[str]
                   ) -> tuple[str, tuple[Diamond, ...]]:
        """What a name set denotes: its label and its diamonds.  Names are
        regions in a localize-exclude task, where the set is their union,
        and diamonds in every other geometric kind."""
        if self.kind == "localize_exclude":
            ds = [d for n in names for d in self.regions[n].diamonds]
        else:
            ds = [self.diamonds[n] for n in names]
        return self.set_label(names), tuple(ds)

    # ---- validation -----------------------------------------------------

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise TaskError(f"unknown task kind {self.kind!r}")
        if self.kind == "summoning":
            if self.variant not in SUMMONING_VARIANTS:
                raise TaskError(f"unknown summoning variant {self.variant!r}")
        if self.secret_dim < 2:
            raise TaskError("secret_dim must be at least 2")
        if self.kind == "access_structure":
            if not self.parties:
                raise TaskError("access structure has no parties")
            if len(set(self.parties)) != len(self.parties):
                raise TaskError("duplicate party names")
            self._validate_sets()
            return
        if self.start is None:
            raise TaskError("task has no start point")
        if self.start.dim != self.dim:
            raise TaskError("start point dimension does not match dim")
        for name, d in self.diamonds.items():
            if d.dim != self.dim:
                raise TaskError(f"diamond {name!r} has wrong dimension")
        for name, r in self.regions.items():
            for d in r.diamonds:
                if d.dim != self.dim:
                    raise TaskError(f"region {name!r} has wrong dimension")
        if self.kind in ("localize_exclude", "state_assembly"):
            self._validate_sets()
        elif self.kind == "summoning":
            if self.authorized or self.unauthorized:
                raise TaskError(
                    f"summoning:{self.variant} takes no authorized or "
                    "unauthorized lines")
            if not self.diamonds:
                raise TaskError("summoning task has no diamonds")
        elif self.kind == "pit":
            self._validate_pit()

    def _validate_sets(self) -> None:
        """The one name-set rule.  Names are parties (access structures),
        regions (localize-exclude) or diamonds (assembly).  There is at
        least one authorized set; no set is empty, names a name twice or
        names an unknown one; and no set repeats within the authorized
        lines or within the unauthorized ones.  A set on both sides is not
        an error here: the checker reports it as a III violation."""
        if self.kind == "access_structure":
            noun, known, stray = "party", self.parties, None
        elif self.kind == "localize_exclude":
            noun, known, stray = "region", self.regions, self.diamonds
        else:
            noun, known, stray = "diamond", self.diamonds, self.regions
        if not self.authorized:
            raise TaskError("task has no authorized sets")
        if stray:
            raise TaskError(f"this task kind uses named {noun}s only")
        for sets in (self.authorized, self.unauthorized):
            seen: set[tuple[str, ...]] = set()
            for s in sets:
                if not s:
                    raise TaskError("empty name set")
                if len(set(s)) != len(s):
                    raise TaskError(
                        f"duplicate names in set {self.set_label(s)!r}")
                if s in seen:
                    raise TaskError(
                        f"duplicate name set {self.set_label(s)!r}")
                seen.add(s)
                for n in s:
                    if n not in known:
                        raise TaskError(f"unknown {noun} {n!r}")

    def _validate_pit(self) -> None:
        if self.authorized or self.unauthorized:
            raise TaskError("pit tasks take no authorized or unauthorized lines")
        names = sorted(self.diamonds)
        if len(names) != 6:
            raise TaskError("pit tasks need exactly six diamonds")
        pairs: dict[str, dict[str, Diamond]] = {}
        for n in names:
            if len(n) < 2 or n[-1] not in "12":
                raise TaskError(
                    f"pit diamond {n!r} must be named <pair><party>, e.g. a1")
            pairs.setdefault(n[:-1], {})[n[-1]] = self.diamonds[n]
        if len(pairs) != 3 or any(set(v) != {"1", "2"} for v in pairs.values()):
            raise TaskError("pit tasks need three pairs with parties 1 and 2")
        for pname, pair in pairs.items():
            d1, d2 = pair["1"], pair["2"]
            if not (causal_leq(d1.c, d2.r) and causal_leq(d2.c, d1.r)):
                raise TaskError(
                    f"pit pair {pname!r} is not cross-connected")
        plist = sorted(pairs)
        for i, pa in enumerate(plist):
            for pb in plist[i + 1:]:
                for da in pairs[pa].values():
                    for db in pairs[pb].values():
                        if connected(da, db):
                            raise TaskError(
                                f"pit pairs {pa!r} and {pb!r} must be "
                                "causally disconnected")
        assert self.start is not None
        for n in names:
            if not causal_leq(self.start, self.diamonds[n].c):
                raise TaskError(
                    f"pit start must causally precede call point of {n!r}")

    def pit_pairs(self) -> list[tuple[str, Diamond, Diamond]]:
        """(pair name, party-1 diamond, party-2 diamond), pair names sorted."""
        pairs: dict[str, dict[str, Diamond]] = {}
        for n, d in self.diamonds.items():
            pairs.setdefault(n[:-1], {})[n[-1]] = d
        return [(p, pairs[p]["1"], pairs[p]["2"]) for p in sorted(pairs)]


# --------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------


def _parse_number(tok: str, lineno: int) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise TaskFormatError(lineno, f"bad number {tok!r}") from None
    if not isfinite(x):
        raise TaskFormatError(lineno, f"number {tok!r} is not finite")
    return x


def _parse_point(text: str, lineno: int, dim: int | None) -> Point:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise TaskFormatError(lineno, f"expected a point, got {text!r}")
    parts = [p for p in text[1:-1].split(",") if p.strip()]
    coords = [_parse_number(p.strip(), lineno) for p in parts]
    if len(coords) < 2:
        raise TaskFormatError(lineno, "a point needs t plus spatial coordinates")
    if dim is not None and len(coords) != dim + 1:
        raise TaskFormatError(
            lineno, f"point has {len(coords) - 1} spatial coordinates, "
                    f"expected {dim}")
    return point(*coords)


def _parse_interval(key: str, inner: str,
                    lineno: int) -> tuple[float, float]:
    """The bounds of a box's `key=[inner]`."""
    parts = inner.split(",")
    if len(parts) != 2:
        raise TaskFormatError(
            lineno, f"expected two bounds in '{key}=[{inner}]'")
    lo = _parse_number(parts[0].strip(), lineno)
    hi = _parse_number(parts[1].strip(), lineno)
    if hi < lo:
        raise TaskFormatError(lineno, f"empty interval in '{key}=[{inner}]'")
    return lo, hi


def _make_diamond(cpt: Point, rpt: Point, lineno: int) -> Diamond:
    try:
        return Diamond(cpt, rpt)
    except ValueError as exc:
        raise TaskFormatError(lineno, str(exc)) from None


# A diamond body: the two points `c=(..)` and `r=(..)` in either order.
# Space may stand around each point and before its `=`, not after it.
_DIAMOND_BODY = re.compile(
    r"\s*([cr])\s*=(\([^)]*\))\s*([cr])\s*=(\([^)]*\))\s*")


def _parse_diamond(body: str, lineno: int, dim: int) -> Diamond:
    """The diamond of a `diamond` line's `c=(..) r=(..)` body, top-level
    or inside a region block."""
    m = _DIAMOND_BODY.fullmatch(body)
    if m is None or m[1] == m[3]:
        raise TaskFormatError(lineno, "diamond needs c=(..) r=(..)")
    kv = {m[1]: m[2], m[3]: m[4]}
    return _make_diamond(_parse_point(kv["c"], lineno, dim),
                         _parse_point(kv["r"], lineno, dim), lineno)


def parse_task(text: str) -> TaskSpec:
    """Parse .stq content; raises TaskFormatError with line numbers, and
    TaskError for a task its constructor rejects (see `TaskSpec`)."""
    kind: str | None = None
    variant: str | None = None
    dim = 1
    secret_dim = 3
    start: Point | None = None
    regions: dict[str, Region] = {}
    diamonds: dict[str, Diamond] = {}
    parties: list[str] = []
    authorized: list[tuple[str, ...]] = []
    unauthorized: list[tuple[str, ...]] = []

    region_name: str | None = None
    region_diamonds: list[Diamond] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if region_name is not None:
            if line == "}":
                if not region_diamonds:
                    raise TaskFormatError(lineno,
                                          f"region {region_name!r} is empty")
                regions[region_name] = Region(region_name,
                                              tuple(region_diamonds))
                region_name, region_diamonds = None, []
                continue
            if line.startswith("diamond "):
                region_diamonds.append(
                    _parse_diamond(line[len("diamond "):], lineno, dim))
                continue
            if line.startswith("box "):
                if dim != 1:
                    raise TaskFormatError(
                        lineno, "box sugar needs one spatial dimension")
                match = re.fullmatch(
                    r"box\s+u=\[([^\]]*)\]\s+v=\[([^\]]*)\]", line)
                if match is None:
                    raise TaskFormatError(lineno, "box needs u=[..] v=[..]")
                u_lo, u_hi = _parse_interval("u", match.group(1), lineno)
                v_lo, v_hi = _parse_interval("v", match.group(2), lineno)
                cpt = from_lightcone(u_lo, v_lo)
                rpt = from_lightcone(u_hi, v_hi)
                region_diamonds.append(_make_diamond(cpt, rpt, lineno))
                continue
            raise TaskFormatError(lineno,
                                  f"unexpected {line!r} inside region block")

        toks = line.split()
        head = toks[0]
        if head == "task":
            if kind is not None:
                raise TaskFormatError(lineno, "duplicate task line")
            if len(toks) != 2:
                raise TaskFormatError(lineno, "task line needs one kind")
            kind = toks[1]
            if kind == "summoning:multiple_call_multiple_return":
                kind = "state_assembly"
            elif kind.startswith("summoning:"):
                kind, variant = "summoning", kind.split(":", 1)[1]
        elif head == "dim":
            if len(toks) != 2 or not toks[1].isdigit() or int(toks[1]) < 1:
                raise TaskFormatError(lineno, "dim needs a positive integer")
            dim = int(toks[1])
        elif head == "secret_dim":
            if len(toks) != 2 or not toks[1].isdigit():
                raise TaskFormatError(lineno, "secret_dim needs an integer")
            secret_dim = int(toks[1])
        elif head == "start":
            start = _parse_point(line[len("start"):].strip(), lineno, dim)
        elif head == "party":
            if len(toks) != 2:
                raise TaskFormatError(lineno, "party needs one name")
            parties.append(toks[1])
        elif head == "diamond":
            rest = line[len("diamond"):].strip()
            name, _, body = rest.partition(" ")
            if not name or "=" in name:
                raise TaskFormatError(lineno, "top-level diamond needs a name")
            if name in diamonds:
                raise TaskFormatError(lineno, f"duplicate diamond {name!r}")
            diamonds[name] = _parse_diamond(body, lineno, dim)
        elif head == "region":
            if len(toks) != 3 or toks[2] != "{":
                raise TaskFormatError(lineno, "region line must be: region NAME {")
            if toks[1] in regions:
                raise TaskFormatError(lineno, f"duplicate region {toks[1]!r}")
            region_name = toks[1]
        elif head == "authorized":
            if len(toks) < 2:
                raise TaskFormatError(lineno, "authorized needs at least one name")
            authorized.append(tuple(toks[1:]))
        elif head == "unauthorized":
            if len(toks) < 2:
                raise TaskFormatError(lineno, "unauthorized needs at least one name")
            unauthorized.append(tuple(toks[1:]))
        else:
            raise TaskFormatError(lineno, f"unknown directive {head!r}")

    if region_name is not None:
        raise TaskFormatError(len(text.splitlines()),
                              f"unterminated region {region_name!r}")
    if kind is None:
        raise TaskFormatError(1, "missing task line")

    return TaskSpec(
        kind=kind, dim=dim, variant=variant, start=start,
        secret_dim=secret_dim, regions=regions, diamonds=diamonds,
        parties=tuple(parties), authorized=tuple(authorized),
        unauthorized=tuple(unauthorized),
    )


# --------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_point(p: Point) -> str:
    return "(" + ", ".join(_fmt_num(c) for c in (p.t, *p.x)) + ")"


def serialize_task(task: TaskSpec) -> str:
    """Canonical .stq text; parse_task(serialize_task(t)) reproduces t."""
    out: list[str] = []
    kind = task.kind if task.variant is None else f"{task.kind}:{task.variant}"
    out.append(f"task {kind}")
    if task.kind != "access_structure":
        out.append(f"dim {task.dim}")
        out.append(f"secret_dim {task.secret_dim}")
        if task.start is not None:
            out.append(f"start {_fmt_point(task.start)}")
    for p in task.parties:
        out.append(f"party {p}")
    for name, d in task.diamonds.items():
        out.append(f"diamond {name} c={_fmt_point(d.c)} r={_fmt_point(d.r)}")
    for name, region in task.regions.items():
        out.append(f"region {name} {{")
        for d in region.diamonds:
            out.append(f"    diamond c={_fmt_point(d.c)} r={_fmt_point(d.r)}")
        out.append("}")
    for s in task.authorized:
        out.append("authorized " + " ".join(s))
    for s in task.unauthorized:
        out.append("unauthorized " + " ".join(s))
    return "\n".join(out) + "\n"


def load_task(path: str | Path) -> TaskSpec:
    return parse_task(Path(path).read_text())


def fixture(name: str) -> TaskSpec:
    """Load a packaged example task by name (e.g. 'fig1')."""
    res = importlib.resources.files("stq").joinpath("fixtures", f"{name}.stq")
    return parse_task(res.read_text())


def fixture_names() -> list[str]:
    res = importlib.resources.files("stq").joinpath("fixtures")
    return sorted(p.name[:-4] for p in res.iterdir() if p.name.endswith(".stq"))


# --------------------------------------------------------------------
# access-structure embedding
# --------------------------------------------------------------------


def embed_access_structure(structure: TaskSpec) -> TaskSpec:
    """Geometric realization of an access-structure task.

    Each party becomes a point diamond at time 0, one unit apart along the
    x axis so distinct parties are spacelike separated; the start point sits
    far enough in the past to reach them all.  The resulting
    localize-exclude task's verdict coincides with the structure check: two
    embedded regions are causally connected exactly when they share a party,
    and an escape through one point set avoiding another exists exactly when
    the first is not contained in the second.  Raises TaskError for a task
    of any other kind.
    """
    if structure.kind != "access_structure":
        raise TaskError(
            f"a {structure.kind} task is not an access structure")
    parties = structure.parties
    regions: dict[str, Region] = {}
    for i, name in enumerate(parties):
        p = point(0.0, i)
        regions[name] = Region(name, (Diamond(p, p),))
    start = point(-2.0 * max(1, len(parties)), 0.0)
    return TaskSpec(
        kind="localize_exclude", dim=1, start=start,
        regions=regions, authorized=structure.authorized,
        unauthorized=structure.unauthorized,
    )
