"""Causal order and monotone-curve reachability in flat spacetime.

Points carry coordinates ``(t, x_1, ..., x_n)`` with metric signature
(+, -, ..., -).  The causal order is

    p <= q   iff   t_q - t_p >= |x_q - x_p|_2 .

In one spatial dimension the light-cone chart

    u = t - x,   v = t + x

turns that order into the product order on R^2: future-directed causal curves
are exactly the monotone nondecreasing paths in (u, v), and causal diamonds
are closed axis-aligned boxes.  Every decision procedure in this module
(escape, witness extraction, worldline contact) works in that chart and is
exact -- no sampling, no tolerance bands.

The escape decision collects all obstacle and target bounds into a breakpoint
grid and decides reachability on the *face graph* of the grid: nodes are the
obstacle-free open cells, open edges and vertices; arcs are the monotone
transitions between faces sharing boundary.  Two facts make the face graph
lossless (both rely on every box bound lying on a grid line):

  * a free open edge implies both adjacent cells are free, and
  * a free vertex implies all four incident edges (hence all four cells) are
    free,

so an admissible monotone curve can be retraced face by face -- including
curves that ride a grid line or thread a corner -- and conversely every
face-graph path is realizable as a curve.  Degenerate (point) diamonds are
single grid vertices and block exactly themselves.

The faces live on the *refined* grid: index 2i is the breakpoint line i and
2i + 1 the open interval after it, so a face's kind is the parity of its two
indices and an obstacle blocks one rectangle of indices.  Once the
breakpoints are sorted, only integers are compared.  Reachability is a sweep
over that grid, one row at a time, with each row a Python ``int`` bitset:
forward from the source cell below every breakpoint, and backward, by the
same sweep on the reversed grid, from the sink cell above them.  A face lies
on an escape curve when both sweeps reach it.

Each input is charted once.  A `Diamond` stores its (u, v) box on the
instance the first time `box()` is asked for it.  The escape search behind
`escape_exists` and `extract_escape_path` is memoized on the value of its
input, with a fixed bound of 32 entries: the checker, the planner's re-check
and the planner's witness extraction ask a task's few escape questions in
turn, and all three then share one grid per question (see `_search`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

__all__ = [
    "Point",
    "Diamond",
    "Region",
    "Box",
    "point",
    "causal_leq",
    "to_lightcone",
    "from_lightcone",
    "region_in_future",
    "connected",
    "earliest_point_after",
    "escape_exists",
    "extract_escape_path",
    "verify_witness_curve",
    "segment_box_intersects",
    "worldline_intersects_region",
    "path_is_causal",
]


# ====================================================================
# points, order, diamonds
# ====================================================================


@dataclass(frozen=True)
class Point:
    """Spacetime event: time coordinate plus a tuple of spatial coordinates."""

    t: float
    x: tuple[float, ...]

    @property
    def dim(self) -> int:
        """Number of spatial dimensions."""
        return len(self.x)

    @property
    def u(self) -> float:
        return to_lightcone(self)[0]

    @property
    def v(self) -> float:
        return to_lightcone(self)[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        xs = ", ".join(repr(c) for c in self.x)
        return f"point({self.t!r}, {xs})"


def point(t: float, *xs: float) -> Point:
    """Convenience constructor: ``point(t, x_1, ..., x_n)``."""
    if not xs:
        raise ValueError("a point needs at least one spatial coordinate")
    return Point(float(t), tuple(float(c) for c in xs))


def causal_leq(p: Point, q: Point) -> bool:
    """Exact causal order: is q in the closed causal future of p?

    Evaluated as ``dt >= 0 and dt^2 >= |dx|^2`` so lightlike relations built
    from exactly-representable coordinates stay exact.
    """
    if p.dim != q.dim:
        raise ValueError("points of different dimension are not comparable")
    dt = q.t - p.t
    if dt < 0.0:
        return False
    dd = 0.0
    for a, b in zip(p.x, q.x):
        dd += (b - a) * (b - a)
    return dt * dt >= dd


def _not_dim1(dim: int) -> ValueError:
    return ValueError(
        "light-cone coordinates are defined for one spatial dimension, "
        f"got {dim}")


def to_lightcone(p: Point) -> tuple[float, float]:
    """(t, x) -> (u, v) = (t - x, t + x).  One spatial dimension only."""
    if len(p.x) != 1:
        raise _not_dim1(len(p.x))
    t, x = p.t, p.x[0]
    return (t - x, t + x)


def from_lightcone(u: float, v: float) -> Point:
    """(u, v) -> (t, x) = ((u + v)/2, (v - u)/2)."""
    return Point((u + v) / 2.0, ((v - u) / 2.0,))


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box in the (u, v) chart.  May be degenerate."""

    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float


@dataclass(frozen=True)
class Diamond:
    """Closed causal diamond: all events between a call corner c and a
    return corner r, i.e. ``{x : c <= x <= r}``.  c == r is legal and gives a
    single point."""

    c: Point
    r: Point

    # The (u, v) box, stored on the instance by the first `box()` call.  Not
    # a field, so equality, hashing and repr still see c and r alone.
    _box = None

    def __post_init__(self) -> None:
        if self.c.dim != self.r.dim:
            raise ValueError("diamond corners must share a dimension")
        if not causal_leq(self.c, self.r):
            raise ValueError(
                f"diamond return corner must be in the causal future of the "
                f"call corner (got c={self.c!r}, r={self.r!r})"
            )

    @property
    def dim(self) -> int:
        return self.c.dim

    def contains(self, p: Point) -> bool:
        return causal_leq(self.c, p) and causal_leq(p, self.r)

    def box(self) -> Box:
        """The (u, v) box of a 1+1 dimensional diamond, computed once.

        Each axis spans the two corners' rounded coordinates, low to high.
        The corners are ordered in (t, x), and u = t - x and v = t + x
        round separately, so a nearly lightlike diamond can have c.v > r.v;
        its box is then the hull of both corners, never an inverted one."""
        box = self._box
        if box is None:
            cu, cv = to_lightcone(self.c)
            ru, rv = to_lightcone(self.r)
            box = Box(min(cu, ru), max(cu, ru), min(cv, rv), max(cv, rv))
            object.__setattr__(self, "_box", box)
        return box


@dataclass(frozen=True)
class Region:
    """Named finite union of closed diamonds."""

    name: str
    diamonds: tuple[Diamond, ...]

    def __post_init__(self) -> None:
        if not self.diamonds:
            raise ValueError(f"region {self.name!r} has no diamonds")

    @property
    def dim(self) -> int:
        return self.diamonds[0].dim

    def contains(self, p: Point) -> bool:
        return any(d.contains(p) for d in self.diamonds)


_DiamondsLike = Union[Region, Iterable[Diamond]]


def _diamonds_of(obj: _DiamondsLike) -> tuple[Diamond, ...]:
    if isinstance(obj, Region):
        return obj.diamonds
    if isinstance(obj, Diamond):
        return (obj,)
    return tuple(obj)


def region_in_future(region: _DiamondsLike, p: Point) -> bool:
    """Does the region intersect J+(p)?

    A diamond meets J+(p) exactly when its return corner does (any point of
    the diamond causally after p forces p <= r by transitivity), so this is a
    finite check over return corners.
    """
    return any(causal_leq(p, d.r) for d in _diamonds_of(region))


def connected(a: Diamond, b: Diamond) -> bool:
    """Causally connected: a signal can go from one diamond's call corner to
    the other's return corner, in either direction."""
    return causal_leq(a.c, b.r) or causal_leq(b.c, a.r)


def earliest_point_after(d: Diamond, p: Point) -> Point | None:
    """Earliest point of a 1+1 diamond in J+(p), by (u, v) clamping.

    None when the diamond does not intersect J+(p).
    """
    u = max(p.u, d.c.u)
    v = max(p.v, d.c.v)
    if u <= d.r.u and v <= d.r.v:
        return from_lightcone(u, v)
    return None


# ====================================================================
# exact escape decision: a bitset sweep over the refined breakpoint grid
# ====================================================================

# Face encoding for `_advance`: (kind, i, j)
#   CELL i,j : open cell (us[i], us[i+1]) x (vs[j], vs[j+1])
#   VE   i,j : open vertical edge {us[i]} x (vs[j], vs[j+1])
#   HE   i,j : open horizontal edge (us[i], us[i+1]) x {vs[j]}
#   VX   i,j : vertex (us[i], vs[j])
# The sweep numbers the same faces on the refined grid instead: index 2i is
# the line us[i] and 2i + 1 the open interval after it, so CELL i,j is
# (2i+1, 2j+1), VE i,j is (2i, 2j+1), HE i,j is (2i+1, 2j) and VX i,j is
# (2i, 2j).  Index parity gives the kind, in the order CELL, VE, HE, VX.
_CELL, _VE, _HE, _VX = 0, 1, 2, 3
_KIND_OF_PARITY = {(1, 1): _CELL, (0, 1): _VE, (1, 0): _HE, (0, 0): _VX}

_MARGIN = 1.0  # how far witness paths extend past the finite breakpoints


def _sweep(free: list[int]) -> list[int]:
    """Faces reachable from the source cell (1, 1), one `int` bitset per row.

    Bit J of row I is face (I, J).  Each row is seeded straight up from the
    row below, and every seed then extends along its run of free faces:
    adding the seeds to `f` sends a carry from each run's lowest seed to
    the top of the run and clears the bits it passes, so ``f & ~(f + s)``
    is that stretch, less any further seeds inside it (a seed bit that
    meets the carry stays set); ``| s`` puts those back.

    The face graph also steps diagonally, from a cell to the vertex at its
    far corner and from a vertex to the cell beyond it.  Those arcs add no
    reachable face: a free vertex has all four incident edges free (the
    second lossless fact), one of them lies between the vertex and the
    cell, and the same move goes by two axial steps through that edge.  The
    rows therefore hold exactly the face graph's reachable set.
    """
    reach = [0] * len(free)
    row = 0
    for i in range(1, len(free)):
        f = free[i]
        s = row & f
        if i == 1:
            s |= 0b10 & f
        row = (f & ~(f + s)) | s
        reach[i] = row
    return reach


def _bit_span(lo: int, hi: int) -> int:
    """Bits lo..hi set."""
    return ((1 << (hi - lo + 1)) - 1) << lo


def _free_rows(rects, rows: int, bits: int) -> list[int]:
    """Row bitsets of the faces outside every index rectangle
    (i_lo, i_hi, j_lo, j_hi)."""
    blocked = [0] * rows
    for i_lo, i_hi, j_lo, j_hi in rects:
        cols = _bit_span(j_lo, j_hi)
        blocked[i_lo:i_hi + 1] = [x | cols for x in blocked[i_lo:i_hi + 1]]
    full = (1 << bits) - 1
    return [full & ~x for x in blocked]


def _reversed_bits(x: int, n: int) -> int:
    """The low `n` bits of x in reverse order."""
    return int(format(x, "b").zfill(n)[::-1], 2) if x else 0


class _Grid:
    def __init__(self, targets: Sequence[Box], obstacles: Sequence[Box]):
        us: set[float] = set()
        vs: set[float] = set()
        for b in list(targets) + list(obstacles):
            us.update((b.u_lo, b.u_hi))
            vs.update((b.v_lo, b.v_hi))
        span = 1.0
        for s in (us, vs):
            if s:
                span = max(span, max(s) - min(s))
        pad = span + 2.0 * _MARGIN
        u_sorted = sorted(us) if us else [0.0]
        v_sorted = sorted(vs) if vs else [0.0]
        self.us = [u_sorted[0] - pad] + u_sorted + [u_sorted[-1] + pad]
        self.vs = [v_sorted[0] - pad] + v_sorted + [v_sorted[-1] + pad]
        self.nu = len(self.us)
        self.nv = len(self.vs)
        # refined grid: rows I < 2*nu - 1, bits J < 2*nv - 1
        self.rows = 2 * self.nu - 1
        self.bits = 2 * self.nv - 1
        self._u_index = {u: 2 * k for k, u in enumerate(self.us)}
        self._v_index = {v: 2 * k for k, v in enumerate(self.vs)}
        rects = [self._rect(b) for b in obstacles]
        self._fwd = _sweep(_free_rows(rects, self.rows, self.bits))
        # backward reachability is the same sweep on the grid turned half
        # around: row I is row rows-1-I there, and bit J is bit bits-1-J
        ti, tj = self.rows - 1, self.bits - 1
        self._bwd_rev = _sweep(_free_rows(
            [(ti - i_hi, ti - i_lo, tj - j_hi, tj - j_lo)
             for i_lo, i_hi, j_lo, j_hi in rects], self.rows, self.bits))

    # Anchors are midpoints, except that the unbounded sentinel intervals
    # clamp to a point just past the finite breakpoints, so witness paths
    # stay within the bounding box plus a margin.
    def _anchor_u(self, i: int) -> float:
        if i == 0:
            return self.us[1] - _MARGIN
        if i == self.nu - 2:
            return self.us[i] + _MARGIN
        return 0.5 * (self.us[i] + self.us[i + 1])

    def _anchor_v(self, j: int) -> float:
        if j == 0:
            return self.vs[1] - _MARGIN
        if j == self.nv - 2:
            return self.vs[j] + _MARGIN
        return 0.5 * (self.vs[j] + self.vs[j + 1])

    def _rect(self, box: Box) -> tuple[int, int, int, int]:
        """Refined index bounds (i_lo, i_hi, j_lo, j_hi) of the faces whose
        points lie in the closed box.  Every bound is a breakpoint, so those
        run from the low bound's line to the high bound's."""
        return (self._u_index[box.u_lo], self._u_index[box.u_hi],
                self._v_index[box.v_lo], self._v_index[box.v_hi])

    def _in_fwd(self, i: int, j: int) -> bool:
        return self._fwd[i] >> j & 1 == 1

    def _in_bwd(self, i: int, j: int) -> bool:
        return self._bwd_rev[self.rows - 1 - i] >> (self.bits - 1 - j) & 1 == 1

    def hit(self, targets: Sequence[Box]) -> tuple[int, int] | None:
        """The first face on an escape curve inside a target: target boxes
        as given, then face kind (CELL, VE, HE, VX), then i, then j."""
        for box in targets:
            lo, hi, j_lo, j_hi = self._rect(box)
            cols = _bit_span(j_lo, j_hi)
            through: dict[int, int] = {}
            for i in range(lo, hi + 1):
                row = self._fwd[i] & cols
                if row:
                    row &= _reversed_bits(
                        self._bwd_rev[self.rows - 1 - i], self.bits)
                through[i] = row
            odd = int("10" * self.nv, 2)  # the bits of odd index
            for pi, pj in _KIND_OF_PARITY:
                parity = odd if pj else ~odd
                for i in range(lo + pi, hi + 1, 2):
                    row = through[i] & parity
                    if row:
                        return (i, (row & -row).bit_length() - 1)
        return None

    def chain(self, hit: tuple[int, int]) -> list[tuple[int, int, int]]:
        """Faces from the source cell through `hit` to the sink cell, each a
        face-graph step from the one before, as (kind, i, j)."""
        back = self._walk(hit, -1, self._in_fwd, (1, 1))
        sink = (self.rows - 2, self.bits - 2)
        ahead = self._walk(hit, 1, self._in_bwd, sink)
        faces = back[::-1] + ahead[1:]
        return [(_KIND_OF_PARITY[i % 2, j % 2], i // 2, j // 2)
                for i, j in faces]

    @staticmethod
    def _walk(face, d, reachable, end) -> list[tuple[int, int]]:
        """Step by d along face-graph arcs (the diagonal first, from cells
        and vertices only) through `reachable` faces until `end`.  Every
        reachable face but the end has such a step, so the walk cannot
        stall."""
        i, j = face
        faces = [face]
        while (i, j) != end:
            steps = [(i + d, j + d)] if (i - j) % 2 == 0 else []
            steps += [(i + d, j), (i, j + d)]
            nxt = next((s for s in steps if reachable(*s)), None)
            if nxt is None:
                raise RuntimeError(
                    f"internal error: escape walk stalled at face {(i, j)}")
            i, j = nxt
            faces.append(nxt)
        return faces


# Box lists, not `tuple(generator)`: that form allocates a tuple of guessed
# size and shrinks it, so on CPython each call parks one block on the tuple
# free list of the final size until the next full garbage collection.


def _target_boxes(through: Union[Point, _DiamondsLike]) -> list[Box]:
    if isinstance(through, Point):
        u, v = to_lightcone(through)
        return [Box(u, u, v, v)]
    return [d.box() for d in _diamonds_of(through)]


def _obstacle_boxes(avoiding: _DiamondsLike) -> list[Box]:
    return [d.box() for d in _diamonds_of(avoiding)]


def _check_dim1(through, avoiding) -> None:
    items: list = []
    if isinstance(through, Point):
        items.append(through)
    else:
        items.extend(_diamonds_of(through))
    items.extend(_diamonds_of(avoiding))
    for it in items:
        if it.dim != 1:
            raise ValueError(
                "the escape decision is exact only in one spatial dimension"
            )


def _search_key(through, avoiding):
    """The arguments of `_search` for an escape question: the point or the
    target diamonds, then the obstacle diamonds, as hashable values.  A
    Region and the tuple of its diamonds give the same key."""
    if not isinstance(through, Point):
        through = _diamonds_of(through)
    return through, _diamonds_of(avoiding)


# A task asks at most m + n*m distinct escape questions: condition I_B for
# each of its m excluded collections and condition III for each of those
# against each of its n authorized ones, and the planner takes n <= 3.
# `check_task`, `plan_task`'s re-check and the planner's witness extraction
# ask the same ones in turn, so 32 entries serve every task with up to 8
# excluded collections from one grid per question.  The bound is fixed, so
# the memo holds at most 32 grids, each of a size set by its own input.
@lru_cache(maxsize=32)
def _search(through, avoiding):
    """Shared core: the grid and the first hit face, or None, for a
    `_search_key`.  Memoized: keys compare by value, so a hit may return
    the grid of an equal input (0.0 for -0.0), which every predicate
    treats alike.  Callers must not modify the returned grid.  A call that
    raises (input not in one spatial dimension) is not stored."""
    _check_dim1(through, avoiding)
    targets = _target_boxes(through)
    grid = _Grid(targets, _obstacle_boxes(avoiding))
    return grid, grid.hit(targets)


def escape_exists(through: Union[Point, _DiamondsLike], avoiding: _DiamondsLike) -> bool:
    """Is there a causal curve from the infinite past to the infinite future
    that touches `through` (a point, diamond or region) and avoids every
    closed diamond of `avoiding`?

    Touching an obstacle -- boundary included -- counts as hitting it;
    touching the target counts as passing through it.
    """
    _, hit = _search(*_search_key(through, avoiding))
    return hit is not None


def _advance(grid: _Grid, xy: tuple[float, float], face) -> tuple[float, float]:
    """Monotone step onto `face` from the current curve point."""
    kind, i, j = face
    u, v = xy
    if kind == _CELL:
        nu, nv = max(u, grid._anchor_u(i)), max(v, grid._anchor_v(j))
    elif kind == _VE:
        nu, nv = grid.us[i], max(v, grid._anchor_v(j))
    elif kind == _HE:
        nu, nv = max(u, grid._anchor_u(i)), grid.vs[j]
    else:
        nu, nv = grid.us[i], grid.vs[j]
    if nu < u - 1e-12 or nv < v - 1e-12:
        raise RuntimeError("internal error: non-monotone face walk")
    return (nu, nv)


def extract_escape_path(
    through: Union[Point, _DiamondsLike], avoiding: _DiamondsLike
) -> list[Point]:
    """A concrete witness curve for `escape_exists`, as a polyline of points.

    Raises ValueError when no escape exists.  The returned polyline is
    monotone in (u, v), touches `through`, avoids every obstacle, and is
    clipped to the breakpoint bounding box plus a unit margin.  The result is
    re-validated with `verify_witness_curve` before being returned; a path
    that fails raises RuntimeError, an internal error.
    """
    through, avoiding = _search_key(through, avoiding)
    grid, hit = _search(through, avoiding)
    if hit is None:
        raise ValueError("no escape curve exists")

    xy = (grid.us[1] - _MARGIN, grid.vs[1] - _MARGIN)
    waypoints: list[tuple[float, float]] = []
    for face in grid.chain(hit):
        xy = _advance(grid, xy, face)
        if not waypoints or waypoints[-1] != xy:
            waypoints.append(xy)
    path = [from_lightcone(u, v) for u, v in waypoints]
    if not verify_witness_curve(path, through, avoiding):
        raise RuntimeError(
            "internal error: extracted path failed verification")
    return path


# ====================================================================
# witness verification (works on any polyline, not only extracted ones)
# ====================================================================


# Shewchuk's bound on the rounding error of a 2x2 orientation determinant
# evaluated in doubles ("Robust geometric predicates", ccwerrboundA): when
# |det| exceeds it times |left| + |right|, the computed sign is the exact one.
# The bound assumes no subnormal rounding, so below _ORIENT_TINY it is not
# trusted.
_ORIENT_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_ORIENT_TINY = 2.0 ** -960


def _orientation(a: tuple[float, float], b: tuple[float, float],
                 c: tuple[float, float]) -> int:
    """Exact sign of the cross product (b - a) x (c - a): 1 when c lies
    left of the line a -> b, -1 when right, 0 on it.  Doubles decide
    unless the rounding bound says they cannot; then exact rationals do."""
    left = (b[0] - a[0]) * (c[1] - a[1])
    right = (b[1] - a[1]) * (c[0] - a[0])
    det = left - right
    if abs(det) > _ORIENT_ERR * (abs(left) + abs(right)) > _ORIENT_TINY:
        return 1 if det > 0.0 else -1
    # imported only here: `fractions` pulls in `decimal`, which would add
    # to every `import stq` for a branch few calls reach
    from fractions import Fraction
    a0, a1 = Fraction(a[0]), Fraction(a[1])
    det = ((Fraction(b[0]) - a0) * (Fraction(c[1]) - a1)
           - (Fraction(b[1]) - a1) * (Fraction(c[0]) - a0))
    return (det > 0) - (det < 0)


def segment_box_intersects(
    a: tuple[float, float], b: tuple[float, float], box: Box
) -> bool:
    """Does the closed segment a-b intersect the closed (u, v) box?

    Exact for any float input, degenerate boxes and zero-length segments
    included; a box whose low bound exceeds its high one is empty.  By the
    separating axis theorem the two convex sets are disjoint exactly when
    their u-ranges or v-ranges are, or when the segment's line has every
    box corner strictly on one side.  Only the two corners farthest to
    either side of that line need an orientation.
    """
    if (max(min(a[0], b[0]), box.u_lo) > min(max(a[0], b[0]), box.u_hi)
            or max(min(a[1], b[1]), box.v_lo) > min(max(a[1], b[1]), box.v_hi)):
        return False
    du, dv = b[0] - a[0], b[1] - a[1]
    if du == 0.0 or dv == 0.0:
        return True     # an axis-parallel segment: the ranges decide
    leftmost = (box.u_lo if dv > 0.0 else box.u_hi,
                box.v_hi if du > 0.0 else box.v_lo)
    rightmost = (box.u_hi if dv > 0.0 else box.u_lo,
                 box.v_lo if du > 0.0 else box.v_hi)
    return (_orientation(a, b, leftmost) >= 0
            and _orientation(a, b, rightmost) <= 0)


def _lightcone_polyline(
    curve: Sequence[Point],
) -> list[tuple[float, float]] | None:
    """The (u, v) vertices of a 1+1 polyline, or None when u or v falls
    somewhere along it (the curve is not causal)."""
    try:
        uv = [(p.t - x, p.t + x) for p in curve for x, in (p.x,)]
    except ValueError:  # a point whose x does not unpack to one coordinate
        raise _not_dim1(next(p.dim for p in curve if p.dim != 1)) from None
    for (u1, v1), (u2, v2) in zip(uv, uv[1:]):
        if u2 < u1 or v2 < v1:
            return None
    return uv


def _polyline_touches(uv: Sequence[tuple[float, float]],
                      boxes: Iterable[Box]) -> bool:
    """Does the monotone (u, v) polyline `uv` touch any of the boxes?

    Segment k joins uv[k] and uv[k + 1].  Since u never falls along the
    polyline, the segments whose u-range meets [u_lo, u_hi] are one run of
    indices, from one before the first vertex with u >= u_lo up to the last
    vertex with u <= u_hi, and two bisections of the u list find it; the
    same holds for v.  Only the segments in both runs get the exact
    `segment_box_intersects`: every other segment lies wholly on one side
    of the box in u or in v, which that test's range check rejects anyway.
    A single point is one zero-length segment.
    """
    if len(uv) == 1:
        uv = [uv[0], uv[0]]
    us = [u for u, _ in uv]
    vs = [v for _, v in uv]
    for box in boxes:
        lo = max(bisect_left(us, box.u_lo), bisect_left(vs, box.v_lo), 1) - 1
        hi = min(bisect_right(us, box.u_hi), bisect_right(vs, box.v_hi),
                 len(uv) - 1)
        for k in range(lo, hi):
            if segment_box_intersects(uv[k], uv[k + 1], box):
                return True
    return False


def verify_witness_curve(
    curve: Sequence[Point],
    through: Union[Point, _DiamondsLike],
    avoiding: _DiamondsLike,
) -> bool:
    """Check a claimed witness: monotone in (u, v), touches `through`,
    touches no obstacle.  Exact inequalities, no tolerance.

    A curve that is not monotone is rejected before any box is looked at;
    a monotone one is tested against each box only along the segments
    whose u- and v-ranges both reach it (see `_polyline_touches`).
    """
    uv = _lightcone_polyline(curve)
    if uv is None:
        return False
    return (not _polyline_touches(uv, _obstacle_boxes(avoiding))
            and _polyline_touches(uv, _target_boxes(through)))


def worldline_intersects_region(
    path: Sequence[Point], region: _DiamondsLike
) -> bool:
    """Does a causal polyline worldline touch a region?  One spatial
    dimension only; any other dimension raises ValueError.

    The answer is exact: each diamond's (u, v) box gets the exact
    `segment_box_intersects`, but only along the segments whose u- and
    v-ranges both reach the box, which a causal worldline's monotone chart
    lets two bisections per axis find (see `_polyline_touches`).  A path
    that is not monotone in (u, v), and so not causal, raises ValueError.
    """
    pts = list(path)
    if not pts:
        return False
    uv = _lightcone_polyline(pts)
    if uv is None:
        raise ValueError("a worldline must be a causal polyline")
    return _polyline_touches(uv, [d.box() for d in _diamonds_of(region)])


def path_is_causal(path: Sequence[Point]) -> bool:
    """Are consecutive polyline points causally ordered?  Any dimension."""
    return all(causal_leq(a, b) for a, b in zip(path, path[1:]))
