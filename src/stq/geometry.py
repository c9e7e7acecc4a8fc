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
instance the first time `box()` is asked for it, and a `WorldlineChart`
holds a polyline's (u, v) vertices for as many contact questions as its
owner asks.  The escape search behind `escape_exists` and
`extract_escape_path` is memoized on the value of its input, with a fixed
bound of 32 entries: the checker, the planner's re-check and the planner's
witness extraction ask a task's few escape questions in turn, and all
three then share one grid per question (see `_search`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

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
    "reached",
    "linked_pairs",
    "connected",
    "earliest_point_after",
    "escape_exists",
    "extract_escape_path",
    "verify_witness_curve",
    "segment_box_intersects",
    "worldline_intersects_region",
    "WorldlineChart",
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
    from exactly-representable coordinates stay exact.  One spatial
    dimension skips the sum: it compares ``dt * dt >= d * d`` directly,
    which is bit-identical to the loop, because the loop's ``0.0 + d * d``
    adds zero to a square that is never negative (or is NaN or +inf) and
    so is ``d * d`` exactly.
    """
    px, qx = p.x, q.x
    if len(px) != len(qx):
        raise ValueError("points of different dimension are not comparable")
    dt = q.t - p.t
    if dt < 0.0:
        return False
    if len(px) == 1:
        d = qx[0] - px[0]
        return dt * dt >= d * d
    dd = 0.0
    for a, b in zip(px, qx):
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
        if len(self.c.x) != len(self.r.x):
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


def reached(p: Point, diamonds: Iterable[Diamond]) -> Iterator[Diamond]:
    """The diamonds that meet J+(p), in order: condition I_A's witnesses
    when p is the start.  A diamond meets J+(p) exactly when its return
    corner does (any point of the diamond causally after p forces p <= r
    by transitivity)."""
    for d in diamonds:
        if causal_leq(p, d.r):
            yield d


def region_in_future(region: _DiamondsLike, p: Point) -> bool:
    """Does the region intersect J+(p)?  Whether `reached` yields any."""
    return next(reached(p, _diamonds_of(region)), None) is not None


def linked_pairs(da: Sequence[Diamond],
                 db: Sequence[Diamond]) -> Iterator[tuple[Diamond, Diamond]]:
    """The causally connected pairs of a diamond of `da` and one of `db`,
    in that order, each as (sender, receiver): the sender's call precedes
    the receiver's return.  These are condition II's witnesses."""
    for a in da:
        for b in db:
            if causal_leq(a.c, b.r):
                yield a, b
            elif causal_leq(b.c, a.r):
                yield b, a


def connected(a: Diamond, b: Diamond) -> bool:
    """Causally connected: a signal can go from one diamond's call corner to
    the other's return corner, in either direction: `linked_pairs` yields."""
    return next(linked_pairs((a,), (b,)), None) is not None


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
        as given, then face kind by index parity (cells, vertical edges,
        horizontal edges, vertices), then I, then J."""
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
            for pi, pj in ((1, 1), (0, 1), (1, 0), (0, 0)):
                parity = odd if pj else ~odd
                for i in range(lo + pi, hi + 1, 2):
                    row = through[i] & parity
                    if row:
                        return (i, (row & -row).bit_length() - 1)
        return None

    def chain(self, hit: tuple[int, int]) -> list[tuple[int, int]]:
        """Faces from the source cell through `hit` to the sink cell, each a
        face-graph step from the one before."""
        back = self._walk(hit, -1, self._in_fwd, (1, 1))
        sink = (self.rows - 2, self.bits - 2)
        ahead = self._walk(hit, 1, self._in_bwd, sink)
        return back[::-1] + ahead[1:]

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


def _enter(lines: Sequence[float], k: int, x: float) -> float:
    """The coordinate at which a monotone curve at `x` enters refined index
    `k` of one axis.  An even index is the breakpoint line itself.  An odd
    one, the open interval after line k // 2, is entered no earlier than its
    anchor: the midpoint, except that the two unbounded sentinel intervals
    clamp to a point just past the finite breakpoints, so witness paths
    stay within the bounding box plus a margin."""
    i = k // 2
    if k % 2 == 0:
        return lines[i]
    if i == 0:
        return max(x, lines[1] - _MARGIN)
    if i == len(lines) - 2:
        return max(x, lines[i] + _MARGIN)
    return max(x, 0.5 * (lines[i] + lines[i + 1]))


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

    u, v = grid.us[1] - _MARGIN, grid.vs[1] - _MARGIN
    waypoints: list[tuple[float, float]] = []
    for i, j in grid.chain(hit):
        nu, nv = _enter(grid.us, i, u), _enter(grid.vs, j, v)
        if nu < u - 1e-12 or nv < v - 1e-12:
            raise RuntimeError("internal error: non-monotone face walk")
        u, v = nu, nv
        if not waypoints or waypoints[-1] != (u, v):
            waypoints.append((u, v))
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
    left of the line a -> b, -1 when right, 0 on it.

    Doubles decide unless the rounding bound says they cannot.  Then
    integers do: every double is an integer over a power of two, so the six
    coordinates scaled by their largest denominator are integers, and the
    determinant of those, exact in Python ints, has the sign of the true
    one times that denominator squared.
    """
    left = (b[0] - a[0]) * (c[1] - a[1])
    right = (b[1] - a[1]) * (c[0] - a[0])
    det = left - right
    if abs(det) > _ORIENT_ERR * (abs(left) + abs(right)) > _ORIENT_TINY:
        return 1 if det > 0.0 else -1
    ratios = [x.as_integer_ratio()
              for x in (a[0], a[1], b[0], b[1], c[0], c[1])]
    den = max(q for _, q in ratios)
    au, av, bu, bv, cu, cv = [n * (den // q) for n, q in ratios]
    det = (bu - au) * (cv - av) - (bv - av) * (cu - au)
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


class WorldlineChart:
    """A 1+1 polyline charted once: its (u, v) vertices `uv`, and their u
    and their v coordinates as the lists `us` and `vs`.

    `monotone` is False when u or v falls somewhere along the polyline, so
    the curve is not causal.  A monotone chart's coordinate lists are
    sorted, and `touches` answers contact with any boxes from them.  A
    single point is charted as one zero-length segment.  Charting a point
    not in one spatial dimension raises ValueError.
    """

    __slots__ = ("uv", "us", "vs", "monotone")

    def __init__(self, curve: Sequence[Point]):
        try:
            uv = [(p.t - x, p.t + x) for p in curve for x, in (p.x,)]
        except ValueError:  # a point whose x does not unpack to one value
            raise _not_dim1(
                next(p.dim for p in curve if p.dim != 1)) from None
        if len(uv) == 1:
            uv.append(uv[0])
        self.uv = uv
        self.us = [u for u, _ in uv]
        self.vs = [v for _, v in uv]
        self.monotone = not any(
            u2 < u1 or v2 < v1
            for (u1, v1), (u2, v2) in zip(uv, uv[1:]))

    def touches(self, boxes: Iterable[Box]) -> bool:
        """Does the monotone polyline touch any of the boxes?

        Segment k joins uv[k] and uv[k + 1].  Since u never falls along the
        polyline, the segments whose u-range meets [u_lo, u_hi] are one run
        of indices, from one before the first vertex with u >= u_lo up to
        the last vertex with u <= u_hi, and two bisections of `us` find it;
        the same holds for v.  Only the segments in both runs get the exact
        `segment_box_intersects`: every other segment lies wholly on one
        side of the box in u or in v, which that test's range check rejects
        anyway.  A box wholly beyond the polyline's range on an axis gives
        two empty runs, and is passed over before any bisection.
        """
        uv, us, vs = self.uv, self.us, self.vs
        if not uv:
            return False
        last = len(uv) - 1
        u_min, u_max, v_min, v_max = us[0], us[-1], vs[0], vs[-1]
        for box in boxes:
            if (box.u_lo > u_max or box.v_lo > v_max
                    or box.u_hi < u_min or box.v_hi < v_min):
                continue
            lo = max(bisect_left(us, box.u_lo), bisect_left(vs, box.v_lo),
                     1) - 1
            hi = min(bisect_right(us, box.u_hi), bisect_right(vs, box.v_hi),
                     last)
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
    a monotone one is charted once and tested against each box only along
    the segments whose u- and v-ranges both reach it (see
    `WorldlineChart.touches`).
    """
    chart = WorldlineChart(curve)
    if not chart.monotone:
        return False
    return (not chart.touches(_obstacle_boxes(avoiding))
            and chart.touches(_target_boxes(through)))


def worldline_intersects_region(
    path: Sequence[Point], region: _DiamondsLike
) -> bool:
    """Does a causal polyline worldline touch a region?  One spatial
    dimension only; any other dimension raises ValueError.

    The answer is exact: the path is charted once (`WorldlineChart`), and
    each diamond's (u, v) box gets the exact `segment_box_intersects`, but
    only along the segments whose u- and v-ranges both reach the box.  A
    path that is not monotone in (u, v), and so not causal, raises
    ValueError.  An empty path touches nothing.  A caller that asks about
    one path more than once keeps its chart instead.
    """
    chart = WorldlineChart(path)
    if not chart.monotone:
        raise ValueError("a worldline must be a causal polyline")
    return chart.touches([d.box() for d in _diamonds_of(region)])


def path_is_causal(path: Sequence[Point]) -> bool:
    """Are consecutive polyline points causally ordered?  Any dimension."""
    return all(causal_leq(a, b) for a, b in zip(path, path[1:]))
