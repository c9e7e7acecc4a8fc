"""Causal order and monotone-curve reachability in flat spacetime.

Points carry coordinates ``(t, x_1, ..., x_n)`` with metric signature
(+, -, ..., -).  The causal order is

    p <= q   iff   t_q - t_p >= |x_q - x_p|_2 .

In one spatial dimension the light-cone chart

    u = t - x,   v = t + x

turns that order into the product order on R^2: future-directed causal curves
are exactly the monotone nondecreasing paths in (u, v), and causal diamonds
are closed axis-aligned boxes.  Every decision procedure in this module
(escape, witness extraction) works in that chart and is exact -- no sampling,
no tolerance bands.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

__all__ = [
    "Point",
    "Diamond",
    "Region",
    "Box",
    "point",
    "causal_leq",
    "strictly_earlier",
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
        self._require_dim1()
        return self.t - self.x[0]

    @property
    def v(self) -> float:
        self._require_dim1()
        return self.t + self.x[0]

    def _require_dim1(self) -> None:
        if len(self.x) != 1:
            raise ValueError(
                "light-cone coordinates are defined for one spatial dimension, "
                f"got {len(self.x)}"
            )

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


def strictly_earlier(p: Point, q: Point) -> bool:
    """p <= q in the causal order, and p != q."""
    return causal_leq(p, q) and (p.t != q.t or p.x != q.x)


def to_lightcone(p: Point) -> tuple[float, float]:
    """(t, x) -> (u, v) = (t - x, t + x).  One spatial dimension only."""
    return (p.u, p.v)


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
        """The (u, v) box of a 1+1 dimensional diamond."""
        return Box(self.c.u, self.r.u, self.c.v, self.r.v)


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


def _search(through, avoiding):
    """Shared core: the grid and the first hit face, or None."""
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
    _, hit = _search(through, avoiding)
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


def segment_box_intersects(
    a: tuple[float, float], b: tuple[float, float], box: Box
) -> bool:
    """Does the closed segment a-b intersect the closed (u, v) box?

    Standard slab clipping; handles degenerate boxes and zero-length
    segments.
    """
    t_lo, t_hi = 0.0, 1.0
    for (p, q, lo, hi) in (
        (a[0], b[0], box.u_lo, box.u_hi),
        (a[1], b[1], box.v_lo, box.v_hi),
    ):
        d = q - p
        if d == 0.0:
            if p < lo or p > hi:
                return False
        else:
            t1 = (lo - p) / d
            t2 = (hi - p) / d
            if t1 > t2:
                t1, t2 = t2, t1
            t_lo = max(t_lo, t1)
            t_hi = min(t_hi, t2)
            if t_lo > t_hi:
                return False
    return True


def verify_witness_curve(
    curve: Sequence[Point],
    through: Union[Point, _DiamondsLike],
    avoiding: _DiamondsLike,
) -> bool:
    """Check a claimed witness: monotone in (u, v), touches `through`,
    touches no obstacle.  Exact inequalities, no tolerance."""
    if not curve:
        return False
    uv = [to_lightcone(p) for p in curve]
    for (u1, v1), (u2, v2) in zip(uv, uv[1:]):
        if u2 < u1 or v2 < v1:
            return False
    segments = list(zip(uv, uv[1:])) if len(uv) > 1 else [(uv[0], uv[0])]
    for box in _obstacle_boxes(avoiding):
        for a, b in segments:
            if segment_box_intersects(a, b, box):
                return False
    for box in _target_boxes(through):
        for a, b in segments:
            if segment_box_intersects(a, b, box):
                return True
    return False


def worldline_intersects_region(
    path: Sequence[Point], region: _DiamondsLike, samples_per_segment: int = 64
) -> bool:
    """Does a polyline worldline touch a region?

    Exact segment-vs-box in one spatial dimension; dense per-segment sampling
    (endpoints always included) in higher dimensions.
    """
    pts = list(path)
    if not pts:
        return False
    diamonds = _diamonds_of(region)
    if pts[0].dim == 1:
        uv = [to_lightcone(p) for p in pts]
        segments = list(zip(uv, uv[1:])) if len(uv) > 1 else [(uv[0], uv[0])]
        for d in diamonds:
            box = d.box()
            for a, b in segments:
                if segment_box_intersects(a, b, box):
                    return True
        return False
    if any(d.contains(p) for p in pts for d in diamonds):
        return True
    for a, b in zip(pts, pts[1:]):
        for k in range(1, samples_per_segment):
            f = k / samples_per_segment
            q = Point(
                a.t + f * (b.t - a.t),
                tuple(ax + f * (bx - ax) for ax, bx in zip(a.x, b.x)),
            )
            if any(d.contains(q) for d in diamonds):
                return True
    return False


def path_is_causal(path: Sequence[Point]) -> bool:
    """Are consecutive polyline points causally ordered?  Any dimension."""
    return all(causal_leq(a, b) for a, b in zip(path, path[1:]))
