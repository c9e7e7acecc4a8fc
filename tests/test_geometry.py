from __future__ import annotations

import dataclasses
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_boxes_linked, brute_causal_leq, exact_causal_leq,
                     face_graph_escape, orientation, polyline_touches_boxes,
                     raster_escape)
from stq import geometry
from stq.geometry import (Box, Diamond, Point, Region, causal_leq, connected,
                          earliest_point_after, escape_exists,
                          extract_escape_path, from_lightcone, path_is_causal,
                          point, region_in_future, segment_box_intersects,
                          to_lightcone, verify_witness_curve,
                          worldline_intersects_region)

# eighths of small integers: exactly representable, so squared intervals
# compare exactly and the causal order really is an order under test
dyadic = st.integers(-512, 512).map(lambda k: k / 8.0)
points1 = st.tuples(dyadic, dyadic).map(lambda c: point(*c))
points2 = st.tuples(dyadic, dyadic, dyadic).map(lambda c: point(*c))

int_box = st.tuples(st.integers(8, 200), st.integers(1, 48),
                    st.integers(8, 200), st.integers(1, 48)).map(
    lambda b: (b[0], b[0] + b[1], b[2], b[2] + b[3]))


def box_diamond(ul, uh, vl, vh):
    return Diamond(from_lightcone(ul, vl), from_lightcone(uh, vh))


# ---------------------------------------------------------------- order


def test_causal_leq_basics():
    assert causal_leq(point(0, 0), point(2, 1))
    assert not causal_leq(point(0, 0), point(1, 2))
    assert causal_leq(point(0, 0, 0), point(1.5, 1, 0))


def test_causal_leq_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        causal_leq(point(0, 0), point(0, 0, 0))


@given(points1, points1)
def test_causal_leq_matches_brute_force(p, q):
    assert causal_leq(p, q) == brute_causal_leq((p.t, *p.x), (q.t, *q.x))


@given(points2, points2)
def test_causal_leq_matches_brute_force_planar(p, q):
    assert causal_leq(p, q) == brute_causal_leq((p.t, *p.x), (q.t, *q.x))


# Any finite double, with the awkward ones drawn often: signed zeros,
# subnormals, and magnitudes near 1e+-300, whose squares underflow or
# overflow.
MAX_DOUBLE = 1.7976931348623157e308
any_double = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-300, -1e-300, 1e300, -1e300, MAX_DOUBLE,
                     -MAX_DOUBLE]),
    st.integers(-2 ** 52, 2 ** 52).map(lambda k: k * 5e-324),
    st.floats(1e295, 1e305).flatmap(lambda m: st.sampled_from([m, -m])),
    st.floats(1e-305, 1e-295).flatmap(lambda m: st.sampled_from([m, -m])),
)


def bits(x):
    return struct.pack("<d", x)


@settings(max_examples=600)
@given(any_double, any_double, any_double, any_double)
@example(0.0, -0.0, -0.0, 0.0)
@example(0.0, 0.0, 1e-300, 5e-324)
@example(-MAX_DOUBLE, 1e300, MAX_DOUBLE, -1e300)
def test_one_dimension_is_the_general_sum_bit_for_bit(t1, x1, t2, x2):
    # the loop's sum for one coordinate is 0.0 + d * d, bit for bit d * d
    d = x2 - x1
    dd = 0.0
    dd += d * d
    assert bits(dd) == bits(d * d)
    dt = t2 - t1
    general = not dt < 0.0 and dt * dt >= dd
    assert causal_leq(point(t1, x1), point(t2, x2)) == general
    # a zero second coordinate adds 0.0 to the same square in the loop
    assert causal_leq(point(t1, x1, 0.0), point(t2, x2, -0.0)) == general


half = st.integers(-60, 60).map(lambda k: k / 2.0)
# (dt, dx...) steps on the light cone, scaled and signed below
CONE_STEPS = {1: [(0, 0), (1, 1), (3, 3), (7, 7)],
              2: [(0, 0, 0), (1, 1, 0), (1, 0, 1), (5, 3, 4), (5, 4, 3),
                  (13, 5, 12), (25, 24, 7)]}


@settings(max_examples=500)
@given(st.sampled_from([1, 2]), st.data())
def test_causal_leq_agrees_with_exact_rationals(dim, data):
    p = data.draw(st.tuples(*[half] * (dim + 1)))
    if data.draw(st.booleans()):
        q = data.draw(st.tuples(*[half] * (dim + 1)))
    else:  # a lightlike step from p, nudged by half a unit in t or not
        c, *legs = data.draw(st.sampled_from(CONE_STEPS[dim]))
        k = data.draw(st.sampled_from([0.5, 1.0, 1.5, -0.5]))
        signs = data.draw(st.tuples(*[st.sampled_from([1, -1])] * dim))
        nudge = data.draw(st.sampled_from([-0.5, 0.0, 0.5]))
        q = (p[0] + k * c + nudge,
             *(a + s * k * leg for a, s, leg in zip(p[1:], signs, legs)))
    assert causal_leq(point(*p), point(*q)) == exact_causal_leq(p, q)


@given(points1)
def test_causal_leq_reflexive(p):
    assert causal_leq(p, p)


@given(points1, points1)
def test_causal_leq_antisymmetric(p, q):
    if causal_leq(p, q) and causal_leq(q, p):
        assert p == q


@given(points1, points1, points1)
def test_causal_leq_transitive(p, q, r):
    if causal_leq(p, q) and causal_leq(q, r):
        assert causal_leq(p, r)


@given(points1, points1)
def test_lightcone_order_agrees(p, q):
    up, vp = to_lightcone(p)
    uq, vq = to_lightcone(q)
    assert causal_leq(p, q) == (up <= uq and vp <= vq)


@given(points1)
def test_lightcone_round_trip(p):
    u, v = to_lightcone(p)
    q = from_lightcone(u, v)
    assert abs(q.t - p.t) <= 1e-12 and abs(q.x[0] - p.x[0]) <= 1e-12


# ---------------------------------------------------------------- diamonds


def test_diamond_rejects_spacelike_corners():
    with pytest.raises(ValueError):
        Diamond(point(0, 0), point(1, 5))


def test_point_diamond_is_legal():
    d = Diamond(point(1, 2), point(1, 2))
    assert d.contains(point(1, 2))
    assert not d.contains(point(1, 2.25))


# Corners in hundredths, which binary floats round, and half the corner
# pairs on a shared light ray, where u or v of the two corners coincide
# before rounding and can come out in the wrong order after it.


def rounded_diamond_instance(seed):
    rng = random.Random(seed)

    def coord():
        return rng.randint(-400, 400) / 100

    if rng.random() < 0.5:
        u, v, du, dv = coord(), coord(), rng.randint(0, 300) / 100, 0.0
        if rng.random() < 0.5:
            du, dv = dv, du
        c, r = from_lightcone(u, v), from_lightcone(u + du, v + dv)
    else:
        t, x = coord(), coord()
        dt = rng.randint(0, 300) / 100
        c, r = point(t, x), point(t + dt, x + rng.uniform(-dt, dt))
    return c, r


@given(st.integers(0, 10 ** 6))
@example(9)     # rounds the corners' u out of order
@example(321)   # rounds the corners' v out of order
@settings(max_examples=200, deadline=None)
def test_box_is_the_hull_of_the_corner_coordinates(seed):
    c, r = rounded_diamond_instance(seed)
    if not causal_leq(c, r):
        return
    d = Diamond(c, r)
    (cu, cv), (ru, rv) = to_lightcone(c), to_lightcone(r)
    assert d.box() == Box(min(cu, ru), max(cu, ru), min(cv, rv), max(cv, rv))
    assert d.box() is d.box()


def test_stored_box_is_not_part_of_a_diamonds_value():
    warm = Diamond(point(0, 0.1), point(2.3, 1))
    cold = Diamond(point(0, 0.1), point(2.3, 1))
    warm.box()
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert [f.name for f in dataclasses.fields(Diamond)] == ["c", "r"]


def test_lightcone_chart_needs_one_spatial_dimension():
    flat = Diamond(point(0, 0, 0), point(2, 1, 0))
    message = "one spatial dimension, got 2"
    # box twice: a failed first call stores nothing
    for convert in (lambda: to_lightcone(flat.c), lambda: flat.c.u,
                    flat.box, flat.box,
                    lambda: verify_witness_curve([point(0, 0), flat.r],
                                                 point(0, 0), [])):
        with pytest.raises(ValueError, match=message):
            convert()


def test_region_needs_diamonds():
    with pytest.raises(ValueError):
        Region("empty", ())


def test_connected_examples():
    a1 = box_diamond(9, 11, -1, 1)
    a2 = box_diamond(9, 11, 19, 21)
    assert connected(a1, a2)
    d1 = box_diamond(2, 4, -2, 0)
    d2 = box_diamond(-2, 0, 2, 4)
    assert not connected(d1, d2)
    assert connected(a1, a1)


@given(int_box, int_box)
@settings(max_examples=60, deadline=None)
def test_connected_matches_lattice_scan(ba, bb):
    da, db = box_diamond(*ba), box_diamond(*bb)
    assert connected(da, db) == brute_boxes_linked(ba, bb)
    assert connected(da, db) == connected(db, da)


def test_region_in_future():
    a1 = Region("A1", (box_diamond(9, 11, -1, 1),))
    s = point(0, 0)
    assert region_in_future(a1, s)
    past = Region("P", (Diamond(point(-5, 50), point(-4, 50)),))
    assert not region_in_future(past, s)
    d = box_diamond(0, 2, 0, 2)
    assert region_in_future(Region("D", (d,)), d.c)


# ---------------------------------------------------------------- escape


def test_escape_around_a_single_box():
    # hold u <= 0 until past the box, then rise
    assert escape_exists(from_lightcone(0, 0), [box_diamond(1, 21, 9, 13)])


def test_escape_blocked_from_inside_an_obstacle():
    obstacle = box_diamond(1, 21, 9, 13)
    assert not escape_exists(from_lightcone(10, 10), [obstacle])


def test_escape_with_no_obstacles():
    assert escape_exists(from_lightcone(4, 4), [])


def test_escape_blocked_by_covering_diamond():
    target = box_diamond(10, 12, 10, 12)
    cover = box_diamond(9, 13, 9, 13)
    assert not escape_exists(Region("T", (target,)), [cover])


def test_obstacles_may_come_from_a_generator():
    # read once: the dimension check must not use up what the grid and the
    # witness check are built from
    cover = box_diamond(-5, 5, -5, 5)
    assert not escape_exists(from_lightcone(0, 0), (d for d in [cover]))
    with pytest.raises(ValueError, match="no escape"):
        extract_escape_path(from_lightcone(0, 0), (d for d in [cover]))


def test_escape_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        escape_exists(point(0, 0, 0),
                      [Diamond(point(1, 0, 0), point(2, 0, 0))])


# Oracle instances keep obstacle corners on even integers and target
# corners on odd ones.  That rules out target boundaries lying exactly on
# obstacle boundaries -- where a unit-cell walk and a continuous monotone
# curve can legitimately disagree about grazing contact -- while still
# exercising blocked gaps, corner contact between obstacles, and covered
# targets, all of which both sides decide identically.


def random_escape_instance(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(int(rng.integers(0, 7))):
        ul = 2 * int(rng.integers(4, 100))
        vl = 2 * int(rng.integers(4, 100))
        boxes.append((ul, ul + 2 * int(rng.integers(1, 24)),
                      vl, vl + 2 * int(rng.integers(1, 24))))
    tu = 2 * int(rng.integers(4, 122)) + 1
    tv = 2 * int(rng.integers(4, 122)) + 1
    target = (tu, tu + 2 * int(rng.integers(0, 5)),
              tv, tv + 2 * int(rng.integers(0, 5)))
    return target, boxes


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_escape_matches_raster_oracle(seed):
    target, boxes = random_escape_instance(seed)
    through = Region("T", (box_diamond(*target),))
    obstacles = [box_diamond(*b) for b in boxes]
    assert escape_exists(through, obstacles) == raster_escape(
        [target], boxes)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_escape_path_is_a_valid_witness(seed):
    target, boxes = random_escape_instance(seed)
    tgt = Region("T", (box_diamond(*target),))
    obstacles = [box_diamond(*b) for b in boxes]
    if escape_exists(tgt, obstacles):
        path = extract_escape_path(tgt, obstacles)
        assert path_is_causal(path)
        assert verify_witness_curve(path, tgt, obstacles)
    else:
        with pytest.raises(ValueError):
            extract_escape_path(tgt, obstacles)


# Hand-traced witnesses.  The grid is the breakpoints plus one sentinel
# line on each side; the curve starts one unit below the lowest breakpoint
# on both axes and enters each face no earlier than its anchor: a
# breakpoint line itself, an interval's midpoint, or one unit past the
# finite breakpoints in a sentinel interval.
PINNED_WITNESSES = {
    # target {2} x [1, 2], obstacle point (2, 2): the curve climbs the low
    # sentinel interval of u at 1 (its midpoint is 0.5), meets the target
    # at the middle of its edge, then leaves at u = 3 (the midpoint is 3.5)
    "sentinel interval": (
        box_diamond(2, 2, 1, 2), [box_diamond(2, 2, 2, 2)],
        [(1, 0), (1, 1), (1, 1.5), (2, 1.5), (3, 1.5), (3, 2), (3, 3)]),
    # target [0, 1] x {2}, obstacle point (0, 2): the curve reaches the
    # line v = 2 at the middle of the target and rides it to u = 1
    "breakpoint line": (
        box_diamond(0, 1, 2, 2), [box_diamond(0, 0, 2, 2)],
        [(-1, 1), (0, 1), (0.5, 1), (0.5, 2), (1, 2), (2, 3)]),
    # target point (2, 5), obstacle point (2, 3): the curve passes the
    # obstacle at u = 1 and steps diagonally through the target vertex
    "vertex": (
        from_lightcone(2, 5), [box_diamond(2, 2, 3, 3)],
        [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6)]),
}


@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_escape_path_waypoints_are_pinned(name):
    through, obstacles, uv = PINNED_WITNESSES[name]
    assert extract_escape_path(through, obstacles) == [
        from_lightcone(u, v) for u, v in uv]


# The raster cannot decide grazing contact, so the face-graph oracle checks
# the instances it must avoid: a few integer boxes on a small grid, where
# bounds are often shared, corners touch, obstacles and targets shrink to
# points, and point targets sit on obstacle edges.


def grazing_escape_instance(seed):
    import random
    rng = random.Random(seed)

    def box():
        ul, vl = rng.randint(0, 10), rng.randint(0, 10)
        if rng.random() < 0.2:
            return (ul, ul, vl, vl)
        return (ul, ul + rng.randint(0, 4), vl, vl + rng.randint(0, 4))

    boxes = [box() for _ in range(rng.randint(0, 12))]
    targets = [box() for _ in range(rng.randint(1, 2))]
    if boxes and rng.random() < 0.3:
        ul, uh, vl, vh = rng.choice(boxes)
        if rng.random() < 0.5:
            u, v = rng.choice((ul, uh)), rng.randint(vl, vh)
        else:
            u, v = rng.randint(ul, uh), rng.choice((vl, vh))
        targets = [(u, u, v, v)]
    return targets, boxes


def escape_through(targets):
    """A point target alone as a point, else a region of box diamonds."""
    (ul, uh, vl, vh), *more = targets
    if not more and ul == uh and vl == vh:
        return from_lightcone(ul, vl)
    return Region("T", tuple(box_diamond(*t) for t in targets))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_escape_matches_face_graph_oracle(seed):
    targets, boxes = grazing_escape_instance(seed)
    through = escape_through(targets)
    obstacles = [box_diamond(*b) for b in boxes]
    found = escape_exists(through, obstacles)
    assert found == face_graph_escape(targets, boxes)
    if found:
        path = extract_escape_path(through, obstacles)
        assert path_is_causal(path)
        assert verify_witness_curve(path, through, obstacles)


def test_nearly_lightlike_obstacle_is_its_hull_box():
    # u and v round separately, so these corners give v = 0.2 at the call
    # and 0.19999999999999998 at the return, an inverted box at the parent
    d = Diamond(from_lightcone(0.0, 0.2), from_lightcone(0.7, 0.2))
    (cu, cv), (ru, rv) = to_lightcone(d.c), to_lightcone(d.r)
    assert cv > rv
    hull = (min(cu, ru), max(cu, ru), min(cv, rv), max(cv, rv))
    assert _bounds(d) == hull
    assert escape_exists(from_lightcone(5, 5), [d]) == face_graph_escape(
        [(5.0, 5.0, 5.0, 5.0)], [hull])
    crossing = [from_lightcone(0.3, 0), from_lightcone(0.3, 1)]
    assert worldline_intersects_region(crossing, [d])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_memoized_search_answers_as_a_fresh_one(seed):
    targets, boxes = grazing_escape_instance(seed)
    through = escape_through(targets)
    obstacles = [box_diamond(*b) for b in boxes]
    search = geometry._search

    def path():
        try:
            return extract_escape_path(through, obstacles)
        except ValueError:
            return None

    escape_exists(through, obstacles)
    warm = path()
    search.cache_clear()
    assert path() == warm

    # equal inputs share the entry: a second equal target, and a region's
    # diamond tuple in place of the region
    hits = search.cache_info().hits
    escape_exists(escape_through(targets), tuple(obstacles))
    assert search.cache_info().hits == hits + 1
    if isinstance(through, Region):
        escape_exists(through.diamonds, Region("U", tuple(obstacles))
                      if obstacles else [])
        assert search.cache_info().hits == hits + 2
    assert search.cache_info().currsize == 1


def test_memo_is_bounded_and_stores_no_failure():
    search = geometry._search
    bound = search.cache_info().maxsize
    for n in range(bound + 8):
        escape_exists(from_lightcone(n, n), [box_diamond(1, 21, 9, 13)])
        assert search.cache_info().currsize <= bound
    assert search.cache_info().currsize == bound
    flat = (point(0, 0, 0), [Diamond(point(1, 0, 0), point(2, 0, 0))])
    for _ in range(3):
        with pytest.raises(ValueError):
            escape_exists(*flat)
        with pytest.raises(ValueError):
            extract_escape_path(*flat)
    assert search.cache_info().currsize == bound


def test_unverified_witness_is_an_internal_error(monkeypatch):
    # not ValueError, which means "no escape exists"; and not an assert,
    # which python -O strips
    monkeypatch.setattr(geometry, "verify_witness_curve",
                        lambda *args: False)
    with pytest.raises(RuntimeError, match="internal error"):
        extract_escape_path(from_lightcone(0, 0), [box_diamond(1, 21, 9, 13)])


def test_witness_curve_rejects_non_causal_segments():
    curve = [point(1, 0), point(0, 0)]
    assert not verify_witness_curve(curve, point(0, 0), [])


# ---------------------------------------------------------------- worldlines


def test_worldline_misses_box_below():
    path = [from_lightcone(0, 0), from_lightcone(22, 0)]
    region = Region("U", (box_diamond(1, 21, 9, 13),))
    assert not worldline_intersects_region(path, region)


def test_worldline_crosses_box():
    path = [from_lightcone(0, 8), from_lightcone(22, 30)]
    region = Region("U", (box_diamond(1, 21, 9, 13),))
    assert worldline_intersects_region(path, region)


def test_worldline_grazing_closed_edge_counts():
    path = [from_lightcone(0, 9), from_lightcone(22, 9)]
    region = Region("U", (box_diamond(1, 21, 9, 13),))
    assert worldline_intersects_region(path, region)


def test_single_point_worldline():
    region = Region("U", (box_diamond(1, 3, 1, 3),))
    assert worldline_intersects_region([from_lightcone(2, 2)], region)
    assert not worldline_intersects_region([from_lightcone(0, 0)], region)


def test_worldline_in_the_plane_is_rejected():
    # contact is decided exactly in one spatial dimension only; a planar
    # path is refused rather than sampled
    d = Diamond(point(0, 0, 0), point(2, 0, 0))
    region = Region("D", (d,))
    for path in ([point(-1, 0, 0), point(3, 0, 0)], [point(1, 5, 5)]):
        with pytest.raises(ValueError, match="one spatial dimension"):
            worldline_intersects_region(path, region)


# Monotone polylines against box lists, for the segment filter in front of
# the exact segment test.  Coordinates mix exact quarters with tenths, which binary
# floats round.  Paths repeat vertices and stall on one axis, and boxes take
# corners and bounds from the path's own vertices, so point boxes, bounds
# shared with a vertex and edges the path only grazes come up often.


def _coord(rng):
    if rng.random() < 0.5:
        return rng.randint(-24, 24) / 4
    return rng.randint(-60, 60) / 10


def _axis(rng, n):
    values = [_coord(rng)]
    for _ in range(n - 1):
        values.append(values[-1] if rng.random() < 0.3 else _coord(rng))
    return sorted(values)


def _uv_leq(p, q):
    (u1, v1), (u2, v2) = to_lightcone(p), to_lightcone(q)
    return u1 <= u2 and v1 <= v2


def monotone_polyline_instance(seed):
    """A monotone 1+1 polyline, a list of diamonds, and a point target."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    path = []
    for u, v in zip(_axis(rng, n), _axis(rng, n)):
        p = from_lightcone(u, v)
        if not path or _uv_leq(path[-1], p):
            path.append(p)
            if rng.random() < 0.15:
                path.append(p)

    def near(c):
        return c if rng.random() < 0.5 else _coord(rng)

    diamonds = []
    for _ in range(rng.randint(0, 6)):
        a = rng.randrange(len(path))
        a, b = sorted((a, a if rng.random() < 0.3
                       else rng.randrange(len(path))))
        (ua, va), (ub, vb) = to_lightcone(path[a]), to_lightcone(path[b])
        if rng.random() < 0.4:
            c, r = path[a], path[b]
        else:
            ul, uh = sorted((near(ua), near(ub)))
            vl, vh = sorted((near(va), near(vb)))
            c, r = from_lightcone(ul, vl), from_lightcone(uh, vh)
        if causal_leq(c, r):
            diamonds.append(Diamond(c, r))
    target = (rng.choice(path) if rng.random() < 0.5
              else from_lightcone(_coord(rng), _coord(rng)))
    return path, diamonds, target


def _bounds(d):
    b = d.box()
    return (b.u_lo, b.u_hi, b.v_lo, b.v_hi)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=400, deadline=None)
def test_polyline_filter_matches_every_segment_against_every_box(seed):
    path, diamonds, target = monotone_polyline_instance(seed)
    uv = [to_lightcone(p) for p in path]
    boxes = [_bounds(d) for d in diamonds]
    assert worldline_intersects_region(path, diamonds) == \
        polyline_touches_boxes(uv, boxes)
    k = len(diamonds) // 2
    hits_obstacle = polyline_touches_boxes(uv, boxes[k:])
    assert verify_witness_curve(path, diamonds[:k], diamonds[k:]) == (
        polyline_touches_boxes(uv, boxes[:k]) and not hits_obstacle)
    tu, tv = to_lightcone(target)
    assert verify_witness_curve(path, target, diamonds[k:]) == (
        polyline_touches_boxes(uv, [(tu, tu, tv, tv)]) and not hits_obstacle)


def test_segment_box_is_exact_where_doubles_round():
    # the corner (3.27, 2.71) lies right of the segment's line by less than
    # double rounding: the orientation determinant rounds to 0, so doubles
    # alone would report contact
    a, b = (2.5, 0.4), (3.6, 3.7)
    box = (3.27, 4.27, 1.71, 2.71)
    assert not polyline_touches_boxes([a, b], [box])
    assert not segment_box_intersects(a, b, Box(*box))


# Doubles where the orientation filter fails or nearly fails: points on
# integer and half-integer grids, which lines through two of them hit
# exactly; decimals, which binary doubles round; multiples of the least
# subnormal; and magnitudes near 1e-300 and 1e300, where the filter's
# products underflow or overflow.  A triple may also be three points of
# one grid line, scaled by a power of two, which keeps them on it.
half_grid = st.integers(-40, 40).map(lambda n: n / 2)
coordinates = st.one_of(
    half_grid,
    st.integers(-10 ** 4, 10 ** 4).map(lambda n: n / 10),
    st.integers(-2 ** 40, 2 ** 40).map(lambda n: n * 5e-324),
    st.floats(1e-305, 1e-295), st.floats(-1e-295, -1e-305),
    st.floats(1e295, 1e305), st.floats(-1e305, -1e295),
    st.floats(allow_nan=False, allow_infinity=False))
uv_points = st.tuples(coordinates, coordinates)


@st.composite
def collinear_triples(draw):
    a = draw(st.tuples(half_grid, half_grid))
    d = draw(st.tuples(half_grid, half_grid))
    k, m = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    scale = 2.0 ** draw(st.integers(-1070, 1000))
    return tuple((p * scale, q * scale)
                 for p, q in (a, (a[0] + k * d[0], a[1] + k * d[1]),
                              (a[0] + m * d[0], a[1] + m * d[1])))


@given(st.one_of(st.tuples(uv_points, uv_points, uv_points),
                 collinear_triples()))
@settings(max_examples=600, deadline=None)
@example(((2.5, 0.4), (3.6, 3.7), (3.27, 2.71)))
@example(((0.0, 0.0), (1e308, 1e308), (-1e308, -1e308)))
@example(((5e-324, 0.0), (0.0, 5e-324), (1e-323, -5e-324)))
def test_orientation_agrees_with_exact_rationals(triple):
    assert geometry._orientation(*triple) == orientation(*triple)


def test_non_causal_worldline_is_rejected():
    region = Region("U", (box_diamond(1, 3, 1, 3),))
    with pytest.raises(ValueError, match="causal"):
        worldline_intersects_region([from_lightcone(2, 2),
                                     from_lightcone(4, 1)], region)


# ---------------------------------------------------------------- misc


def test_path_is_causal():
    assert path_is_causal([point(0, 0), point(1, 0.5), point(3, 1)])
    assert not path_is_causal([point(0, 0), point(1, 2)])


def test_earliest_point_after():
    d = box_diamond(4, 8, 4, 8)
    p = from_lightcone(0, 0)
    q = earliest_point_after(d, p)
    assert q is not None
    assert d.contains(q) and causal_leq(p, q)
    late = from_lightcone(100, 100)
    assert earliest_point_after(d, late) is None
