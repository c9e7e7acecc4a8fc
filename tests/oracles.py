"""Reference oracles the suite trusts over the package itself.

Everything here is an independent re-derivation -- index loops, dense
arrays, raster grids -- of something src/stq computes more cleverly.
Slow and transparent on purpose: when a test disagrees with an oracle,
the oracle is the side to believe.  Nothing in this module imports stq,
with three exceptions: `basis_state` and `haar_state` wrap their vectors
in the qsim state the tests feed to the package, and the pad-key
enumeration at the end re-runs the engine's own interpreter for every key
assignment so that only key scoring differs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# --------------------------------------------------------------------
# monotone escape on a unit-cell raster
# --------------------------------------------------------------------
#
# Boxes are (u_lo, u_hi, v_lo, v_hi) tuples with INTEGER corners kept
# inside [1, size-1].  A curve from the infinite past to the infinite
# future is a lattice path over unit cells, entering anywhere along the
# bottom/left rim and leaving along the top/right rim, stepping one cell
# right (+v) or up (+u) at a time.  With integer corners the cell walk
# agrees exactly with the continuous monotone-curve picture: an obstacle
# overlapping a cell's interior necessarily covers the whole closed cell,
# so corner contact blocks and gaps of width >= 1 stay open.


def raster_escape(targets, obstacles, size=256):
    """True when a monotone path hits some target box and no obstacle."""
    centers = np.arange(size) + 0.5
    free = np.ones((size, size), dtype=bool)
    for (ul, uh, vl, vh) in obstacles:
        free &= ~(((centers >= ul) & (centers <= uh))[:, None]
                  & ((centers >= vl) & (centers <= vh))[None, :])
    fwd = _monotone_reach(free)
    bwd = _monotone_reach(free[::-1, ::-1])[::-1, ::-1]
    ok = free & fwd & bwd
    idx = np.arange(size)
    for (ul, uh, vl, vh) in targets:
        touch = (((ul <= idx + 1) & (uh >= idx))[:, None]
                 & ((vl <= idx + 1) & (vh >= idx))[None, :])
        if np.any(ok & touch):
            return True
    return False


def _monotone_reach(free):
    """Cells reachable from below/left of the window by right/up steps."""
    n, m = free.shape
    reach = np.zeros_like(free)
    prev = np.zeros(m, dtype=bool)
    idx = np.arange(m)
    for i in range(n):
        f = free[i]
        seed = prev | (i == 0)
        seed[0] = True
        s = seed & f
        # per-row scan: j is reachable when some seeded cell sits in the
        # same unbroken free run at or before j
        last_block = np.maximum.accumulate(np.where(f, -1, idx))
        cnt = np.cumsum(s)
        before = np.where(last_block >= 0,
                          cnt[np.maximum(last_block, 0)], 0)
        row = f & (cnt - before > 0)
        reach[i] = row
        prev = row
    return reach


# --------------------------------------------------------------------
# monotone escape on the breakpoint face graph, searched face by face
# --------------------------------------------------------------------
#
# The escape kernel geometry used before its bitset sweep.  Every box
# bound becomes a breakpoint; one sentinel on each side closes the grid.
# Nodes are the open cells, open edges and vertices whose midpoint lies in
# no obstacle (boundary included); arcs are the monotone moves between
# faces that share boundary.  Unlike the raster above it decides grazing
# contact -- curves riding a shared edge or threading a corner -- exactly.

_CELL, _VE, _HE, _VX = range(4)


def face_graph_escape(targets, obstacles):
    """True when a monotone curve from the infinite past to the infinite
    future touches some target box and no obstacle.  Boxes are
    (u_lo, u_hi, v_lo, v_hi) tuples; degenerate boxes are points."""
    boxes = list(targets) + list(obstacles)
    us = sorted({b[0] for b in boxes} | {b[1] for b in boxes})
    vs = sorted({b[2] for b in boxes} | {b[3] for b in boxes})
    us = [us[0] - 1] + us + [us[-1] + 1]
    vs = [vs[0] - 1] + vs + [vs[-1] + 1]
    nu, nv = len(us), len(vs)

    def midpoint(face):
        kind, i, j = face
        u = us[i] if kind in (_VE, _VX) else (us[i] + us[i + 1]) / 2
        v = vs[j] if kind in (_HE, _VX) else (vs[j] + vs[j + 1]) / 2
        return u, v

    def inside(box, uv):
        return box[0] <= uv[0] <= box[1] and box[2] <= uv[1] <= box[3]

    def free(face):
        return not any(inside(b, midpoint(face)) for b in obstacles)

    def successors(face):
        kind, i, j = face
        if kind == _CELL:
            return [(_VE, i + 1, j), (_HE, i, j + 1), (_VX, i + 1, j + 1)]
        if kind == _VE:
            return [(_CELL, i, j)] * (i <= nu - 2) + [(_VX, i, j + 1)]
        if kind == _HE:
            return [(_CELL, i, j)] * (j <= nv - 2) + [(_VX, i + 1, j)]
        return ([(_CELL, i, j)] * (i <= nu - 2 and j <= nv - 2)
                + [(_VE, i, j)] * (j <= nv - 2)
                + [(_HE, i, j)] * (i <= nu - 2))

    def predecessors(face):
        kind, i, j = face
        if kind == _CELL:
            return [(_VE, i, j), (_HE, i, j), (_VX, i, j)]
        if kind == _VE:
            return [(_CELL, i - 1, j)] * (i >= 1) + [(_VX, i, j)]
        if kind == _HE:
            return [(_CELL, i, j - 1)] * (j >= 1) + [(_VX, i, j)]
        return ([(_CELL, i - 1, j - 1)] * (i >= 1 and j >= 1)
                + [(_VE, i, j - 1)] * (j >= 1)
                + [(_HE, i - 1, j)] * (i >= 1))

    def reach(start, step):
        seen, todo = {start}, [start]
        while todo:
            for g in step(todo.pop()):
                if g not in seen and free(g):
                    seen.add(g)
                    todo.append(g)
        return seen

    both = (reach((_CELL, 0, 0), successors)
            & reach((_CELL, nu - 2, nv - 2), predecessors))
    return any(inside(t, midpoint(f)) for t in targets for f in both)


# --------------------------------------------------------------------
# causal order, brute force
# --------------------------------------------------------------------


def brute_causal_leq(p, q):
    """p precedes q: coordinate tuples (t, x1, ..)."""
    dt = q[0] - p[0]
    dx2 = sum((b - a) ** 2 for a, b in zip(p[1:], q[1:]))
    return dt >= 0 and dt * dt >= dx2


def exact_causal_leq(p, q):
    """p precedes q, decided in exact rationals: coordinate tuples
    (t, x1, ..) of floats, each converted to a Fraction exactly."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    dt = q[0] - p[0]
    return dt >= 0 and dt * dt >= sum((b - a) ** 2
                                      for a, b in zip(p[1:], q[1:]))


def brute_boxes_linked(boxa, boxb):
    """Some point of one integer (u,v) box precedes some point of the
    other, by scanning every lattice point of both."""
    def pts(box):
        ul, uh, vl, vh = box
        return [(u, v) for u in range(ul, uh + 1)
                for v in range(vl, vh + 1)]
    pa, pb = pts(boxa), pts(boxb)
    for (u1, v1) in pa:
        for (u2, v2) in pb:
            if (u1 <= u2 and v1 <= v2) or (u2 <= u1 and v2 <= v1):
                return True
    return False


# --------------------------------------------------------------------
# polyline against boxes, every segment against every box
# --------------------------------------------------------------------


def polyline_touches_boxes(uv, boxes):
    """Some segment of the (u, v) polyline meets some closed box
    (u_lo, u_hi, v_lo, v_hi).  A lone point is one zero-length segment.

    Slab clipping of every segment against every box, in exact rational
    arithmetic over the given floats."""
    segments = list(zip(uv, uv[1:])) or [(uv[0], uv[0])]
    return any(_segment_meets_box(a, b, box)
               for box in boxes for a, b in segments)


def _segment_meets_box(a, b, box):
    """Is a + s (b - a) in the box for some s in [0, 1]?  A box whose low
    bound exceeds its high one on an axis is empty."""
    s_lo, s_hi = Fraction(0), Fraction(1)
    for p, q, lo, hi in ((a[0], b[0], box[0], box[1]),
                         (a[1], b[1], box[2], box[3])):
        p, q, lo, hi = map(Fraction, (p, q, lo, hi))
        if p == q:
            if not lo <= p <= hi:
                return False
            continue
        s1, s2 = (lo - p) / (q - p), (hi - p) / (q - p)
        if q < p:
            s1, s2 = s2, s1
        s_lo, s_hi = max(s_lo, s1), min(s_hi, s2)
    return s_lo <= s_hi


def orientation(a, b, c):
    """Sign of the cross product (b - a) x (c - a) of three (u, v) points:
    1 when c lies left of the line a -> b, -1 right, 0 on it.  Exact
    rational arithmetic over the given floats."""
    a0, a1 = Fraction(a[0]), Fraction(a[1])
    det = ((Fraction(b[0]) - a0) * (Fraction(c[1]) - a1)
           - (Fraction(b[1]) - a1) * (Fraction(c[0]) - a0))
    return (det > 0) - (det < 0)


# --------------------------------------------------------------------
# unrestricted summoning: condition B1 by walking every subset
# --------------------------------------------------------------------


def b1_violations(reach):
    """Every subset of diamonds in which no member's return sees every call
    of the subset (condition B1 of unrestricted summoning fails there), as
    ascending index tuples.  `reach[i]` is the set of diamonds whose call
    the i-th diamond's return sees."""
    n = len(reach)
    return [sub for size in range(1, n + 1)
            for sub in itertools.combinations(range(n), size)
            if not any(set(sub) <= reach[i] for i in sub)]


# --------------------------------------------------------------------
# Weyl operators and the one-time-pad twirl
# --------------------------------------------------------------------


def oracle_weyl(d, a, b):
    """X^a Z^b by direct indexing: column m -> omega^(b m) row m+a."""
    omega = np.exp(2j * np.pi / d)
    mat = np.zeros((d, d), dtype=complex)
    for m in range(d):
        mat[(m + a) % d, m] = omega ** (b * m)
    return mat


def qotp_twirl(rho, dims, idx):
    """Average rho over conjugation by every Weyl operator on slot idx."""
    d = dims[idx]
    left = int(np.prod(dims[:idx], dtype=int))
    right = int(np.prod(dims[idx + 1:], dtype=int))
    out = np.zeros_like(rho)
    for a in range(d):
        for b in range(d):
            wk = np.kron(np.eye(left),
                         np.kron(oracle_weyl(d, a, b), np.eye(right)))
            out += wk @ rho @ wk.conj().T
    return out / d ** 2


def reduced(vec, dims, keep):
    """Density operator of the kept slots, in the listed order."""
    psi = np.asarray(vec, dtype=complex).reshape(dims)
    drop = [i for i in range(len(dims)) if i not in keep]
    psi = np.transpose(psi, list(keep) + drop)
    k = int(np.prod([dims[i] for i in keep], dtype=int))
    mat = psi.reshape(k, -1)
    return mat @ mat.conj().T


def _basis(dims):
    return itertools.product(*(range(n) for n in dims))


def oracle_apply(vec, dims, idxs, mat):
    """`mat` acting on the slots `idxs`, in that order, of a state vector:
    every amplitude sent to every row of its column, one index at a time."""
    psi = np.asarray(vec, dtype=complex).reshape(dims)
    sub = [dims[i] for i in idxs]
    out = np.zeros_like(psi)
    for idx in _basis(dims):
        col = np.ravel_multi_index([idx[i] for i in idxs], sub)
        for row_idx in _basis(sub):
            tgt = list(idx)
            for i, v in zip(idxs, row_idx):
                tgt[i] = v
            out[tuple(tgt)] += (mat[np.ravel_multi_index(row_idx, sub), col]
                                * psi[idx])
    return out.reshape(-1)


def oracle_isometry(vec, dims, k, iso, new_dims):
    """Slot k of a state vector replaced by the slots `new_dims`, which
    `iso` maps it into, one index at a time."""
    psi = np.asarray(vec, dtype=complex).reshape(dims)
    out = np.zeros(tuple(dims[:k]) + tuple(new_dims) + tuple(dims[k + 1:]),
                   dtype=complex)
    for idx in _basis(dims):
        for new in _basis(new_dims):
            row = np.ravel_multi_index(new, new_dims)
            out[idx[:k] + new + idx[k + 1:]] += iso[row, idx[k]] * psi[idx]
    return out.reshape(-1)


def oracle_bell_projection(vec, dims, ia, ib, a, b):
    """Slots (ia, ib) of a state vector projected onto |Phi_ab> =
    (X^a Z^b (x) I) sum_m |m, m> / sqrt d, whose amplitude at |j, k> is
    W[j, k] / sqrt d.  Returns the probability and the renormalized
    vector of the other slots, in register order."""
    d = dims[ia]
    bra = oracle_weyl(d, a, b).conj() / np.sqrt(d)
    psi = np.asarray(vec, dtype=complex).reshape(dims)
    rest = [i for i in range(len(dims)) if i not in (ia, ib)]
    amp = np.zeros([dims[i] for i in rest], dtype=complex)
    for idx in _basis(dims):
        amp[tuple(idx[i] for i in rest)] += bra[idx[ia], idx[ib]] * psi[idx]
    amp = amp.reshape(-1)
    prob = float(np.vdot(amp, amp).real)
    return prob, amp / np.sqrt(prob)


# --------------------------------------------------------------------
# the three-qutrit two-out-of-three code
# --------------------------------------------------------------------
#
# Codewords: secret q spreads over shares (t, t+q, t+2q) mod 3, summed
# over t with amplitude 1/sqrt(3).  Any single share is maximally mixed;
# any two shares determine q as a difference.


def oracle_code23_isometry():
    iso = np.zeros((27, 3), dtype=complex)
    amp = 3 ** -0.5
    for q in range(3):
        for t in range(3):
            iso[9 * t + 3 * ((t + q) % 3) + (t + 2 * q) % 3, q] = amp
    return iso


def oracle_chi():
    """The leftover maximally entangled pair after a two-share decode."""
    chi = np.zeros(9, dtype=complex)
    for t in range(3):
        chi[3 * t + t] = 3 ** -0.5
    return chi


def oracle_decode_front_pair():
    """Decode unitary on shares (0, 1): |a,b> -> |b-a, 2b-a| mod 3.

    The first output slot carries the secret (difference of the two
    shares); the second lines up with the untouched third share so the
    pair lands exactly on oracle_chi().  Self-checked on construction.
    """
    u = np.zeros((9, 9), dtype=complex)
    for a in range(3):
        for b in range(3):
            u[3 * ((b - a) % 3) + (2 * b - a) % 3, 3 * a + b] = 1.0
    iso = oracle_code23_isometry()
    chi = oracle_chi()
    big = np.kron(u, np.eye(3))
    for q in range(3):
        got = big @ iso[:, q]
        want = np.kron(np.eye(3)[q], chi)
        assert np.allclose(got, want), "decode self-check failed"
    return u


# --------------------------------------------------------------------
# test states
# --------------------------------------------------------------------


def basis_state(register, values):
    """|values[0], values[1], ...> on a qsim register: the one-hot vector
    at the mixed-radix index of `values`, slot 0 most significant."""
    from stq.qsim import State

    dims = register.dims
    if len(values) != len(dims):
        raise ValueError("need one basis value per slot")
    idx = 0
    for val, d in zip(values, dims):
        if not 0 <= val < d:
            raise ValueError("basis value out of range")
        idx = idx * d + val
    vec = np.zeros(register.total_dim, dtype=np.complex128)
    vec[idx] = 1.0
    return State(register, vec)


def haar_state(register, rng):
    """Haar-random pure state on a qsim register: a normalized vector of
    iid complex Gaussians."""
    from stq.qsim import State

    n = register.total_dim
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return State(register, vec / np.linalg.norm(vec))


# --------------------------------------------------------------------
# transfer certification: the two-independent-encodings cheat
# --------------------------------------------------------------------


def oracle_pit_cheat(seed=0):
    """Certification pass probability when the receiver decodes one
    encoding but presents a spare share from an unrelated second one.

    Slots: (ref, a0, a1, a2, b0, b1, b2).  The a-encoding carries half a
    maximally entangled pair; the b-encoding carries an independent
    random pure state.  Decoding (a0, a1) leaves the residual in a1; the
    certification projects (a1, b2) onto the entangled test state.
    """
    rng = np.random.default_rng(seed)
    iso = oracle_code23_isometry()

    a_side = np.zeros((3, 27), dtype=complex)
    for q in range(3):
        a_side[q] = 3 ** -0.5 * iso[:, q]
    a_side = a_side.reshape(81)

    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = phi / np.linalg.norm(phi)
    b_side = iso @ phi

    full = np.kron(a_side, b_side)
    decode = np.kron(np.eye(3),
                     np.kron(oracle_decode_front_pair(), np.eye(81)))
    full = decode @ full

    rho = reduced(full, [3] * 7, (2, 6))
    chi = oracle_chi()
    return float(np.real(chi.conj() @ rho @ chi))


# --------------------------------------------------------------------
# pad keys, enumerated
# --------------------------------------------------------------------


def enumerated_scenarios(plan, tol=1e-9):
    """Score a plan over every pad-key assignment, the slow way.

    Per call pattern, the schedule is re-run for each of the (d*d)**k
    assignments of its k keys.  A delivery takes its worst fidelity over
    all of them.  An exclusion groups the runs by the values of the keys
    its view holds, averages the collected view over each group, and
    weights each group's leak by its size.  Built on the engine's
    interpreter, collection and metrics (`_run`, `_collect`,
    `_reconstruct`, `_exclusion_dm`, `_leak_of`) and its battery and
    collections, so a disagreement with `simulate` is about keys alone.
    Returns one engine ScenarioResult per call pattern.
    """
    from stq import engine

    task = plan.task
    d = task.secret_dim
    names = [ev["name"] for ev in plan.events if ev["op"] == "key"]
    wheel = [(a, b) for a in range(d) for b in range(d)]
    # the all-zero assignment comes first in product order
    assignments = [dict(zip(names, combo))
                   for combo in itertools.product(wheel, repeat=len(names))]
    deliveries, exclusions = engine._collections_for(task)
    geometric = task.kind == "localize_exclude"
    out = []
    for pattern in engine._battery(task, deliveries + exclusions):
        res = engine.ScenarioResult(calls=tuple(sorted(pattern)))
        out.append(res)
        picked = [(role, label, region)
                  for role, group in (("deliver", deliveries),
                                      ("exclude", exclusions))
                  for label, region, members in group
                  if geometric or frozenset(members) == pattern]
        if not picked:
            continue
        runs = [engine._run(plan, pattern, kv) for kv in assignments]
        for role, label, region in picked:
            view = engine._collect(runs[0], region, geometric)
            found = engine._reconstruct(runs[0], view, assignments[0], d)[1]
            if role == "deliver":
                fid = min(engine._reconstruct(tr, view, kv, d)[0]
                          for tr, kv in zip(runs, assignments))
                res.collectors.append(engine.CollectorResult(
                    label, role, fidelity=fid, reconstructed=found,
                    ok=fid >= 1.0 - tol))
                continue
            blocks = {}
            for tr, kv in zip(runs, assignments):
                held = tuple(kv[k] for k in sorted(view.keys))
                count, acc = blocks.get(held, (0, 0.0))
                dm = engine._exclusion_dm(tr, view)
                blocks[held] = (count + 1, acc + dm)
            leak = sum(count / len(runs) * engine._leak_of(acc / count, d)
                       for count, acc in blocks.values())
            res.collectors.append(engine.CollectorResult(
                label, role, leak=leak, reconstructed=found,
                ok=leak <= tol))
    return out
