"""Dense statevector simulator for small labeled qudit registers.

Kept deliberately tiny: pure states as flat complex vectors, density
matrices as plain ndarrays, and the handful of operations the task engine
needs -- Weyl operators, Bell projections, partial trace, fidelity and trace
distance.  Slot 0 is the most significant axis of the reshaped vector.

Total register dimension is capped at 2**16; everything here is meant for
desk-scale checks, not bulk simulation.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

MAX_DIM = 1 << 16


class Register:
    """Ordered collection of labeled qudit slots."""

    def __init__(self, slots: Iterable[tuple[str, int]]):
        slots = list(slots)
        labels = [s[0] for s in slots]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate slot labels")
        for label, d in slots:
            if d < 2:
                raise ValueError(f"slot {label!r} must have dimension >= 2")
        total = 1
        for _, d in slots:
            total *= d
        if total > MAX_DIM:
            raise ValueError(f"register dimension {total} exceeds {MAX_DIM}")
        self._slots = tuple((label, int(d)) for label, d in slots)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self._slots)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self._slots)

    @property
    def total_dim(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def index(self, label: str) -> int:
        for k, (name, _) in enumerate(self._slots):
            if name == label:
                return k
        raise KeyError(f"no slot {label!r}")

    def dim(self, label: str) -> int:
        return self._slots[self.index(label)][1]

    def drop(self, labels: Sequence[str]) -> "Register":
        gone = set(labels)
        return Register([s for s in self._slots if s[0] not in gone])

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{label}:{d}" for label, d in self._slots)
        return f"Register({inner})"


class State:
    """Pure state over a register (dense, normalized complex vector)."""

    def __init__(self, register: Register, vec: np.ndarray):
        vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != register.total_dim:
            raise ValueError("vector length does not match register dimension")
        self.register = register
        self.vec = vec

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def tensor(self, other: "State") -> "State":
        reg = Register(self.register._slots + other.register._slots)
        return State(reg, np.multiply.outer(self.vec, other.vec))


def maximally_entangled(d: int, labels: tuple[str, str] = ("a", "b")) -> State:
    """(1/sqrt d) sum_j |jj> on two fresh slots."""
    reg = Register([(labels[0], d), (labels[1], d)])
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[::d + 1] = 1.0 / np.sqrt(d)
    return State(reg, vec)


# --------------------------------------------------------------------
# operators
# --------------------------------------------------------------------


def weyl(d: int, a: int, b: int) -> np.ndarray:
    """Weyl (generalized Pauli) operator X^a Z^b on a d-level system.

    X|j> = |j+1 mod d>, Z|j> = omega^j |j> with omega = exp(2 pi i / d).
    """
    a %= d
    b %= d
    omega = np.exp(2j * np.pi / d)
    op = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        op[(j + a) % d, j] = omega ** (b * j)
    return op


def _to_front(n: int, idxs: Sequence[int]) -> list[int]:
    """The axis permutation that moves axes `idxs`, in that order, in front
    of the other axes of an n-axis array, which keep their order."""
    return [*idxs, *(i for i in range(n) if i not in idxs)]


def _apply_matrix(vec: np.ndarray, dims: Sequence[int], idxs: Sequence[int],
                  mat: np.ndarray) -> np.ndarray:
    """Apply `mat` to the tensor axes `idxs` of a flat vector."""
    head = 1
    for i in idxs:
        head *= dims[i]
    if mat.shape != (head, head):
        raise ValueError("matrix must be square over the selected axes")
    perm = _to_front(len(dims), idxs)
    arr = vec.reshape(dims).transpose(perm)
    out = (mat @ arr.reshape(head, -1)).reshape(arr.shape)
    return out.transpose(np.argsort(perm)).reshape(-1)


def apply_unitary(state: State, mat: np.ndarray, labels: Sequence[str]) -> State:
    """Apply a unitary acting on the listed slots (in that order)."""
    reg = state.register
    idxs = [reg.index(l) for l in labels]
    return State(reg, _apply_matrix(state.vec, reg.dims, idxs, mat))


def apply_weyl(state: State, label: str, a: int, b: int) -> State:
    return apply_unitary(state, weyl(state.register.dim(label), a, b), [label])


def apply_isometry(state: State, iso: np.ndarray, label: str,
                   new_slots: Sequence[tuple[str, int]]) -> State:
    """Replace one slot by several: `iso` maps C^d -> tensor of the new slots.

    The new slots take the old slot's position in the register order.
    """
    reg = state.register
    k = reg.index(label)
    d_old = reg.dim(label)
    d_new = 1
    for _, d in new_slots:
        d_new *= d
    if iso.shape != (d_new, d_old):
        raise ValueError("isometry shape mismatch")
    n = len(reg)
    arr = state.vec.reshape(reg.dims).transpose(_to_front(n, [k]))
    new_dims = [d for _, d in new_slots]
    m = len(new_dims)
    out = (iso @ arr.reshape(d_old, -1)).reshape(*new_dims, *arr.shape[1:])
    # the m new axes lead; put them back between the k axes before the old
    # slot and the ones after it
    out = out.transpose([*range(m, m + k), *range(m),
                         *range(m + k, m + n - 1)])
    slots = list(reg._slots)
    slots[k:k + 1] = list(new_slots)
    return State(Register(slots), out.reshape(-1))


# --------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------


def bell_project(state: State, label_a: str, label_b: str,
                 a: int, b: int) -> tuple[float, State]:
    """Project slots (label_a, label_b) onto |Phi_ab>; return probability and
    the renormalized post-measurement state with the two slots removed.

    Zero-probability outcomes return (0.0, zero-vector state)."""
    reg = state.register
    d = reg.dim(label_a)
    if reg.dim(label_b) != d:
        raise ValueError("Bell projection needs equal slot dimensions")
    ia, ib = reg.index(label_a), reg.index(label_b)
    arr = state.vec.reshape(reg.dims).transpose(
        _to_front(len(reg), [ia, ib]))
    # |Phi_ab> = (X^a Z^b (x) I)|Phi> has amplitude omega^(bm) / sqrt d at
    # |m+a, m>, so <Phi_ab|psi> = (1/sqrt d) sum_m omega^(-bm) psi[m+a, m]:
    # roll the first axis by a, weight row m by omega^(-bm), and take the
    # trace over the two leading axes
    m = np.arange(d)
    phase = np.exp(-2j * np.pi * b * m / d).reshape(
        (d,) + (1,) * (len(reg) - 1))
    amp = np.trace(arr[(m + a) % d] * phase, axis1=0, axis2=1) / np.sqrt(d)
    prob = float(np.vdot(amp, amp).real)
    new_reg = reg.drop([label_a, label_b])
    if prob <= 0.0:
        return 0.0, State(new_reg, np.zeros(new_reg.total_dim))
    return prob, State(new_reg, amp.reshape(-1) / np.sqrt(prob))


# --------------------------------------------------------------------
# density matrices and metrics
# --------------------------------------------------------------------


def partial_trace(state: State, keep: Sequence[str]) -> np.ndarray:
    """Density matrix of the listed slots, in the listed order."""
    reg = state.register
    idxs = [reg.index(l) for l in keep]
    dims = reg.dims
    head = 1
    for i in idxs:
        head *= dims[i]
    m = state.vec.reshape(dims).transpose(_to_front(len(dims), idxs))
    m = m.reshape(head, -1)
    return m @ m.conj().T


def depolarize_slot(dm: np.ndarray, dims: Sequence[int], idx: int) -> np.ndarray:
    """Exact full-Weyl-twirl of one slot of a density matrix: the slot is
    replaced by I/d (the Weyl operators form a unitary 1-design)."""
    dims = tuple(dims)
    n = len(dims)
    traced = np.trace(dm.reshape(dims + dims), axis1=idx, axis2=n + idx)
    # axes (slot row, slot col, rest rows..., rest cols...); the slot's two
    # axes go back to places idx and n + idx
    out = np.multiply.outer(np.eye(dims[idx]) / dims[idx], traced)
    rest = iter(range(2, 2 * n))
    out = out.transpose([0 if k == idx else 1 if k == n + idx else next(rest)
                         for k in range(2 * n)])
    return out.reshape(dm.shape)


def _as_dm(obj: Union[State, np.ndarray]) -> np.ndarray:
    if isinstance(obj, State):
        v = obj.vec.reshape(-1, 1)
        return v @ v.conj().T
    arr = np.asarray(obj, dtype=np.complex128)
    if arr.ndim == 1:
        v = arr.reshape(-1, 1)
        return v @ v.conj().T
    return arr


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _pure_vec(obj: Union[State, np.ndarray]) -> np.ndarray | None:
    if isinstance(obj, State):
        return obj.vec
    arr = np.asarray(obj, dtype=np.complex128)
    return arr if arr.ndim == 1 else None


def fidelity(a: Union[State, np.ndarray], b: Union[State, np.ndarray]) -> float:
    """Squared Uhlmann fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    When either argument is pure this reduces to an overlap, which is both
    cheaper and numerically exact, so those cases skip the matrix square root.
    """
    va, vb = _pure_vec(a), _pure_vec(b)
    if va is not None and vb is not None:
        return float(abs(np.vdot(va, vb)) ** 2)
    if va is not None:
        return float(np.real(va.conj() @ _as_dm(b) @ va))
    if vb is not None:
        return float(np.real(vb.conj() @ _as_dm(a) @ vb))
    rho, sigma = _as_dm(a), _as_dm(b)
    s = _psd_sqrt(rho)
    vals = np.linalg.eigvalsh(s @ sigma @ s)
    vals = np.clip(vals, 0.0, None)
    return float(np.sum(np.sqrt(vals)) ** 2)


def trace_distance(a: Union[State, np.ndarray], b: Union[State, np.ndarray]) -> float:
    """(1/2) * trace norm of rho - sigma."""
    diff = _as_dm(a) - _as_dm(b)
    vals = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(vals)))

