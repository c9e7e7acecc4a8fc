"""Coding and encryption layers used by task plans.

Two groups of primitives:

* the ((2,3)) qutrit threshold code -- encode isometry plus, for every pair of
  shares, a two-qutrit permutation unitary that concentrates the secret onto
  the pair's first slot and leaves the second slot maximally entangled with
  the excluded share; and
* the qudit one-time pad (one Weyl pair per qudit).

The classical ((m,m)) splits of pad keys are not modelled bit by bit: the
engine tracks key parts abstractly, and a key counts as known once every
part of one of its split copies is in view.  `scheme_cost` counts the
classical key bits the construction spends.

The decode permutations are derived from the encoded basis
|i> -> (1/sqrt 3) sum_j |j, j+i, j+2i>:  each pair of share values determines
(i, third value) linearly mod 3, and the maps below are exactly those
bijections of Z_3 x Z_3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qsim

# --------------------------------------------------------------------
# ((2,3)) qutrit code
# --------------------------------------------------------------------


def code23_isometry() -> np.ndarray:
    """Encoding isometry C^3 -> C^27: |i> -> (1/sqrt 3) sum_j |j, j+i, j+2i>."""
    iso = np.zeros((27, 3), dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            s1, s2, s3 = j, (j + i) % 3, (j + 2 * i) % 3
            iso[s1 * 9 + s2 * 3 + s3, i] = 1.0 / math.sqrt(3)
    return iso


def code23_encode(state: qsim.State, label: str,
                  share_labels: Sequence[str]) -> qsim.State:
    """Encode one qutrit slot into three share slots."""
    if len(share_labels) != 3:
        raise ValueError("the ((2,3)) code produces exactly three shares")
    return qsim.apply_isometry(
        state, code23_isometry(), label, [(l, 3) for l in share_labels])


# share index pairs are 0-based positions in the (s1, s2, s3) encoding order
_DECODE_MAPS = {
    (0, 1): lambda p, q: ((q - p) % 3, (2 * q - p) % 3),
    (0, 2): lambda p, q: ((2 * (q - p)) % 3, (2 * q - p) % 3),
    (1, 2): lambda p, q: ((q - p) % 3, (2 * p - q) % 3),
}


def code23_decode_unitary(pair: tuple[int, int]) -> np.ndarray:
    """Permutation unitary on a share pair (9x9).

    After applying it to shares (pair[0], pair[1]) of a codeword, the first
    slot carries the encoded qutrit and the second slot is maximally
    entangled with the excluded share.
    """
    pair = (min(pair), max(pair))
    if pair not in _DECODE_MAPS:
        raise ValueError(f"not a share pair: {pair}")
    f = _DECODE_MAPS[pair]
    mat = np.zeros((9, 9), dtype=np.complex128)
    for p in range(3):
        for q in range(3):
            a, b = f(p, q)
            mat[a * 3 + b, p * 3 + q] = 1.0
    return mat


def code23_decode(state: qsim.State, pair: tuple[int, int],
                  label_a: str, label_b: str) -> qsim.State:
    """Decode from two shares; `pair` gives their 0-based code positions.

    label_a must hold share pair[0] and label_b share pair[1]; afterwards
    label_a holds the secret.
    """
    return qsim.apply_unitary(
        state, code23_decode_unitary(pair), [label_a, label_b])


def chi_state() -> np.ndarray:
    """The check state (|00> + |11> + |22>)/sqrt 3 as a flat 9-vector."""
    vec = np.zeros(9, dtype=np.complex128)
    for m in range(3):
        vec[m * 3 + m] = 1.0
    return vec / math.sqrt(3)


# --------------------------------------------------------------------
# qudit one-time pad
# --------------------------------------------------------------------


def qotp_encrypt(state: qsim.State, label: str, key: tuple[int, int]) -> qsim.State:
    return qsim.apply_weyl(state, label, key[0], key[1])


def qotp_decrypt(state: qsim.State, label: str, key: tuple[int, int]) -> qsim.State:
    d = state.register.dim(label)
    w = qsim.weyl(d, key[0], key[1])
    return qsim.apply_unitary(state, w.conj().T, [label])


# --------------------------------------------------------------------
# cost accounting
# --------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    """Resource counts for the edge-coded construction on n authorized sets,
    m unauthorized sets, and L-bit edge keys."""

    edges: int
    quantum_shares: int
    quantum_qubits: int
    classical_bits: int
    shamir_scaling: str

    def lines(self) -> list[str]:
        return [
            f"edges              {self.edges}",
            f"quantum shares     {self.quantum_shares}",
            f"quantum qubits     {self.quantum_qubits}",
            f"classical key bits {self.classical_bits}",
            f"shamir alternative {self.shamir_scaling}",
        ]


def scheme_cost(n: int, m: int, key_bits: int = 8) -> CostReport:
    """Headline costs of the pairwise construction.

    One quantum share per unordered pair of authorized sets (two qubits each
    in the qubit accounting), and three independently split key copies per
    share: 3 * m * C(n,2) * key_bits classical bits in total.  Shamir
    sharing of the same keys scales like C(n,2) * key_bits * O(log m) and is
    reported as an asymptotic note only.
    """
    if n < 2:
        raise ValueError("need at least two authorized sets")
    if m < 0:
        raise ValueError("negative unauthorized count")
    edges = n * (n - 1) // 2
    return CostReport(
        edges=edges,
        quantum_shares=edges,
        quantum_qubits=2 * edges,
        classical_bits=3 * m * edges * key_bits,
        shamir_scaling=f"~{edges * key_bits} * O(log m) bits (asymptotic)",
    )
