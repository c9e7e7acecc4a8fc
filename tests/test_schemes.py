from __future__ import annotations

import numpy as np
import pytest

from oracles import oracle_chi, oracle_code23_isometry, qotp_twirl, reduced
from stq.qsim import (Register, fidelity, haar_state, maximally_entangled,
                      partial_trace, trace_distance)
from stq.schemes import (chi_state, code23_decode, code23_decode_unitary,
                         code23_encode, code23_isometry, qotp_decrypt,
                         qotp_encrypt, scheme_cost)

PAIRS = [(0, 1), (0, 2), (1, 2)]
SHARES = ("x", "y", "z")


def encode_haar_secret(seed):
    psi = haar_state(Register([("s", 3)]), np.random.default_rng(seed))
    return psi, code23_encode(psi, "s", SHARES)


# ---------------------------------------------------------------- code


def test_isometry_matches_oracle():
    assert np.allclose(code23_isometry(), oracle_code23_isometry(),
                       atol=1e-15)


def test_chi_matches_oracle():
    assert np.allclose(chi_state(), oracle_chi(), atol=1e-15)
    assert np.allclose(chi_state(), maximally_entangled(3).vec, atol=1e-15)


@pytest.mark.parametrize("pair", PAIRS)
def test_decode_recovers_secret_from_any_pair(pair):
    for seed in range(5):
        psi, enc = encode_haar_secret(seed)
        la, lb = SHARES[pair[0]], SHARES[pair[1]]
        dec = code23_decode(enc, pair, la, lb)
        assert fidelity(partial_trace(dec, [la]), psi.vec) > 1 - 1e-9


@pytest.mark.parametrize("pair", PAIRS)
def test_decode_leaves_entangled_check_state(pair):
    psi, enc = encode_haar_secret(17)
    la, lb = SHARES[pair[0]], SHARES[pair[1]]
    other = next(s for i, s in enumerate(SHARES) if i not in pair)
    dec = code23_decode(enc, pair, la, lb)
    rho = partial_trace(dec, [lb, other])
    assert fidelity(rho, chi_state()) > 1 - 1e-9


def test_single_share_is_maximally_mixed():
    for seed in range(5):
        _, enc = encode_haar_secret(seed)
        for i, lab in enumerate(SHARES):
            rho = partial_trace(enc, [lab])
            assert trace_distance(rho, np.eye(3) / 3) <= 1e-9
            want = reduced(enc.vec, (3, 3, 3), (i,))
            assert np.allclose(rho, want, atol=1e-12)


def test_decode_entangled_with_reference():
    pair_state = maximally_entangled(3, labels=("ref", "s"))
    enc = code23_encode(pair_state, "s", SHARES)
    dec = code23_decode(enc, (1, 2), "y", "z")
    rho = partial_trace(dec, ["ref", "y"])
    assert fidelity(rho, maximally_entangled(3).vec) > 1 - 1e-9


def test_decode_unitary_is_a_permutation():
    for pair in PAIRS:
        u = code23_decode_unitary(pair)
        assert np.allclose(u @ u.conj().T, np.eye(9), atol=1e-12)
        assert set(np.abs(u).ravel()) <= {0.0, 1.0}


def test_code_shape_errors():
    psi = haar_state(Register([("s", 3)]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        code23_encode(psi, "s", ["a", "b"])
    with pytest.raises(ValueError):
        code23_decode_unitary((0, 0))


# ---------------------------------------------------------------- one-time pad


def test_qotp_round_trip():
    psi = haar_state(Register([("c", 3), ("r", 3)]),
                     np.random.default_rng(2))
    for a in range(3):
        for b in range(3):
            enc = qotp_encrypt(psi, "c", (a, b))
            back = qotp_decrypt(enc, "c", (a, b))
            assert fidelity(back, psi.vec) > 1 - 1e-12


def test_qotp_key_average_scrambles_completely():
    psi = maximally_entangled(3, labels=("c", "r"))
    avg = np.zeros((9, 9), dtype=complex)
    for a in range(3):
        for b in range(3):
            enc = qotp_encrypt(psi, "c", (a, b))
            avg += np.outer(enc.vec, enc.vec.conj())
    avg /= 9
    assert trace_distance(avg, np.eye(9) / 9) <= 1e-9
    rho = np.outer(psi.vec, psi.vec.conj())
    assert np.allclose(avg, qotp_twirl(rho, (3, 3), 0), atol=1e-12)


# ---------------------------------------------------------------- costs


def test_scheme_cost_values():
    rep = scheme_cost(3, 4, key_bits=8)
    assert rep.edges == 3
    assert rep.quantum_shares == 3
    assert rep.quantum_qubits == 6
    assert rep.classical_bits == 3 * 4 * 3 * 8
    assert len(rep.lines()) == 5


def test_scheme_cost_errors():
    with pytest.raises(ValueError):
        scheme_cost(1, 0)
    with pytest.raises(ValueError):
        scheme_cost(3, -1)
