from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (haar_state, oracle_apply, oracle_bell_projection,
                     oracle_code23_isometry, oracle_isometry, oracle_weyl,
                     qotp_twirl, reduced)
from stq.qsim import (Register, apply_isometry, apply_unitary, apply_weyl,
                     basis_state, bell_project, depolarize_slot, fidelity,
                     maximally_entangled, partial_trace, trace_distance,
                     weyl)


def haar(labels_dims, seed=0):
    return haar_state(Register(labels_dims), np.random.default_rng(seed))


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


# ---------------------------------------------------------------- register


def test_register_basics():
    reg = Register([("a", 3), ("b", 2)])
    assert reg.labels == ("a", "b")
    assert reg.dims == (3, 2)
    assert reg.total_dim == 6
    assert reg.index("b") == 1
    assert reg.dim("a") == 3
    assert reg.drop(["a"]).labels == ("b",)


def test_register_rejects_duplicates_and_tiny_slots():
    with pytest.raises(ValueError):
        Register([("a", 3), ("a", 3)])
    with pytest.raises(ValueError):
        Register([("a", 1)])


def test_register_size_guard():
    with pytest.raises(ValueError):
        Register([(f"q{i}", 3) for i in range(12)])  # 3^12 > 2^16


def test_basis_state():
    st1 = basis_state(Register([("a", 3), ("b", 3)]), [1, 2])
    assert st1.vec[5] == 1.0
    assert np.count_nonzero(st1.vec) == 1
    with pytest.raises(ValueError):
        basis_state(Register([("a", 3)]), [3])


# ---------------------------------------------------------------- states


def test_maximally_entangled_vec():
    psi = maximally_entangled(3)
    want = np.zeros(9)
    want[[0, 4, 8]] = 3 ** -0.5
    assert np.allclose(psi.vec, want)
    psi2 = maximally_entangled(2)
    assert np.allclose(psi2.vec, [2 ** -0.5, 0, 0, 2 ** -0.5])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_maximally_entangled_halves_are_mixed(d):
    psi = maximally_entangled(d)
    for keep in ("a", "b"):
        rho = partial_trace(psi, [keep])
        assert np.allclose(rho, np.eye(d) / d, atol=1e-12)


def test_haar_state_is_normalized_and_seeded():
    s1 = haar([("a", 3), ("b", 3)], seed=7)
    s2 = haar([("a", 3), ("b", 3)], seed=7)
    assert abs(s1.norm() - 1.0) < 1e-12
    assert np.array_equal(s1.vec, s2.vec)


def test_tensor_orders_slots():
    left = basis_state(Register([("a", 2)]), [1])
    right = basis_state(Register([("b", 3)]), [2])
    both = left.tensor(right)
    assert both.register.labels == ("a", "b")
    assert both.vec[1 * 3 + 2] == 1.0


# ---------------------------------------------------------------- weyl


@pytest.mark.parametrize("d", [2, 3, 5])
def test_weyl_matches_oracle(d):
    for a in range(d):
        for b in range(d):
            assert np.allclose(weyl(d, a, b), oracle_weyl(d, a, b),
                               atol=1e-12)


def test_weyl_composition_phase():
    d = 3
    omega = np.exp(2j * np.pi / d)
    for a, b, c, e in [(1, 0, 0, 1), (2, 1, 1, 2), (1, 2, 2, 1)]:
        lhs = weyl(d, a, b) @ weyl(d, c, e)
        rhs = omega ** (b * c) * weyl(d, (a + c) % d, (b + e) % d)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_apply_weyl_is_apply_unitary():
    psi = haar([("a", 3), ("b", 3)], seed=3)
    via_w = apply_weyl(psi, "b", 2, 1)
    via_u = apply_unitary(psi, weyl(3, 2, 1), ["b"])
    assert np.allclose(via_w.vec, via_u.vec, atol=1e-12)


def test_apply_unitary_targets_only_named_slots():
    psi = basis_state(Register([("a", 3), ("b", 3)]), [0, 0])
    out = apply_unitary(psi, weyl(3, 1, 0), ["a"])
    assert out.vec[3] == 1.0  # |10>


def test_apply_unitary_on_distant_slots_in_reversed_order():
    # slots c and a, in that order, with the b slot between them
    dims = (3, 2, 2)
    psi = haar(list(zip("abc", dims)), seed=4)
    mat = random_unitary(6, seed=5)
    got = apply_unitary(psi, mat, ["c", "a"])
    assert got.register.labels == ("a", "b", "c")
    assert np.allclose(got.vec, oracle_apply(psi.vec, dims, (2, 0), mat),
                       atol=1e-12)


# ---------------------------------------------------------------- teleport


def test_teleportation_recovers_input_for_every_outcome():
    # outcome (a, b) leaves W(a, b)^dagger |psi> on the far half, so W(a, b)
    # corrects it; the engine's (0, 0) collapse needs no correction at all
    d = 3
    psi = haar([("s", d)], seed=11)
    pair = maximally_entangled(d, labels=("e", "f"))
    joint = psi.tensor(pair)
    for a in range(d):
        for b in range(d):
            prob, post = bell_project(joint, "s", "e", a, b)
            assert abs(prob - 1 / d ** 2) < 1e-12
            fixed = apply_unitary(post, weyl(d, a, b), ["f"])
            assert fidelity(fixed, psi.vec) > 1 - 1e-12


@pytest.mark.parametrize("order", [(0, 2), (2, 0)])
def test_bell_project_matches_oracle_on_distant_slots(order):
    dims = (3, 2, 3)
    labels = "abc"
    psi = haar(list(zip(labels, dims)), seed=9)
    la, lb = (labels[i] for i in order)
    for a in range(3):
        for b in range(3):
            prob, post = bell_project(psi, la, lb, a, b)
            want_prob, want = oracle_bell_projection(psi.vec, dims, *order,
                                                     a, b)
            assert abs(prob - want_prob) < 1e-12
            assert post.register.labels == ("b",)
            assert np.allclose(post.vec, want, atol=1e-12)


def test_bell_projection_probabilities_sum_to_one():
    joint = haar([("a", 3), ("b", 3), ("c", 3)], seed=5)
    total = sum(bell_project(joint, "a", "b", a, b)[0]
                for a in range(3) for b in range(3))
    assert abs(total - 1.0) < 1e-10


# ---------------------------------------------------------------- traces


def test_partial_trace_keep_order():
    dims = (2, 3, 4)
    psi = haar(list(zip("abc", dims)), seed=2)
    for r in (1, 2, 3):
        for keep in itertools.permutations(range(3), r):
            got = partial_trace(psi, ["abc"[i] for i in keep])
            assert np.allclose(got, reduced(psi.vec, dims, keep),
                               atol=1e-12)


def test_partial_trace_of_product_state():
    left = haar([("a", 3)], seed=1)
    right = haar([("b", 3)], seed=2)
    rho = partial_trace(left.tensor(right), ["a"])
    assert np.allclose(rho, np.outer(left.vec, left.vec.conj()), atol=1e-12)


@pytest.mark.parametrize("idx", [0, 1])
def test_depolarize_slot_matches_weyl_twirl(idx):
    psi = haar([("a", 3), ("b", 3)], seed=6)
    rho = np.outer(psi.vec, psi.vec.conj())
    got = depolarize_slot(rho, (3, 3), idx)
    want = qotp_twirl(rho, (3, 3), idx)
    assert np.allclose(got, want, atol=1e-11)
    kept = [i for i in (0, 1) if i != idx]
    marg = reduced(psi.vec, (3, 3), tuple(kept))
    if idx == 0:
        assert np.allclose(got, np.kron(np.eye(3) / 3, marg), atol=1e-11)
    else:
        assert np.allclose(got, np.kron(marg, np.eye(3) / 3), atol=1e-11)

    # a mixed state on slots of three different dimensions, twirled at
    # every slot
    dims = (2, 3, 4)
    rng = np.random.default_rng(7 + idx)
    g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T)
    for k in range(len(dims)):
        assert np.allclose(depolarize_slot(rho, dims, k),
                           qotp_twirl(rho, dims, k), atol=1e-11)


# ---------------------------------------------------------------- isometry


def test_apply_isometry_expands_one_slot():
    iso = np.zeros((9, 3), dtype=complex)  # |q> -> |q,q>
    for q in range(3):
        iso[q * 3 + q, q] = 1.0
    psi = basis_state(Register([("s", 3)]), [2])
    out = apply_isometry(psi, iso, "s", [("x", 3), ("y", 3)])
    assert out.register.labels == ("x", "y")
    assert out.vec[8] == 1.0


def test_apply_isometry_on_a_middle_slot_matches_oracle():
    dims = (2, 3, 2)
    psi = haar(list(zip("abc", dims)), seed=14)
    iso = oracle_code23_isometry()
    out = apply_isometry(psi, iso, "b", [("x", 3), ("y", 3), ("z", 3)])
    assert out.register.labels == ("a", "x", "y", "z", "c")
    assert np.allclose(out.vec,
                       oracle_isometry(psi.vec, dims, 1, iso, (3, 3, 3)),
                       atol=1e-12)


# ---------------------------------------------------------------- metrics


def test_fidelity_of_identical_pure_states_is_machine_exact():
    psi = haar([("a", 3), ("b", 3)], seed=8)
    assert abs(fidelity(psi, psi) - 1.0) <= 1e-14
    assert abs(fidelity(psi, psi.vec) - 1.0) <= 1e-14


def test_fidelity_orthogonal():
    reg = Register([("a", 3)])
    assert fidelity(basis_state(reg, [0]), basis_state(reg, [1])) == 0.0


def test_fidelity_pure_vs_mixed():
    psi = maximally_entangled(3)
    rho = np.eye(9) / 9
    assert abs(fidelity(psi, rho) - 1 / 9) < 1e-12
    assert abs(fidelity(rho, psi) - 1 / 9) < 1e-12


def test_fidelity_mixed_mixed():
    rho = np.eye(3) / 3
    assert abs(fidelity(rho, rho) - 1.0) < 1e-9
    sigma = np.diag([1.0, 0.0, 0.0])
    assert abs(fidelity(rho, sigma) - 1 / 3) < 1e-9


def test_trace_distance():
    rho = np.eye(3) / 3
    assert trace_distance(rho, rho) < 1e-12
    sigma = np.diag([1.0, 0.0, 0.0])
    assert abs(trace_distance(rho, sigma) - 2 / 3) < 1e-12
    a = basis_state(Register([("x", 2)]), [0])
    b = basis_state(Register([("x", 2)]), [1])
    assert abs(trace_distance(a, b) - 1.0) < 1e-12
