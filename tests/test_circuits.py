import numpy as np
import pytest
import scipy.linalg

from qudittomo import qcore
from qudittomo.circuits import (
    TwoLevelGate,
    euler_decompose,
    gate_unitary,
    sequence_unitary,
    su2_rotation,
)

from helpers import ket


SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def embedded_generator(axis, levels, dim):
    g = np.zeros((dim, dim), dtype=complex)
    j, k = levels
    g[np.ix_([j, k], [j, k])] = SIGMA[axis]
    return g


def haar_su2(rng):
    u = qcore.haar_unitary(2, rng)
    return u / np.sqrt(np.linalg.det(u))


def test_su2_rotation_matches_exponential():
    for trial in range(40):
        rng = qcore.make_rng(200, "su2-expm", trial)
        axis = "x" if rng.integers(2) else "y"
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        want = scipy.linalg.expm(-0.5j * angle * SIGMA[axis])
        assert np.max(np.abs(su2_rotation(axis, angle) - want)) < 1e-12


def test_ry_quarter_turn_block():
    want = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    assert np.max(np.abs(su2_rotation("y", np.pi / 2) - want)) < 1e-12


def test_zero_angle_gate_is_identity():
    g = TwoLevelGate("x", 0.0, (0, 2))
    assert np.array_equal(gate_unitary(g, 3), np.eye(3))


def test_rx_pi_transfers_population():
    g = TwoLevelGate("x", np.pi, (0, 1))
    out = gate_unitary(g, 2) @ ket(0, 2)
    assert np.max(np.abs(out - (-1j) * ket(1, 2))) < 1e-12


def test_gate_unitary_matches_embedded_exponential():
    for trial in range(40):
        rng = qcore.make_rng(201, "gate-expm", trial)
        dim = int(rng.integers(2, 6))
        j = int(rng.integers(0, dim - 1))
        k = int(rng.integers(j + 1, dim))
        axis = "x" if rng.integers(2) else "y"
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        g = TwoLevelGate(axis, angle, (j, k))
        want = scipy.linalg.expm(-0.5j * angle * embedded_generator(axis, (j, k), dim))
        assert np.max(np.abs(gate_unitary(g, dim) - want)) < 1e-12
        assert qcore.is_unitary(gate_unitary(g, dim))


def test_gate_acts_trivially_outside_its_levels():
    g = TwoLevelGate("y", 1.3, (1, 3))
    u = gate_unitary(g, 5)
    for m in (0, 2, 4):
        assert np.max(np.abs(u[:, m] - np.eye(5)[:, m])) < 1e-15


def test_empty_sequence_is_identity():
    assert np.array_equal(sequence_unitary((), 4), np.eye(4))


def test_angles_add_on_a_shared_pair():
    half = TwoLevelGate("x", np.pi / 2, (0, 1))
    want = gate_unitary(TwoLevelGate("x", np.pi, (0, 1)), 3)
    assert np.max(np.abs(sequence_unitary((half, half), 3) - want)) < 1e-12


def test_gate_then_inverse_is_identity():
    for trial in range(20):
        rng = qcore.make_rng(202, "inverse", trial)
        angle = float(rng.uniform(-np.pi, np.pi))
        g = TwoLevelGate("y", angle, (0, 2))
        ginv = TwoLevelGate("y", -angle, (0, 2))
        u = sequence_unitary((g, ginv), 3)
        assert np.max(np.abs(u - np.eye(3))) < 1e-12


def test_disjoint_pairs_commute():
    for trial in range(20):
        rng = qcore.make_rng(203, "commute", trial)
        a = gate_unitary(TwoLevelGate("x", float(rng.uniform(0, np.pi)), (0, 1)), 4)
        b = gate_unitary(TwoLevelGate("y", float(rng.uniform(0, np.pi)), (2, 3)), 4)
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_sequence_is_time_ordered():
    g1 = TwoLevelGate("y", 0.7, (0, 1))
    g2 = TwoLevelGate("x", 1.1, (1, 2))
    seq = sequence_unitary((g1, g2), 3)
    want = gate_unitary(g2, 3) @ gate_unitary(g1, 3)
    assert np.max(np.abs(seq - want)) < 1e-12


def test_euler_identity_canonical_zeros():
    assert euler_decompose(np.eye(2)) == (0.0, 0.0, 0.0)


def test_euler_pure_y_rotation():
    alpha, beta, gamma = euler_decompose(su2_rotation("y", np.pi / 2))
    assert abs(alpha) < 1e-12 and abs(gamma) < 1e-12
    assert abs(beta - np.pi / 2) < 1e-12


def test_euler_roundtrip_on_haar_samples():
    for trial in range(100):
        u = haar_su2(qcore.make_rng(204, "euler", trial))
        alpha, beta, gamma = euler_decompose(u)
        assert 0.0 <= beta <= np.pi
        back = (su2_rotation("x", gamma) @ su2_rotation("y", beta)
                @ su2_rotation("x", alpha))
        phase = np.vdot(back.ravel(), u.ravel())
        phase /= abs(phase)
        assert np.max(np.abs(back * phase - u)) < 1e-10


def test_euler_rejects_bad_inputs():
    with pytest.raises(ValueError):
        euler_decompose(np.ones((2, 2)))
    with pytest.raises(ValueError):
        euler_decompose(np.eye(3))
    with pytest.raises(ValueError):
        euler_decompose(1j * np.eye(2))  # unitary but det = -1


def test_gate_validation():
    with pytest.raises(ValueError):
        TwoLevelGate("z", 1.0, (0, 1))
    with pytest.raises(ValueError):
        TwoLevelGate("x", 1.0, (1, 1))
    with pytest.raises(ValueError):
        TwoLevelGate("x", 1.0, (2, 1))
    with pytest.raises(ValueError):
        gate_unitary(TwoLevelGate("x", 1.0, (0, 3)), 3)
