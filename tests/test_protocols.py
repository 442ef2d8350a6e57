import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qudittomo import protocols, qcore
from qudittomo.circuits import TwoLevelGate, sequence_unitary
from qudittomo.protocols import (
    MeasurementCircuit,
    TomographyProtocol,
    mub_bases,
    mub_gate_compile,
    mub_protocol,
    qpt_preparations,
    qpt_two_level,
    qst_two_level,
    spam_calibration_circuits,
)
from qudittomo.recon import completeness_check

from helpers import ket


def basis_columns(circuit):
    # measurement in the rotated basis means the basis vectors are the
    # columns of the adjoint of the measurement unitary
    return qcore.dagger(sequence_unitary(circuit.meas, circuit.dim))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_qst_circuit_count(dim):
    protocol = qst_two_level(dim)
    assert len(protocol) == 1 + dim * (dim - 1)
    assert all(c.gate_count <= 1 for c in protocol.circuits)
    assert all(len(c.prep) == 0 for c in protocol.circuits)


def test_qst_first_circuit_is_computational():
    protocol = qst_two_level(3)
    assert protocol.circuits[0].label == "comp"
    assert np.array_equal(sequence_unitary(protocol.circuits[0].meas, 3), np.eye(3))


def test_qst_bases_are_orthonormal():
    for c in qst_two_level(4).circuits:
        assert qcore.is_unitary(basis_columns(c))


def test_qubit_qst_bases_are_mutually_unbiased():
    circuits = qst_two_level(2).circuits
    mats = [basis_columns(c) for c in circuits]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlaps = np.abs(qcore.dagger(mats[i]) @ mats[j]) ** 2
            assert np.max(np.abs(overlaps - 0.5)) < 1e-10


def test_qutrit_qst_bases_are_not_all_unbiased():
    circuits = qst_two_level(3).circuits
    mats = [basis_columns(c) for c in circuits]
    worst = max(
        np.max(np.abs(np.abs(qcore.dagger(mats[i]) @ mats[j]) ** 2 - 1.0 / 3))
        for i in range(len(mats)) for j in range(i + 1, len(mats)))
    assert worst > 0.1


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_qpt_preparation_count_and_depth(dim):
    preps = qpt_preparations(dim)
    assert len(preps) == dim * dim
    assert all(len(gates) <= 2 for _, gates in preps)
    labels = [label for label, _ in preps]
    assert len(set(labels)) == len(labels)


def test_qpt_preparations_span_state_space():
    rho0 = qcore.projector(ket(0, 3))
    mats = []
    for _, gates in qpt_preparations(3):
        u = sequence_unitary(gates, 3)
        rho = u @ rho0 @ qcore.dagger(u)
        mats.append(np.concatenate([rho.real.ravel(), rho.imag.ravel()]))
    assert np.linalg.matrix_rank(np.vstack(mats), tol=1e-10) == 9


def test_qpt_circuit_count_and_depth():
    protocol = qpt_two_level(3)
    assert len(protocol) == 63
    assert max(c.gate_count for c in protocol.circuits) == 3
    assert all(len(c.prep) <= 2 and len(c.meas) <= 1 for c in protocol.circuits)


def test_calibration_circuits():
    circuits = spam_calibration_circuits(3).circuits
    assert [c.gate_count for c in circuits] == [0, 1, 1]
    assert len(spam_calibration_circuits(2)) == 2
    # circuit j pumps the whole population from level 0 to level j
    for j, c in enumerate(circuits):
        u = sequence_unitary(c.prep, 3)
        amp = abs((u @ ket(0, 3))[j]) ** 2
        assert abs(amp - 1.0) < 1e-12


def test_calibration_family_is_a_cached_identity_channel_protocol():
    protocol = spam_calibration_circuits(3)
    assert protocol is spam_calibration_circuits(3)
    assert protocol.kind == "qpt" and protocol.dim == 3
    assert [c.label for c in protocol.circuits] == ["bare", "flip(0,1)", "flip(0,2)"]
    assert all(len(c.meas) == 0 for c in protocol.circuits)


def test_mub_bases_qubit():
    bases = mub_bases(2)
    assert len(bases) == 3
    x_states = np.abs(bases[1]) ** 2
    assert np.max(np.abs(x_states - 0.5)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_mub_bases_pairwise_unbiased(dim):
    bases = mub_bases(dim)
    assert len(bases) == dim + 1
    for i in range(len(bases)):
        assert qcore.is_unitary(bases[i], 1e-10)
        for j in range(i + 1, len(bases)):
            overlaps = np.abs(qcore.dagger(bases[i]) @ bases[j]) ** 2
            assert np.max(np.abs(overlaps - 1.0 / dim)) < 1e-10


@pytest.mark.parametrize("dim", [4, 6])
def test_mub_bases_reject_composite_dimension(dim):
    with pytest.raises(ValueError):
        mub_bases(dim)


def test_compile_identity_is_empty():
    assert len(mub_gate_compile(np.eye(4))) == 0


def test_compile_single_two_level_unitary():
    u = sequence_unitary((TwoLevelGate("y", 0.73, (0, 2)),), 3)
    assert len(mub_gate_compile(u)) <= 3


def test_compile_reproduces_outcome_probabilities():
    # the compiled product may differ from the target by a diagonal phase
    # matrix, which no diagonal readout can see
    for trial in range(30):
        rng = qcore.make_rng(400, "compile", trial)
        dim = int(rng.integers(2, 5))
        u = qcore.haar_unitary(dim, rng)
        gates = mub_gate_compile(u)
        assert len(gates) <= 3 * dim * (dim - 1) // 2
        v = sequence_unitary(gates, dim)
        ratio = v @ qcore.dagger(u)  # should be diagonal with unit modulus
        off = ratio - np.diag(np.diagonal(ratio))
        assert np.max(np.abs(off)) < 1e-8
        assert np.max(np.abs(np.abs(np.diagonal(ratio)) - 1.0)) < 1e-8
        psi = qcore.haar_state(dim, rng)
        assert np.max(np.abs(np.abs(v @ psi) ** 2 - np.abs(u @ psi) ** 2)) < 1e-8


def test_compile_rejects_non_unitary():
    with pytest.raises(ValueError):
        mub_gate_compile(np.ones((3, 3)))


@pytest.mark.parametrize("dim", [2, 3, 5, 7])
def test_mub_protocol_shape(dim):
    # the deep baseline: its largest basis change takes 3 d(d-1)/2 gates,
    # against at most one for the 2-level protocol at every d
    protocol = mub_protocol(dim)
    assert len(protocol) == dim + 1
    assert protocol.circuits[0].label == "comp"
    assert len(protocol.circuits[0].meas) == 0
    assert max(c.gate_count for c in protocol.circuits) == 3 * dim * (dim - 1) // 2


def test_mub_protocol_measures_mub_columns():
    bases = mub_bases(3)
    for circuit, basis in zip(mub_protocol(3).circuits, bases):
        v = sequence_unitary(circuit.meas, 3)
        ratio = v @ basis  # v approximates basis^dag up to diagonal phases
        off = ratio - np.diag(np.diagonal(ratio))
        assert np.max(np.abs(off)) < 1e-8


def test_completeness_of_reference_protocols():
    assert completeness_check(qst_two_level(3)) == (9, True)
    assert completeness_check(qpt_two_level(3)) == (81, True)
    assert completeness_check(mub_protocol(3)) == (9, True)
    assert completeness_check(qst_two_level(2)) == (4, True)


def test_completeness_detects_diagonal_only_protocol():
    comp_only = TomographyProtocol("qst", 3, (qst_two_level(3).circuits[0],))
    rank, complete = completeness_check(comp_only)
    assert (rank, complete) == (3, False)


def test_completeness_rank_is_capped():
    for dim in (2, 3):
        rank, _ = completeness_check(qst_two_level(dim))
        assert rank <= dim ** 2
        rank, _ = completeness_check(qpt_two_level(dim))
        assert rank <= dim ** 4


def test_protocol_validation():
    with pytest.raises(ValueError):
        TomographyProtocol("state", 3, ())
    circuits = qst_two_level(3).circuits
    with pytest.raises(ValueError):
        TomographyProtocol("qst", 3, (circuits[0], circuits[0]))
    with pytest.raises(ValueError):
        TomographyProtocol("qst", 4, (circuits[0],))
    with pytest.raises(ValueError, match="does not fit dimension 2"):
        MeasurementCircuit("bad", 2, (), (TwoLevelGate("x", 1.0, (0, 2)),))
    with pytest.raises(ValueError, match="dimension must be at least 2, got 1"):
        MeasurementCircuit("bad", 1, (), ())


def test_protocols_import_loads_no_fitting_code():
    # the circuit layer is data; the fits and the rank check live in recon
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(protocols.__file__).parents[1]), env.get("PYTHONPATH")]))
    script = ("import sys\n"
              "import qudittomo.protocols\n"
              "print('qudittomo.recon' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
