"""Test helpers: computational basis kets, a POVM check and a model oracle.

The package builds states and effects from diagonal populations and
never needs these; the tests use them to state expected values and to
check that readout effects form a valid measurement.  The tolerances are
`qcore`'s.  `per_circuit_operators` builds a measurement model circuit by
circuit, the oracle of `recon.build_measurement_model`.
"""

import numpy as np

from qudittomo import qcore, readout
from qudittomo.circuits import gate_unitary


def ket(j, dim):
    """Computational basis column vector |j> in dimension `dim`."""
    if not 0 <= j < dim:
        raise ValueError(f"level {j} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[j] = 1.0
    return v


def check_povm(ops):
    """Raise ValueError unless `ops` (stacked (k, d, d)) forms a POVM."""
    ops = np.asarray(ops)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise ValueError(f"POVM must be stacked (k, d, d), got shape {ops.shape}")
    for m, op in enumerate(ops):
        if not qcore.is_hermitian(op):
            raise ValueError(f"POVM element {m} is not Hermitian")
        wmin = np.linalg.eigvalsh(op).min()
        if wmin < -qcore.ATOL_PSD:
            raise ValueError(f"POVM element {m} has negative eigenvalue {wmin}")
    total = ops.sum(axis=0)
    if np.max(np.abs(total - np.eye(ops.shape[1]))) > qcore.ATOL_TRACE_PRESERVING:
        raise ValueError("POVM elements do not sum to the identity")


def per_circuit_operators(protocol, spam=None, gate_depol_p=0.0):
    """The operators of `recon.build_measurement_model`, circuit by circuit.

    Every circuit evolves its own preparation and measurement gates, in
    the arithmetic of the package's build, which evolves each distinct
    gate tuple once and shares it; so the two agree bit for bit.
    """
    dim = protocol.dim
    model = readout.ideal_spam_model(dim) if spam is None else spam
    rho0 = model.initial_state()
    povm = model.povm()
    n_out = povm.shape[0]
    dd = dim if protocol.kind == "qst" else dim * dim
    ops = np.zeros((len(protocol.circuits), n_out, dd, dd), dtype=complex)
    for c, circuit in enumerate(protocol.circuits):
        effects = povm
        for g in reversed(circuit.meas):
            u = gate_unitary(g, dim)
            effects = qcore.dagger(u) @ qcore.depolarize(effects, gate_depol_p) @ u
        if protocol.kind == "qst":
            ops[c] = effects
            continue
        rho_i = rho0
        for g in circuit.prep:
            u = gate_unitary(g, dim)
            rho_i = qcore.depolarize(u @ rho_i @ qcore.dagger(u), gate_depol_p)
        ops[c] = (rho_i.T[None, :, None, :, None]
                  * effects[:, None, :, None, :]).reshape(n_out, dd, dd)
    return ops
