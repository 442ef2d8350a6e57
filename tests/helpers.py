"""Test helpers: computational basis kets and a POVM check.

The package builds states and effects from diagonal populations and
never needs these; the tests use them to state expected values and to
check that readout effects form a valid measurement.  The tolerances are
`qcore`'s.
"""

import numpy as np

from qudittomo import qcore


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
