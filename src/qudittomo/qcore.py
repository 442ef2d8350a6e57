"""Core linear-algebra primitives shared by the tomography modules.

Conventions
-----------
* States are d x d density matrices, stored as complex ndarrays.
* Channels are Choi matrices J = sum_ij |i><j| (x) L(|i><j|), a d^2 x d^2
  array whose composite index runs (input, output) in row-major order.
  With this ordering the outcome probability of an effect P on input rho
  is Tr(J (rho^T (x) P)), and trace preservation reads Tr_out(J) = I_d.
* Randomness flows through numpy Generators.  Child streams derive from a
  64-bit root seed via `derive_seed`, which hashes (seed, label, index);
  the same triple always reproduces the same stream, independent of call
  order.
"""

import hashlib

import numpy as np

ATOL_HERMITIAN = 1e-12
ATOL_TRACE = 1e-12
ATOL_PSD = 1e-10
ATOL_UNITARY = 1e-12
ATOL_TRACE_PRESERVING = 1e-10


def dagger(a):
    return np.conj(a.T)


def ket(j, dim):
    """Computational basis column vector |j> in dimension `dim`."""
    if not 0 <= j < dim:
        raise ValueError(f"level {j} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[j] = 1.0
    return v


def projector(psi):
    """Rank-1 density matrix |psi><psi| from a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def is_hermitian(a, atol=ATOL_HERMITIAN):
    return bool(np.max(np.abs(a - dagger(a))) <= atol)


def is_unitary(u, atol=ATOL_UNITARY):
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))) <= atol)


def check_density_matrix(rho):
    """Raise ValueError unless rho is a valid density matrix."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > ATOL_TRACE:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    wmin = np.linalg.eigvalsh((rho + dagger(rho)) / 2).min()
    if wmin < -ATOL_PSD:
        raise ValueError(f"density matrix has negative eigenvalue {wmin}")


def check_povm(ops):
    """Raise ValueError unless `ops` (stacked (k, d, d)) forms a POVM."""
    ops = np.asarray(ops)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise ValueError(f"POVM must be stacked (k, d, d), got shape {ops.shape}")
    for m, op in enumerate(ops):
        if not is_hermitian(op):
            raise ValueError(f"POVM element {m} is not Hermitian")
        wmin = np.linalg.eigvalsh(op).min()
        if wmin < -ATOL_PSD:
            raise ValueError(f"POVM element {m} has negative eigenvalue {wmin}")
    total = ops.sum(axis=0)
    if np.max(np.abs(total - np.eye(ops.shape[1]))) > ATOL_TRACE_PRESERVING:
        raise ValueError("POVM elements do not sum to the identity")


def depolarize(op, p):
    """Depolarizing channel (1 - p) op + p Tr(op) I / d.

    On trace-1 states this is the usual mixture with the maximally mixed
    state.  The linear extension above is self-adjoint, so the same
    function serves as the Heisenberg-picture dual acting on effects.
    `op` may also be a stack (..., d, d), depolarized one by one.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    op = np.asarray(op, dtype=complex)
    d = op.shape[-1]
    tr = np.trace(op, axis1=-2, axis2=-1)[..., None, None]
    return (1.0 - p) * op + p * tr * np.eye(d) / d


def _psd_sqrt(a):
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def fidelity(rho, sigma, check=True):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    A rank-1 argument short-circuits to the exact overlap formula
    F = <psi| other |psi>, which avoids the square-root noise
    amplification of the generic eigendecomposition path.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if check:
        check_density_matrix(rho)
        check_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("states have different dimensions")
    for a, b in ((rho, sigma), (sigma, rho)):
        w, v = np.linalg.eigh((a + dagger(a)) / 2)
        if np.all(np.abs(w[:-1]) <= 1e-12):
            psi = v[:, -1]
            f = float(w[-1]) * float(np.real(psi.conj() @ b @ psi))
            return min(max(f, 0.0), 1.0)
    s = _psd_sqrt(rho)
    m = s @ sigma @ s
    w = np.linalg.eigvalsh((m + dagger(m)) / 2)
    f = float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
    return min(f, 1.0)


def infidelity(rho, sigma, check=True):
    return 1.0 - fidelity(rho, sigma, check=check)


# Choi-matrix operations.  Composite indices are (input, output), row-major.

def choi_from_unitary(u):
    """Choi matrix of rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("input is not unitary")
    v = u.T.reshape(-1)  # v[(i, a)] = U[a, i]
    return np.outer(v, v.conj())


def choi_output_trace(choi):
    """Partial trace of a Choi matrix over the output slot (a d x d array)."""
    d2 = choi.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError(f"Choi matrix has non-square dimension {d2}")
    return np.einsum("iaja->ij", choi.reshape(d, d, d, d))


def check_choi(choi, atol_tp=ATOL_TRACE_PRESERVING):
    """Raise ValueError unless `choi` is a CPTP Choi matrix."""
    choi = np.asarray(choi)
    if choi.ndim != 2 or choi.shape[0] != choi.shape[1]:
        raise ValueError(f"Choi matrix must be square, got shape {choi.shape}")
    if not is_hermitian(choi, 1e-10):
        raise ValueError("Choi matrix is not Hermitian")
    wmin = np.linalg.eigvalsh((choi + dagger(choi)) / 2).min()
    if wmin < -ATOL_PSD:
        raise ValueError(f"Choi matrix has negative eigenvalue {wmin}")
    d = int(round(np.sqrt(choi.shape[0])))
    tin = choi_output_trace(choi)
    if np.max(np.abs(tin - np.eye(d))) > atol_tp:
        raise ValueError("Choi matrix is not trace preserving")


def choi_depolarize(choi, p):
    """Compose a depolarizing channel after the channel given by `choi`."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    d2 = choi.shape[0]
    d = int(round(np.sqrt(d2)))
    j4 = np.asarray(choi, dtype=complex).reshape(d, d, d, d)
    t = np.einsum("iaja->ij", j4)
    out = (1.0 - p) * j4 + (p / d) * np.einsum("ij,ab->iajb", t, np.eye(d))
    return out.reshape(d2, d2)


def apply_choi(choi, rho, check=True):
    """Apply the channel with Choi matrix `choi` to the state `rho`."""
    d = rho.shape[0]
    if choi.shape[0] != d * d:
        raise ValueError("Choi matrix dimension does not match the state")
    if check:
        check_choi(choi, atol_tp=1e-8)
    j4 = choi.reshape(d, d, d, d)
    return np.einsum("ij,iajb->ab", np.asarray(rho, dtype=complex), j4)


def process_fidelity(choi_a, choi_b):
    """Uhlmann fidelity between the Choi matrices scaled by 1/d.

    Inputs must be Hermitian and positive within tolerance; small
    trace-preservation residue from numerical projections is accepted.
    """
    choi_a = np.asarray(choi_a, dtype=complex)
    choi_b = np.asarray(choi_b, dtype=complex)
    if choi_a.shape != choi_b.shape:
        raise ValueError("Choi matrices have different dimensions")
    d = int(round(np.sqrt(choi_a.shape[0])))
    if d * d != choi_a.shape[0]:
        raise ValueError(f"Choi matrix has non-square dimension {choi_a.shape[0]}")
    return fidelity(choi_a / d, choi_b / d, check=False)


# Seeded randomness.

def derive_seed(seed, label="", index=0):
    """Deterministic 64-bit child seed from (seed, label, index)."""
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    msg = f"{int(seed) % 2**64}:{label}:{int(index)}".encode()
    digest = hashlib.blake2b(msg, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def make_rng(seed, label="", index=0):
    """Generator for the child stream (seed, label, index)."""
    return np.random.default_rng(derive_seed(seed, label, index))


def haar_state(dim, rng):
    """Haar-random pure state vector of dimension `dim`."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_unitary(dim, rng):
    """Haar-random unitary, QR-based with the phase convention fixed."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases
