"""Tomography protocols built from short two-level rotations.

Ion qudits suffer readout errors that grow with circuit depth, so the
protocols here keep every circuit as shallow as possible:

* State tomography uses the bare computational readout plus one R_y(pi/2)
  and one R_x(3pi/2) circuit per level pair: 1 + d(d-1) circuits, at most
  one gate each.  For d = 2 this is exactly the mutually unbiased bases
  of a qubit.
* Process tomography probes the channel with d^2 input states prepared
  from at most two gates (a population flip to a base level, optionally
  followed by a half rotation to a higher level), measured with the state
  tomography circuits: d^2 (1 + d(d-1)) circuits in total.
* For comparison, `mub_protocol` measures the d + 1 mutually unbiased
  bases of a prime-dimensional qudit; the basis changes are compiled to
  two-level gates and are therefore deep circuits that accumulate gate
  noise.
* Calibration circuits interleave nothing but population flips, exposing
  the diagonal preparation-and-readout error model.

`completeness_check` verifies that a protocol determines its target (a
state, or a process in Choi form) by the numerical rank of the real
design matrix of the reconstruction's measurement model
(`recon.build_measurement_model`), so it checks the same forward model
that the simulator and the fits use.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .circuits import GateSequence, TwoLevelGate, euler_decompose
from .recon import build_measurement_model

PI = np.pi


@dataclass(frozen=True)
class MeasurementCircuit:
    """Preparation gates, measurement basis-change gates, and a label."""

    label: str
    prep: GateSequence
    meas: GateSequence

    def __post_init__(self):
        if self.prep.dim != self.meas.dim:
            raise ValueError(
                f"prep dimension {self.prep.dim} != meas dimension {self.meas.dim}")

    @property
    def dim(self):
        return self.prep.dim

    @property
    def gate_count(self):
        return len(self.prep) + len(self.meas)


@dataclass(frozen=True)
class TomographyProtocol:
    """An ordered family of measurement circuits for one tomography task."""

    kind: str
    dim: int
    circuits: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("qst", "qpt"):
            raise ValueError(f"kind must be 'qst' or 'qpt', got {self.kind!r}")
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        object.__setattr__(self, "circuits", tuple(self.circuits))
        labels = set()
        for c in self.circuits:
            if c.dim != self.dim:
                raise ValueError(f"circuit {c.label!r} has dimension {c.dim}")
            if c.label in labels:
                raise ValueError(f"duplicate circuit label {c.label!r}")
            labels.add(c.label)

    def __len__(self):
        return len(self.circuits)


def level_pairs(dim):
    """All level pairs (j, k) with j < k, in lexicographic order."""
    return [(j, k) for j in range(dim) for k in range(j + 1, dim)]


def _empty(dim):
    return GateSequence(dim)


@functools.cache
def qst_two_level(dim):
    """State tomography from two-level rotations.

    Circuit 0 reads the computational basis with no gates at all; then one
    R_y(pi/2) circuit per level pair and one R_x(3pi/2) circuit per level
    pair, 1 + d(d-1) circuits of at most one gate.  The protocol is built
    once per dimension and shared; it is frozen.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    circuits = [MeasurementCircuit("comp", _empty(dim), _empty(dim))]
    for j, k in level_pairs(dim):
        seq = GateSequence(dim, (TwoLevelGate("y", PI / 2, (j, k)),))
        circuits.append(MeasurementCircuit(f"ry90({j},{k})", _empty(dim), seq))
    for j, k in level_pairs(dim):
        seq = GateSequence(dim, (TwoLevelGate("x", 3 * PI / 2, (j, k)),))
        circuits.append(MeasurementCircuit(f"rx270({j},{k})", _empty(dim), seq))
    return TomographyProtocol("qst", dim, tuple(circuits))


def qpt_preparations(dim):
    """The d^2 probe preparations as (label, GateSequence) pairs.

    For each base level m the bare flip |0> -> |m> (empty for m = 0), then
    half rotations R_y(pi/2) and R_x(3pi/2) from m to every higher level j.
    Each preparation uses at most two gates.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    preps = []
    for m in range(dim):
        if m == 0:
            base_gates, base_parts = (), []
        else:
            base_gates = (TwoLevelGate("x", PI, (0, m)),)
            base_parts = [f"flip(0,{m})"]
        preps.append(("+".join(base_parts) or "id", GateSequence(dim, base_gates)))
        for axis, angle, tag in (("y", PI / 2, "ry90"), ("x", 3 * PI / 2, "rx270")):
            for j in range(m + 1, dim):
                gates = base_gates + (TwoLevelGate(axis, angle, (m, j)),)
                label = "+".join(base_parts + [f"{tag}({m},{j})"])
                preps.append((label, GateSequence(dim, gates)))
    return preps


@functools.cache
def qpt_two_level(dim):
    """Process tomography: every probe preparation crossed with every
    state-tomography measurement circuit, d^2 (1 + d(d-1)) circuits.

    The protocol is built once per dimension and shared; it is frozen.
    """
    meas_circuits = qst_two_level(dim).circuits
    circuits = []
    for prep_label, prep_seq in qpt_preparations(dim):
        for mc in meas_circuits:
            circuits.append(MeasurementCircuit(
                f"{prep_label}|{mc.label}", prep_seq, mc.meas))
    return TomographyProtocol("qpt", dim, tuple(circuits))


def spam_calibration_circuits(dim):
    """Gate-free readout plus one population flip per level.

    Circuit 0 measures the initial state directly; circuit j applies a
    single R_x(pi) on levels (0, j) first.  These d circuits calibrate the
    diagonal preparation-and-readout model.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    circuits = [MeasurementCircuit("bare", _empty(dim), _empty(dim))]
    for j in range(1, dim):
        seq = GateSequence(dim, (TwoLevelGate("x", PI, (0, j)),))
        circuits.append(MeasurementCircuit(f"flip(0,{j})", seq, _empty(dim)))
    return circuits


def _is_prime(n):
    if n < 2:
        return False
    for q in range(2, int(n ** 0.5) + 1):
        if n % q == 0:
            return False
    return True


def mub_bases(dim):
    """Unitaries whose columns are the d + 1 mutually unbiased bases.

    Defined for prime dimensions.  The first basis is computational; for
    odd primes the remaining d bases carry quadratic phases
    omega^(a x^2 + b x), and d = 2 uses the X and Y eigenbases.
    """
    if not _is_prime(dim):
        raise ValueError(f"mutually unbiased bases require prime dimension, got {dim}")
    bases = [np.eye(dim, dtype=complex)]
    if dim == 2:
        bases.append(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        bases.append(np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2))
        return bases
    omega = np.exp(2j * PI / dim)
    x = np.arange(dim)
    for a in range(dim):
        v = omega ** ((a * x[:, None] ** 2 + x[:, None] * x[None, :]) % dim)
        bases.append(v / np.sqrt(dim))
    return bases


def mub_gate_compile(u):
    """Compile a basis-change unitary into two-level gates.

    Returns a GateSequence whose product equals D u for some diagonal
    phase matrix D (global phase included); since the readout effects are
    diagonal, the compiled circuit reproduces the outcome probabilities of
    u exactly.  Uses Givens-style elimination, one det-1 rotation per
    eliminated entry, each split into at most three axis rotations, so at
    most 3 d(d-1)/2 gates.
    """
    u = np.asarray(u, dtype=complex)
    if not qcore.is_unitary(u, 1e-10):
        raise ValueError("input is not unitary")
    dim = u.shape[0]
    m = qcore.dagger(u).copy()
    gates = []
    for c in range(dim - 1):
        for r in range(c + 1, dim):
            b = m[r, c]
            if abs(b) <= 1e-13:
                m[r, c] = 0.0
                continue
            a = m[c, c]
            norm = np.hypot(abs(a), abs(b))
            block = np.array([[np.conj(a), np.conj(b)], [-b, a]]) / norm
            m[[c, r], :] = block @ m[[c, r], :]
            m[r, c] = 0.0
            alpha, beta, gamma = euler_decompose(block)
            for axis, angle in (("x", alpha), ("y", beta), ("x", gamma)):
                if abs(angle) > 1e-12:
                    gates.append(TwoLevelGate(axis, angle, (c, r)))
    return GateSequence(dim, tuple(gates))


@functools.cache
def mub_protocol(dim):
    """State tomography over all d + 1 mutually unbiased bases.

    The basis change applied to the state is the adjoint of the basis
    unitary, compiled into two-level gates so that simulated gate noise
    acts on every compiled rotation.  Circuit 0 (computational basis)
    stays empty.  The protocol is built once per dimension and shared; it
    is frozen.
    """
    circuits = []
    for idx, v in enumerate(mub_bases(dim)):
        label = "comp" if idx == 0 else f"mub{idx}"
        seq = mub_gate_compile(qcore.dagger(v))
        circuits.append(MeasurementCircuit(label, _empty(dim), seq))
    return TomographyProtocol("qst", dim, tuple(circuits))


def completeness_check(protocol, spam=None):
    """Numerical informational completeness of a protocol.

    Returns (rank, complete): the numerical rank (relative tolerance
    1e-8) of the real design matrix `matrix` of
    `recon.build_measurement_model(protocol, spam)`, one row per outcome
    (for 'qpt', of the operators rho_i^T (x) P_ik that act on the Choi
    matrix).  A protocol is complete when the rank reaches d^2 for states
    or d^4 for processes.  `spam` optionally replaces the ideal
    preparation and readout with a DiagonalSpamModel.  The operators are
    Hermitian, so the real rows span a space of the same dimension as the
    complex operators.
    """
    design = build_measurement_model(protocol, spam=spam).matrix
    svals = np.linalg.svd(design, compute_uv=False)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    target = protocol.dim ** 2 if protocol.kind == "qst" else protocol.dim ** 4
    return rank, rank == target
