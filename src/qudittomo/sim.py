"""Noisy measurement simulation for tomography circuits.

Every two-level gate is followed by a depolarizing channel of strength
`gate_depol_p`.  Preparation and readout errors come from
`NoiseConfig.spam_model`, which maps the configured initialization and
readout straight to a `readout.DiagonalSpamModel` (populations and
response matrix); single-level click probabilities come from
`NoiseConfig.level_clicks`, on the same `readout.level_reads` as the cascade.
Outcome probabilities come from the reconstruction's own forward model,
`recon.build_measurement_model` at the configured gate noise, so the
simulator and the fits share one model of a circuit.
`circuit_probabilities` keeps an independent Schrodinger-picture
computation as a reference for tests.  Protocols run with an equal shot
split: floor(total / n) shots per circuit, one extra for the first
total mod n circuits.  All sampling is reproducible from a 64-bit root
seed.
"""

from dataclasses import dataclass

import numpy as np

from . import qcore, readout
from .circuits import gate_unitary
from .protocols import TomographyProtocol
from .recon import build_measurement_model


@dataclass(frozen=True)
class GibbsInit:
    """Thermal initialization parameters."""

    temperature: float
    omegas: tuple

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        readout.gibbs_populations(self.temperature, np.asarray(self.omegas))


@dataclass(frozen=True)
class LevelReadoutError:
    """False-negative (b0) and false-positive (b1) rates of a level read."""

    b0: float
    b1: float

    def __post_init__(self):
        for name, val in (("b0", self.b0), ("b1", self.b1)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")


@dataclass(frozen=True)
class NoiseConfig:
    """Noise model of a simulated experiment.

    init: None (perfect |0>), GibbsInit, or explicit level populations.
    readout: None (projective), LevelReadoutError (cascade readout), or an
    explicit column-stochastic response matrix.
    `truth_depol_p` is not applied here; experiment drivers use it to
    depolarize the state or process under study.
    """

    gate_depol_p: float = 0.0
    truth_depol_p: float = 0.0
    init: object = None
    readout: object = None

    def __post_init__(self):
        for name in ("gate_depol_p", "truth_depol_p"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        if self.init is not None and not isinstance(self.init, GibbsInit):
            # explicit populations must form the initial state of a SPAM model
            readout.DiagonalSpamModel(self.init, np.eye(np.size(self.init)))
        if self.readout is not None and not isinstance(self.readout, LevelReadoutError):
            # an explicit matrix must be the response of a SPAM model
            response = np.atleast_2d(np.asarray(self.readout, dtype=float))
            n = response.shape[1]
            readout.DiagonalSpamModel(np.ones(n) / n, response)

    def _populations(self, dim):
        if self.init is None:
            a = np.zeros(dim)
            a[0] = 1.0
            return a
        if isinstance(self.init, GibbsInit):
            omegas = np.asarray(self.init.omegas)
            if omegas.size != dim:
                raise ValueError(f"need {dim} level energies, got {omegas.size}")
            return readout.gibbs_populations(self.init.temperature, omegas)
        return np.asarray(self.init, dtype=float)

    def spam_model(self, dim):
        """The configured preparation and readout as a DiagonalSpamModel."""
        if self.readout is None:
            response = np.eye(dim)
        elif isinstance(self.readout, LevelReadoutError):
            reads = readout.level_reads(dim, self.readout.b0, self.readout.b1)
            response = readout.cascade_response(reads[1:])
        else:
            response = np.asarray(self.readout, dtype=float)
        return readout.DiagonalSpamModel(self._populations(dim), response)

    def level_clicks(self, dim):
        """Click probability of each level read alone on the initial state.

        Level j clicks with probability (1 - b0) a_j + b1 sum_{m != j} a_m,
        i.e. `readout.level_reads` applied to the populations a.
        """
        if self.readout is None:
            b0 = b1 = 0.0
        elif isinstance(self.readout, LevelReadoutError):
            b0, b1 = self.readout.b0, self.readout.b1
        else:
            raise ValueError(
                "single-level reads are undefined for an explicit response matrix")
        return readout.level_reads(dim, b0, b1) @ self._populations(dim)


def noisy_prep_state(circuit, noise):
    """Initial state sent through the prep gates, depolarizing after each.

    Reference oracle for tests, like `circuit_probabilities`.
    """
    dim = circuit.dim
    rho = noise.spam_model(dim).initial_state()
    for g in circuit.prep.gates:
        u = gate_unitary(g, dim)
        rho = u @ rho @ qcore.dagger(u)
        if noise.gate_depol_p:
            rho = qcore.depolarize(rho, noise.gate_depol_p)
    return rho


def circuit_probabilities(circuit, truth, noise, check=True):
    """Outcome probabilities of one circuit under the noise model.

    `truth` is either None (the circuit measures the prepared state as in
    calibration), a d x d density matrix that replaces preparation
    entirely, or a d^2 x d^2 Choi matrix applied after preparation.

    A reference oracle, kept for tests: it evolves the state gate by gate
    in the Schrodinger picture, independently of the forward model that
    `outcome_probabilities` uses.
    """
    dim = circuit.dim
    if truth is None:
        rho = noisy_prep_state(circuit, noise)
    else:
        truth = np.asarray(truth, dtype=complex)
        if truth.shape == (dim, dim):
            if check:
                qcore.check_density_matrix(truth)
            if len(circuit.prep):
                raise ValueError(
                    "a truth state replaces preparation; circuit has prep gates")
            rho = truth
        elif truth.shape == (dim * dim, dim * dim):
            if check:
                qcore.check_choi(truth, atol_tp=1e-8)
            rho = qcore.apply_choi(truth, noisy_prep_state(circuit, noise), check=False)
        else:
            raise ValueError(
                f"truth shape {truth.shape} fits neither a state nor a Choi "
                f"matrix in dimension {dim}")
    for g in circuit.meas.gates:
        u = gate_unitary(g, dim)
        rho = u @ rho @ qcore.dagger(u)
        if noise.gate_depol_p:
            rho = qcore.depolarize(rho, noise.gate_depol_p)
    probs = np.real(np.einsum("kij,ji->k", noise.spam_model(dim).povm(), rho))
    if probs.min() < -1e-12:
        raise ValueError(f"probability {probs.min()} below -1e-12; invalid inputs")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def outcome_probabilities(circuits, truth, noise):
    """Outcome probability table (n_circuits, n_outcomes) under the noise model.

    `truth` is None (the circuits measure the prepared state, as in
    calibration: the identity channel after preparation), a d x d density
    matrix that replaces preparation, or a d^2 x d^2 Choi matrix applied
    after preparation.  The table is `build_measurement_model` of the
    circuits under `noise.spam_model` and `noise.gate_depol_p`, applied
    to the truth, then clipped at 0 and renormalized per circuit.
    """
    circuits = tuple(circuits)
    if not circuits:
        raise ValueError("protocol has no circuits")
    dim = circuits[0].dim
    if truth is None:
        kind, truth = "qpt", qcore.choi_from_unitary(np.eye(dim))
    else:
        truth = np.asarray(truth, dtype=complex)
        if truth.shape == (dim, dim):
            qcore.check_density_matrix(truth)
            kind = "qst"
        elif truth.shape == (dim * dim, dim * dim):
            qcore.check_choi(truth, atol_tp=1e-8)
            kind = "qpt"
        else:
            raise ValueError(
                f"truth shape {truth.shape} fits neither a state nor a Choi "
                f"matrix in dimension {dim}")
    model = build_measurement_model(
        TomographyProtocol(kind, dim, circuits), spam=noise.spam_model(dim),
        gate_depol_p=noise.gate_depol_p)
    probs = model.probabilities(truth)
    if probs.min() < -1e-12:
        raise ValueError(f"probability {probs.min()} below -1e-12; invalid inputs")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def allocate_shots(total_shots, n_circuits):
    """Equal split: floor(total/n) each, one extra for the first total mod n."""
    if total_shots < 1:
        raise ValueError(f"total shots must be positive, got {total_shots}")
    if n_circuits < 1:
        raise ValueError(f"need at least one circuit, got {n_circuits}")
    base, extra = divmod(int(total_shots), n_circuits)
    shots = np.full(n_circuits, base, dtype=np.int64)
    shots[:extra] += 1
    return shots


def sample_counts(probs, shots, rng):
    """Multinomial draw of `shots` outcomes from the distribution `probs`."""
    probs = np.asarray(probs, dtype=float)
    if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return rng.multinomial(int(shots), probs / probs.sum())


@dataclass(frozen=True)
class CountsDataset:
    """Measured counts for an ordered family of circuits."""

    labels: tuple
    shots: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        shots = np.asarray(self.shots)
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != len(labels) or shots.shape != (len(labels),):
            raise ValueError("labels, shots and counts do not line up")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if not np.allclose(counts.sum(axis=1), shots):
            raise ValueError("per-circuit counts must sum to the recorded shots")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "counts", counts)

    @property
    def n_circuits(self):
        return len(self.labels)

    @property
    def total_shots(self):
        return int(self.shots.sum())

    def frequencies(self):
        """Per-circuit outcome frequencies; zero-shot circuits give zeros."""
        denom = np.where(self.shots > 0, self.shots, 1)[:, None]
        return self.counts / denom


def run_protocol(protocol, truth, noise, total_shots, seed):
    """Simulate counts for every circuit of a protocol.

    `protocol` is a TomographyProtocol or a plain circuit list; the counts
    are multinomial draws from `outcome_probabilities(circuits, truth,
    noise)`.  Sampling uses the child stream (seed, "counts", 0) and is
    deterministic in the argument tuple.
    """
    circuits = (protocol.circuits if isinstance(protocol, TomographyProtocol)
                else tuple(protocol))
    probs = outcome_probabilities(circuits, truth, noise)
    shots = allocate_shots(total_shots, len(circuits))
    rng = qcore.make_rng(seed, "counts")
    counts = np.zeros(probs.shape, dtype=np.int64)
    for i, p in enumerate(probs):
        counts[i] = sample_counts(p, shots[i], rng)
    labels = tuple(c.label for c in circuits)
    return CountsDataset(labels, shots, counts)


def simulate_level_reads(dim, noise, total_shots, seed):
    """Binary reads of each level on the bare initial state.

    Circuit j interrogates level j alone; outcome 1 is a click.  Used to
    calibrate the thermal-initialization readout model.
    """
    p_clicks = np.clip(noise.level_clicks(dim), 0.0, 1.0)
    shots = allocate_shots(total_shots, dim)
    rng = qcore.make_rng(seed, "level-reads")
    counts = np.zeros((dim, 2), dtype=np.int64)
    for j in range(dim):
        clicks = rng.binomial(shots[j], p_clicks[j])
        counts[j] = (shots[j] - clicks, clicks)
    labels = tuple(f"read{j}" for j in range(dim))
    return CountsDataset(labels, shots, counts)
