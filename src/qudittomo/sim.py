"""Noisy measurement simulation for tomography protocols.

A protocol's kind says what its truth is: a state ('qst'), a Choi matrix
('qpt'), or None for the identity channel, as in SPAM calibration.

Every two-level gate is followed by a depolarizing channel of strength
`gate_depol_p`.  Preparation and readout errors are one
`readout.DiagonalSpamModel` (populations and response matrix), held by
`NoiseConfig` and resolved per dimension by `NoiseConfig.spam_model`;
`simulate_level_reads` samples single-level reads from given click
probabilities, for the cascade `readout.level_clicks`, the fit's model.
Outcome probabilities come from the reconstruction's own forward model,
`recon.build_measurement_model` at the configured gate noise, so the
simulator and the state and process fits share one model of a circuit.
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
from .recon import build_measurement_model


@dataclass(frozen=True)
class NoiseConfig:
    """Noise model of a simulated experiment.

    `gate_depol_p` depolarizes after every two-level gate; `spam` is the
    preparation and readout, a `readout.DiagonalSpamModel`, or None for
    perfect |0> preparation and projective readout.
    """

    gate_depol_p: float = 0.0
    spam: readout.DiagonalSpamModel = None

    def __post_init__(self):
        if not 0.0 <= self.gate_depol_p <= 1.0:
            raise ValueError(
                f"gate_depol_p must lie in [0, 1], got {self.gate_depol_p}")
        if self.spam is not None and not isinstance(self.spam, readout.DiagonalSpamModel):
            raise TypeError(f"spam must be a DiagonalSpamModel or None, "
                            f"got {type(self.spam).__name__}")

    def spam_model(self, dim):
        """The preparation and readout of a dimension-`dim` circuit."""
        if self.spam is None:
            return readout.ideal_spam_model(dim)
        if self.spam.dim != dim:
            raise ValueError(
                f"SPAM model dimension {self.spam.dim} != circuit dimension {dim}")
        return self.spam


def noisy_prep_state(circuit, noise):
    """Initial state sent through the prep gates, depolarizing after each.

    Reference oracle for tests, like `circuit_probabilities`.
    """
    dim = circuit.dim
    rho = noise.spam_model(dim).initial_state()
    for g in circuit.prep:
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
            if circuit.prep:
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
    for g in circuit.meas:
        u = gate_unitary(g, dim)
        rho = u @ rho @ qcore.dagger(u)
        if noise.gate_depol_p:
            rho = qcore.depolarize(rho, noise.gate_depol_p)
    probs = np.real(np.einsum("kij,ji->k", noise.spam_model(dim).povm(), rho))
    if probs.min() < -1e-12:
        raise ValueError(f"probability {probs.min()} below -1e-12; invalid inputs")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def outcome_probabilities(protocol, truth, noise):
    """Outcome probability table (n_circuits, n_outcomes) under the noise model.

    `protocol.kind` says what `truth` is: a d x d density matrix that
    replaces preparation for 'qst', a d^2 x d^2 Choi matrix applied after
    preparation for 'qpt', or None for the identity channel there (the
    circuits measure the prepared states, as in calibration).  The table
    is `build_measurement_model` of the protocol under `noise.spam_model`
    and `noise.gate_depol_p`, applied to the truth, then clipped at 0 and
    renormalized per circuit.
    """
    if not protocol.circuits:
        raise ValueError("protocol has no circuits")
    dim, kind = protocol.dim, protocol.kind
    if truth is None and kind == "qpt":
        truth = qcore.choi_from_unitary(np.eye(dim))
    elif np.shape(truth) != ((dim, dim) if kind == "qst" else (dim * dim,) * 2):
        raise ValueError(f"truth shape {np.shape(truth)} does not fit a {kind!r} "
                         f"protocol in dimension {dim}")
    elif kind == "qst":
        qcore.check_density_matrix(np.asarray(truth, dtype=complex))
    else:
        qcore.check_choi(np.asarray(truth, dtype=complex), atol_tp=1e-8)
    model = build_measurement_model(protocol, spam=noise.spam_model(dim),
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
    """Multinomial draws of `shots[i]` outcomes from each row `probs[i]`.

    Every row must be nonnegative and sum to 1 within 1e-10; the rows are
    drawn in order from `rng`.  A single distribution takes a scalar count.
    """
    probs = np.asarray(probs, dtype=float)
    totals = probs.sum(axis=-1, keepdims=True)
    if probs.min() < 0 or np.abs(totals - 1.0).max() > 1e-10:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return rng.multinomial(np.asarray(shots, dtype=np.int64), probs / totals)


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
        if np.any(np.abs(counts.sum(axis=1) - shots) > 1e-9 * np.maximum(shots, 1)):
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

    The counts are multinomial draws from `outcome_probabilities(protocol,
    truth, noise)`.  Sampling uses the child stream (seed, "counts", 0) and
    is deterministic in the argument tuple.
    """
    probs = outcome_probabilities(protocol, truth, noise)
    shots = allocate_shots(total_shots, len(protocol.circuits))
    counts = sample_counts(probs, shots, qcore.make_rng(seed, "counts"))
    labels = tuple(c.label for c in protocol.circuits)
    return CountsDataset(labels, shots, counts)


def simulate_level_reads(clicks, total_shots, seed):
    """Binary reads of each level on the bare initial state.

    Circuit j interrogates level j alone and clicks (outcome 1) with
    probability `clicks[j]`; for the cascade's level reads on populations
    a these are `readout.level_clicks(a, b0, b1)`, the model that
    `recon.estimate_spam_gibbs` fits to them.
    """
    p_clicks = np.clip(np.asarray(clicks, dtype=float), 0.0, 1.0)
    dim = p_clicks.size
    shots = allocate_shots(total_shots, dim)
    clicked = qcore.make_rng(seed, "level-reads").binomial(shots, p_clicks)
    counts = np.stack([shots - clicked, clicked], axis=1)
    labels = tuple(f"read{j}" for j in range(dim))
    return CountsDataset(labels, shots, counts)
