"""State preparation and readout models for single-qudit experiments.

Readout of a qudit happens as a cascade of binary level reads: level 1 is
interrogated first, then level 2 on the no-click branch, and so on; outcome
0 means no level clicked.  Each binary read is described by an effect E_j
with a false-negative rate b0 (a populated level stays dark) and a
false-positive rate b1 (an empty level clicks).

Preparation errors are modeled by a diagonal initial state; thermal
initialization assigns Boltzmann weights exp(-omega_j / T) to the levels.
`DiagonalSpamModel` (populations a and column-stochastic response B) is
the one representation of preparation and readout: the simulated truth,
the calibration fits and the forward model all use it, and the cascade
enters it only through `cascade_response`.
Diagonal preparation and readout errors together form a d^2 - 1 parameter
model.  Its d calibration circuits determine only d(d - 1) frequencies, so
the model is identifiable from calibration data only up to a flat set of
dimension d - 1; the depolarizing gauge realized by `gauge_transform` is
one direction of it.
"""

from dataclasses import dataclass

import numpy as np

from . import qcore


def level_readout_operator(dim, level, b0, b1):
    """Effect for a binary read of one level.

    Returns (1 - b0) |j><j| + b1 (I - |j><j|) for j = `level`.
    """
    if not 0 <= level < dim:
        raise ValueError(f"level {level} out of range for dimension {dim}")
    for name, val in (("b0", b0), ("b1", b1)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
    pj = np.zeros((dim, dim), dtype=complex)
    pj[level, level] = 1.0
    return (1.0 - b0) * pj + b1 * (np.eye(dim) - pj)


def cascade_povm(effects):
    """POVM of the sequential level readout.

    `effects` stacks the binary-read effects E_1 .. E_{d-1} (levels 1 and
    up; level 0 is never read directly).  Outcome k > 0 means level k
    clicked first:

        P_k = E_k (I - E_{k-1}) ... (I - E_1),     P_0 = (I - E_{d-1}) ... (I - E_1)

    and outcome 0 collects the no-click branch.  Effects must be Hermitian
    with spectrum in [0, 1]; non-commuting effects make the products above
    non-Hermitian and are rejected.
    """
    effects = np.asarray(effects, dtype=complex)
    if effects.ndim != 3 or effects.shape[1] != effects.shape[2]:
        raise ValueError(f"effects must be stacked (d-1, d, d), got {effects.shape}")
    dim = effects.shape[1]
    if effects.shape[0] != dim - 1:
        raise ValueError(
            f"need {dim - 1} effects for dimension {dim}, got {effects.shape[0]}")
    eye = np.eye(dim)
    for m, e in enumerate(effects):
        if not qcore.is_hermitian(e):
            raise ValueError(f"effect {m + 1} is not Hermitian")
        w = np.linalg.eigvalsh(e)
        if w.min() < -qcore.ATOL_PSD or w.max() > 1.0 + qcore.ATOL_PSD:
            raise ValueError(f"effect {m + 1} has spectrum outside [0, 1]")

    ops = np.zeros((dim, dim, dim), dtype=complex)
    miss = eye.astype(complex)  # (I - E_k) ... (I - E_1), grown left to right
    for k in range(1, dim):
        ops[k] = effects[k - 1] @ miss
        miss = (eye - effects[k - 1]) @ miss
    ops[0] = miss
    qcore.check_povm(ops)
    return ops


def gibbs_populations(temperature, omegas):
    """Boltzmann level populations exp(-omega_j / T), normalized."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size < 2:
        raise ValueError("need a 1-D array of at least two level energies")
    if not np.all(np.isfinite(omegas)):
        raise ValueError("level energies must be finite")
    w = np.exp(-(omegas - omegas.min()) / temperature)
    return w / w.sum()


def povm_diagonals(ops):
    """Response matrix b[k, j] = <j| P_k |j> of a diagonal POVM."""
    ops = np.asarray(ops)
    b = np.zeros(ops.shape[:2])
    for k, op in enumerate(ops):
        off = op - np.diag(np.diagonal(op))
        if np.max(np.abs(off)) > 1e-12 or np.max(np.abs(np.diagonal(op).imag)) > 1e-12:
            raise ValueError(f"POVM element {k} is not diagonal")
        b[k] = np.diagonal(op).real
    return b


def cascade_response(dim, b0, b1):
    """Response matrix of the cascade readout with level-read rates b0, b1."""
    effects = np.stack([level_readout_operator(dim, j, b0, b1)
                        for j in range(1, dim)])
    return povm_diagonals(cascade_povm(effects))


@dataclass(frozen=True)
class DiagonalSpamModel:
    """Diagonal preparation-and-readout error model.

    `populations` holds the initial level populations a_j;
    `response` is the column-stochastic matrix b[k, j] = P(outcome k | level j).
    The constructor's checks (entries >= -1e-12, column sums within 1e-10
    of 1) lie inside the tolerances of `qcore.check_povm`, so `povm`
    builds its diagonal effects without re-checking them.
    """

    populations: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.populations, dtype=float)
        b = np.asarray(self.response, dtype=float)
        if a.ndim != 1 or b.shape != (a.size, a.size):
            raise ValueError(
                f"shape mismatch: populations {a.shape}, response {b.shape}")
        if a.min() < -1e-12 or abs(a.sum() - 1.0) > 1e-10:
            raise ValueError("populations must be nonnegative and sum to 1")
        if b.min() < -1e-12 or np.max(np.abs(b.sum(axis=0) - 1.0)) > 1e-10:
            raise ValueError("response columns must be nonnegative and sum to 1")
        object.__setattr__(self, "populations", a)
        object.__setattr__(self, "response", b)

    @property
    def dim(self):
        return self.populations.size

    def initial_state(self):
        return np.diag(np.clip(self.populations, 0.0, None)).astype(complex)

    def povm(self):
        """Effects P_k = diag(b[k]), one per outcome."""
        n = self.dim
        ops = np.zeros((n, n, n), dtype=complex)
        ops[:, np.arange(n), np.arange(n)] = self.response
        return ops

    def to_dict(self):
        return {"populations": self.populations.tolist(),
                "response": self.response.tolist()}


def ideal_spam_model(dim):
    """Perfect preparation of level 0 and projective readout."""
    a = np.zeros(dim)
    a[0] = 1.0
    return DiagonalSpamModel(a, np.eye(dim))


def gibbs_cascade_model(dim, temperature, omegas, b0, b1):
    """Thermal initialization combined with the cascade level readout.

    This three-parameter family (T, b0, b1) is the physically motivated
    special case of `DiagonalSpamModel`; the same construction serves as
    the data-generating truth and as the constrained reconstruction model.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size != dim:
        raise ValueError(f"need {dim} level energies, got {omegas.size}")
    return DiagonalSpamModel(gibbs_populations(temperature, omegas),
                             cascade_response(dim, b0, b1))


def gauge_transform(model, p):
    """Equivalent diagonal model with depolarizing weight p moved into readout.

    The returned model predicts identical outcome probabilities for every
    circuit consisting of a unitary between preparation and readout: the
    preparation becomes purer, a'_j = (a_j - p/d) / (1 - p), and the
    readout absorbs the mixing, b'_kj = (1-p) b_kj + (p/d) sum_m b_km.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"gauge weight {p} outside [0, 1)")
    a = model.populations
    d = model.dim
    if p > d * a.min() + 1e-15:
        raise ValueError(
            f"gauge weight {p} exceeds d * min(a) = {d * a.min()}; "
            "transformed populations would be negative")
    a_new = np.clip((a - p / d) / (1.0 - p), 0.0, None)
    b = model.response
    b_new = (1.0 - p) * b + (p / d) * b.sum(axis=1, keepdims=True)
    return DiagonalSpamModel(a_new, b_new)
