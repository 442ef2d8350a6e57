"""State preparation and readout models for single-qudit experiments.

Readout of a qudit happens as a cascade of binary level reads: level 1 is
interrogated first, then level 2 on the no-click branch, and so on; outcome
0 means no level clicked.  Each binary read has a false-negative rate b0
(a populated level stays dark) and a false-positive rate b1 (an empty
level clicks).  `level_clicks` gives the reads' click probabilities on
level populations: it is the one level-read model, of the simulated
reads, the thermal fit and the cascade.  All of this is diagonal in the
level basis, so the cascade is plain arithmetic on those probabilities:
`cascade_response` chains the reads into the response matrix.

Preparation errors are modeled by a diagonal initial state; thermal
initialization assigns Boltzmann weights exp(-omega_j / T) to the levels.
`DiagonalSpamModel` (populations a and column-stochastic response B) is
the one representation of preparation and readout: the simulated truth
(`sim.NoiseConfig.spam`), the calibration fits and the forward model all
use it.  `gibbs_cascade_model` is the one builder of the thermal cascade
model, and the cascade enters it only through `cascade_response`.
Diagonal preparation and readout errors together form a d^2 - 1 parameter
model.  Its d calibration circuits determine only d(d - 1) frequencies, so
the model is identifiable from calibration data only up to a flat set of
dimension d - 1; the depolarizing gauge realized by `gauge_transform` is
one direction of it.
"""

from dataclasses import dataclass

import numpy as np


def level_clicks(populations, b0, b1):
    """Click probabilities (1 - b0) a + b1 (1 - a) of each level's read.

    A read clicks with probability 1 - b0 on its own level (b0 is the miss
    rate) and b1 on every other level (the false-click rate).  b0 and b1
    broadcast against the rows of populations a; on the identity, row m
    holds the clicks of every read on true level m.
    """
    for name, val in (("b0", b0), ("b1", b1)):
        rate = np.asarray(val)
        if not (0.0 <= rate.min() and rate.max() <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
    a = np.asarray(populations, dtype=float)
    return (1.0 - b0) * a + b1 * (1.0 - a)


def cascade_response(reads):
    """Response matrix of the sequential level readout.

    Row m - 1 of `reads`, r_m, holds the click probabilities of the read of
    level m on each true level, for m = 1 .. d-1 in cascade order (level 0
    is never read directly).  Outcome k > 0 means read k clicked first, and
    outcome 0 collects the no-click branch:

        b[k] = r_k (1 - r_{k-1}) ... (1 - r_1),     b[0] = (1 - r_{d-1}) ... (1 - r_1)
    """
    r = np.asarray(reads, dtype=float)
    if r.ndim != 2 or r.shape[0] < 1 or r.shape[0] != r.shape[1] - 1:
        raise ValueError(f"reads must have shape (d-1, d), got {r.shape}")
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ValueError("read click probabilities must lie in [0, 1]")
    miss = np.cumprod(1.0 - r, axis=0)  # no read up to this one clicked
    reached = np.vstack([np.ones(r.shape[1]), miss[:-1]])  # this read happens
    return np.vstack([miss[-1], r * reached])


def gibbs_populations(temperature, omegas):
    """Boltzmann level populations exp(-omega_j / T), one row per T of a column."""
    if not np.all(temperature > 0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size < 2:
        raise ValueError("need a 1-D array of at least two level energies")
    if not np.all(np.isfinite(omegas)):
        raise ValueError("level energies must be finite")
    w = np.exp(-(omegas - omegas.min()) / temperature)
    return w / w.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class DiagonalSpamModel:
    """Diagonal preparation-and-readout error model.

    `populations` holds the initial level populations a_j;
    `response` is the column-stochastic matrix b[k, j] = P(outcome k | level j),
    for the cascade readout the output of `cascade_response`.
    The constructor's checks (entries >= -1e-12, column sums within 1e-10
    of 1) make the diagonal effects of `povm` a POVM to within 1e-10, in
    their eigenvalues and in their sum's distance from the identity, so
    `povm` builds them without re-checking.
    Equality and hashing are by identity: the fields are arrays, whose
    elementwise `==` has no single truth value.
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
                             cascade_response(level_clicks(np.eye(dim), b0, b1)[1:]))


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
