"""Two-level rotation gates on qudits.

Rotation convention: R_axis(theta) = exp(-i theta sigma_axis / 2) embedded
in the (j, k) level pair, identity elsewhere.  Explicitly, on the pair,

    R_y(theta) = [[cos(theta/2), -sin(theta/2)],
                  [sin(theta/2),  cos(theta/2)]]
    R_x(theta) = [[cos(theta/2), -i sin(theta/2)],
                  [-i sin(theta/2), cos(theta/2)]]

A circuit holds its gates as a tuple in time order; the product unitary
of (g1, .., gn) is U_n ... U_2 U_1.
"""

from dataclasses import dataclass

import numpy as np

from . import qcore


@dataclass(frozen=True)
class TwoLevelGate:
    """A single rotation on the level pair `levels` = (j, k), j < k."""

    axis: str
    angle: float
    levels: tuple

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        j, k = self.levels
        if not (0 <= j < k):
            raise ValueError(f"levels must satisfy 0 <= j < k, got {self.levels}")
        object.__setattr__(self, "levels", (int(j), int(k)))
        object.__setattr__(self, "angle", float(self.angle))


def su2_rotation(axis, angle):
    """The 2 x 2 rotation block exp(-i angle sigma_axis / 2)."""
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def gate_unitary(gate, dim):
    """Embed the gate's rotation block into a dim x dim unitary."""
    j, k = gate.levels
    if k >= dim:
        raise ValueError(f"gate on levels {gate.levels} does not fit dimension {dim}")
    r = su2_rotation(gate.axis, gate.angle)
    u = np.eye(dim, dtype=complex)
    u[j, j], u[j, k], u[k, j], u[k, k] = r[0, 0], r[0, 1], r[1, 0], r[1, 1]
    return u


def sequence_unitary(gates, dim):
    """Product unitary of time-ordered `gates` on a qudit of dimension
    `dim`, last gate leftmost."""
    u = np.eye(dim, dtype=complex)
    for g in gates:
        u = gate_unitary(g, dim) @ u
    return u


def euler_decompose(u):
    """Angles (alpha, beta, gamma) with u = R_x(gamma) R_y(beta) R_x(alpha).

    Requires a 2 x 2 unitary with det(u) = 1.  beta lies in [0, pi]; the
    beta = 0 or pi degeneracy is resolved by gamma = 0.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2 x 2 matrix, got shape {u.shape}")
    if not qcore.is_unitary(u, 1e-10):
        raise ValueError("input is not unitary")
    if abs(np.linalg.det(u) - 1.0) > 1e-10:
        raise ValueError("input determinant differs from 1; not in SU(2)")

    w, z = u[0, 0], u[1, 0]
    # u = [[w, -conj(z)], [z, conj(w)]] with
    #   w = cos(b/2) cos(s) + i sin(b/2) sin(t)
    #   z = sin(b/2) cos(t) - i cos(b/2) sin(s)
    # where s = (alpha + gamma)/2 and t = (alpha - gamma)/2.
    cb = np.hypot(w.real, z.imag)
    sb = np.hypot(w.imag, z.real)
    beta = 2.0 * np.arctan2(sb, cb)
    if sb <= 1e-12:
        s = np.arctan2(-z.imag, w.real)
        t = s
    elif cb <= 1e-12:
        t = np.arctan2(w.imag, z.real)
        s = t
    else:
        s = np.arctan2(-z.imag, w.real)
        t = np.arctan2(w.imag, z.real)
    return float(s + t), float(beta), float(s - t)
