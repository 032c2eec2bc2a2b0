"""Dense references for the correction-vector problem, kept out of the
package: the shifted system Q chi = rhs with Q = z + sign (H - e0), and the
quadratic form Q+ (1 - |V><V|/<V|V>) Q whose kernel is the normalized
correction vector.  Both build full-register matrices with
``corrvec.oracle.materialize``.
"""

from __future__ import annotations

import numpy as np

from corrvec.oracle import materialize
from corrvec.pauli import PauliSum


def shifted_matrix(h_op: PauliSum, e0: float, z: complex, sign: int) -> np.ndarray:
    """Dense Q = z + sign (H - e0) on the full register."""
    mat = materialize(h_op)
    eye = np.eye(mat.shape[0])
    return z * eye + sign * (mat - e0 * eye)


def exact_correction_vector(h_op: PauliSum, e0: float, z: complex, sign: int,
                            rhs: np.ndarray) -> np.ndarray:
    """Solve (z + sign (H - e0)) chi = rhs densely on the full register."""
    return np.linalg.solve(shifted_matrix(h_op, e0, z, sign), rhs)


def dense_h_prime(h_op: PauliSum, e0: float, z: complex, sign: int,
                  v_psi0: np.ndarray) -> np.ndarray:
    """Dense Q+ (1 - |V><V|/<V|V>) Q, the quadratic form behind the cost.

    Hermitian and positive semidefinite; its kernel contains the normalized
    correction vector.
    """
    q = shifted_matrix(h_op, e0, z, sign)
    v_norm_sq = float(np.vdot(v_psi0, v_psi0).real)
    if v_norm_sq <= 0:
        raise ValueError("perturbed state has zero norm")
    projector = np.eye(q.shape[0]) - np.outer(v_psi0, v_psi0.conj()) / v_norm_sq
    return q.conj().T @ projector @ q
