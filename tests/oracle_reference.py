"""Dense references for the oracle and the correction-vector problem, kept
out of the package: the Green's function by one linear solve per branch and
frequency, the shifted system Q chi = rhs with Q = z + sign (H - e0), and
the quadratic form Q+ (1 - |V><V|/<V|V>) Q whose kernel is the normalized
correction vector.  All build their matrices with
``corrvec.oracle.materialize``, unless a caller hands ``solve_greens`` the
sector blocks of a register too wide for it; the spectral-weight sums read
the poles and weights of a ``GreensOracle``.  ``expand_spin`` mirrors a
spatial-orbital matrix onto both spin blocks, the layout of the oracle's
matrices.  ``add_at_projection`` is the sector block accumulated one chunk
of strings at a time with ``np.add.at``, the route that pins the bits of
``corrvec.oracle.project_to_sector``.
"""

from __future__ import annotations

import numpy as np

from corrvec.fermion import ladder_pauli
from corrvec.oracle import GreensOracle, materialize, sector_basis
from corrvec.pauli import PauliSum, apply_sum


def add_at_projection(op: PauliSum, basis: np.ndarray) -> np.ndarray:
    """Dense block of ``op`` on an ascending sector basis: every group of
    strings that flip the same bits sums its strings' signed rows with
    ``np.add.at``, 64 strings at a time in their order, then writes its
    cells."""
    dim = basis.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    if dim == 0 or len(op) == 0:
        return out
    keys, coeffs = zip(*op.masks.items())
    flips, z_masks = np.array(keys).T
    coeffs = np.array(coeffs) * np.array([1, 1j, -1, -1j])[
        np.bitwise_count(flips & z_masks) & 3]
    groups, group_of = np.unique(flips, return_inverse=True)
    summed = np.zeros((groups.shape[0], dim), dtype=complex)
    for lo in range(0, flips.shape[0], 64):
        part = slice(lo, lo + 64)
        odd = np.bitwise_count(basis[None, :] & z_masks[part, None]) & 1
        np.add.at(summed, group_of[part],
                  coeffs[part, None] * np.where(odd, -1.0, 1.0))
    targets = basis[None, :] ^ groups[:, None]
    rows = np.minimum(np.searchsorted(basis, targets), dim - 1)
    found = basis[rows] == targets
    out[rows[found], np.broadcast_to(np.arange(dim), rows.shape)[found]] = summed[found]
    return out


def solve_greens(h_op: PauliSum, e0: float, psi0: np.ndarray, zs: np.ndarray,
                 n_particles: int | None = None, sector_block=None) -> np.ndarray:
    """G(z) at every z by dense linear solves on the N+1 and N-1 blocks.

    Particle branch: <0| c_i [z - (H - e0)]^{-1} c+_j |0>.
    Hole branch:     <0| c+_j [z + (H - e0)]^{-1} c_i |0>.
    Without ``n_particles`` both branches span the full register.
    ``sector_block(basis)`` gives H on an ascending basis; by default it is
    a slice of the materialized H, which wide registers cannot afford.
    """
    m = h_op.width
    if sector_block is None:
        mat = materialize(h_op)

        def sector_block(basis):
            return mat[np.ix_(basis, basis)]
    g = np.zeros((len(zs), m, m), dtype=complex)
    for dagger, sign in ((True, -1), (False, +1)):
        if n_particles is None:
            basis = np.arange(1 << m)
        else:
            n_sec = n_particles + (1 if dagger else -1)
            if not 0 <= n_sec <= m:
                continue
            basis = sector_basis(m, n_sec)
        block = sector_block(basis) - e0 * np.eye(basis.shape[0])
        trans = np.stack([apply_sum(ladder_pauli(j, dagger, m), psi0)
                          for j in range(m)], axis=1)[basis, :]
        for k, z in enumerate(zs):
            sol = np.linalg.solve(z * np.eye(basis.shape[0]) + sign * block, trans)
            part = trans.conj().T @ sol
            g[k] += part if dagger else part.T
    return g


def broadened_trace_integral(oracle: GreensOracle, omegas: np.ndarray,
                             eta: float) -> float:
    """Integral of -(1/pi) Im tr G over the real window, exactly per pole.

    Each Lorentzian pole of weight w contributes
    w/pi * [atan((b - x0)/eta) - atan((a - x0)/eta)].
    """
    a, b = float(omegas[0]), float(omegas[-1])
    total = 0.0
    for (poles, weights), branch in ((oracle.particle, +1), (oracle.hole, -1)):
        w_tr = np.sum(np.abs(weights) ** 2, axis=1)
        x0 = branch * poles
        total += float(np.sum(w_tr / np.pi * (np.arctan2(b - x0, eta)
                                              - np.arctan2(a - x0, eta))))
    return total


def spectral_sum_budget(oracle: GreensOracle, omegas: np.ndarray,
                        eta: float) -> float:
    """How much spectral weight the window misses: modes minus the exact
    broadened integral over [omega_min, omega_max]."""
    return float(oracle.m) - broadened_trace_integral(oracle, omegas, eta)


def expand_spin(spatial: np.ndarray) -> np.ndarray:
    """Mirror a spatial-orbital matrix onto both spin blocks."""
    n = spatial.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = spatial
    out[n:, n:] = spatial
    return out


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
