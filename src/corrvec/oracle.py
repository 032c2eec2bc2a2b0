"""Dense reference solutions: exact ground states and Green's functions.

Everything here works with explicit matrices, independent of the circuit
machinery, so it can certify the variational pipeline.  Registers are capped
at MAX_DENSE_QUBITS; particle-number sectors keep the linear algebra small
well before that limit.

``GreensOracle`` holds the Green's function in pole/weight form.  It
diagonalises the N+1 and N-1 sector blocks once each, H = V diag(E) V+, and
every frequency then reads W+ diag(1 / (z -+ (E - E0))) W off the transition
amplitudes W = V+ c+_j|0> (particle branch, minus) or V+ c_j|0> (hole
branch, plus).  The Jordan-Wigner blocks of real integrals are exactly real;
when a block and its transition columns have no imaginary part the
diagonalisation runs in real arithmetic, otherwise in complex.  The dense
linear solve per frequency that this form replaces is the test reference in
``tests/oracle_reference.py``.
"""

from __future__ import annotations

import numpy as np

from .fermion import ladder_pauli
from .pauli import PauliSum, apply_sum, string_action

# largest register the dense references build
MAX_DENSE_QUBITS = 14
# strings whose signs on the basis project_to_sector holds at once
_CHUNK_STRINGS = 64


def materialize(op: PauliSum) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum (guarded against large registers)."""
    if op.width > MAX_DENSE_QUBITS:
        raise ValueError(f"refusing to materialize {op.width} qubits densely")
    dim = 1 << op.width
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for (x, z), coeff in op.masks.items():
        out[cols ^ x, cols] += coeff * string_action(x, z, op.width)
    return out


def sector_basis(m: int, n_particles: int) -> np.ndarray:
    """Basis indices with the given occupation count, ascending."""
    idx = np.arange(1 << m, dtype=np.int64)
    return idx[np.bitwise_count(idx) == n_particles]


def project_to_sector(op: PauliSum, basis: np.ndarray) -> np.ndarray:
    """Dense block of the operator on a fixed-particle-number basis.

    Pauli sums from particle-conserving fermionic operators map sector
    states into the same sector, so the block captures them exactly.  The
    strings that flip the same bits share one pattern of matrix cells; each
    such group sums its strings' signed coefficients on the basis, a chunk of
    strings at a time, and writes its cells at once.
    """
    dim = basis.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    if dim == 0 or len(op) == 0:
        return out
    keys, coeffs = zip(*op.masks.items())
    flips, z_masks = np.array(keys).T
    # P = i^{|x & z|} X^x Z^z: each string's phase on the basis state 0
    coeffs = np.array(coeffs) * np.array([1, 1j, -1, -1j])[
        np.bitwise_count(flips & z_masks) & 3]
    groups, group_of = np.unique(flips, return_inverse=True)
    summed = np.zeros((groups.shape[0], dim), dtype=complex)
    for lo in range(0, flips.shape[0], _CHUNK_STRINGS):
        part = slice(lo, lo + _CHUNK_STRINGS)
        odd = np.bitwise_count(basis[None, :] & z_masks[part, None]) & 1
        np.add.at(summed, group_of[part],
                  coeffs[part, None] * np.where(odd, -1.0, 1.0))
    targets = basis[None, :] ^ groups[:, None]
    rows = np.minimum(np.searchsorted(basis, targets), dim - 1)
    found = basis[rows] == targets
    # distinct flips send a column to distinct rows: every cell is set once
    out[rows[found], np.broadcast_to(np.arange(dim), rows.shape)[found]] = summed[found]
    return out


def embed_sector_vector(vec: np.ndarray, basis: np.ndarray, m: int) -> np.ndarray:
    full = np.zeros(1 << m, dtype=complex)
    full[basis] = vec
    return full


def _real_if_exact(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays' real parts when none of them has an imaginary part, so
    that ``eigh`` runs in real arithmetic; otherwise the arrays unchanged."""
    if any(a.imag.any() for a in arrays):
        return arrays
    return tuple(a.real for a in arrays)


def exact_ground(h_op: PauliSum, n_particles: int | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair, optionally restricted to a particle-number sector.

    Returns the energy and the full-register statevector.
    """
    m = h_op.width
    if n_particles is None:
        basis = np.arange(1 << m)
        block = materialize(h_op)
    else:
        basis = sector_basis(m, n_particles)
        block = project_to_sector(h_op, basis)
    vals, vecs = np.linalg.eigh(*_real_if_exact(block))
    return float(vals[0]), embed_sector_vector(vecs[:, 0], basis, m)


def _mode_transitions(psi0: np.ndarray, m: int, dagger: bool) -> np.ndarray:
    """Columns c+_j|psi0> (``dagger``) or c_j|psi0>, one per mode j."""
    return np.stack([apply_sum(ladder_pauli(j, dagger, m), psi0)
                     for j in range(m)], axis=1)


class GreensOracle:
    """Resolvent matrix elements from the poles and weights of the N+1 and
    N-1 sectors, each diagonalised once.

    Particle branch: <0| c_i [z - (H - e0)]^{-1} c+_j |0>
                     = sum_k conj(Wp[k, i]) Wp[k, j] / (z - Ep[k]).
    Hole branch:     <0| c+_j [z + (H - e0)]^{-1} c_i |0>
                     = sum_k conj(Wh[k, j]) Wh[k, i] / (z + Eh[k]).

    ``particle`` and ``hole`` are the ``(poles, weights)`` pairs: excitation
    energies E_k - e0 of shape (n_poles,) and amplitudes <k|c+_j|0> or
    <k|c_j|0> of shape (n_poles, m).  A branch whose sector does not exist
    has no poles.  Without ``n_particles`` both branches span the full
    register.
    """

    def __init__(self, h_op: PauliSum, e0: float, psi0: np.ndarray,
                 n_particles: int | None = None):
        m = h_op.width
        dim = 1 << m
        if psi0.shape != (dim,):
            raise ValueError("ground state has the wrong dimension")
        self.m = m
        self.e0 = e0
        branches = []
        for dagger in (True, False):
            if n_particles is None:
                basis = np.arange(dim)
            else:
                # empty when the sector lies outside [0, m]: no poles
                basis = sector_basis(m, n_particles + (1 if dagger else -1))
            block = project_to_sector(h_op, basis)
            trans = _mode_transitions(psi0, m, dagger)[basis, :]
            block, trans = _real_if_exact(block, trans)
            vals, vecs = np.linalg.eigh(block)
            branches.append((vals - e0, vecs.conj().T @ trans))
        self.particle, self.hole = branches

    def matrix(self, z: complex) -> np.ndarray:
        (poles_p, w_p), (poles_h, w_h) = self.particle, self.hole
        g_particle = (w_p.conj().T / (z - poles_p)) @ w_p
        g_hole = (w_h.conj().T / (z + poles_h)) @ w_h
        return g_particle + g_hole.T

    def series(self, zs: np.ndarray) -> np.ndarray:
        return np.stack([self.matrix(z) for z in zs])
