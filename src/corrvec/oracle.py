"""Dense reference solutions: exact ground states and Green's functions.

Everything here works with explicit matrices, independent of the circuit
machinery, so it can certify the variational pipeline.  A dense matrix is
the block of an operator on an ascending list of basis states
(``project_to_sector``), filled from the strings' rows that ``pauli``
merges by flip mask (``flip_rows``); the full matrix is the block on every
state.  ``materialize`` refuses registers wider than MAX_DENSE_QUBITS; the
ground state and the Green's function work on particle-number sectors
instead.

A sector block of a Hamiltonian that conserves more than the particle
number (each spin's count, an orbital symmetry) is block-diagonal after a
permutation.  ``_decoupled_blocks`` finds those blocks as the connected
components of the exact nonzero pattern, with no tolerance, so the split
never changes the spectrum; a coupling that is only nearly zero merges two
blocks, which costs time and not accuracy.  Every sector is diagonalised
one decoupled block at a time.

``GreensOracle`` holds the Green's function in pole/weight form.  Each block
of the N+1 and N-1 sectors is diagonalised once, H = V diag(E) V+, and
every frequency then reads W+ diag(1 / (z -+ (E - E0))) W off the transition
amplitudes W = V+ c+_j|0> (particle branch, minus) or V+ c_j|0> (hole
branch, plus).  A block that no transition c+-_j|0> reaches has no weight
and contributes no poles.  The Jordan-Wigner blocks of real integrals are
exactly real; when a block and its transition columns have no imaginary
part the diagonalisation runs in real arithmetic, otherwise in complex.
The dense linear solve per frequency that this form replaces is the test
reference in ``tests/oracle_reference.py``.
"""

from __future__ import annotations

import numpy as np

from .fermion import ladder_pauli
from .pauli import PauliSum, apply_sum, flip_rows

# widest register materialize builds and the oracle command accepts; the
# sector blocks the oracle diagonalises stay far smaller
MAX_DENSE_QUBITS = 14


def materialize(op: PauliSum) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum (guarded against large registers)."""
    if op.width > MAX_DENSE_QUBITS:
        raise ValueError(f"refusing to materialize {op.width} qubits densely")
    return project_to_sector(op, np.arange(1 << op.width))


def sector_basis(m: int, n_particles: int) -> np.ndarray:
    """Basis indices with the given occupation count, ascending."""
    idx = np.arange(1 << m, dtype=np.int64)
    return idx[np.bitwise_count(idx) == n_particles]


def project_to_sector(op: PauliSum, basis: np.ndarray) -> np.ndarray:
    """Dense block of the operator on an ascending list of basis states.

    Pauli sums from particle-conserving fermionic operators map the states
    of a particle-number sector into the same sector, so the block on the
    sector basis captures them exactly.  The strings that flip the same
    bits share one pattern of cells: each distinct flip mask's row of
    summed signed coefficients (``flip_rows``) is written to its cells at
    once, where the flipped state is in the basis.
    """
    dim = basis.shape[0]
    flips, summed = flip_rows(op, basis)
    # each register state's row in the block; a state off the basis lands
    # in row dim, which is dropped
    row_of = np.full(1 << op.width, dim)
    row_of[basis] = np.arange(dim)
    out = np.zeros((dim + 1, dim), dtype=complex)
    # distinct flips send a column to distinct rows: every cell of the
    # block is set once
    out[row_of[basis[None, :] ^ flips[:, None]], np.arange(dim)] = summed
    return out[:dim]


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


def _decoupled_blocks(block: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the exact nonzero pattern
    of a square matrix, each ascending, in ascending order of their smallest
    index.  The matrix is block-diagonal on them: ``block`` restricted to
    one component has every nonzero entry of its rows and columns."""
    linked = block != 0
    linked |= linked.T
    seen = np.zeros(block.shape[0], dtype=bool)
    out = []
    for start in range(block.shape[0]):
        if seen[start]:
            continue
        comp = np.zeros_like(seen)
        comp[start] = True
        frontier = comp.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        out.append(np.flatnonzero(comp))
    return out


def exact_ground(h_op: PauliSum, n_particles: int | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair, optionally restricted to a particle-number sector.

    Each decoupled block is diagonalised on its own.  A ground state
    degenerate across blocks is taken from the first of them, in ascending
    order of their smallest basis index.  Returns the energy and the
    full-register statevector.
    """
    m = h_op.width
    if n_particles is None:
        basis = np.arange(1 << m)
        block = materialize(h_op)
    else:
        basis = sector_basis(m, n_particles)
        block = project_to_sector(h_op, basis)
    best = None
    for idx in _decoupled_blocks(block):
        vals, vecs = np.linalg.eigh(*_real_if_exact(block[np.ix_(idx, idx)]))
        if best is None or vals[0] < best[0]:
            best = vals[0], idx, vecs[:, 0]
    if best is None:
        raise ValueError(f"no state has {n_particles} particles in {m} modes")
    e0, idx, vec = best
    return float(e0), embed_sector_vector(vec, basis[idx], m)


def _mode_transitions(psi0: np.ndarray, m: int, dagger: bool) -> np.ndarray:
    """Columns c+_j|psi0> (``dagger``) or c_j|psi0>, one per mode j."""
    return np.stack([apply_sum(ladder_pauli(j, dagger, m), psi0)
                     for j in range(m)], axis=1)


class GreensOracle:
    """Resolvent matrix elements from the poles and weights of the N+1 and
    N-1 sectors, each diagonalised once, one decoupled block at a time.

    Particle branch: <0| c_i [z - (H - e0)]^{-1} c+_j |0>
                     = sum_k conj(Wp[k, i]) Wp[k, j] / (z - Ep[k]).
    Hole branch:     <0| c+_j [z + (H - e0)]^{-1} c_i |0>
                     = sum_k conj(Wh[k, j]) Wh[k, i] / (z + Eh[k]).

    ``particle`` and ``hole`` are the ``(poles, weights)`` pairs: excitation
    energies E_k - e0 of shape (n_poles,) and amplitudes <k|c+_j|0> or
    <k|c_j|0> of shape (n_poles, m), block after block.  A block whose
    transition amplitudes are all exactly zero carries no weight and gives
    no poles, and neither does a sector that does not exist.  Without
    ``n_particles`` both branches span the full register.
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
            poles, weights = [np.zeros(0)], [np.zeros((0, m))]
            for idx in _decoupled_blocks(block):
                if not trans[idx].any():
                    continue
                sub, amps = _real_if_exact(block[np.ix_(idx, idx)], trans[idx])
                vals, vecs = np.linalg.eigh(sub)
                poles.append(vals - e0)
                weights.append(vecs.conj().T @ amps)
            branches.append((np.concatenate(poles), np.concatenate(weights)))
        self.particle, self.hole = branches

    def matrix(self, z: complex) -> np.ndarray:
        (poles_p, w_p), (poles_h, w_h) = self.particle, self.hole
        g_particle = (w_p.conj().T / (z - poles_p)) @ w_p
        g_hole = (w_h.conj().T / (z + poles_h)) @ w_h
        return g_particle + g_hole.T

    def series(self, zs: np.ndarray) -> np.ndarray:
        return np.stack([self.matrix(z) for z in zs])
