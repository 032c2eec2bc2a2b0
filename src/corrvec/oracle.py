"""Dense reference solutions: exact ground states, resolvents, spectra.

Everything here works with explicit matrices, independent of the circuit
machinery, so it can certify the variational pipeline.  Registers are capped
at 14 qubits; particle-number sectors keep the linear algebra small well
before that limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fermion import ladder_pauli
from .pauli import PauliSum, string_action

_MAX_DENSE_QUBITS = 14

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def materialize(op: PauliSum) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum (guarded against large registers)."""
    if op.width > _MAX_DENSE_QUBITS:
        raise ValueError(f"refusing to materialize {op.width} qubits densely")
    dim = 1 << op.width
    out = np.zeros((dim, dim), dtype=complex)
    for label, coeff in op:
        term = np.ones((1, 1), dtype=complex)
        for q in range(op.width - 1, -1, -1):
            term = np.kron(term, _SINGLE[label[q]])
        out += coeff * term
    return out


def sector_basis(m: int, n_particles: int) -> np.ndarray:
    """Basis indices with the given occupation count, ascending."""
    states = [b for b in range(1 << m) if bin(b).count("1") == n_particles]
    return np.asarray(states, dtype=np.int64)


def project_to_sector(op: PauliSum, basis: np.ndarray) -> np.ndarray:
    """Dense block of the operator on a fixed-particle-number basis.

    Pauli sums from particle-conserving fermionic operators map sector
    states into the same sector, so the block captures them exactly.
    """
    dim = basis.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for label, coeff in op:
        flip, phases = string_action(label)
        targets = basis ^ flip
        rows = np.searchsorted(basis, targets)
        rows_clipped = np.minimum(rows, dim - 1)
        found = basis[rows_clipped] == targets
        out[rows_clipped[found], cols[found]] += coeff * phases[basis[found]]
    return out


def embed_sector_vector(vec: np.ndarray, basis: np.ndarray, m: int) -> np.ndarray:
    full = np.zeros(1 << m, dtype=complex)
    full[basis] = vec
    return full


def exact_ground(h_op: PauliSum, n_particles: int | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair, optionally restricted to a particle-number sector.

    Returns the energy and the full-register statevector.
    """
    m = h_op.width
    if n_particles is None:
        mat = materialize(h_op)
        vals, vecs = np.linalg.eigh(mat)
        return float(vals[0]), vecs[:, 0]
    basis = sector_basis(m, n_particles)
    block = project_to_sector(h_op, basis)
    vals, vecs = np.linalg.eigh(block)
    return float(vals[0]), embed_sector_vector(vecs[:, 0], basis, m)


@dataclass(frozen=True)
class LehmannData:
    """Pole positions and transition weights of a single-particle spectrum."""

    poles_particle: np.ndarray      # excitation energies E_k(N+1) - E0
    weights_particle: np.ndarray    # (n_poles, n_modes) amplitudes <k|c+_j|0>
    poles_hole: np.ndarray          # E_k(N-1) - E0
    weights_hole: np.ndarray        # (n_poles, n_modes) amplitudes <k|c_j|0>


def _mode_transitions(psi0: np.ndarray, m: int, dagger: bool) -> np.ndarray:
    cols = []
    for j in range(m):
        op = ladder_pauli(j, dagger, m)
        out = np.zeros_like(psi0)
        for label, coeff in op:
            flip, phases = string_action(label)
            idx = np.arange(psi0.shape[0]) ^ flip
            out[idx] += coeff * (phases * psi0)
        cols.append(out)
    return np.stack(cols, axis=1)


def lehmann_decomposition(h_op: PauliSum, e0: float, psi0: np.ndarray,
                          n_particles: int) -> LehmannData:
    """Eigen-decomposition of the N+-1 sectors against c|0> and c+|0>."""
    m = h_op.width
    out = {}
    for dagger, n_sec in ((True, n_particles + 1), (False, n_particles - 1)):
        if not 0 <= n_sec <= m:
            poles = np.zeros(0)
            weights = np.zeros((0, m), dtype=complex)
        else:
            basis = sector_basis(m, n_sec)
            block = project_to_sector(h_op, basis)
            vals, vecs = np.linalg.eigh(block)
            trans = _mode_transitions(psi0, m, dagger)[basis, :]
            weights = vecs.conj().T @ trans
            poles = vals - e0
        out[dagger] = (np.asarray(poles, dtype=float), weights)
    return LehmannData(poles_particle=out[True][0], weights_particle=out[True][1],
                       poles_hole=out[False][0], weights_hole=out[False][1])


def greens_from_lehmann(lehmann: LehmannData, z: complex) -> np.ndarray:
    """G_ij(z) summed over both branches at one complex frequency."""
    wp = lehmann.weights_particle
    gp = np.einsum("ki,kj->ij", wp.conj(), wp / (z - lehmann.poles_particle)[:, None])
    wh = lehmann.weights_hole
    gh = np.einsum("kj,ki->ij", wh.conj(), wh / (z + lehmann.poles_hole)[:, None])
    return gp + gh


class GreensOracle:
    """Resolvent matrix elements by direct linear solves, reusing the
    projected sector blocks across frequencies.

    Particle branch: <0| c_i [z - (H - e0)]^{-1} c+_j |0>.
    Hole branch:     <0| c+_j [z + (H - e0)]^{-1} c_i |0>.
    """

    def __init__(self, h_op: PauliSum, e0: float, psi0: np.ndarray,
                 n_particles: int | None = None):
        m = h_op.width
        dim = 1 << m
        if psi0.shape != (dim,):
            raise ValueError("ground state has the wrong dimension")
        self.m = m
        self.e0 = e0
        plus = _mode_transitions(psi0, m, True)
        minus = _mode_transitions(psi0, m, False)
        self._branches = []
        for dagger, trans, sign in ((True, plus, -1), (False, minus, +1)):
            if n_particles is None:
                basis = np.arange(dim)
            else:
                n_sec = n_particles + (1 if dagger else -1)
                if not 0 <= n_sec <= m:
                    continue
                basis = sector_basis(m, n_sec)
            if basis.shape[0] == 0:
                continue
            block = project_to_sector(h_op, basis) - e0 * np.eye(basis.shape[0])
            self._branches.append((dagger, sign, block, trans[basis, :]))

    def matrix(self, z: complex) -> np.ndarray:
        g = np.zeros((self.m, self.m), dtype=complex)
        for dagger, sign, block, trans in self._branches:
            q = z * np.eye(block.shape[0]) + sign * block
            sol = np.linalg.solve(q, trans)
            part = trans.conj().T @ sol
            g += part if dagger else part.T
        return g

    def series(self, zs: np.ndarray) -> np.ndarray:
        return np.stack([self.matrix(z) for z in zs])


def exact_greens_function(h_op: PauliSum, e0: float, psi0: np.ndarray,
                          z: complex, n_particles: int | None = None) -> np.ndarray:
    """One-shot resolvent matrix at a single frequency."""
    return GreensOracle(h_op, e0, psi0, n_particles).matrix(z)


def broadened_trace_integral(lehmann: LehmannData, omegas: np.ndarray,
                             eta: float) -> float:
    """Integral of -(1/pi) Im tr G over the real window, exactly per pole.

    Each Lorentzian pole of weight w contributes
    w/pi * [atan((b - x0)/eta) - atan((a - x0)/eta)].
    """
    a, b = float(omegas[0]), float(omegas[-1])
    total = 0.0
    for poles, weights, branch in ((lehmann.poles_particle, lehmann.weights_particle, +1),
                                   (lehmann.poles_hole, lehmann.weights_hole, -1)):
        if poles.shape[0] == 0:
            continue
        w_tr = np.sum(np.abs(weights) ** 2, axis=1)
        x0 = branch * poles
        total += float(np.sum(w_tr / np.pi * (np.arctan2(b - x0, eta)
                                              - np.arctan2(a - x0, eta))))
    return total


def spectral_sum_budget(lehmann: LehmannData, omegas: np.ndarray, eta: float) -> float:
    """How much spectral weight the window misses: modes minus the exact
    broadened integral over [omega_min, omega_max]."""
    n_modes = lehmann.weights_particle.shape[1] if lehmann.weights_particle.size \
        else lehmann.weights_hole.shape[1]
    return float(n_modes) - broadened_trace_integral(lehmann, omegas, eta)
