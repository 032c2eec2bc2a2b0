"""Dense references the benchmark checks corrvec's outputs against.

Written from the definitions, not from corrvec's own linear algebra:
Pauli terms become matrices through bit arithmetic on basis indices,
Green's functions come from a sector-restricted Lehmann sum, and the
hardware-efficient ansatz is re-simulated with explicit 2x2 gates.

Conventions match corrvec's: qubit q is bit q of a basis index, mode j is
qubit j, c_j carries a Jordan-Wigner sign (-1)^(occupied modes below j).
"""

from __future__ import annotations

import numpy as np


def sector_basis(m: int, n: int) -> np.ndarray:
    """Ascending basis indices of the m-mode states with n particles."""
    idx = np.arange(1 << m, dtype=np.int64)
    return idx[np.bitwise_count(idx) == n]


def pauli_dense(terms, m: int, basis: np.ndarray | None = None) -> np.ndarray:
    """Matrix of sum_k c_k P_k on ``basis`` (default: the full register).

    P|b> = i^(#Y) (-1)^popcount(b & zmask) |b ^ xmask>, with Y = i X Z.
    Components that leave the basis are dropped, which is exact for
    operators that conserve the basis' particle number.
    """
    basis = np.arange(1 << m, dtype=np.int64) if basis is None else basis
    dim = basis.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for label, coeff in terms:
        xmask = sum(1 << q for q, ch in enumerate(label) if ch in "XY")
        zmask = sum(1 << q for q, ch in enumerate(label) if ch in "ZY")
        phase = (1j) ** label.count("Y")
        signs = 1 - 2 * (np.bitwise_count(basis & zmask) & 1).astype(np.int64)
        targets = basis ^ xmask
        rows = np.searchsorted(basis, targets)
        inside = rows < dim
        inside[inside] = basis[rows[inside]] == targets[inside]
        np.add.at(out, (rows[inside], cols[inside]),
                  coeff * phase * signs[inside])
    return out


def ladder_columns(psi: np.ndarray, basis_from: np.ndarray,
                   basis_to: np.ndarray, m: int, create: bool) -> np.ndarray:
    """Columns c_j^(dagger)|psi> for every mode j, on ``basis_to``."""
    out = np.zeros((basis_to.shape[0], m), dtype=complex)
    for j in range(m):
        bit = 1 << j
        occupied = (basis_from & bit) != 0
        keep = ~occupied if create else occupied
        src = basis_from[keep]
        sign = 1 - 2 * (np.bitwise_count(src & (bit - 1)) & 1).astype(np.int64)
        rows = np.searchsorted(basis_to, src ^ bit)
        out[rows, j] = sign * psi[keep]
    return out


class SectorGreens:
    """G_ij(z) = <0|c_i [z - (H - E0)]^-1 c_j^+|0> + <0|c_j^+ [z + (H - E0)]^-1 c_i|0>
    as a Lehmann sum over the N+1 and N-1 sectors of a dense Hamiltonian."""

    def __init__(self, terms, m: int, n: int):
        terms = list(terms)
        self.m = m
        basis = sector_basis(m, n)
        vals, vecs = np.linalg.eigh(pauli_dense(terms, m, basis))
        self.e0 = float(vals[0])
        self.psi0 = np.zeros(1 << m, dtype=complex)
        self.psi0[basis] = vecs[:, 0]
        self.branches = []
        for create, n_to, sign in ((True, n + 1, -1.0), (False, n - 1, +1.0)):
            if not 0 <= n_to <= m:
                continue
            to = sector_basis(m, n_to)
            e, u = np.linalg.eigh(pauli_dense(terms, m, to))
            w = u.conj().T @ ladder_columns(vecs[:, 0], basis, to, m, create)
            self.branches.append((create, sign, e - self.e0, w))

    def series(self, zs: np.ndarray) -> np.ndarray:
        """(len(zs), m, m) Green's-function matrices."""
        zs = np.asarray(zs, dtype=complex)
        g = np.zeros((zs.shape[0], self.m, self.m), dtype=complex)
        for create, sign, omega, w in self.branches:
            res = 1.0 / (zs[:, None] + sign * omega[None, :])
            part = np.einsum("ki,zk,kj->zij", w.conj(), res, w)
            g += part if create else part.transpose(0, 2, 1)
        return g


def hubbard_dimer_energy(t: float, u: float) -> float:
    """Closed-form two-site Hubbard ground energy at half filling."""
    return u / 2.0 - np.sqrt(u * u / 4.0 + 4.0 * t * t)


def _rotation(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def hea_state(width: int, depth: int, pattern, theta) -> np.ndarray:
    """Statevector of the layered ansatz: per block, rotation ``pattern[j]``
    on qubit q with angle theta[(block * width + q) * len(pattern) + j],
    then CX(q, q+1) for q = 0..width-2; the last block has no ladder."""
    dim = 1 << width
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    idx = np.arange(dim)
    k = len(pattern)
    for block in range(depth + 1):
        for q in range(width):
            for j, kind in enumerate(pattern):
                u = _rotation(kind, theta[(block * width + q) * k + j])
                view = psi.reshape(dim >> (q + 1), 2, 1 << q)
                psi = np.einsum("ab,xby->xay", u, view).reshape(dim)
        if block < depth:
            for q in range(width - 1):
                psi = psi[np.where((idx >> q) & 1, idx ^ (1 << (q + 1)), idx)]
    return psi


def aposteriori_bound(gamma_p: complex, r_p: float, gamma_h: complex,
                      r_h: float, eta: float, delta: float, d_e0: float) -> float:
    """Bound on |G_ij - G_ij^ref| for a variational element.

    Q(z) is normal with |eigenvalues| >= eta and ladder states have norm
    <= 1, so a branch whose relative residual is r and whose scale is gamma
    is off by at most |gamma| sqrt(r) / eta.  Using the prepared ground
    state (distance ``delta`` from the exact one, energy off by ``d_e0``)
    adds 2 delta / eta + d_e0 / eta^2 per branch.
    """
    gs = 2.0 * delta / eta + d_e0 / eta ** 2
    return (abs(gamma_p) * np.sqrt(max(r_p, 0.0)) / eta
            + abs(gamma_h) * np.sqrt(max(r_h, 0.0)) / eta + 2.0 * gs)
