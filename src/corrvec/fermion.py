"""Fermionic operators on spin orbitals and their qubit encoding.

Spin orbitals use blocked ordering: spatial orbital p with spin up sits on
qubit p, spin down on qubit n_orb + p.  A creation operator on mode j maps to
(X_j - i Y_j)/2 times a Z chain on all lower modes, which preserves the
canonical anticommutation relations exactly.

``hamiltonian_to_qubits`` builds each distinct product of two ladder
operators once, as a ``PauliSum`` (``_ladder_pair``), and forms the
two-body terms (c+_a c+_b)(c_c c_d) as one batch of products of those
pairs, on their stacked masks (``pauli.weighted_products``).  The pairs
stay ``PauliSum``s made by ``sum_multiply``: there are at most m(m-1) of
each kind against thousands of two-body terms, so building them one by one
costs little, the one-body terms use them as they are, and their cache
keeps them for every later build in the process.  Every coefficient of a
ladder product is a multiple of a power of two, so only the integrals'
weights and the sums over terms round, in the order of the term-by-term
route, and the result is bit-identical to it (``tests/molham_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliSum, weighted_products


@dataclass(frozen=True)
class BlockedSpinOrbitals:
    """Bijection (spatial orbital, spin) <-> qubit index, spin-up block first."""

    n_orb: int

    @property
    def n_modes(self) -> int:
        return 2 * self.n_orb

    def index(self, p: int, spin: int) -> int:
        if not 0 <= p < self.n_orb:
            raise ValueError(f"orbital {p} outside [0, {self.n_orb})")
        if spin not in (0, 1):
            raise ValueError("spin must be 0 (up) or 1 (down)")
        return p + spin * self.n_orb

    def closed_shell_modes(self, n_elec: int) -> list[int]:
        """Occupied mode indices for a spin-paired filling of n_elec."""
        if n_elec % 2 or not 0 <= n_elec <= self.n_modes:
            raise ValueError(f"cannot pair {n_elec} electrons in "
                             f"{self.n_orb} orbitals")
        docc = n_elec // 2
        return [self.index(p, s) for s in (0, 1) for p in range(docc)]


@lru_cache(maxsize=None)
def ladder_pauli(mode: int, dagger: bool, m: int) -> PauliSum:
    """Qubit form of c_mode (dagger=False) or c_mode^dagger (dagger=True)."""
    if not 0 <= mode < m:
        raise ValueError(f"mode {mode} outside register of width {m}")
    chain = "Z" * mode
    tail = "I" * (m - mode - 1)
    x_label = chain + "X" + tail
    y_label = chain + "Y" + tail
    sign = -1j if dagger else 1j
    return PauliSum(m, [(x_label, 0.5), (y_label, 0.5 * sign)])


def number_operator(m: int, modes: tuple[int, ...] | None = None) -> PauliSum:
    """Sum of occupation operators (I - Z_j)/2 over the chosen modes."""
    modes = tuple(range(m)) if modes is None else modes
    terms: dict[str, complex] = {"I" * m: 0.5 * len(modes)}
    for j in modes:
        label = "I" * j + "Z" + "I" * (m - j - 1)
        terms[label] = terms.get(label, 0.0) - 0.5
    return PauliSum(m, terms)


@lru_cache(maxsize=None)
def _ladder_pair(a: int, a_dagger: bool, b: int, b_dagger: bool, m: int) -> PauliSum:
    """Qubit form of the product of two ladder operators, built once."""
    return ladder_pauli(a, a_dagger, m) * ladder_pauli(b, b_dagger, m)


def hamiltonian_to_qubits(h: np.ndarray, g: np.ndarray, e_const: float,
                          mu: float = 0.0) -> PauliSum:
    """Qubit Hamiltonian of a spin-restricted second-quantized problem.

    ``h`` is the one-body matrix over n_orb spatial orbitals, ``g`` the
    two-body tensor in the convention g[p,q,r,s] c+_p c+_q c_s c_r with a
    1/2 prefactor after spin insertion, and ``e_const`` a scalar shift.
    ``mu`` subtracts a chemical potential times the total number operator.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    n_orb = h.shape[0]
    if h.shape != (n_orb, n_orb):
        raise ValueError(f"one-body matrix has shape {h.shape}")
    # relative to the entries, so round-off in a symmetric matrix of any
    # scale passes and an asymmetric one of any scale does not
    if np.max(np.abs(h - h.T)) > 1e-10 * np.max(np.abs(h)):
        raise ValueError("one-body matrix is not hermitian")
    if g.shape != (n_orb,) * 4:
        raise ValueError(f"two-body tensor has shape {g.shape}")
    conv = BlockedSpinOrbitals(n_orb)
    m = conv.n_modes
    parts = [(e_const, PauliSum.identity(m))]
    if mu != 0.0:
        parts.append((-mu, number_operator(m)))
    # the entries the term-by-term route keeps: not at or below the cut
    for p, q in zip(*np.nonzero(~(np.abs(h) <= 1e-14))):
        for spin in (0, 1):
            a, b = conv.index(int(p), spin), conv.index(int(q), spin)
            parts.append((h[p, q], _ladder_pair(a, True, b, False, m)))
    # (c+_a c+_b)(c_c c_d) for every (p, q, r, s), then spins (sp, sq),
    # without the terms that vanish by a == b or c == d
    coeff = 0.5 * g
    p, q, r, s = (k[:, None] for k in np.nonzero(~(np.abs(coeff) <= 1e-14)))
    sp, sq = n_orb * np.array([0, 0, 1, 1]), n_orb * np.array([0, 1, 0, 1])
    a, b, c, d = p + sp, q + sq, s + sq, r + sp
    keep = (a != b) & (c != d)
    weights = np.broadcast_to(coeff[p, q, r, s], keep.shape)[keep]
    # each distinct pair once, in ascending order of its mode pair
    pairs, factors = [], []
    for lo, hi, dagger in ((a, b, True), (c, d, False)):
        codes = lo[keep] * m + hi[keep]
        used = np.zeros(m * m, dtype=bool)
        used[codes] = True
        pairs.append((np.cumsum(used) - 1)[codes])
        factors.append([_ladder_pair(k // m, dagger, k % m, dagger, m)
                        for k in np.flatnonzero(used).tolist()])
    return weighted_products(m, parts, *factors, np.stack(pairs, axis=1), weights)


def number_penalty(m: int, target: int, strength: float) -> PauliSum:
    """strength * (N - target)^2 as a PauliSum, zero on the target sector."""
    dev = number_operator(m) - PauliSum.identity(m, float(target))
    return strength * (dev * dev)


def total_spin_squared(n_orb: int) -> PauliSum:
    """Total-spin operator S^2 = S-S+ + Sz^2 + Sz in blocked spin ordering.

    Positive semidefinite with the singlet sector as its kernel, so it works
    as an optimization penalty that leaves singlet states untouched while
    pushing triplet and higher-spin states up in energy.
    """
    m = 2 * n_orb
    sp = PauliSum(m)
    for p in range(n_orb):
        sp = sp + ladder_pauli(p, True, m) * ladder_pauli(p + n_orb, False, m)
    sm = sp.adjoint()
    sz = PauliSum(m)
    for p in range(n_orb):
        nu = ladder_pauli(p, True, m) * ladder_pauli(p, False, m)
        nd = ladder_pauli(p + n_orb, True, m) * ladder_pauli(p + n_orb, False, m)
        sz = sz + 0.5 * (nu - nd)
    return sm * sp + sz * sz + sz
