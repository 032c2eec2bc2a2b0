"""Molecular integral handling: FCIDUMP reading, model systems, active spaces.

Two-body integrals are stored in the ordering g[p,q,r,s] that multiplies
c+_p c+_q c_s c_r, derived from the FCIDUMP's chemist ordering (pr|qs) by an
axis swap.  All quantities are in Hartree atomic units over restricted
spatial orbitals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .fermion import hamiltonian_to_qubits


@dataclass(frozen=True)
class MolecularIntegrals:
    n_orb: int
    h: np.ndarray
    g: np.ndarray
    e_const: float
    n_elec: int

    def __post_init__(self):
        if self.h.shape != (self.n_orb, self.n_orb):
            raise ValueError(f"one-body shape {self.h.shape} != ({self.n_orb}, {self.n_orb})")
        if self.g.shape != (self.n_orb,) * 4:
            raise ValueError(f"two-body shape {self.g.shape}")
        if not 0 <= self.n_elec <= 2 * self.n_orb:
            raise ValueError(f"n_elec={self.n_elec} impossible for {self.n_orb} orbitals")

    def to_qubits(self, mu: float = 0.0) -> PauliSum:
        return hamiltonian_to_qubits(self.h, self.g, self.e_const, mu=mu)


def _canonical_two_body(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    """Representative of the 8-fold symmetry orbit of chemist (ij|kl)."""
    ij = (i, j) if i >= j else (j, i)
    kl = (k, l) if k >= l else (l, k)
    return ij + kl if ij >= kl else kl + ij


def read_fcidump(path: str) -> MolecularIntegrals:
    """Parse an FCIDUMP file into dense tensors.

    Indices are 1-based in the file.  Lines with two zero indices carry the
    one-body part, the all-zero line the scalar constant.  Entries that
    conflict with an earlier symmetry-equivalent value raise, and so does a
    NaN or infinite value, which the term pruning would otherwise drop.
    """
    with open(path) as fh:
        text = fh.read()
    header_match = re.search(r"&FCI(.*?)(?:&END|/)", text, re.S | re.I)
    if header_match is None:
        raise ValueError(f"{path}: missing &FCI header")
    header = header_match.group(1)

    def _key(name: str) -> int | None:
        m = re.search(rf"{name}\s*=\s*([-\d]+)", header, re.I)
        return int(m.group(1)) if m else None

    n_orb = _key("NORB")
    n_elec = _key("NELEC")
    if n_orb is None or n_elec is None:
        raise ValueError(f"{path}: header must define NORB and NELEC")
    if n_orb < 1:
        raise ValueError(f"{path}: NORB={n_orb}")

    body = text[header_match.end():]
    first = text.count("\n", 0, header_match.end()) + 1
    one: dict[tuple[int, int], float] = {}
    two: dict[tuple[int, int, int, int], float] = {}
    e_const = 0.0
    seen_const = False
    for lineno, raw in enumerate(body.splitlines(), first):
        line = raw.strip()
        if not line:
            continue
        fields = line.replace("D", "E").replace("d", "e").split()
        if len(fields) != 5:
            raise ValueError(f"{path}: malformed line {raw!r}")
        val = float(fields[0])
        if not np.isfinite(val):
            raise ValueError(f"{path}, line {lineno}: non-finite integral {fields[0]}")
        i, j, k, l = (int(x) for x in fields[1:])
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orb:
                raise ValueError(f"{path}: orbital index {idx} out of range")
        if i == j == k == l == 0:
            if seen_const and abs(e_const - val) > 1e-10:
                raise ValueError(f"{path}: conflicting scalar entries")
            e_const, seen_const = val, True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ValueError(f"{path}: bad one-body indices {i},{j}")
            key = (i, j) if i >= j else (j, i)
            if key in one and abs(one[key] - val) > 1e-10:
                raise ValueError(f"{path}: conflicting one-body entry {key}")
            one[key] = val
        else:
            if 0 in (i, j, k, l):
                raise ValueError(f"{path}: bad two-body indices {i},{j},{k},{l}")
            key = _canonical_two_body(i, j, k, l)
            if key in two and abs(two[key] - val) > 1e-10:
                raise ValueError(f"{path}: conflicting two-body entry {key}")
            two[key] = val

    h = np.zeros((n_orb, n_orb))
    for (i, j), val in one.items():
        h[i - 1, j - 1] = val
        h[j - 1, i - 1] = val
    g_chem = np.zeros((n_orb,) * 4)
    for (i, j, k, l), val in two.items():
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for p, q, r, s in ((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                           (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)):
            g_chem[p, q, r, s] = val
    g = g_chem.transpose(0, 2, 1, 3).copy()
    return MolecularIntegrals(n_orb=n_orb, h=h, g=g, e_const=e_const, n_elec=n_elec)


def hubbard_dimer(t: float, u: float) -> MolecularIntegrals:
    """Two-site Hubbard model at half filling, site basis.

    Hopping -t between the sites and on-site repulsion u.  The ground state
    energy in the two-electron singlet sector is (u - sqrt(u^2 + 16 t^2))/2.
    """
    h = np.array([[0.0, -t], [-t, 0.0]])
    g = np.zeros((2, 2, 2, 2))
    g[0, 0, 0, 0] = u
    g[1, 1, 1, 1] = u
    return MolecularIntegrals(n_orb=2, h=h, g=g, e_const=0.0, n_elec=2)


def hubbard_dimer_energy(t: float, u: float) -> float:
    return 0.5 * (u - np.sqrt(u * u + 16.0 * t * t))


def build_cas(integrals: MolecularIntegrals, active: tuple[int, ...]) -> MolecularIntegrals:
    """Freeze doubly occupied non-active orbitals into an effective problem.

    Occupied orbitals are the lowest n_elec/2 in file order (canonical
    ordering by energy).  Occupied orbitals outside the active list become
    core; their mean field folds into the one-body part and a scalar shift.
    """
    n = integrals.n_orb
    active = tuple(sorted(set(active)))
    if not active:
        raise ValueError("active orbital set must not be empty")
    for a in active:
        if not 0 <= a < n:
            raise ValueError(f"active orbital {a} outside [0, {n})")
    if integrals.n_elec % 2:
        raise ValueError("active-space construction requires an even electron count")
    n_occ = integrals.n_elec // 2
    core = tuple(p for p in range(n_occ) if p not in active)
    # core lies inside the n_elec/2 occupied orbitals, so this is never negative
    n_act_elec = integrals.n_elec - 2 * len(core)
    if n_act_elec > 2 * len(active):
        raise ValueError(f"{n_act_elec} electrons cannot fit in {len(active)} active orbitals")

    g = integrals.g
    v_core = np.zeros((n, n))
    e_core = 0.0
    for k in core:
        v_core += 2.0 * g[:, k, :, k] - g[:, k, k, :]
        e_core += 2.0 * integrals.h[k, k]
    for k in core:
        for l in core:
            e_core += 2.0 * g[k, l, k, l] - g[k, l, l, k]

    idx = np.asarray(active)
    h_cas = (integrals.h + v_core)[np.ix_(idx, idx)]
    g_cas = g[np.ix_(idx, idx, idx, idx)]
    return MolecularIntegrals(n_orb=len(active), h=h_cas, g=g_cas.copy(),
                              e_const=integrals.e_const + e_core,
                              n_elec=n_act_elec)


def fock_matrix(integrals: MolecularIntegrals) -> np.ndarray:
    """Closed-shell mean-field matrix over all orbitals.

    Diagonal in the canonical orbital basis, where its entries are the
    orbital energies.
    """
    if integrals.n_elec % 2:
        raise ValueError("mean-field matrix requires an even electron count")
    n_occ = integrals.n_elec // 2
    f = integrals.h.copy()
    for k in range(n_occ):
        f += 2.0 * integrals.g[:, k, :, k] - integrals.g[:, k, k, :]
    return f
