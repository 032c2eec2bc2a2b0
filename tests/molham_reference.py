"""References for molecular integrals, kept out of the package.

Orbital rotations: a Givens rotation between two orbitals and the
re-expression of the one- and two-body integrals in a rotated basis, which
the tests use to check that the full-CI energy does not depend on the
orbital basis.  ``four_ladder_hamiltonian``: the qubit Hamiltonian built
term by term as a left-to-right chain of single ladder operators, the
route that pins the coefficients and the term order of
``corrvec.fermion.hamiltonian_to_qubits``.
"""

from __future__ import annotations

import numpy as np

from corrvec.fermion import ladder_pauli, number_operator
from corrvec.molham import MolecularIntegrals
from corrvec.pauli import PauliSum, weighted_sum


def rotate_orbitals(integrals: MolecularIntegrals, q: np.ndarray) -> MolecularIntegrals:
    """Re-express the integrals in an orthogonally rotated orbital basis.

    Useful for working in non-canonical orbitals, where the mean-field
    matrix picks up off-diagonal couplings.  The physics (spectrum, total
    energy) is invariant; only the basis labels change.
    """
    n = integrals.n_orb
    q = np.asarray(q, dtype=float)
    if q.shape != (n, n):
        raise ValueError(f"rotation shape {q.shape} != ({n}, {n})")
    if not np.allclose(q.T @ q, np.eye(n), atol=1e-10):
        raise ValueError("rotation must be orthogonal")
    h = q.T @ integrals.h @ q
    g = np.einsum("pa,qb,rc,sd,pqrs->abcd", q, q, q, q, integrals.g,
                  optimize=True)
    return MolecularIntegrals(n_orb=n, h=h, g=g, e_const=integrals.e_const,
                              n_elec=integrals.n_elec)


def givens_rotation(n: int, i: int, j: int, angle: float) -> np.ndarray:
    """Orthogonal matrix mixing orbitals i and j by the given angle."""
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"need two distinct orbitals below {n}")
    q = np.eye(n)
    c, s = np.cos(angle), np.sin(angle)
    q[i, i] = c
    q[j, j] = c
    q[i, j] = -s
    q[j, i] = s
    return q


def _product_of_ladders(factors: list[tuple[int, bool]], m: int) -> PauliSum:
    out = None
    for mode, dagger in factors:
        term = ladder_pauli(mode, dagger, m)
        out = term if out is None else out * term
    return out


def four_ladder_hamiltonian(h: np.ndarray, g: np.ndarray, e_const: float,
                            mu: float = 0.0) -> PauliSum:
    """Qubit Hamiltonian in the convention of ``hamiltonian_to_qubits``,
    each one-body term c+_a c_b and two-body term c+_a c+_b c_c c_d
    multiplied out one ladder operator at a time."""
    n_orb = h.shape[0]
    m = 2 * n_orb

    def parts():
        yield e_const, PauliSum.identity(m)
        if mu != 0.0:
            yield -mu, number_operator(m)
        for p in range(n_orb):
            for q in range(n_orb):
                if abs(h[p, q]) <= 1e-14:
                    continue
                for spin in (0, 1):
                    a, b = p + spin * n_orb, q + spin * n_orb
                    yield h[p, q], _product_of_ladders([(a, True), (b, False)], m)
        for p, q, r, s in np.ndindex(g.shape):
            coeff = 0.5 * g[p, q, r, s]
            if abs(coeff) <= 1e-14:
                continue
            for sp in (0, 1):
                for sq in (0, 1):
                    a, b = p + sp * n_orb, q + sq * n_orb
                    c, d = s + sq * n_orb, r + sp * n_orb
                    if a == b or c == d:
                        continue
                    yield coeff, _product_of_ladders(
                        [(a, True), (b, True), (c, False), (d, False)], m)

    return weighted_sum(m, parts())
