"""Orbital rotations of molecular integrals, kept out of the package: a
Givens rotation between two orbitals and the re-expression of the one- and
two-body integrals in a rotated basis.  The tests use them to check that
the full-CI energy does not depend on the orbital basis.
"""

from __future__ import annotations

import numpy as np

from corrvec.molham import MolecularIntegrals


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
