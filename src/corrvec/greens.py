"""Green's-function read-off and active-space embedding: the trace
spectrum, the mean-field resolvent, and the Dyson and inversion-free
embeddings of an active-space series.  The frequency grids are built by
``config.GridConfig``.

Matrices are stored over spin orbitals in blocked ordering (all spin-up
orbitals first).  Spin-restricted systems carry identical blocks, so the
embedding algebra runs on the spatial (spin-up) block and returns
spatial-orbital matrices.  Energies in Hartree, Green's functions in
inverse Hartree.
"""

from __future__ import annotations

import numpy as np


def trace_spectrum(g: np.ndarray) -> float:
    """Sum of the imaginary parts of the diagonal."""
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square matrix")
    return float(np.trace(g).imag)


def _inverse(mat: np.ndarray) -> np.ndarray | None:
    """mat^{-1}, or None when mat is numerically singular: exactly, or with
    a 1-norm condition number |mat| |mat^{-1}| above 1e12.  Unlike a
    determinant threshold, the test does not depend on scale or size."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    cond = np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1)
    return inv if cond < 1e12 else None   # None for a NaN as well


def g0(f: np.ndarray, z: complex) -> np.ndarray:
    """Mean-field resolvent [z - F]^{-1}."""
    inv = _inverse(z * np.eye(f.shape[0]) - f)
    if inv is None:
        raise np.linalg.LinAlgError("z coincides with a mean-field pole")
    return inv


def spin_up_block(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0] // 2
    return mat[:n, :n]


def dyson_embed(g_cas: np.ndarray, f: np.ndarray, active: tuple[int, ...],
                zs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Full-space Green's function via the active-space self-energy.

    The active block contributes Sigma(z) = (z - F_AA) - G_cas(z)^{-1},
    inserted into [z - F - Sigma]^{-1} over all orbitals.  Points where the
    sampled G_cas is numerically singular (condition number above 1e12)
    are skipped (returned in the second element) and left as NaN;
    inverting noisy data is exactly where this scheme becomes fragile.
    """
    n = f.shape[0]
    idx = np.asarray(active)
    f_aa = f[np.ix_(idx, idx)]
    out = np.full((len(zs), n, n), np.nan, dtype=complex)
    skipped = []
    for k, z in enumerate(zs):
        gc_inv = _inverse(g_cas[k])
        if gc_inv is None:
            skipped.append(k)
            continue
        sigma_cas = (z * np.eye(len(idx)) - f_aa) - gc_inv
        sigma = np.zeros((n, n), dtype=complex)
        sigma[np.ix_(idx, idx)] = sigma_cas
        out[k] = np.linalg.inv(z * np.eye(n) - f - sigma)
    return out, skipped


def nondyson_embed(g_cas: np.ndarray, f: np.ndarray, active: tuple[int, ...],
                   zs: np.ndarray) -> np.ndarray:
    """Inversion-free embedding G = G0 + P[G_cas - P G0 P]P.

    Exact (and equal to the self-energy route) when F has no coupling
    between active and inactive orbitals.
    """
    n = f.shape[0]
    idx = np.asarray(active)
    out = np.empty((len(zs), n, n), dtype=complex)
    for k, z in enumerate(zs):
        g_full0 = g0(f, z)
        out[k] = g_full0
        out[k][np.ix_(idx, idx)] += g_cas[k] - g_full0[np.ix_(idx, idx)]
    return out
