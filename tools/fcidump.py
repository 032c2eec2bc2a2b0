"""FCIDUMP writer for the fixture generator and the reader's round-trip
test; the package itself only reads FCIDUMP files
(``corrvec.molham.read_fcidump``)."""

from __future__ import annotations

import numpy as np


def write_fcidump(integrals, path: str) -> None:
    """Write a ``MolecularIntegrals`` out; ``read_fcidump`` of the file
    reproduces it exactly."""
    n = integrals.n_orb
    g_chem = integrals.g.transpose(0, 2, 1, 3)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        if np.max(np.abs(g_chem - g_chem.transpose(perm))) > 1e-12:
            raise ValueError("two-body tensor lacks the required index symmetry")
    lines = [f" &FCI NORB={n},NELEC={integrals.n_elec},MS2=0,",
             "  ORBSYM=" + "1," * n,
             "  ISYM=1,",
             " &END"]
    tol = 1e-16
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    val = g_chem[i, j, k, l]
                    if abs(val) > tol:
                        lines.append(f"{val:23.16E} {i+1:4d} {j+1:4d} {k+1:4d} {l+1:4d}")
    for i in range(n):
        for j in range(i + 1):
            if abs(integrals.h[i, j]) > tol:
                lines.append(f"{integrals.h[i, j]:23.16E} {i+1:4d} {j+1:4d} {0:4d} {0:4d}")
    lines.append(f"{integrals.e_const:23.16E} {0:4d} {0:4d} {0:4d} {0:4d}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
