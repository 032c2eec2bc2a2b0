"""Variational correction-vector method for frequency-domain Green's
functions: a Rotosolve ground state on a hardware-efficient ansatz, one
correction-vector solve per frequency, the read-off of G(z), and
active-space embedding, with dense-diagonalization references.

The command line is ``corrvec.cli``.  The package root re-exports only the
names that the command line's callers use: the model Hamiltonians and the
FCIDUMP reader, the ansatz and its statevector run, and the dense oracle.
Everything else is imported from its module.
"""

import importlib

from .circuits import run_pure
from .molham import (MolecularIntegrals, hubbard_dimer, hubbard_dimer_energy,
                     read_fcidump)
from .oracle import GreensOracle, exact_ground, materialize
from .vqe import AnsatzSpec, build_hea

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec", "GreensOracle", "MolecularIntegrals", "build_hea", "cli",
    "exact_ground", "hubbard_dimer", "hubbard_dimer_energy", "materialize",
    "read_fcidump", "run_pure",
]


def __getattr__(name: str):
    # the command line is imported on first use, so that ``python -m
    # corrvec.cli`` runs it once, as __main__, and not a second time
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
