"""Variational correction-vector toolkit for frequency-domain Green's
functions: Pauli algebra, fermion-to-qubit mapping, statevector and
density-matrix circuit simulation, Rotosolve VQE, per-frequency
correction-vector solves, spectral assembly, active-space embedding, and
dense-diagonalization references.
"""

from .circuits import (Circuit, MeasurementSettings, NoiseModel,
                       OverlapEngine, run_density, run_pure,
                       sample_pauli_expectation, zne_extrapolate)
from .config import ConfigError, RunConfig, load_config
from .fermion import (BlockedSpinOrbitals, hamiltonian_to_qubits,
                      ladder_pauli, number_operator, number_penalty,
                      total_spin_squared)
from .greens import (FrequencyGrid, dyson_embed, expand_spin, g0,
                     matsubara_grid, nondyson_embed, retarded_grid,
                     spin_up_block, trace_spectrum)
from .molham import (MolecularIntegrals, build_cas, fock_matrix,
                     givens_rotation, hubbard_dimer, hubbard_dimer_energy,
                     read_fcidump, rotate_orbitals, write_fcidump)
from .oracle import GreensOracle, exact_ground
from .pauli import PauliSum
from .solver import (CorrectionProblem, PointRecord, SolverOptions,
                     assemble_matrices, solve_column,
                     solve_correction_vector, sweep_columns)
from .vqe import (AnsatzSpec, build_hea, grow_hea_angles, hf_start_angles,
                  rotosolve_sweep, vqe_ground_state)

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec", "BlockedSpinOrbitals", "Circuit", "ConfigError",
    "CorrectionProblem", "FrequencyGrid", "GreensOracle",
    "MeasurementSettings", "MolecularIntegrals", "NoiseModel",
    "OverlapEngine", "PauliSum", "PointRecord", "RunConfig",
    "SolverOptions", "assemble_matrices", "build_cas", "build_hea",
    "dyson_embed", "exact_ground", "expand_spin", "fock_matrix", "g0",
    "givens_rotation", "grow_hea_angles", "hamiltonian_to_qubits",
    "hf_start_angles", "hubbard_dimer", "hubbard_dimer_energy",
    "ladder_pauli", "load_config",
    "matsubara_grid", "nondyson_embed", "number_operator",
    "number_penalty", "read_fcidump",
    "retarded_grid", "rotate_orbitals", "rotosolve_sweep", "run_density",
    "run_pure", "sample_pauli_expectation", "solve_column",
    "solve_correction_vector", "spin_up_block", "sweep_columns",
    "total_spin_squared", "trace_spectrum", "vqe_ground_state",
    "write_fcidump", "zne_extrapolate",
]
