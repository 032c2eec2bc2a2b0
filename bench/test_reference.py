"""Self-test of the benchmark's dense references against corrvec's oracle.

    python3 -m pytest bench/test_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from reference import (SectorGreens, aposteriori_bound, hea_state,  # noqa: E402
                       hubbard_dimer_energy, pauli_dense, sector_basis)

from corrvec.circuits import run_pure  # noqa: E402
from corrvec.molham import hubbard_dimer, read_fcidump  # noqa: E402
from corrvec.molham import hubbard_dimer_energy as corrvec_dimer_energy  # noqa: E402
from corrvec.oracle import GreensOracle, exact_ground, materialize  # noqa: E402
from corrvec.vqe import AnsatzSpec, build_hea  # noqa: E402

ZS = np.linspace(-2.0, 2.0, 7) + 0.05j


def _systems():
    yield "dimer", hubbard_dimer(1.0, 2.0).to_qubits()
    yield "h2", read_fcidump(str(BENCH / "fixtures" / "h2_2.0.fcidump")).to_qubits()


@pytest.mark.parametrize("name,h", list(_systems()))
def test_dense_matrix_matches_materialize(name, h):
    assert np.abs(pauli_dense(list(h), h.width) - materialize(h)).max() < 1e-12


@pytest.mark.parametrize("name,h", list(_systems()))
def test_hamiltonian_conserves_particle_number(name, h):
    mat = pauli_dense(list(h), h.width)
    n = np.diag(np.bitwise_count(np.arange(1 << h.width)).astype(float))
    assert np.abs(mat @ n - n @ mat).max() < 1e-12


@pytest.mark.parametrize("name,h", list(_systems()))
def test_sector_greens_matches_oracle(name, h):
    ref = SectorGreens(list(h), h.width, 2)
    e0, psi0 = exact_ground(h, n_particles=2)
    assert abs(ref.e0 - e0) < 1e-12
    oracle = GreensOracle(h, e0, psi0, n_particles=2)
    assert np.abs(ref.series(ZS) - oracle.series(ZS)).max() < 1e-10


def test_dimer_closed_form():
    for t, u in ((1.0, 2.0), (0.5, 4.0)):
        h = hubbard_dimer(t, u).to_qubits()
        ref = SectorGreens(list(h), 4, 2)
        assert abs(hubbard_dimer_energy(t, u) - ref.e0) < 1e-12
        assert abs(hubbard_dimer_energy(t, u) - corrvec_dimer_energy(t, u)) < 1e-12


def test_sector_basis_counts():
    assert sector_basis(6, 3).size == 20
    assert np.all(np.bitwise_count(sector_basis(6, 2)) == 2)


def test_hea_state_matches_circuit_simulation():
    rng = np.random.default_rng(3)
    for depth, pattern in ((1, ("RY", "RZ")), (3, ("RY", "RZ")), (2, ("RX", "RY"))):
        spec = AnsatzSpec(4, depth, pattern)
        theta = rng.uniform(-np.pi, np.pi, spec.n_slots)
        psi = run_pure(build_hea(spec), theta)
        assert np.abs(hea_state(4, depth, pattern, theta) - psi).max() < 1e-12


def test_bound_holds_for_perturbed_correction_vector():
    """Exact G plus the error of a perturbed correction vector stays inside
    the bound computed from that vector's residual."""
    h = hubbard_dimer(1.0, 2.0).to_qubits()
    ref = SectorGreens(list(h), 4, 2)
    mat = pauli_dense(list(h), 4)
    eta, z, j = 0.05, 0.3 + 0.05j, 0
    q = z * np.eye(16) - (mat - ref.e0 * np.eye(16))
    v = np.zeros(16, dtype=complex)
    for b in range(16):
        if not b & 1:
            v[b | 1] = ref.psi0[b]
    chi = np.linalg.solve(q, v)
    rng = np.random.default_rng(0)
    for _ in range(20):
        phi = chi + 0.05 * np.linalg.norm(chi) * (rng.normal(size=16) + 1j * rng.normal(size=16))
        phi /= np.linalg.norm(phi)
        qphi = q @ phi
        vv = np.vdot(v, v).real
        gamma = vv / np.vdot(v, qphi)
        r = (np.vdot(qphi, qphi).real - abs(np.vdot(v, qphi)) ** 2 / vv) / vv
        err = np.linalg.norm(gamma * phi - chi)
        assert err <= aposteriori_bound(gamma, r, 0.0, 0.0, eta, 0.0, 0.0)
