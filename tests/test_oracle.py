"""Dense reference machinery: sectors, resolvents, Lehmann spectra."""

import numpy as np
import pytest

from corrvec.fermion import number_operator
from corrvec.greens import expand_spin, g0
from corrvec.molham import hubbard_dimer
from corrvec.oracle import (
    GreensOracle,
    broadened_trace_integral,
    embed_sector_vector,
    exact_greens_function,
    exact_ground,
    greens_from_lehmann,
    lehmann_decomposition,
    materialize,
    project_to_sector,
    sector_basis,
    spectral_sum_budget,
)
from corrvec.pauli import PauliSum, apply_sum
from oracle_reference import dense_h_prime, exact_correction_vector


def test_materialize_bit_order():
    # qubit 0 is the least significant bit of the basis index
    z0 = PauliSum(2, {"ZI": 1.0})
    assert np.allclose(np.diag(materialize(z0)).real, [1, -1, 1, -1])
    z1 = PauliSum(2, {"IZ": 1.0})
    assert np.allclose(np.diag(materialize(z1)).real, [1, 1, -1, -1])
    x0 = materialize(PauliSum(2, {"XI": 1.0}))
    assert x0[1, 0] == 1 and x0[3, 2] == 1


def test_materialize_matches_sparse_application(rng):
    labels = ["XYZ", "ZZI", "IXY", "YII"]
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    op = PauliSum(3, dict(zip(labels, coeffs)))
    mat = materialize(op)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(mat @ psi, apply_sum(op, psi), atol=1e-12)


def test_materialize_refuses_large_registers():
    with pytest.raises(ValueError):
        materialize(PauliSum.identity(15))


def test_sector_projection_roundtrip(dimer_hamiltonian):
    basis = sector_basis(4, 2)
    assert basis.shape == (6,)
    assert np.all(np.diff(basis) > 0)
    assert all(bin(int(b)).count("1") == 2 for b in basis)

    num_block = project_to_sector(number_operator(4), basis)
    assert np.allclose(num_block, 2 * np.eye(6), atol=1e-12)

    block = project_to_sector(dimer_hamiltonian, basis)
    assert np.allclose(block, block.conj().T, atol=1e-12)
    sector_vals = np.linalg.eigvalsh(block)
    full_vals = np.linalg.eigvalsh(materialize(dimer_hamiltonian))
    for v in sector_vals:
        assert np.min(np.abs(full_vals - v)) < 1e-10

    vec = np.arange(1.0, 7.0)
    full = embed_sector_vector(vec, basis, 4)
    assert full.shape == (16,)
    assert np.array_equal(full[basis], vec)
    mask = np.ones(16, bool)
    mask[basis] = False
    assert np.all(full[mask] == 0)


def test_exact_ground_sectors(dimer_hamiltonian):
    e2, psi2 = exact_ground(dimer_hamiltonian, 2)
    assert e2 == pytest.approx(-0.82842712474619, abs=1e-12)
    assert np.vdot(psi2, psi2).real == pytest.approx(1.0, abs=1e-12)
    resid = apply_sum(dimer_hamiltonian, psi2) - e2 * psi2
    assert np.linalg.norm(resid) < 1e-10
    # one hopping electron: lowest one-body level of [[0,-t],[-t,0]]
    e1, _ = exact_ground(dimer_hamiltonian, 1)
    assert e1 == pytest.approx(-1.0, abs=1e-12)
    e_any, _ = exact_ground(dimer_hamiltonian)
    assert e_any <= min(e1, e2) + 1e-12


def test_exact_correction_vector_solves_shifted_system(h2_hamiltonian,
                                                       h2_ground, rng):
    e0, psi0 = h2_ground
    z = 0.8 + 0.1j
    rhs = rng.normal(size=16) + 1j * rng.normal(size=16)
    for sign in (-1, +1):
        chi = exact_correction_vector(h2_hamiltonian, e0, z, sign, rhs)
        mat = materialize(h2_hamiltonian)
        q = z * np.eye(16) + sign * (mat - e0 * np.eye(16))
        assert np.linalg.norm(q @ chi - rhs) < 1e-10


def test_dense_h_prime_is_psd_with_correction_kernel(h2_hamiltonian,
                                                     h2_ground):
    e0, psi0 = h2_ground
    z = 0.5 + 0.2j
    sign = -1
    v_psi0 = apply_sum(PauliSum(4, {"XIII": 0.7, "IYII": 0.4}), psi0)
    hp = dense_h_prime(h2_hamiltonian, e0, z, sign, v_psi0)
    assert np.allclose(hp, hp.conj().T, atol=1e-12)
    vals = np.linalg.eigvalsh(hp)
    assert vals.min() > -1e-10
    chi = exact_correction_vector(h2_hamiltonian, e0, z, sign, v_psi0)
    chi_hat = chi / np.linalg.norm(chi)
    assert np.vdot(chi_hat, hp @ chi_hat).real < 1e-10
    with pytest.raises(ValueError):
        dense_h_prime(h2_hamiltonian, e0, z, sign, np.zeros(16))


def test_resolvent_routes_agree(h2_hamiltonian, h2_ground, h2_oracle,
                                h2_lehmann):
    e0, psi0 = h2_ground
    for z in (0.3 + 0.07j, -0.6 + 0.05j, 10j):
        ref = greens_from_lehmann(h2_lehmann, z)
        assert np.max(np.abs(h2_oracle.matrix(z) - ref)) < 1e-10
        direct = exact_greens_function(h2_hamiltonian, e0, psi0, z, 2)
        assert np.max(np.abs(direct - ref)) < 1e-10
    series = h2_oracle.series(np.array([0.3 + 0.07j, 10j]))
    assert series.shape == (2, 4, 4)


def test_oracle_validates_state_dimension(h2_hamiltonian):
    with pytest.raises(ValueError):
        GreensOracle(h2_hamiltonian, -0.9, np.zeros(8), 2)


def test_free_fermion_resolvent_is_mean_field():
    ints = hubbard_dimer(1.0, 0.0)
    h_op = ints.to_qubits()
    e0, psi0 = exact_ground(h_op, 2)
    assert e0 == pytest.approx(-2.0, abs=1e-12)
    f = expand_spin(ints.h)
    for z in (0.4 + 0.1j, -1.3 + 0.05j, 2j):
        g = exact_greens_function(h_op, e0, psi0, z, 2)
        assert np.max(np.abs(g - g0(f, z))) < 1e-10


def test_lehmann_weights_are_complete(h2_lehmann):
    wp, wh = h2_lehmann.weights_particle, h2_lehmann.weights_hole
    total = np.einsum("ki,kj->ij", wp.conj(), wp) \
        + np.einsum("kj,ki->ij", wh.conj(), wh)
    assert np.allclose(total, np.eye(4), atol=1e-10)
    assert total.trace().real == pytest.approx(4.0, abs=1e-10)


def test_high_frequency_tail(h2_lehmann):
    z = 1e6j
    g = greens_from_lehmann(h2_lehmann, z)
    assert np.max(np.abs(z * g - np.eye(4))) < 5e-6


def test_broadened_integral_matches_quadrature(h2_lehmann):
    eta = 0.05
    omegas = np.linspace(-2.0, 2.0, 4001)
    vals = np.array([-np.trace(greens_from_lehmann(h2_lehmann,
                                                   w + 1j * eta)).imag / np.pi
                     for w in omegas])
    quad = np.trapezoid(vals, omegas)
    exact = broadened_trace_integral(h2_lehmann, omegas, eta)
    assert quad == pytest.approx(exact, abs=1e-4)

    budget = spectral_sum_budget(h2_lehmann, omegas, eta)
    assert budget >= 0
    assert budget == pytest.approx(4.0 - exact, abs=1e-12)
    wide = np.linspace(-200.0, 200.0, 11)
    assert spectral_sum_budget(h2_lehmann, wide, eta) < 1e-3
