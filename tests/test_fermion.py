"""Fermionic operator mapping: ladder strings, number operators, ordering."""

import numpy as np
import pytest

from corrvec.fermion import (
    BlockedSpinOrbitals,
    hamiltonian_to_qubits,
    ladder_pauli,
    number_operator,
    number_penalty,
    total_spin_squared,
)
from corrvec.molham import hubbard_dimer
from corrvec.oracle import exact_ground, materialize
from corrvec.pauli import PauliSum


def anticommutator(a, b):
    return a * b + b * a


def norm1(op):
    return sum(abs(c) for _, c in op)


def test_blocked_ordering():
    layout = BlockedSpinOrbitals(3)
    assert layout.n_modes == 6
    assert layout.index(0, 0) == 0
    assert layout.index(2, 0) == 2
    assert layout.index(0, 1) == 3
    assert layout.index(2, 1) == 5


def test_closed_shell_modes():
    layout = BlockedSpinOrbitals(3)
    assert layout.closed_shell_modes(4) == [0, 1, 3, 4]
    assert layout.closed_shell_modes(0) == []
    with pytest.raises(ValueError):
        layout.closed_shell_modes(3)
    with pytest.raises(ValueError):
        layout.closed_shell_modes(8)


def test_jordan_wigner_anticommutation_m4():
    m = 4
    lower = [ladder_pauli(p, False, m) for p in range(m)]
    raise_ = [ladder_pauli(p, True, m) for p in range(m)]
    for p in range(m):
        for q in range(m):
            mixed = anticommutator(lower[p], raise_[q])
            expected = PauliSum.identity(m) if p == q else PauliSum(m)
            assert norm1(mixed - expected) < 1e-12
            assert norm1(anticommutator(lower[p], lower[q])) < 1e-12
            assert norm1(anticommutator(raise_[p], raise_[q])) < 1e-12


def test_ladder_adjoint_pair():
    m = 3
    for p in range(m):
        a = ladder_pauli(p, False, m)
        assert norm1(a.adjoint() - ladder_pauli(p, True, m)) < 1e-14


def test_number_operator_counts_bits():
    m = 3
    diag = np.diag(materialize(number_operator(m))).real
    for b in range(1 << m):
        assert diag[b] == pytest.approx(bin(b).count("1"), abs=1e-12)


def test_hamiltonian_is_hermitian_and_number_conserving(dimer_integrals):
    h_op = dimer_integrals.to_qubits()
    assert h_op.is_hermitian()
    n_op = number_operator(h_op.width)
    comm = h_op * n_op - n_op * h_op
    assert norm1(comm) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e8])
def test_hermiticity_guard_scales_with_the_matrix(scale):
    """Q D Q^T is symmetric up to round-off at any scale, and passes; an
    asymmetry far above round-off fails even on tiny entries."""
    rng = np.random.default_rng(11)
    g = np.zeros((3,) * 4)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        h = (q * (scale * rng.normal(size=3))) @ q.T
        hamiltonian_to_qubits(h, g, 0.0)
    with pytest.raises(ValueError, match="not hermitian"):
        hamiltonian_to_qubits(np.array([[0.0, 1e-11], [0.0, 0.0]]) * scale,
                              np.zeros((2,) * 4), 0.0)


def test_chemical_potential_shifts_sector_energy():
    ints = hubbard_dimer(1.0, 4.0)
    mu = 0.37
    e_plain, _ = exact_ground(ints.to_qubits(), 2)
    e_shift, _ = exact_ground(ints.to_qubits(mu=mu), 2)
    assert e_shift == pytest.approx(e_plain - mu * 2, abs=1e-10)
    # the shifted operator still commutes with the number operator
    h_mu = ints.to_qubits(mu=mu)
    n_op = number_operator(h_mu.width)
    assert norm1(h_mu * n_op - n_op * h_mu) < 1e-10


def test_one_body_spectrum_is_orbital_filling():
    # one-body only: every eigenvalue is a sum of single-particle energies
    rng = np.random.default_rng(5)
    n_orb = 2
    h1 = rng.normal(size=(n_orb, n_orb))
    h1 = 0.5 * (h1 + h1.T)
    g = np.zeros((n_orb,) * 4)
    h_op = hamiltonian_to_qubits(h1, g, 0.0)
    eps = np.linalg.eigvalsh(h1)
    subsets = [(), (0,), (1,), (0, 1)]
    expected = sorted(
        sum(eps[list(up)]) + sum(eps[list(dn)])
        for up in subsets for dn in subsets
    )
    dense = np.linalg.eigvalsh(materialize(h_op))
    assert np.allclose(np.sort(dense), expected, atol=1e-10)


def test_number_penalty_vanishes_on_target_sector():
    m, target = 4, 2
    pen = number_penalty(m, target, 1.7)
    diag = np.diag(materialize(pen)).real
    for b in range(1 << m):
        n = bin(b).count("1")
        expect = 1.7 * (n - target) ** 2
        assert diag[b] == pytest.approx(expect, abs=1e-10)
    assert pen.is_hermitian()


def test_total_spin_squared_eigenvalues():
    s2 = total_spin_squared(2)
    assert s2.is_hermitian()
    dense = materialize(s2)
    vals = np.linalg.eigvalsh(dense)
    assert vals.min() > -1e-12
    allowed = np.array([0.0, 0.75, 2.0])
    for v in vals:
        assert np.min(np.abs(allowed - v)) < 1e-10
    # singlet kernel: vacuum, filled shell, and three two-electron singlets
    assert np.sum(vals < 1e-10) == 5


def test_total_spin_squared_classifies_h2_states(h2_hamiltonian, h2_ground):
    _, psi0 = h2_ground
    s2 = materialize(total_spin_squared(2))
    h = materialize(h2_hamiltonian)
    assert np.linalg.norm(h @ s2 - s2 @ h) < 1e-10
    assert np.vdot(psi0, s2 @ psi0).real == pytest.approx(0.0, abs=1e-10)
    # the lowest excited level in the two-electron sector is a triplet
    vals, vecs = np.linalg.eigh(h + 10.0 * materialize(number_penalty(4, 2, 1.0)))
    trip = vecs[:, 1]
    assert np.vdot(trip, s2 @ trip).real == pytest.approx(2.0, abs=1e-8)
