"""Dense reference machinery: sectors, resolvents, Lehmann spectra."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrvec.fermion import hamiltonian_to_qubits, ladder_pauli, number_operator
from corrvec.greens import g0
from corrvec.molham import hubbard_dimer
from corrvec.oracle import (
    GreensOracle,
    embed_sector_vector,
    exact_ground,
    materialize,
    project_to_sector,
    sector_basis,
)
from corrvec.pauli import PauliSum, apply_sum
from kron_reference import sum_matrix
from oracle_reference import (add_at_projection, broadened_trace_integral,
                              dense_h_prime, exact_correction_vector,
                              expand_spin, solve_greens, spectral_sum_budget)


def test_materialize_bit_order():
    # qubit 0 is the least significant bit of the basis index
    z0 = PauliSum(2, {"ZI": 1.0})
    assert np.allclose(np.diag(materialize(z0)).real, [1, -1, 1, -1])
    z1 = PauliSum(2, {"IZ": 1.0})
    assert np.allclose(np.diag(materialize(z1)).real, [1, 1, -1, -1])
    x0 = materialize(PauliSum(2, {"XI": 1.0}))
    assert x0[1, 0] == 1 and x0[3, 2] == 1


def test_materialize_matches_sparse_application(rng):
    """The dense matrix and the sparse action, each against the kron
    products of one-qubit matrices."""
    labels = ["XYZ", "ZZI", "IXY", "YII"]
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    op = PauliSum(3, dict(zip(labels, coeffs)))
    dense = sum_matrix(op)
    assert np.allclose(materialize(op), dense, atol=1e-12)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(dense @ psi, apply_sum(op, psi), atol=1e-12)


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


def test_resolvent_routes_agree(h2_hamiltonian, h2_ground, h2_oracle):
    e0, psi0 = h2_ground
    zs = np.array([0.3 + 0.07j, -0.6 + 0.05j, 10j])
    ref = solve_greens(h2_hamiltonian, e0, psi0, zs, 2)
    for z, g in zip(zs, ref):
        assert np.max(np.abs(h2_oracle.matrix(z) - g)) < 1e-10
    series = h2_oracle.series(zs)
    assert series.shape == (3, 4, 4)
    assert np.max(np.abs(series - ref)) < 1e-10


def test_full_space_lih_oracle_matches_dense_solves(lih_integrals):
    """The 12-qubit LiH oracle against one dense solve per branch and
    frequency on the whole N+1 and N-1 sector blocks."""
    h_op = lih_integrals.to_qubits()
    m, n = h_op.width, lih_integrals.n_elec
    assert (m, n) == (12, 4)
    e0, psi0 = exact_ground(h_op, n)
    block = project_to_sector(h_op, sector_basis(m, n))
    assert block.shape == (495, 495)
    assert e0 == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-10)
    oracle = GreensOracle(h_op, e0, psi0, n)
    # the N+1 sector splits: one dense block would give all 792 poles
    assert oracle.particle[0].size < sector_basis(m, n + 1).size == 792
    zs = np.array([-1.3 + 0.05j, 0.2 + 0.1j, 0.9 + 0.02j])
    g = oracle.series(zs)
    ref = solve_greens(h_op, e0, psi0, zs, n,
                      sector_block=lambda basis: project_to_sector(h_op, basis))
    assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))
    # spin-up and spin-down orbitals never mix
    half = m // 2
    assert np.all(g[:, :half, half:] == 0) and np.all(g[:, half:, :half] == 0)


def test_oracle_validates_state_dimension(h2_hamiltonian):
    with pytest.raises(ValueError):
        GreensOracle(h2_hamiltonian, -0.9, np.zeros(8), 2)


def test_free_fermion_resolvent_is_mean_field():
    ints = hubbard_dimer(1.0, 0.0)
    h_op = ints.to_qubits()
    e0, psi0 = exact_ground(h_op, 2)
    assert e0 == pytest.approx(-2.0, abs=1e-12)
    f = expand_spin(ints.h)
    oracle = GreensOracle(h_op, e0, psi0, 2)
    for z in (0.4 + 0.1j, -1.3 + 0.05j, 2j):
        g = oracle.matrix(z)
        assert np.max(np.abs(g - g0(f, z))) < 1e-10


def test_lehmann_weights_are_complete(h2_oracle):
    (_, wp), (_, wh) = h2_oracle.particle, h2_oracle.hole
    total = np.einsum("ki,kj->ij", wp.conj(), wp) \
        + np.einsum("kj,ki->ij", wh.conj(), wh)
    assert np.allclose(total, np.eye(4), atol=1e-10)
    assert total.trace().real == pytest.approx(4.0, abs=1e-10)


def test_high_frequency_tail(h2_oracle):
    z = 1e6j
    g = h2_oracle.matrix(z)
    assert np.max(np.abs(z * g - np.eye(4))) < 5e-6


def test_broadened_integral_matches_quadrature(h2_oracle):
    eta = 0.05
    omegas = np.linspace(-2.0, 2.0, 4001)
    vals = np.array([-np.trace(h2_oracle.matrix(w + 1j * eta)).imag / np.pi
                     for w in omegas])
    quad = np.trapezoid(vals, omegas)
    exact = broadened_trace_integral(h2_oracle, omegas, eta)
    assert quad == pytest.approx(exact, abs=1e-4)

    budget = spectral_sum_budget(h2_oracle, omegas, eta)
    assert budget >= 0
    assert budget == pytest.approx(4.0 - exact, abs=1e-12)
    wide = np.linspace(-200.0, 200.0, 11)
    assert spectral_sum_budget(h2_oracle, wide, eta) < 1e-3


# property tests: each sets its number of examples on top of the suite's
# derandomized profile (conftest.py)
def _hopping_and_density(m, t, u):
    """sum_ij t_ij c+_i c_j + sum_{i<j} u_ij n_i n_j on m modes."""
    out = PauliSum(m)
    cd = [ladder_pauli(j, True, m) for j in range(m)]
    c = [ladder_pauli(j, False, m) for j in range(m)]
    for i in range(m):
        for j in range(m):
            if t[i, j] != 0:
                out = out + t[i, j] * (cd[i] * c[j])
            if i < j and u[i, j] != 0:
                out = out + u[i, j] * (cd[i] * c[i] * cd[j] * c[j])
    return out


def _spin_hamiltonian(rng, n_orb):
    """Random spin-independent one-body and density-density terms on n_orb
    spatial orbitals: every sector splits by each spin's count, and at an
    odd particle count the ground state is degenerate across the two
    blocks related by a spin flip."""
    h = rng.normal(size=(n_orb, n_orb))
    g = np.zeros((n_orb,) * 4)
    for p in range(n_orb):
        for q in range(n_orb):
            g[p, q, p, q] = g[q, p, q, p] = abs(rng.normal())
    return hamiltonian_to_qubits((h + h.T) / 2, g, 0.0)


@st.composite
def conserving_hamiltonians(draw):
    """A particle-conserving Hamiltonian on 4-6 modes and a sector of it.

    Complex hopping gives blocks with an imaginary part; a degenerate case
    drops the interaction and repeats one-body levels, so poles coincide;
    the spin case has spin-up and spin-down copies of every pole.
    """
    kind = draw(st.sampled_from(("real", "complex", "degenerate",
                                 "degenerate complex", "spin")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "spin":
        h_op = _spin_hamiltonian(rng, draw(st.integers(2, 3)))
        m = h_op.width
    else:
        m = draw(st.integers(4, 6))
        a = rng.normal(size=(m, m))
        if "complex" in kind:
            a = a + 1j * rng.normal(size=(m, m))
        t = (a + a.conj().T) / 2
        u = rng.normal(size=(m, m))
        if "degenerate" in kind:
            _, vecs = np.linalg.eigh(t)
            levels = rng.choice([-1.0, 0.5], size=m)
            t = (vecs * levels) @ vecs.conj().T
            u = np.zeros((m, m))
        h_op = _hopping_and_density(m, t, u)
    n = draw(st.one_of(st.none(), st.integers(0, m)))
    return kind, h_op, n


@settings(max_examples=40)
@given(conserving_hamiltonians(),
       st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.02, 1.0)),
                min_size=1, max_size=4))
# ground states degenerate across the two spin-flipped blocks
@example(("spin", _spin_hamiltonian(np.random.default_rng(5), 2), 1),
         [(-0.4, 0.1), (1.2, 0.05)])
@example(("spin", _spin_hamiltonian(np.random.default_rng(6), 3), 3),
         [(0.3, 0.2)])
def test_spectral_oracle_matches_solve_route(case, points):
    kind, h_op, n = case
    m = h_op.width
    e0, psi0 = exact_ground(h_op, n)
    basis = np.arange(1 << m) if n is None else sector_basis(m, n)
    block = materialize(h_op)[np.ix_(basis, basis)]
    assert e0 == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-10)
    assert np.linalg.norm(psi0[basis]) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(block @ psi0[basis] - e0 * psi0[basis]) <= 1e-10
    oracle = GreensOracle(h_op, e0, psi0, n)
    for poles, weights in (oracle.particle, oracle.hole):
        if poles.size and "complex" not in kind:
            assert np.isrealobj(weights)
    if "complex" in kind and n is not None and 0 < n < m:
        assert np.iscomplexobj(oracle.particle[1])
    zs = np.array([x + 1j * eta for x, eta in points])
    g = oracle.series(zs)
    ref = solve_greens(h_op, e0, psi0, zs, n)
    assert np.max(np.abs(g - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


@st.composite
def operators_and_bases(draw):
    """A random Pauli sum and an ascending basis: a particle-number sector
    or any subset of the register."""
    m = draw(st.integers(1, 6))
    labels = draw(st.lists(st.text("IXYZ", min_size=m, max_size=m),
                           min_size=0, max_size=12))
    coeffs = draw(st.lists(st.complex_numbers(max_magnitude=3.0),
                           min_size=len(labels), max_size=len(labels)))
    if draw(st.booleans()):
        basis = sector_basis(m, draw(st.integers(0, m)))
    else:
        basis = np.array(sorted(draw(st.sets(st.integers(0, (1 << m) - 1)))),
                         dtype=np.int64)
    return PauliSum(m, list(zip(labels, coeffs))), basis


@settings(max_examples=60)
@given(operators_and_bases())
def test_project_to_sector_matches_dense_block(case):
    op, basis = case
    block = project_to_sector(op, basis)
    assert block.shape == (basis.shape[0],) * 2
    dense = sum_matrix(op)[np.ix_(basis, basis)]
    assert np.max(np.abs(block - dense), initial=0.0) <= 1e-12
    assert np.array_equal(block.view(np.uint64),
                          add_at_projection(op, basis).view(np.uint64))


@pytest.mark.parametrize("mu", [0.0, 0.35])
@pytest.mark.parametrize("name", ["lih_integrals", "lih_cas"])
def test_project_to_sector_is_bit_identical_to_add_at(request, name, mu):
    """Every sector block of full-space LiH and of its CAS(2,2), bit for
    bit, against the blocks summed with np.add.at."""
    op = request.getfixturevalue(name).to_qubits(mu=mu)
    for n in range(op.width + 1):
        basis = sector_basis(op.width, n)
        assert np.array_equal(project_to_sector(op, basis).view(np.uint64),
                              add_at_projection(op, basis).view(np.uint64)), n
