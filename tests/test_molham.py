"""Molecular integral handling: file format, model systems, active spaces."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from corrvec.molham import (
    MolecularIntegrals,
    build_cas,
    fock_matrix,
    hubbard_dimer,
    hubbard_dimer_energy,
    read_fcidump,
)
from corrvec.oracle import exact_ground
from molham_reference import (four_ladder_hamiltonian, givens_rotation,
                              rotate_orbitals)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from fcidump import write_fcidump  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


def test_fcidump_roundtrip(tmp_path, h2_integrals):
    path = tmp_path / "roundtrip.fcidump"
    write_fcidump(h2_integrals, str(path))
    back = read_fcidump(str(path))
    assert back.n_orb == h2_integrals.n_orb
    assert back.n_elec == h2_integrals.n_elec
    assert back.e_const == pytest.approx(h2_integrals.e_const, abs=1e-12)
    assert np.allclose(back.h, h2_integrals.h, atol=1e-12)
    assert np.allclose(back.g, h2_integrals.g, atol=1e-12)


@pytest.mark.parametrize("name, mu", [
    ("lih_integrals", 0.0), ("lih_cas", 0.0), ("h2_integrals", 0.0),
    ("dimer_integrals", 0.0), ("lih_cas", 0.35)])
def test_qubit_terms_match_the_four_ladder_route(request, name, mu):
    """Built from cached ladder pairs, every coefficient and the order of
    the terms equal those of the chain of single ladder operators, so every
    compiled form downstream is unchanged."""
    ints = request.getfixturevalue(name)
    op = ints.to_qubits(mu=mu)
    ref = four_ladder_hamiltonian(ints.h, ints.g, ints.e_const, mu=mu)
    assert list(op.masks.items()) == list(ref.masks.items())


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        read_fcidump(str(FIXTURES / "no_such.fcidump"))


def test_two_body_tensor_has_eightfold_symmetry(lih_integrals):
    g = lih_integrals.g
    for perm in ((2, 1, 0, 3), (0, 3, 2, 1), (1, 0, 3, 2)):
        assert np.allclose(g, np.transpose(g, perm), atol=1e-12)


def test_hubbard_dimer_ground_energy():
    for t, u in ((1.0, 2.0), (1.0, 4.0), (0.5, 3.0)):
        h_op = hubbard_dimer(t, u).to_qubits()
        e0, _ = exact_ground(h_op, 2)
        analytic = hubbard_dimer_energy(t, u)
        assert analytic == pytest.approx((u - np.sqrt(u * u + 16 * t * t)) / 2, abs=1e-12)
        assert e0 == pytest.approx(analytic, abs=1e-10)


def test_h2_full_ci_energy(h2_ground):
    e0, _ = h2_ground
    assert e0 == pytest.approx(-0.9486411121730286, abs=1e-9)


def test_lih_cas_ground_energy(lih_cas_ground):
    e0, _ = lih_cas_ground
    assert e0 == pytest.approx(-7.831533624711705, abs=1e-8)


def test_cas_covering_all_orbitals_is_identity(h2_integrals):
    cas = build_cas(h2_integrals, (0, 1))
    assert cas.n_orb == h2_integrals.n_orb
    assert cas.n_elec == h2_integrals.n_elec
    assert cas.e_const == pytest.approx(h2_integrals.e_const, abs=1e-12)
    assert np.allclose(cas.h, h2_integrals.h, atol=1e-12)
    assert np.allclose(cas.g, h2_integrals.g, atol=1e-12)


def test_cas_partition_shapes(lih_integrals, lih_cas):
    cas = lih_cas
    assert cas.n_orb == 2
    assert cas.n_elec == 2
    assert cas.h.shape == (2, 2)
    assert cas.g.shape == (2, 2, 2, 2)
    # the frozen core carries a large negative electronic energy
    assert cas.e_const - lih_integrals.e_const < -5.0


def test_cas_energy_between_mean_field_and_full(lih_cas_ground):
    e_cas, _ = lih_cas_ground
    scf = json.loads((FIXTURES / "lih_2.0.json").read_text())["scf_energy"]
    e_fci = -7.861087772476694
    assert e_fci < e_cas < scf


def test_cas_rejects_bad_active_sets(h2_integrals):
    with pytest.raises(ValueError):
        build_cas(h2_integrals, (0, 5))
    with pytest.raises(ValueError):
        build_cas(h2_integrals, ())


def test_givens_rotation_is_orthogonal():
    q = givens_rotation(4, 1, 3, 0.7)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
    assert q[1, 1] == pytest.approx(np.cos(0.7))
    assert q[0, 0] == 1.0


def test_rotate_orbitals_identity(h2_integrals):
    rot = rotate_orbitals(h2_integrals, np.eye(2))
    assert np.allclose(rot.h, h2_integrals.h, atol=1e-14)
    assert np.allclose(rot.g, h2_integrals.g, atol=1e-14)


def test_rotate_orbitals_requires_orthogonal(h2_integrals):
    with pytest.raises(ValueError):
        rotate_orbitals(h2_integrals, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_full_ci_energy_is_rotation_invariant(h2_integrals, h2_ground):
    e_ref, _ = h2_ground
    rot = rotate_orbitals(h2_integrals, givens_rotation(2, 0, 1, 0.3))
    e_rot, _ = exact_ground(rot.to_qubits(), 2)
    assert e_rot == pytest.approx(e_ref, abs=1e-10)


def test_fock_matrix_is_diagonal_on_canonical_orbitals(lih_integrals):
    f = fock_matrix(lih_integrals)
    sidecar = json.loads((FIXTURES / "lih_2.0.json").read_text())
    eps = np.array(sidecar["orbital_energies"])
    assert np.allclose(np.diag(f), eps, atol=1e-6)
    off = f - np.diag(np.diag(f))
    assert np.abs(off).max() < 1e-6


def test_integrals_validation():
    with pytest.raises(ValueError):
        MolecularIntegrals(n_orb=2, h=np.zeros((3, 3)), g=np.zeros((2,) * 4),
                           e_const=0.0, n_elec=2)
